"""Paired perf benchmark runs of a parent revision against the working tree.

Extracts the parent revision with ``git archive`` into a temporary
directory, then runs ``benchmarks/perf/run.py --trace 0`` (end-to-end
metrics only) once on each side per pair, alternating which side runs
first, and finally runs ``benchmarks/perf/compare.py`` over all the result
files (parent first in each pair, as compare.py expects).  Each side runs
its own ``run.py``, which imports its own ``src/``.  Times drift with
machine load, so run nothing else alongside.

Usage::

    python tools/perf_pairs.py --parent REV [--pairs N] [RUN.PY OPTIONS ...]

Any option this script does not know (``--workload``, ``--seed``, ...) is
passed to both sides' ``run.py`` unchanged.  ``make perf-pairs
PARENT=<rev> PAIRS=<n> PERF_ARGS=...`` runs it.  The result files land in
``perf-pairs/``, named ``<pair>-parent.json`` and ``<pair>-change.json``;
the files of an earlier invocation are deleted before the first pair, so
the directory holds exactly one invocation's pairs.
``--parent`` is resolved to a commit once; each parent-side file records
that sha with ``git_dirty: false`` (the archive's directory is no git
repository, so ``run.py`` cannot ask git there).
After compare.py, the script prints each pair's unscaled ``kernel_s`` and
``wall_s`` medians per workload and side, from the result files'
``unscaled`` sections: the calibration kernel's time says how fast the
machine was while a side ran, and a pair whose two kernels differ much was
run across a change of machine speed.
The exit code is compare.py's (1 if any verdict is ``worse``), or 1 with
a message when a side's ``run.py`` crashed.  Under
``--trace 0`` the files hold no per-layer section, so compare.py's count
line covers nothing; per-layer counts need ``run.py --trace 1`` runs.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perf-pairs"
RUN = Path("benchmarks") / "perf" / "run.py"
COMPARE = Path("benchmarks") / "perf" / "compare.py"
PAIR_FILE = re.compile(r"\d+-(parent|change)\.json")


def resolve(rev: str) -> str:
    """The sha of the commit *rev* names."""
    proc = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perf-pairs: {rev!r} names no commit: "
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def stamp_provenance(result: dict, sha: str) -> dict:
    """*result* (a ``run.py --out`` file's content) marked as produced by
    the clean tree of commit *sha*."""
    result["provenance"]["git_sha"] = sha
    result["provenance"]["git_dirty"] = False
    return result


def clear(out_dir: Path) -> None:
    """Delete every pair's result file in *out_dir*, and nothing else."""
    for path in out_dir.iterdir():
        if PAIR_FILE.fullmatch(path.name):
            path.unlink()


def extract(rev: str, dest: Path) -> None:
    """Write the tree of *rev* into *dest*."""
    archive = dest / "tree.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", "--format=tar", rev],
                       cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_side(tree: Path, out: Path, run_args: list[str]) -> None:
    command = [sys.executable, str(RUN), *run_args, "--trace", "0",
               "--out", str(out)]
    print(f"[perf-pairs] {tree}: {' '.join(command[1:])}", flush=True)
    code = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL,
                          check=False).returncode
    # run.py exits 1 when a run fails its output check; it still writes the
    # file, and compare.py's verdicts say what happened.  Anything else
    # (a crash, missing sources) leaves nothing to compare.
    if code not in (0, 1) or not out.exists():
        raise SystemExit(f"perf-pairs: {RUN} in {tree} exited {code} "
                         f"and wrote {'a' if out.exists() else 'no'} result file")


#: The unscaled medians the calibration table shows, in column order.
CALIBRATION = ("kernel_s", "wall_s")


def calibration_table(pairs: list[tuple[Path, Path]]) -> list[str]:
    """One line per workload and pair: the parent's and the change's
    unscaled :data:`CALIBRATION` medians, from the ``(parent, change)``
    result files of each pair."""
    results = [
        (json.loads(parent.read_text()), json.loads(change.read_text()))
        for parent, change in pairs
    ]
    header = f"{'workload':<19} {'pair':>4}" + "".join(
        f" {side + ' ' + key:>16}"
        for key in CALIBRATION for side in ("parent", "change")
    )
    lines = [header]
    workloads = results[0][0]["workloads"] if results else {}
    for name in workloads:
        for pair, sides in enumerate(results):
            unscaled = [
                side["workloads"].get(name, {}).get("unscaled", {})
                for side in sides
            ]
            cells = [
                f"{u[key]['value']:>16.6g}" if key in u else f"{'-':>16}"
                for key in CALIBRATION for u in unscaled
            ]
            lines.append(f"{name:<19} {pair:>4} " + " ".join(cells))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs (compare.py needs 10 to claim a gain)")
    args, run_args = parser.parse_known_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha = resolve(args.parent)
    OUT_DIR.mkdir(exist_ok=True)
    clear(OUT_DIR)
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        extract(sha, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        pairs: list[tuple[Path, Path]] = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = OUT_DIR / f"{pair}-{side}.json"
                run_side(trees[side], out, run_args)
                if side == "parent":
                    result = stamp_provenance(json.loads(out.read_text()), sha)
                    out.write_text(json.dumps(result, indent=1) + "\n")
            pairs.append((OUT_DIR / f"{pair}-parent.json",
                          OUT_DIR / f"{pair}-change.json"))
    files = [str(path) for pair_files in pairs for path in pair_files]
    code = subprocess.run(
        [sys.executable, str(ROOT / COMPARE), *files], check=False
    ).returncode
    print("[perf-pairs] --trace 0 runs: per-layer counts were not compared")
    print("[perf-pairs] unscaled medians per pair (s):")
    for line in calibration_table(pairs):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
