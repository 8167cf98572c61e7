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
``perf-pairs/``, named ``<pair>-parent.json`` and ``<pair>-change.json``.
The exit code is compare.py's (1 if any verdict is ``worse``), or 1 with
a message when a side's ``run.py`` crashed.  Under
``--trace 0`` the files hold no per-layer section, so compare.py's count
line covers nothing; per-layer counts need ``run.py --trace 1`` runs.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perf-pairs"
RUN = Path("benchmarks") / "perf" / "run.py"
COMPARE = Path("benchmarks") / "perf" / "compare.py"


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
    out.unlink(missing_ok=True)  # never let an earlier invocation's file stand in
    code = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL,
                          check=False).returncode
    # run.py exits 1 when a run fails its output check; it still writes the
    # file, and compare.py's verdicts say what happened.  Anything else
    # (a crash, missing sources) leaves nothing to compare.
    if code not in (0, 1) or not out.exists():
        raise SystemExit(f"perf-pairs: {RUN} in {tree} exited {code} "
                         f"and wrote {'a' if out.exists() else 'no'} result file")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs (compare.py needs 10 to claim a gain)")
    args, run_args = parser.parse_known_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        extract(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        files: list[str] = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run_side(trees[side], OUT_DIR / f"{pair}-{side}.json", run_args)
            files += [str(OUT_DIR / f"{pair}-{side}.json")
                      for side in ("parent", "change")]
    code = subprocess.run(
        [sys.executable, str(ROOT / COMPARE), *files], check=False
    ).returncode
    print("[perf-pairs] --trace 0 runs: per-layer counts were not compared")
    return code


if __name__ == "__main__":
    sys.exit(main())
