"""The package imports without the development-only packages.

``pyproject.toml`` lists numpy and scipy as the only runtime dependencies,
and the CI jobs that drive the CLIs install nothing else.  Each test runs a
fresh interpreter whose import system refuses the packages such an install
lacks but a development machine may have.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Importable on a development machine, absent from a runtime install.
BLOCKED = ("networkx", "hypothesis", "pytest")

_BLOCKER = f"""
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {BLOCKED!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
        return None

sys.meta_path.insert(0, Blocker())
"""


def run_blocked(code: str) -> str:
    """Run *code* after the blocker in a fresh interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKER + code],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_entry_points_import_without_dev_packages():
    run_blocked("import repro.experiments, repro.service, repro.chaos\n")


def test_a_run_imports_neither_networkx_nor_scipy_stats():
    # scipy.stats serves only Fig. 3's KS test and takes longer to import
    # than the rest of a run's imports together.
    out = run_blocked(
        "import json\n"
        "import repro.experiments.runner\n"
        "print(json.dumps(sorted({'networkx', 'scipy.stats'} & set(sys.modules))))\n"
    )
    assert json.loads(out) == []


#: Modules a plain rwp/snw/sdsrp run has no use for: worker lanes, sweeps,
#: the opt-in checkers and collectors, and every other router and mobility
#: model.  SciPy's KD-tree imports ``concurrent.futures`` itself, so the
#: lanes' process pool is named by its own module.
NOT_RUN = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.parallel.supervisor",
    "repro.experiments.sweep",
    "repro.experiments.figures",
    "repro.experiments.checkpoint",
    "repro.analysis.sanitizer",
    "repro.faults.injector",
    "repro.obs.profiler",
    "repro.obs.timeseries",
    "repro.obs.trace",
    "repro.traces.format",
    "repro.reports.fate",
    "repro.routing.direct",
    "repro.routing.epidemic",
    "repro.routing.first_contact",
    "repro.routing.prophet",
    "repro.routing.spray_and_focus",
    "repro.mobility.random_direction",
    "repro.mobility.random_walk",
    "repro.mobility.stationary",
    "repro.mobility.taxi",
    "repro.mobility.trace",
)


def test_a_run_imports_only_what_it_runs():
    out = run_blocked(
        "import json\n"
        "from repro.experiments.runner import build_scenario, run_built\n"
        "from repro.experiments.scenario import ScenarioConfig\n"
        "cfg = ScenarioConfig(name='diet', n_nodes=6, sim_time=60.0,\n"
        "                     mobility='rwp', router='snw', policy='sdsrp')\n"
        "run_built(build_scenario(cfg))\n"
        f"print(json.dumps(sorted(set({NOT_RUN!r}) & set(sys.modules))))\n"
    )
    assert json.loads(out) == []


#: What only a sweep uses: worker lanes, the run store and the process pool.
SWEEP_STACK = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.parallel.supervisor",
    "repro.experiments.sweep",
    "repro.experiments.checkpoint",
)


def test_the_cli_and_the_figures_module_leave_the_sweep_stack_unloaded():
    # `repro-experiments run` builds the whole parser, which reads the figure
    # presets; the stack loads only once a sweep runs.
    out = run_blocked(
        "import json\n"
        "from repro.experiments.cli import build_parser\n"
        "build_parser()\n"
        "import repro.experiments.figures\n"
        f"print(json.dumps(sorted(set({SWEEP_STACK!r}) & set(sys.modules))))\n"
    )
    assert json.loads(out) == []
