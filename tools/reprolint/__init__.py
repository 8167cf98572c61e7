"""reprolint — repo-specific static analysis for the SDSRP reproduction.

The simulator's headline guarantee is *byte-determinism*: the same scenario
seed must produce bit-identical runs, serial or parallel, so every figure in
the paper reproduction is an auditable function of (code, seed).  That
guarantee — and the buffer/copy-count accounting the paper's Eq. 10 priority
math rests on — rots silently: a stray ``np.random`` call or a wall-clock
read changes results without failing a single behavioural test.

``reprolint`` encodes those repo rules as AST checks (stdlib :mod:`ast`
only), one code per rule:

========  ==============================================================
REP001    no global/ambient RNG outside ``repro/rng.py``
REP002    no wall-clock reads inside ``src/repro`` simulation code
REP003    no ``==``/``!=`` on sim-time floats (use ``repro.units.time_eq``)
REP004    no mutable default arguments
REP005    policies registered + drop reasons use declared constants
REP006    no bare/silently-swallowed exceptions in engine/net/parallel
========  ==============================================================

Run it from the repo root::

    PYTHONPATH=tools python -m reprolint src tests benchmarks

See ``docs/static_analysis.md`` for each rule's rationale and example fix.
"""

from __future__ import annotations

from reprolint.runner import Violation, lint_paths, lint_source, main
from reprolint.rules import ALL_RULES

__version__ = "1.0.0"

__all__ = ["ALL_RULES", "Violation", "lint_paths", "lint_source", "main"]
