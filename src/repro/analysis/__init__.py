"""Analysis tools: distribution fitting (Fig. 3), priority curves (Fig. 4),
ordering comparison (the reproduction contract as code), and the runtime
invariant sanitizer."""

from repro.analysis.sanitizer import Sanitizer
from repro.analysis.comparison import dominates, policy_ranking
from repro.analysis.fitting import ExponentialFit, fit_exponential, histogram_pdf
from repro.analysis.taylor import (
    peak_location,
    priority_curve,
    taylor_convergence,
)

__all__ = [
    "ExponentialFit",
    "Sanitizer",
    "dominates",
    "policy_ranking",
    "fit_exponential",
    "histogram_pdf",
    "peak_location",
    "priority_curve",
    "taylor_convergence",
]
