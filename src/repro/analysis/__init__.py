"""Analysis tools: distribution fitting (Fig. 3), priority curves (Fig. 4)
and the runtime invariant sanitizer."""

from repro.analysis.sanitizer import Sanitizer
from repro.analysis.fitting import ExponentialFit, fit_exponential, histogram_pdf
from repro.analysis.taylor import (
    peak_location,
    priority_curve,
    taylor_convergence,
)

__all__ = [
    "ExponentialFit",
    "Sanitizer",
    "fit_exponential",
    "histogram_pdf",
    "peak_location",
    "priority_curve",
    "taylor_convergence",
]
