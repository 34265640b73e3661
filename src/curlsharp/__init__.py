"""Sharp constants of weighted Hardy-Leray, Rellich-Leray, and
Rellich-Hardy inequalities for curl-free fields.

Exact rational evaluation of every closed-form constant, machine
verification of the polynomial identity / nonnegativity certificates
behind them, and desk-scale numerical validation of sharpness, the
spectral reduction, and the remainder inequality.  Each module's
docstring states its layer's mechanism; the layout table of README.md
maps the modules.

Everything is immutable after construction and the computations are
pure functions, so all scans and suites are safe to parallelise
externally; the package itself runs single-threaded and deterministic.
"""

from fractions import Fraction

from .constants import (
    MinResult,
    Params,
    TailBoundError,
    alpha,
    hardy_leray,
    improvement_report,
    in_improvement_region,
    rellich_hardy_A,
    rellich_hardy_A_min,
    rellich_hardy_C,
    rellich_hardy_C_min,
    rellich_leray_curlfree,
    rellich_leray_unconstrained,
)
from .certificates import c0_for, run_suite
from .nonneg import IntervalQ, nonneg_on_interval
from .poly import MultiPoly, Rational, parse_poly
from .polyfamily import build_family

__all__ = [
    "Fraction",
    "Rational",
    "MultiPoly",
    "parse_poly",
    "IntervalQ",
    "nonneg_on_interval",
    "Params",
    "MinResult",
    "TailBoundError",
    "alpha",
    "hardy_leray",
    "rellich_leray_unconstrained",
    "rellich_leray_curlfree",
    "rellich_hardy_A",
    "rellich_hardy_C",
    "rellich_hardy_A_min",
    "rellich_hardy_C_min",
    "improvement_report",
    "in_improvement_region",
    "NonPositiveFormError",
    "build_family",
    "run_suite",
    "c0_for",
]

__version__ = "0.1.0"


def __getattr__(name):
    # spectral imports numpy; load it only when its name is used
    if name == "NonPositiveFormError":
        from .spectral import NonPositiveFormError
        return NonPositiveFormError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
