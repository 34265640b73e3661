"""Float64 path of the sharp-constant formulas, for parameter sweeps.

A point's mode tables are the certified `constants._AModes` and
`_CModes`, run on float at G = gamma and q = 1/2 with operator.truediv,
so each float is bit-identical to the closed form evaluated term by term
(while 4 (nu + N/2 - 1)^2 < 2^53; see `constants`).  The scan window
(`constants.default_nu_max`) is the exact path's too, and so are the
two window rules (`constants._a_window_min` and `_c_window_min`), which
read the modes in increasing nu and stop where the rule is decided; so a
point raises TailBoundError where the exact path would.  The improvement
region is A(0) < A(1) on the float table, as the exact path reads it
(`constants.in_improvement_region`).  The result is not a certificate:
the rules compare rounded floats.  The exact path is authoritative; on
rational grid points the float modes, minima and argmins are tested
equal to `float()` of the exact ones, and the `equal` and region flags
to the exact ones.

A point's result is a `SweepRow`, a `NamedTuple`: immutable, hashable
and comparable, built in one tuple allocation.  `sweep_gamma` builds the
rows only; `point` also returns the mode tables, which hold the modes
the rules read and evaluate any other on its first read.
"""

from __future__ import annotations

from operator import truediv
from typing import NamedTuple

from .constants import (_AModes, _CModes, _a_window_min, _c_window_min,
                        default_nu_max)

# relative tolerance under which float minima count as equal; on rational
# grid points it coincides with exact equality
EQUAL_REL_TOL = 1e-12


class SweepRow(NamedTuple):
    """The float minima of A and C at one (N, gamma); `_asdict()` is the
    JSON row of `sweep --format json`."""

    N: int
    gamma: float
    A_min: float
    A_argmin: int
    C_min: float
    C_argmin: int
    equal: bool
    in_improvement_region: bool


def point(N: int, gamma: float) -> tuple[SweepRow, _AModes, _CModes]:
    """The sweep row at (N, gamma), with the A and C tables it read.
    Raises TailBoundError where the window rules do."""
    window = default_nu_max(N, gamma)
    a, c = _AModes(gamma, 0.5, N, truediv), _CModes(gamma, 0.5, N, truediv)
    a_min, a_argmin = _a_window_min(a, window)
    c_min, c_argmin = _c_window_min(c, a, window)
    row = SweepRow(
        N=N, gamma=float(gamma), A_min=a_min, A_argmin=a_argmin,
        C_min=c_min, C_argmin=c_argmin,
        equal=abs(c_min - a_min) <= EQUAL_REL_TOL * max(abs(a_min), abs(c_min), 1.0),
        in_improvement_region=a[0] < a[1],
    )
    return row, a, c


def sweep_gamma(N: int, gammas) -> list[SweepRow]:
    """C/A minima over a gamma grid at fixed N (float path): the rows
    only, without the mode tables `point` returns.

    `equal` means the float minima agree to EQUAL_REL_TOL relative.
    """
    return [point(N, g)[0] for g in gammas]
