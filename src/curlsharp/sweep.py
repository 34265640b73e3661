"""Float64 mirror of the sharp-constant formulas, for parameter sweeps.

The mode formulas A(nu) and C(nu) from `constants` are re-stated here in
plain floating point (same branch logic, same scan window:
`constants.default_nu_max`) so gamma grids can be swept quickly.  The
improvement-region test is not re-stated: `constants._in_region` is one
body generic in gamma's type, run here on a float.  A point's mode
tables are `_AModes` and `_CModes`, `dict`s that compute the gamma-only
subexpressions of A(nu) and C(nu) once per (N, gamma) and evaluate a
mode in `__missing__` on its first read, one frame per mode; each float
is bit-identical to evaluating the closed form term by term.  The minima
come from the exact path's two window rules (`constants._a_window_min`
and `_c_window_min`), which read the modes in increasing nu and stop
where the rule is decided, a few modes past the turn of A rather than at
the end of the window; so a point raises TailBoundError where the exact
path would.  The result is a mirror, not a certificate: the rules
compare floats.  The exact path is authoritative; on rational grid
points the mirror's modes, minima and argmins are tested equal to
`float()` of the exact ones, and its `equal` flag to exact equality.

A point's result is a `SweepRow`, a `NamedTuple`: immutable, hashable
and comparable, built in one tuple allocation.  `sweep_gamma` builds the
rows only; `point` also returns the mode tables, which hold the modes
the rules read and evaluate any other on its first read.
"""

from __future__ import annotations

from typing import NamedTuple

from .constants import _a_window_min, _c_window_min, _in_region, default_nu_max

# relative tolerance under which float minima count as equal; on rational
# grid points it coincides with exact equality
EQUAL_REL_TOL = 1e-12


class _AModes(dict):
    """A(nu) at one (N, gamma), float path.  A(0) and the gamma-only
    subexpressions are computed once, in `__init__`; `table[nu]` evaluates
    the closed form of A(nu), nu >= 1, on its first read and keeps it."""

    __slots__ = ("N", "h", "g1sq", "a_den")

    def __init__(self, N: int, gamma: float):
        h = N / 2.0
        self.N, self.h = N, h
        self.g1sq = (gamma - 1.0) ** 2
        self.a_den = (gamma + h - 2.0) ** 2   # (gamma + N/2 - 2)^2 + alpha_nu
        self[0] = (gamma - h) ** 2

    def __missing__(self, nu: int) -> float:
        value = self[nu] = ((self.g1sq - (nu + self.h - 1.0) ** 2) ** 2
                            / (self.a_den + nu * (nu + self.N - 2)))
        return value


class _CModes(dict):
    """C(nu) at one (N, gamma), float path, as `_AModes` is for A(nu):
    C(0) and C(1) are computed in `__init__`, C(nu), nu >= 2, on its
    first read."""

    __slots__ = ("N", "h", "g2sq", "c_num", "c_k", "c_lin", "c_const")

    def __init__(self, N: int, gamma: float):
        h = N / 2.0
        gh = gamma + h
        c_sq3 = (gh - 3.0) ** 2
        self.N, self.h = N, h
        self.g2sq = (gamma - 2.0) ** 2
        self.c_num = (gh - 1.0) ** 2           # (gamma + N/2 - 1)^2 + alpha_nu
        self.c_k = 2.0 * (gamma - 1.0)         # nu >= 2: quart + c_k (c_lin alpha + c_const)
        self.c_lin = 2.0 * gamma + N - 5.0
        self.c_const = (N - 1) * c_sq3
        self[0] = ((gamma - 1.0) ** 2 - N * N / 4.0) ** 2 / ((gh - 2.0) ** 2 + N - 1)
        self[1] = ((gamma - h - 2.0) ** 2 * (self.c_num + N - 1)
                   / (c_sq3 + 3.0 * (N - 1)))

    def __missing__(self, nu: int) -> float:
        anu = nu * (nu + self.N - 2)
        quart = (self.g2sq - (nu + self.h - 1.0) ** 2) ** 2
        value = self[nu] = (quart * (self.c_num + anu)
                            / (quart + self.c_k * (self.c_lin * anu + self.c_const)))
        return value


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
    a, c = _AModes(N, gamma), _CModes(N, gamma)
    a_min, a_argmin = _a_window_min(a, window)
    c_min, c_argmin = _c_window_min(c, a, window)
    row = SweepRow(
        N=N, gamma=float(gamma), A_min=a_min, A_argmin=a_argmin,
        C_min=c_min, C_argmin=c_argmin,
        equal=abs(c_min - a_min) <= EQUAL_REL_TOL * max(abs(a_min), abs(c_min), 1.0),
        in_improvement_region=_in_region(N, gamma),
    )
    return row, a, c


def sweep_gamma(N: int, gammas) -> list[SweepRow]:
    """C/A minima over a gamma grid at fixed N (float path): the rows
    only, without the mode tables `point` returns.

    `equal` means the float minima agree to EQUAL_REL_TOL relative.
    """
    return [point(N, g)[0] for g in gammas]
