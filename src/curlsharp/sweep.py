"""Float64 mirror of the sharp-constant formulas, for parameter sweeps.

The mode formulas A(nu) and C(nu) from `constants` are re-stated here in
plain floating point (same branch logic, same scan window:
`constants.default_nu_max`) so gamma grids can be swept quickly.  The
improvement-region test is not re-stated: `constants._in_region` is one
body generic in gamma's type, run here on a float.  `point_f` computes
the gamma-only subexpressions of A(nu) and C(nu) once per (N, gamma) and
evaluates each mode on demand from them; each float is bit-identical to
evaluating the closed form term by term.  It takes the minima with the
exact path's two window rules (`constants._a_window_min` and
`_c_window_min`), which read the modes in increasing nu and stop where
the rule is decided, a few modes past the turn of A rather than at the
end of the window; so it raises TailBoundError where the exact path
would.  The result is a mirror, not a certificate: the rules compare
floats.  The exact path is authoritative; on rational grid points the
mirror's modes, minima and argmins are tested equal to `float()` of the
exact ones, and its `equal` flag to exact equality.

A point's result is a `SweepRow`, a `NamedTuple`: immutable, hashable
and comparable, built in one tuple allocation.  `sweep_gamma` builds the
rows only; `point_f` also returns the mode tables the rules read.
"""

from __future__ import annotations

from typing import NamedTuple

from .constants import (_ModeTable, _a_window_min, _c_window_min, _in_region,
                        default_nu_max)

# relative tolerance under which float minima count as equal; on rational
# grid points it coincides with exact equality
EQUAL_REL_TOL = 1e-12


def _mode_functions(N: int, gamma: float):
    """A(nu) and C(nu) at (N, gamma) as functions of nu, float path, with
    the gamma-only subexpressions computed once."""
    h = N / 2.0
    gh = gamma + h
    g1sq = (gamma - 1.0) ** 2
    g2sq = (gamma - 2.0) ** 2
    a_den = (gh - 2.0) ** 2           # A: (gamma + N/2 - 2)^2 + alpha_nu
    c_num = (gh - 1.0) ** 2           # C: (gamma + N/2 - 1)^2 + alpha_nu
    c_sq3 = (gh - 3.0) ** 2
    c_lin = 2.0 * gamma + N - 5.0     # C, nu >= 2: quart + c_k (c_lin alpha + c_const)
    c_const = (N - 1) * c_sq3
    c_k = 2.0 * (gamma - 1.0)
    a0 = (gamma - h) ** 2
    c0 = (g1sq - N * N / 4.0) ** 2 / (a_den + N - 1)
    c1 = (gamma - h - 2.0) ** 2 * (c_num + N - 1) / (c_sq3 + 3.0 * (N - 1))

    def a_mode(nu: int) -> float:
        if nu == 0:
            return a0
        return (g1sq - (nu + h - 1.0) ** 2) ** 2 / (a_den + nu * (nu + N - 2))

    def c_mode(nu: int) -> float:
        if nu < 2:
            return c1 if nu else c0
        anu = nu * (nu + N - 2)
        quart = (g2sq - (nu + h - 1.0) ** 2) ** 2
        return quart * (c_num + anu) / (quart + c_k * (c_lin * anu + c_const))

    return a_mode, c_mode


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


def _point(N: int, gamma: float) -> tuple[SweepRow, _ModeTable, _ModeTable]:
    """The sweep row at (N, gamma), with the A and C tables it read.
    Raises TailBoundError where the window rules do."""
    window = default_nu_max(N, gamma)
    a_mode, c_mode = _mode_functions(N, gamma)
    a, c = _ModeTable(a_mode), _ModeTable(c_mode)
    a_min, a_argmin = _a_window_min(a, window)
    c_min, c_argmin = _c_window_min(c, a, window)
    row = SweepRow(
        N=N, gamma=float(gamma), A_min=a_min, A_argmin=a_argmin,
        C_min=c_min, C_argmin=c_argmin,
        equal=abs(c_min - a_min) <= EQUAL_REL_TOL * max(abs(a_min), abs(c_min), 1.0),
        in_improvement_region=_in_region(N, gamma),
    )
    return row, a, c


def point_f(N: int, gamma: float, hi: int = 0) -> tuple[SweepRow, list[float], list[float]]:
    """The sweep row at (N, gamma), with the A(nu) and C(nu) it was read
    from: the modes the window rules read, and at least nu = 0..hi.
    Raises TailBoundError where the window rules do."""
    row, a, c = _point(N, gamma)
    for nu in range(hi + 1):  # cover nu = 0..hi for the caller
        a[nu], c[nu]
    # every read above runs nu = 0, 1, ... in order, so the values are in nu order
    return row, list(a.values()), list(c.values())


def sweep_gamma(N: int, gammas) -> list[SweepRow]:
    """C/A minima over a gamma grid at fixed N (float path): the rows
    only, without the mode tables `point_f` returns.

    `equal` means the float minima agree to EQUAL_REL_TOL relative.
    """
    return [_point(N, g)[0] for g in gammas]
