"""Float64 mirror of the sharp-constant formulas, for parameter sweeps.

The formulas from `constants` are re-stated here in plain floating point
(same branch logic, same scan window: `constants.default_nu_max`) so
gamma grids can be swept quickly.  `point_f` computes the gamma-only
subexpressions of A(nu) and C(nu) once per (N, gamma) and fills both
families over the scan window; each float is bit-identical to evaluating
the closed form term by term.  It reads the minima off these tables with
the exact path's two window rules (`constants._a_window_min` and
`_c_window_min`), so it raises TailBoundError where the exact path would.
The result is a mirror, not a certificate: the rules compare floats.  The
exact path is authoritative; on rational grid points the mirror's modes,
minima and argmins are tested equal to `float()` of the exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import _a_window_min, _c_window_min, default_nu_max

# relative tolerance under which float minima count as equal; on rational
# grid points it coincides with exact equality
EQUAL_REL_TOL = 1e-12


def hardy_leray_f(N: int, gamma: float) -> float:
    base = (gamma + N / 2.0 - 1.0) ** 2
    if (gamma + N / 2.0) ** 2 <= N + 1:
        shift = (gamma + N / 2.0 - 2.0) ** 2
        return base * (3.0 * (N - 1) + shift) / (N - 1 + shift)
    return base + N - 1


def _mode_values(N: int, gamma: float, hi: int) -> tuple[list[float], list[float]]:
    """A(nu) and C(nu) for nu = 0..hi (hi >= 1), float path."""
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
    a = [(gamma - h) ** 2]
    c = [(g1sq - N * N / 4.0) ** 2 / (a_den + N - 1),
         (gamma - h - 2.0) ** 2 * (c_num + N - 1) / (c_sq3 + 3.0 * (N - 1))]
    for nu in range(1, hi + 1):
        anu = nu * (nu + N - 2)
        w = (nu + h - 1.0) ** 2
        a.append((g1sq - w) ** 2 / (a_den + anu))
        if nu >= 2:
            quart = (g2sq - w) ** 2
            c.append(quart * (c_num + anu) / (quart + c_k * (c_lin * anu + c_const)))
    return a, c


def in_improvement_region_f(N: int, gamma: float) -> bool:
    return (6.0 * gamma - (N + 4.0)) ** 2 < 4.0 * (N * N - N + 1)


@dataclass(frozen=True)
class SweepRow:
    N: int
    gamma: float
    A_min: float
    A_argmin: int
    C_min: float
    C_argmin: int
    equal: bool
    in_improvement_region: bool


def point_f(N: int, gamma: float, hi: int = 0) -> tuple[SweepRow, list[float], list[float]]:
    """The sweep row at (N, gamma), with the A(nu) and C(nu) it was read
    from for nu = 0..max(hi, end of the scan window).  Raises
    TailBoundError where the window rules do."""
    window = default_nu_max(N, gamma)
    a, c = _mode_values(N, gamma, max(hi, window))
    a_min, a_argmin = _a_window_min(a, window)
    c_min, c_argmin = _c_window_min(c, a[window], window)
    row = SweepRow(
        N=N, gamma=float(gamma), A_min=a_min, A_argmin=a_argmin,
        C_min=c_min, C_argmin=c_argmin,
        equal=abs(c_min - a_min) <= EQUAL_REL_TOL * max(abs(a_min), abs(c_min), 1.0),
        in_improvement_region=in_improvement_region_f(N, gamma),
    )
    return row, a, c


def sweep_gamma(N: int, gammas) -> list[SweepRow]:
    """C/A minima over a gamma grid at fixed N (float path).

    `equal` means the float minima agree to EQUAL_REL_TOL relative.
    """
    return [point_f(N, g)[0] for g in gammas]
