"""Closed-form sharp constants, evaluated in exact rational arithmetic.

Covers the weighted Hardy-Leray constant for curl-free fields, the
Rellich-Leray constants (unconstrained and curl-free), and the
Rellich-Hardy mode constants

    A(nu): unconstrained sharp constant per spherical-harmonic mode,
    C(nu): curl-free sharp constant per mode,

together with the verified minimisation over the mode index nu.  Every
function takes integer dimension N >= 2 and rational weight exponent
gamma; the derived exponent is lam = 2 - N/2 - gamma.

Minima over nu are certified, not assumed.  The A-family scan looks for a
turning index and relies on the monotonicity of the difference numerator
(certificate a-diff-monotone).  The C-family scan bounds its tail by
A(nu_max): for nu >= 2, C(nu) >= min(A(nu-1), A(nu+1)) (c-minus-a-prev,
c-minus-a-next, with P1(0, alpha_nu) > 0 from p1-zero-display and
p1-alpha2), and A is nondecreasing past its turn.  Both raise
TailBoundError rather than silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil


class TailBoundError(RuntimeError):
    """The scan window could not be certified to contain the minimum."""


class ModeInvariantError(RuntimeError):
    """Two exact evaluations of one mode constant disagree."""


@dataclass(frozen=True)
class Params:
    """Problem parameters: dimension N >= 2 and rational weight exponent."""

    N: int
    gamma: Fraction

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "gamma", Fraction(self.gamma))

    @property
    def lam(self) -> Fraction:
        """Shifted exponent 2 - N/2 - gamma (flattens the radial weight)."""
        return Fraction(4 - self.N, 2) - self.gamma

    @property
    def degenerate(self) -> bool:
        """lam == 0, i.e. gamma == 2 - N/2: the nu=1 quotient degenerates."""
        return self.lam == 0


@dataclass(frozen=True)
class ModeConstant:
    nu: int
    value: Fraction
    kind: str  # A | C | B_unconstrained | B_curlfree | H


@dataclass(frozen=True)
class MinResult:
    value: Fraction
    argmin_nu: int
    scanned_up_to: int
    tail_bound_ok: bool


def alpha(s: Fraction | int, N: int) -> Fraction:
    """Laplace-Beltrami eigenvalue slot: s(s + N - 2)."""
    s = Fraction(s)
    return s * (s + N - 2)


def _default_nu_max(p: Params) -> int:
    g = p.gamma
    return int(ceil(abs(g))) + p.N + 16


# ---------------------------------------------------------------------------
# Hardy-Leray (curl-free)
# ---------------------------------------------------------------------------

def hardy_leray(p: Params) -> Fraction:
    """Sharp Hardy-Leray constant for curl-free fields.

    Two-branch closed form; the branch condition (gamma + N/2)^2 <= N + 1
    is decided exactly.
    """
    g, N = p.gamma, p.N
    base = (g + Fraction(N, 2) - 1) ** 2
    if (g + Fraction(N, 2)) ** 2 <= N + 1:
        shift = (g + Fraction(N, 2) - 2) ** 2
        return base * (3 * (N - 1) + shift) / (N - 1 + shift)
    return base + N - 1


# ---------------------------------------------------------------------------
# Rellich-Leray
# ---------------------------------------------------------------------------

def _rl_unconstrained_term(p: Params, nu: int) -> Fraction:
    return ((p.gamma - 1) ** 2 - (nu + Fraction(p.N, 2) - 1) ** 2) ** 2


def rellich_leray_unconstrained(p: Params) -> MinResult:
    """min over nu >= 0 of ((gamma-1)^2 - (nu + N/2 - 1)^2)^2.

    The square is increasing once (nu + N/2 - 1)^2 passes (gamma-1)^2, so
    the argmin lies among the integers nearest |gamma-1| - N/2 + 1 clamped
    to nu >= 0; the scan window covers that point with margin.
    """
    g, N = p.gamma, p.N
    center = abs(g - 1) - Fraction(N, 2) + 1
    hi = max(4, int(ceil(center)) + 3)
    vals = [_rl_unconstrained_term(p, nu) for nu in range(hi + 1)]
    value = min(vals)
    argmin = vals.index(value)
    # certified: the term is increasing in nu for nu >= hi
    tail_ok = (hi + Fraction(N, 2) - 1) ** 2 >= (g - 1) ** 2
    if not tail_ok:
        raise TailBoundError("tail_bound_failed: rellich_leray_unconstrained")
    return MinResult(value, argmin, hi, tail_ok)


def rellich_leray_curlfree(p: Params, nu_max: int | None = None) -> MinResult:
    """Curl-free Rellich-Leray constant: exact minimum of the two-branch form.

    argmin_nu == 0 refers to the radial branch ((gamma-1)^2 - N^2/4)^2.
    """
    g, N = p.gamma, p.N
    if nu_max is None:
        nu_max = _default_nu_max(p)

    def term(nu: int) -> Fraction:
        if nu == 0:
            return ((g - 1) ** 2 - Fraction(N * N, 4)) ** 2
        quart = ((g - 2) ** 2 - (nu + Fraction(N, 2) - 1) ** 2) ** 2
        anu = alpha(nu, N)
        factor = ((g + Fraction(N, 2) - 1) ** 2 + anu) / ((g + Fraction(N, 2) - 3) ** 2 + anu)
        return factor * quart

    return _scan_with_tail(term, nu_max, label="rellich_leray_curlfree")


# ---------------------------------------------------------------------------
# Rellich-Hardy mode constants
# ---------------------------------------------------------------------------

def rellich_hardy_A(p: Params, nu: int) -> Fraction:
    """Unconstrained Rellich-Hardy mode constant A(nu).

    Evaluates both the gamma-form and the lam-form, which must agree
    (ModeInvariantError otherwise), returning the common value.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    g, N, lam = p.gamma, p.N, p.lam
    if nu == 0:
        via_gamma = (g - Fraction(N, 2)) ** 2
        via_lam = (lam + N - 2) ** 2
    else:
        anu = alpha(nu, N)
        via_gamma = ((g - 1) ** 2 - (nu + Fraction(N, 2) - 1) ** 2) ** 2 \
            / ((g + Fraction(N, 2) - 2) ** 2 + anu)
        via_lam = (anu - alpha(lam, N)) ** 2 / (anu + lam ** 2)
    if via_gamma != via_lam:
        raise ModeInvariantError(
            f"A({nu}) forms disagree at N={N}, gamma={g}: {via_gamma} != {via_lam}")
    return via_gamma


def rellich_hardy_C(p: Params, nu: int) -> Fraction:
    """Curl-free Rellich-Hardy mode constant C(nu).

    All three branches are finite for every rational gamma, including the
    degenerate lam == 0 case.  C(0) == A(1) exactly (ModeInvariantError
    otherwise).
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    g, N = p.gamma, p.N
    if nu == 0:
        value = ((g - 1) ** 2 - Fraction(N * N, 4)) ** 2 \
            / ((g + Fraction(N, 2) - 2) ** 2 + N - 1)
        if value != rellich_hardy_A(p, 1):
            raise ModeInvariantError(f"C(0) != A(1) at N={N}, gamma={g}")
        return value
    if nu == 1:
        return (g - Fraction(N, 2) - 2) ** 2 \
            * ((g + Fraction(N, 2) - 1) ** 2 + N - 1) \
            / ((g + Fraction(N, 2) - 3) ** 2 + 3 * (N - 1))
    anu = alpha(nu, N)
    quart = ((g - 2) ** 2 - (nu + Fraction(N, 2) - 1) ** 2) ** 2
    num = quart * ((g + Fraction(N, 2) - 1) ** 2 + anu)
    den = quart + 2 * (g - 1) * ((2 * g + N - 5) * anu
                                 + (N - 1) * (g + Fraction(N, 2) - 3) ** 2)
    return num / den


# ---------------------------------------------------------------------------
# minimisation over the mode index
# ---------------------------------------------------------------------------

def _scan_with_tail(term, nu_max: int, label: str) -> MinResult:
    """Scan nu in 0..nu_max, then check the tail numerically: the last nine
    values must be nondecreasing and no value in nu_max < nu <= 8 nu_max may
    reach the window minimum.  A finite overshoot check, not a proof."""
    vals = [term(nu) for nu in range(nu_max + 1)]
    value = min(vals)
    argmin = vals.index(value)
    tail_ok = all(vals[k] <= vals[k + 1]
                  for k in range(max(0, nu_max - 8), nu_max))
    if tail_ok:
        for nu in range(nu_max + 1, 8 * nu_max + 1):
            if term(nu) <= value:
                tail_ok = False
                break
    if not tail_ok:
        raise TailBoundError(f"tail_bound_failed: {label} window nu <= {nu_max}")
    return MinResult(value, argmin, nu_max, True)


@lru_cache(maxsize=4096)
def rellich_hardy_A_min(p: Params, nu_max: int | None = None) -> MinResult:
    """Certified minimum of A(nu) over nu >= 0.

    Certification: the forward difference A(nu+1) - A(nu) has a numerator
    that is monotone increasing in nu (an exact polynomial identity checked
    by the certificate suite), so once A(k) <= A(k+1) inside the window the
    family increases for every nu >= k and the window bounds the minimum.
    """
    if nu_max is None:
        nu_max = _default_nu_max(p)
    vals = [rellich_hardy_A(p, nu) for nu in range(nu_max + 1)]
    value = min(vals)
    argmin = vals.index(value)
    turn = next((k for k in range(1, nu_max) if vals[k] <= vals[k + 1]), None)
    if turn is None:
        raise TailBoundError(f"tail_bound_failed: A-scan window nu <= {nu_max}")
    return MinResult(value, argmin, nu_max, True)


@lru_cache(maxsize=4096)
def rellich_hardy_C_min(p: Params, nu_max: int | None = None) -> MinResult:
    """Certified minimum of C(nu) over nu >= 0.

    Certification: for nu >= 2, C(nu) >= min(A(nu-1), A(nu+1)) at every lam
    (c-minus-a-prev and c-minus-a-next, whose denominators are positive
    because P1(0, alpha_nu) > 0 for alpha_nu >= 2N by p1-zero-display and
    p1-alpha2).  rellich_hardy_A_min(p, nu_max) certifies that A is
    nondecreasing from some k <= nu_max - 1 on (a-diff-monotone), so
    C(nu) >= A(nu_max) for every nu > nu_max.  The window therefore holds
    the minimum once A(nu_max) exceeds it.
    """
    if nu_max is None:
        nu_max = _default_nu_max(p)
    rellich_hardy_A_min(p, nu_max)  # raises unless A turns inside the window
    vals = [rellich_hardy_C(p, nu) for nu in range(nu_max + 1)]
    value = min(vals)
    if not rellich_hardy_A(p, nu_max) > value:
        raise TailBoundError(f"tail_bound_failed: C-scan window nu <= {nu_max}")
    return MinResult(value, vals.index(value), nu_max, True)


# ---------------------------------------------------------------------------
# improvement report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImprovementReport:
    params: Params
    A: MinResult
    C: MinResult
    equal: bool
    strict_improvement: bool
    in_region: bool
    sandwich_ok: bool | None  # None when lam == 0 (sandwich not applicable)
    degenerate_mode_nu1: bool


def in_improvement_region(p: Params) -> bool:
    """Exact test of |gamma - (N+4)/6| < sqrt(N^2 - N + 1)/3 via squares."""
    g, N = p.gamma, p.N
    return (6 * g - (N + 4)) ** 2 < 4 * (N * N - N + 1)


def improvement_report(p: Params, nu_max: int | None = None) -> ImprovementReport:
    """Compare the unconstrained and curl-free sharp constants at (N, gamma).

    `equal` and `strict_improvement` are exact; `in_region` is the exact
    strict-improvement criterion for the C = C(0) regime; `sandwich_ok`
    checks min(A(nu-1), A(nu+1)) <= C(nu) <= max(A(nu-1), A(nu+1)) for
    1 <= nu <= nu_max (c-minus-a-prev, c-minus-a-next), evaluating each
    mode once; None when lam == 0, where the nu = 1 mode degenerates.
    """
    if nu_max is None:
        nu_max = _default_nu_max(p)
    a_min = rellich_hardy_A_min(p, nu_max)
    c_min = rellich_hardy_C_min(p, nu_max)
    sandwich: bool | None = None
    if not p.degenerate:
        a = [rellich_hardy_A(p, nu) for nu in range(nu_max + 2)]
        sandwich = all(
            min(a[nu - 1], a[nu + 1]) <= rellich_hardy_C(p, nu)
            <= max(a[nu - 1], a[nu + 1])
            for nu in range(1, nu_max + 1))
    return ImprovementReport(
        params=p,
        A=a_min,
        C=c_min,
        equal=(a_min.value == c_min.value),
        strict_improvement=(c_min.value > a_min.value),
        in_region=in_improvement_region(p),
        sandwich_ok=sandwich,
        degenerate_mode_nu1=p.degenerate,
    )


def mode_table(p: Params, nu_max: int = 8) -> list[ModeConstant]:
    """A(nu) and C(nu) for nu = 0..nu_max, as tagged exact values."""
    out = []
    for nu in range(nu_max + 1):
        out.append(ModeConstant(nu, rellich_hardy_A(p, nu), "A"))
        out.append(ModeConstant(nu, rellich_hardy_C(p, nu), "C"))
    return out
