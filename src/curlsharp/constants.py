"""Closed-form sharp constants, evaluated in exact rational arithmetic.

Covers the weighted Hardy-Leray constant for curl-free fields, the
Rellich-Leray constants (unconstrained and curl-free), and the
Rellich-Hardy mode constants

    A(nu): unconstrained sharp constant per spherical-harmonic mode,
    C(nu): curl-free sharp constant per mode,

together with the verified minimisation over the mode index nu.  Every
function takes integer dimension N >= 2 and rational weight exponent
gamma; the derived exponent is lam = 2 - N/2 - gamma.

A(nu) and C(nu) are each stated once.  With gamma = r/q in lowest terms,
D = 2q and G = gamma D, each form of A and each branch of C is a body over
(G, q, N, nu) that returns (num, den) using only + - * **.  The public
functions run it on int and build one Fraction; the certificate layer
runs it on MultiPoly, so the corpus and the links certify this code.  The
two forms of A are compared by exact cross-multiplication, and C(0)
against A(1); both raise ModeInvariantError, also under python -O.

Minima over nu are certified, not assumed.  Two window rules, each
stated once, decide whether the window nu <= nu_max holds the minimum.
The A rule (`_a_window_min`) looks for a turning index and relies on the
monotonicity of the difference numerator (certificate a-diff-monotone).
The C rule (`_c_window_min`) bounds the C tail by A(m) at an m past the
turn: for nu >= 2, C(nu) >= min(A(nu-1), A(nu+1)) (c-minus-a-prev,
c-minus-a-next, with P1(0, alpha_nu) > 0 from p1-zero-display and
p1-alpha2), and A is nondecreasing past its turn.  Both read a mode table
in increasing nu and stop where their rule is decided, typically a few
modes in, with the same value, first-index argmin and TailBoundError as
a scan of the whole window.  The cached minima and the float mirror
`sweep.point_f` hand them tables that evaluate each mode on first read
(`_ModeTable`); `improvement_report` hands them the full tables it
prints.  The curl-free Rellich-Leray scan bounds its tail by one exact
comparison.  All raise TailBoundError rather than silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class MinResult:
    """Minimum over nu >= 0 and its first index.  `scanned_up_to` is nu_max,
    the window whose rules certify the minimum, not the number of modes
    read: the scans stop where the rules are decided."""

    value: Fraction
    argmin_nu: int
    scanned_up_to: int


def alpha(s: Fraction | int, N: int) -> Fraction:
    """Laplace-Beltrami eigenvalue slot: s(s + N - 2)."""
    s = Fraction(s)
    return s * (s + N - 2)


def default_nu_max(N: int, gamma: Fraction | float) -> int:
    """End of the default mode-scan window at (N, gamma), for the exact and
    the float path alike: ceil(|gamma|) + N + 16."""
    return ceil(abs(gamma)) + N + 16


# ---------------------------------------------------------------------------
# Hardy-Leray (curl-free)
# ---------------------------------------------------------------------------

def hardy_leray(p: Params) -> Fraction:
    """Sharp Hardy-Leray constant for curl-free fields.

    Two-branch closed form; the branch condition (gamma + N/2)^2 <= N + 1
    is decided exactly.
    """
    return _hardy_leray(p.N, p.gamma, Fraction(p.N, 2))


def _hardy_leray(N: int, g, h):
    """The Hardy-Leray closed form, generic in gamma's type: g and h = N/2
    are both Fraction (exact) or both float (the float path of `cli`)."""
    base = (g + h - 1) ** 2
    if (g + h) ** 2 <= N + 1:
        shift = (g + h - 2) ** 2
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
    # certified: the term is increasing in nu for nu >= hi
    if not (hi + Fraction(N, 2) - 1) ** 2 >= (g - 1) ** 2:
        raise TailBoundError("tail_bound_failed: rellich_leray_unconstrained")
    return MinResult(value, vals.index(value), hi)


def rellich_leray_curlfree(p: Params, nu_max: int | None = None) -> MinResult:
    """Curl-free Rellich-Leray constant: exact minimum of the two-branch form.

    argmin_nu == 0 refers to the radial branch ((gamma-1)^2 - N^2/4)^2.

    Certification: for nu >= 1 the term is quart(nu) * f(alpha_nu) with
    quart(nu) = ((gamma-2)^2 - (nu + N/2 - 1)^2)^2 and f(alpha) =
    (b + alpha)/(c + alpha), b = (gamma + N/2 - 1)^2, c = (gamma + N/2 - 3)^2.
    On alpha > 0, f is positive, monotone and tends to 1, so
    f(alpha_nu) >= min(1, f(alpha_{nu_max})) for nu >= nu_max >= 1; quart is
    nondecreasing once nu + N/2 - 1 >= |gamma - 2|.  Given both at nu_max,
    term(nu) >= quart(nu_max + 1) * min(1, f(alpha_{nu_max})) for every
    nu > nu_max, and the window holds the minimum once this bound exceeds
    it.
    """
    g, N = p.gamma, p.N
    if nu_max is None:
        nu_max = default_nu_max(p.N, p.gamma)
    b = (g + Fraction(N, 2) - 1) ** 2
    c = (g + Fraction(N, 2) - 3) ** 2

    def quart(nu: int) -> Fraction:
        return ((g - 2) ** 2 - (nu + Fraction(N, 2) - 1) ** 2) ** 2

    def f(nu: int) -> Fraction:
        anu = alpha(nu, N)
        return (b + anu) / (c + anu)

    vals = [((g - 1) ** 2 - Fraction(N * N, 4)) ** 2]
    vals += [f(nu) * quart(nu) for nu in range(1, nu_max + 1)]
    value = min(vals)
    if not (nu_max >= 1 and nu_max + Fraction(N, 2) - 1 >= abs(g - 2)
            and quart(nu_max + 1) * min(1, f(nu_max)) > value):
        raise TailBoundError(
            f"tail_bound_failed: rellich_leray_curlfree window nu <= {nu_max}")
    return MinResult(value, vals.index(value), nu_max)


# ---------------------------------------------------------------------------
# Rellich-Hardy mode constants
# ---------------------------------------------------------------------------

def _alpha_int(s, N, D):
    """D^2 alpha(s/D, N) = s(s + (N - 2) D) for a slot s scaled by D."""
    return s * (s + (N - 2) * D)


def _a_gamma(G, q, N, nu):
    """A(nu) = ((gamma-1)^2 - (nu+N/2-1)^2)^2 / ((gamma+N/2-2)^2 + alpha_nu),
    A(0) = (gamma - N/2)^2."""
    D = 2 * q
    D2 = D * D
    if nu == 0:
        return (G - N * q) ** 2, D2
    g1 = G - D                            # (gamma - 1) D
    e = G + (N - 4) * q                   # (gamma + N/2 - 2) D
    w = (2 * nu + N - 2) * q              # (nu + N/2 - 1) D
    return (g1 * g1 - w * w) ** 2, D2 * (e * e + nu * (nu + N - 2) * D2)


def _a_slot(G, q, N, nu):
    """A(nu) = (alpha_nu - alpha(lam))^2 / (alpha_nu + lam^2),
    A(0) = (lam + N - 2)^2."""
    D = 2 * q
    D2 = D * D
    L = (4 - N) * q - G                   # lam * D
    if nu == 0:
        return (L + (N - 2) * D) ** 2, D2
    aD2 = nu * (nu + N - 2) * D2          # alpha_nu D^2
    return (aD2 - _alpha_int(L, N, D)) ** 2, D2 * (aD2 + L * L)


def _c_radial(G, q, N):
    """C(0) = ((gamma-1)^2 - N^2/4)^2 / ((gamma+N/2-2)^2 + N - 1)."""
    D = 2 * q
    D2 = D * D
    g1 = G - D                            # (gamma - 1) D
    e = G + (N - 4) * q                   # (gamma + N/2 - 2) D
    return (g1 * g1 - (N * q) ** 2) ** 2, D2 * (e * e + (N - 1) * D2)


def _c_one(G, q, N):
    """C(1) = (gamma-N/2-2)^2 ((gamma+N/2-1)^2 + N - 1)
    / ((gamma+N/2-3)^2 + 3(N - 1))."""
    D = 2 * q
    D2 = D * D
    e = G + (N - 4) * q                   # (gamma + N/2 - 2) D
    h = G - (N + 4) * q                   # (gamma - N/2 - 2) D
    return (h * h * ((e + D) ** 2 + (N - 1) * D2),
            D2 * ((e - D) ** 2 + 3 * (N - 1) * D2))


def _c_nu(G, q, N, nu):
    """C(nu), nu >= 2, = quart ((gamma+N/2-1)^2 + alpha_nu) / (quart
    + 2(gamma-1)((2 gamma+N-5) alpha_nu + (N-1)(gamma+N/2-3)^2))."""
    D = 2 * q
    D2 = D * D
    a = nu * (nu + N - 2)                 # alpha_nu
    g1 = G - D                            # (gamma - 1) D
    g2 = G - 2 * D                        # (gamma - 2) D
    e = G + (N - 4) * q                   # (gamma + N/2 - 2) D
    w = (2 * nu + N - 2) * q              # (nu + N/2 - 1) D
    k = G + (N - 5) * q                   # (2 gamma + N - 5) D / 2
    quart = (g2 * g2 - w * w) ** 2        # ((gamma-2)^2 - (nu+N/2-1)^2)^2 D^4
    return (quart * ((e + D) ** 2 + a * D2),
            D2 * (quart + 2 * g1 * D * (2 * k * a * D + (N - 1) * (e - D) ** 2)))


def rellich_hardy_A(p: Params, nu: int) -> Fraction:
    """Unconstrained Rellich-Hardy mode constant A(nu): the common value
    of its gamma-form and slot form, which must agree (ModeInvariantError
    otherwise)."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    g, N = p.gamma, p.N
    q, G = g.denominator, 2 * g.numerator
    ng, dg = _a_gamma(G, q, N, nu)
    nl, dl = _a_slot(G, q, N, nu)
    if ng * dl != nl * dg:
        raise ModeInvariantError(
            f"A({nu}) forms disagree at N={N}, gamma={g}: "
            f"{Fraction(ng, dg)} != {Fraction(nl, dl)}")
    return Fraction(ng, dg)


def rellich_hardy_C(p: Params, nu: int) -> Fraction:
    """Curl-free Rellich-Hardy mode constant C(nu).  All three branches
    are finite for every rational gamma, including the degenerate lam == 0
    case.  C(0) == A(1) exactly (ModeInvariantError otherwise)."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    g, N = p.gamma, p.N
    q, G = g.denominator, 2 * g.numerator
    if nu == 0:
        value = Fraction(*_c_radial(G, q, N))
        if value != rellich_hardy_A(p, 1):
            raise ModeInvariantError(f"C(0) != A(1) at N={N}, gamma={g}")
        return value
    if nu == 1:
        return Fraction(*_c_one(G, q, N))
    return Fraction(*_c_nu(G, q, N, nu))


# ---------------------------------------------------------------------------
# minimisation over the mode index
# ---------------------------------------------------------------------------

class _ModeTable(dict):
    """A mode family evaluated on demand: `table[nu]` evaluates mode(nu) on
    its first read and keeps it."""

    __slots__ = ("mode",)

    def __init__(self, mode):
        self.mode = mode

    def __missing__(self, nu: int):
        value = self[nu] = self.mode(nu)
        return value


def _a_window_min(a, nu_max: int) -> tuple:
    """First-index minimum of A(nu) over nu >= 0, certified by the window
    nu <= nu_max.  Reads `a[nu]` in increasing nu and stops at the first
    turn k, the first 1 <= k < nu_max with A(k) <= A(k+1).

    Certification: the forward difference A(nu+1) - A(nu) has a numerator
    that is monotone increasing in nu (an exact polynomial identity checked
    by the certificate suite, a-diff-monotone), so A is nondecreasing from
    its turn k on, and the minimum and its first index are those of
    A(0..k).  Raises TailBoundError when A does not turn inside the window.
    """
    value, argmin = a[0], 0
    for k in range(1, nu_max):
        ak = a[k]
        if ak < value:
            value, argmin = ak, k
        if ak <= a[k + 1]:
            return value, argmin
    raise TailBoundError(f"tail_bound_failed: A-scan window nu <= {nu_max}")


def _c_window_min(c, a, nu_max: int) -> tuple:
    """First-index minimum of C(nu) over nu >= 0, certified by the window
    nu <= nu_max, once `_a_window_min` has found the turn k of A there.
    Reads `c[nu]` and `a[nu]` in increasing nu and stops at the first
    1 <= m <= nu_max with min C(0..m) < A(m) <= A(m+1).

    Certification: for nu >= 2, C(nu) >= min(A(nu-1), A(nu+1)) at every lam
    (c-minus-a-prev and c-minus-a-next, whose denominators are positive
    because P1(0, alpha_nu) > 0 for alpha_nu >= 2N by p1-zero-display and
    p1-alpha2).  A(m) <= A(m+1) holds from the turn k on and nowhere before
    it, and A is nondecreasing from m on (a-diff-monotone), so for every
    nu > m, C(nu) >= A(m) > min C(0..m): the minimum and its first index
    are those of C(0..m).  Such an m exists in the window exactly when
    A(nu_max) > min C(0..nu_max); raises TailBoundError otherwise.
    """
    value, argmin = c[0], 0
    for m in range(1, nu_max + 1):
        cm, am = c[m], a[m]
        if cm < value:
            value, argmin = cm, m
        if value < am <= a[m + 1]:
            return value, argmin
    raise TailBoundError(f"tail_bound_failed: C-scan window nu <= {nu_max}")


@lru_cache(maxsize=4096)
def rellich_hardy_A_min(p: Params, nu_max: int | None = None) -> MinResult:
    """Certified minimum of A(nu) over nu >= 0 (`_a_window_min`), reading
    the modes up to the turn of A."""
    if nu_max is None:
        nu_max = default_nu_max(p.N, p.gamma)
    a = _ModeTable(lambda nu: rellich_hardy_A(p, nu))
    return MinResult(*_a_window_min(a, nu_max), nu_max)


@lru_cache(maxsize=4096)
def rellich_hardy_C_min(p: Params, nu_max: int | None = None) -> MinResult:
    """Certified minimum of C(nu) over nu >= 0 (`_c_window_min`, after
    rellich_hardy_A_min(p, nu_max) has certified the turn of A), reading
    the modes up to where the C rule stops."""
    if nu_max is None:
        nu_max = default_nu_max(p.N, p.gamma)
    rellich_hardy_A_min(p, nu_max)  # raises unless A turns inside the window
    c = _ModeTable(lambda nu: rellich_hardy_C(p, nu))
    a = _ModeTable(lambda nu: rellich_hardy_A(p, nu))
    return MinResult(*_c_window_min(c, a, nu_max), nu_max)


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
    # A(nu), nu <= nu_max + 1, and C(nu), nu <= nu_max
    A_values: tuple[Fraction, ...] = field(repr=False, compare=False)
    C_values: tuple[Fraction, ...] = field(repr=False, compare=False)


def in_improvement_region(p: Params) -> bool:
    """Exact test of |gamma - (N+4)/6| < sqrt(N^2 - N + 1)/3 via squares."""
    return _in_region(p.N, p.gamma)


def _in_region(N: int, g) -> bool:
    """The improvement-region test, generic in gamma's type: exact on a
    Fraction, the float mirror's test on a float."""
    return (6 * g - (N + 4)) ** 2 < 4 * (N * N - N + 1)


def improvement_report(p: Params, nu_max: int | None = None) -> ImprovementReport:
    """Compare the unconstrained and curl-free sharp constants at (N, gamma).

    The report evaluates each mode once, A(nu) for nu <= nu_max + 1 and
    C(nu) for nu <= nu_max, and keeps these tables as `A_values` and
    `C_values`.  `A` and `C` are the window rules `_a_window_min` and
    `_c_window_min` applied to them, so they equal
    rellich_hardy_A_min(p, nu_max) and rellich_hardy_C_min(p, nu_max) and
    raise the same TailBoundError where those do, without filling their
    caches.  `equal` and `strict_improvement` are exact; `in_region` is
    the exact strict-improvement criterion for the C = C(0) regime;
    `sandwich_ok` checks min(A(nu-1), A(nu+1)) <= C(nu) <= max(A(nu-1),
    A(nu+1)) for 1 <= nu <= nu_max (c-minus-a-prev, c-minus-a-next); None
    when lam == 0, where the nu = 1 mode degenerates.
    """
    if nu_max is None:
        nu_max = default_nu_max(p.N, p.gamma)
    a = [rellich_hardy_A(p, nu) for nu in range(nu_max + 2)]
    a_min = MinResult(*_a_window_min(a, nu_max), nu_max)
    c = [rellich_hardy_C(p, nu) for nu in range(nu_max + 1)]
    c_min = MinResult(*_c_window_min(c, a, nu_max), nu_max)
    sandwich: bool | None = None
    if not p.degenerate:
        sandwich = all(min(a[nu - 1], a[nu + 1]) <= c[nu] <= max(a[nu - 1], a[nu + 1])
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
        A_values=tuple(a),
        C_values=tuple(c),
    )

