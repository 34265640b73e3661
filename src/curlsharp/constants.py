"""Closed-form sharp constants, evaluated in exact rational arithmetic.

Covers the weighted Hardy-Leray constant for curl-free fields, the
Rellich-Leray constants (unconstrained and curl-free), and the
Rellich-Hardy mode constants

    A(nu): unconstrained sharp constant per spherical-harmonic mode,
    C(nu): curl-free sharp constant per mode,

together with the verified minimisation over the mode index nu.  Every
function takes integer dimension N >= 2 and rational weight exponent
gamma; the derived exponent is lam = 2 - N/2 - gamma.

A(nu) and C(nu) are each stated once, as the lazy mode tables `_AModes`
and `_CModes`.  With gamma = r/q in lowest terms, D = 2q and G = gamma D,
a table at (G, q, N) computes its gamma-only parts once, using only
+ - * **, and keeps ratio(num, den) of each mode on its first read.  The
exact path runs it on int with ratio = Fraction (`_exact`), `sweep` on
float at G = gamma, q = 1/2 with operator.truediv, and the certificate
layer on MultiPoly, nu = s free, keeping the pair: the corpus and
`quotient_constant_links` certify this code.  The parts follow the
operation order of the closed forms evaluated term by term in float, up
to sums and squares of half-integers, which are exact, and at q = 1/2
every D-scaling is a product with 1.0; so the float path gives those
floats bit for bit while 4 w^2 < 2^53, w = nu + N/2 - 1, which keeps
alpha_nu D^2 = (w D)^2 - ((N/2 - 1) D)^2 exact.

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
a scan of the whole window; the exact and the float path hand them the
same tables.  `improvement_report` is the one place that applies both
rules on the exact path, and the cached C minimum is its `C`.  The
curl-free Rellich-Leray scan bounds its tail by one exact comparison.
These raise TailBoundError rather than silently truncating; the
unconstrained Rellich-Leray window is chosen past its turn, so it needs
no check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil


class TailBoundError(RuntimeError):
    """The scan window could not be certified to contain the minimum."""


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

    Certification, by the choice of the window alone: with center =
    |gamma-1| - N/2 + 1, the window ends at hi >= ceil(center) + 3, so
    hi + N/2 - 1 >= |gamma-1| + 3 > |gamma-1| >= 0.  Then for nu >= hi,
    (nu + N/2 - 1)^2 - (gamma-1)^2 is positive and increasing in nu, so
    is its square, the term, and the window nu <= hi holds the minimum
    and its first index.
    """
    g, N = p.gamma, p.N
    center = abs(g - 1) - Fraction(N, 2) + 1
    hi = max(4, int(ceil(center)) + 3)
    vals = [_rl_unconstrained_term(p, nu) for nu in range(hi + 1)]
    value = min(vals)
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


class _AModes(dict):
    """A(nu) at one (N, gamma), from its gamma-form
    A(nu) = ((gamma-1)^2 - (nu+N/2-1)^2)^2 / ((gamma+N/2-2)^2 + alpha_nu),
    A(0) = (gamma - N/2)^2.  `__init__` computes the gamma-only parts and
    A(0); `table[nu]` evaluates A(nu) on its first read and keeps
    ratio(num, den)."""

    __slots__ = ("ratio", "D", "D2", "k", "k2", "g1sq", "e2")

    def __init__(self, G, q, N, ratio):
        self.ratio = ratio
        self.D = D = 2 * q
        self.D2 = D2 = D * D
        h = N * q                                 # N/2 D
        self.k = k = h - D                        # (N/2 - 1) D
        self.k2 = k * k
        self.g1sq = (G - D) ** 2                  # ((gamma - 1) D)^2
        self.e2 = (G + h - 2 * D) ** 2            # ((gamma + N/2 - 2) D)^2
        self[0] = ratio((G - h) ** 2, D2)

    def __missing__(self, nu):
        w = nu * self.D + self.k                  # (nu + N/2 - 1) D
        w2 = w * w
        value = self[nu] = self.ratio((self.g1sq - w2) ** 2,
                                      self.D2 * (self.e2 + (w2 - self.k2)))
        return value


class _CModes(dict):
    """C(nu) at one (N, gamma), as `_AModes` is for A(nu), from
    C(0) = ((gamma-1)^2 - N^2/4)^2 / ((gamma+N/2-2)^2 + N - 1),
    C(1) = (gamma-N/2-2)^2 ((gamma+N/2-1)^2 + N - 1)
           / ((gamma+N/2-3)^2 + 3(N - 1)),
    C(nu), nu >= 2, = quart ((gamma+N/2-1)^2 + alpha_nu) / (quart
           + 2(gamma-1)((2 gamma+N-5) alpha_nu + (N-1)(gamma+N/2-3)^2)),
    with quart = ((gamma-2)^2 - (nu+N/2-1)^2)^2.  `__init__` computes the
    gamma-only parts, C(0) and C(1); `table[nu]` evaluates C(nu), nu >= 2,
    on its first read."""

    __slots__ = ("ratio", "D", "D2", "k", "k2", "g2sq", "c_num", "c_k",
                 "c_lin", "c_const")

    def __init__(self, G, q, N, ratio):
        self.ratio = ratio
        self.D = D = 2 * q
        self.D2 = D2 = D * D
        h = N * q                                 # N/2 D
        self.k = k = h - D                        # (N/2 - 1) D
        self.k2 = k * k
        gh = G + h                                # (gamma + N/2) D
        g1 = G - D                                # (gamma - 1) D
        c_sq3 = (gh - 3 * D) ** 2                 # ((gamma + N/2 - 3) D)^2
        nD2 = N * D2
        self.g2sq = (G - 2 * D) ** 2              # ((gamma - 2) D)^2
        self.c_num = c_num = (gh - D) ** 2        # ((gamma + N/2 - 1) D)^2
        self.c_k = 2 * g1
        self.c_lin = 2 * G + N * D - 5 * D        # (2 gamma + N - 5) D
        self.c_const = (N - 1) * c_sq3 * D
        self[0] = ratio((g1 ** 2 - h * h) ** 2, D2 * ((gh - 2 * D) ** 2 + nD2 - D2))
        self[1] = ratio((G - h - 2 * D) ** 2 * (c_num + nD2 - D2),
                        D2 * (c_sq3 + 3 * (nD2 - D2)))

    def __missing__(self, nu):
        w = nu * self.D + self.k                  # (nu + N/2 - 1) D
        w2 = w * w
        a = w2 - self.k2                          # alpha_nu D^2
        quart = (self.g2sq - w2) ** 2             # D^4 quart
        value = self[nu] = self.ratio(
            quart * (self.c_num + a),
            self.D2 * (quart + self.c_k * (self.c_lin * a + self.c_const)))
        return value


def _exact(table, p: Params):
    """`table` at p over Fraction: G = 2 num(gamma), q = den(gamma)."""
    g = p.gamma
    return table(2 * g.numerator, g.denominator, p.N, Fraction)


def rellich_hardy_A(p: Params, nu: int) -> Fraction:
    """Unconstrained Rellich-Hardy mode constant A(nu), from its
    gamma-form.  The slot form equals it (quotient_constant_links, with
    G, q and N free), so it is not evaluated here."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return _exact(_AModes, p)[nu]


def rellich_hardy_C(p: Params, nu: int) -> Fraction:
    """Curl-free Rellich-Hardy mode constant C(nu).  All three branches
    are finite for every rational gamma, including the degenerate lam == 0
    case.  C(0) = A(1) exactly (quotient_constant_links, with G, q and N
    free), so the radial branch does not evaluate A."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return _exact(_CModes, p)[nu]


# ---------------------------------------------------------------------------
# minimisation over the mode index
# ---------------------------------------------------------------------------

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
    return MinResult(*_a_window_min(_exact(_AModes, p), nu_max), nu_max)


@lru_cache(maxsize=4096)
def rellich_hardy_C_min(p: Params, nu_max: int | None = None) -> MinResult:
    """Certified minimum of C(nu) over nu >= 0: improvement_report(p,
    nu_max).C, which applies the A rule and then the C rule to one pair of
    mode tables.  It fills no cache of rellich_hardy_A_min."""
    return improvement_report(p, nu_max).C


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
    sandwich_ok: bool | None  # certified True; None when lam == 0
    degenerate_mode_nu1: bool
    # the mode tables the window rules read, extended on any other read
    A_modes: dict[int, Fraction] = field(repr=False, compare=False)
    C_modes: dict[int, Fraction] = field(repr=False, compare=False)


def in_improvement_region(p: Params) -> bool:
    """Exact test of |gamma - (N+4)/6| < sqrt(N^2 - N + 1)/3 via squares."""
    return _in_region(p.N, p.gamma)


def _in_region(N: int, g) -> bool:
    """The improvement-region test, generic in gamma's type: exact on a
    Fraction, the float path's test on a float."""
    return (6 * g - (N + 4)) ** 2 < 4 * (N * N - N + 1)


def improvement_report(p: Params, nu_max: int | None = None) -> ImprovementReport:
    """Compare the unconstrained and curl-free sharp constants at (N, gamma).

    `A` and `C` are the window rules `_a_window_min` and then
    `_c_window_min` applied to one exact `_AModes` and `_CModes` table,
    kept as `A_modes` and `C_modes`: they hold the modes the rules read
    and evaluate any other on its first read.  `C` is
    rellich_hardy_C_min(p, nu_max); `A` equals rellich_hardy_A_min(p,
    nu_max), TailBoundError included, and fills no cache.  `equal` and
    `strict_improvement` are exact.  `in_region` holds exactly where
    A(0) < A(1): tested on N = 2..24, gamma in Z/8, |gamma| <= 12, not
    yet proven (the improvement-region item of ROADMAP.md sketches the
    proof).  It is not the strict-improvement test: at N = 3, gamma = -1
    the point is outside the region, yet C_min = C(0) = 49/68 > A_min =
    A(2) = 27/44.

    `sandwich_ok` is the claim min(A(nu-1), A(nu+1)) <= C(nu) <=
    max(A(nu-1), A(nu+1)) for every nu >= 1, taken from its proof:
    c-minus-a-prev and c-minus-a-next give C(nu) - A(nu-1) and C(nu) -
    A(nu+1) opposite signs over positive denominators, P1(0, alpha_nu) > 0
    by p1-alpha1 (nu = 1, lam != 0), p1-zero-display and p1-alpha2 (nu >= 2),
    with C(nu) = Q1(0, alpha_nu)/P1(0, alpha_nu) by the nu = 1 and nu >= 2
    links of quotient_constant_links.  So it is True, and None when lam ==
    0, where the nu = 1 mode degenerates.
    """
    if nu_max is None:
        nu_max = default_nu_max(p.N, p.gamma)
    a = _exact(_AModes, p)
    a_min = MinResult(*_a_window_min(a, nu_max), nu_max)
    c = _exact(_CModes, p)
    c_min = MinResult(*_c_window_min(c, a, nu_max), nu_max)
    return ImprovementReport(
        params=p,
        A=a_min,
        C=c_min,
        equal=(a_min.value == c_min.value),
        strict_improvement=(c_min.value > a_min.value),
        in_region=in_improvement_region(p),
        sandwich_ok=None if p.degenerate else True,
        degenerate_mode_nu1=p.degenerate,
        A_modes=a,
        C_modes=c,
    )
