"""Exact nonnegativity decision for univariate rational polynomials.

One procedure, on the interval as given.  p is evaluated at each finite
end.  An infinite end is replaced by a finite stand-in past the Cauchy
root bound, so no root of p lies beyond it.  Yun square-free
decomposition strips the factors of even multiplicity; the roots of
what is left are exactly the points where p changes sign, and a Sturm
chain counts them inside the interval.  With none, one interior sample
where p != 0 decides the sign; with some, a Sturm-guided search returns
a point where p < 0.  Sound and complete for any polynomial with
finitely many zeros on the interval, i.e. any nonzero polynomial.

Every witness sample (x, v) is a point x of the interval and the exact
value v == p(x) of the polynomial itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .poly import MultiPoly


@dataclass(frozen=True)
class IntervalQ:
    """Rational interval; a None endpoint means unbounded on that side."""

    lo: Fraction | None
    hi: Fraction | None
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and (
                self.lo > self.hi or (self.lo == self.hi and not (
                    self.lo_closed and self.hi_closed))):
            raise ValueError(f"empty interval {self}")

    @classmethod
    def closed(cls, lo, hi) -> "IntervalQ":
        return cls(Fraction(lo), Fraction(hi))

    @classmethod
    def at_least(cls, lo) -> "IntervalQ":
        return cls(Fraction(lo), None)

    @classmethod
    def at_most(cls, hi) -> "IntervalQ":
        return cls(None, Fraction(hi))

    @classmethod
    def real_line(cls) -> "IntervalQ":
        return cls(None, None)

    def __str__(self) -> str:
        left = "[" if (self.lo_closed and self.lo is not None) else "("
        right = "]" if (self.hi_closed and self.hi is not None) else ")"
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "oo" if self.hi is None else str(self.hi)
        return f"{left}{lo}, {hi}{right}"


@dataclass(frozen=True)
class NonnegWitness:
    method: str  # zero-poly | sturm | negative-value
    sample: tuple[Fraction, Fraction] | None = None  # (point, value)
    interior_sign_roots: int | None = None

    def __str__(self) -> str:
        bits = [self.method]
        if self.interior_sign_roots is not None:
            bits.append(f"sign-roots={self.interior_sign_roots}")
        if self.sample is not None:
            bits.append(f"p({self.sample[0]})={self.sample[1]}")
        return ", ".join(bits)


# ---------------------------------------------------------------------------
# coefficient-list helpers (ascending order, Fractions)
# ---------------------------------------------------------------------------

def _trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _eval(c: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * x + coeff
    return acc


def _derivative(c: list[Fraction]) -> list[Fraction]:
    return [k * c[k] for k in range(1, len(c))]


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


# ---------------------------------------------------------------------------
# square-free decomposition and Sturm chains
# ---------------------------------------------------------------------------

def _primitive(c: list[Fraction]) -> list[Fraction]:
    """Divide by positive content (sign-preserving normalisation)."""
    if not c:
        return c
    num = 0
    den = 1
    for x in c:
        num = gcd(num, abs(x.numerator))
        den = lcm(den, x.denominator)
    f = Fraction(num, den)
    if f == 0:
        return c
    return [x / f for x in c]


def _polydiv(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by b (b nonzero)."""
    r = _trim(list(a))
    db = len(b) - 1
    lb = b[-1]
    q = [Fraction(0)] * max(len(r) - db, 1)
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        f = r[-1] / lb
        q[dr - db] += f
        for i in range(len(b)):
            r[dr - db + i] -= f * b[i]
        _trim(r)
    return _trim(q), r


def _gcd_poly(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _primitive(_trim(list(a))), _primitive(_trim(list(b)))
    while b:
        _, r = _polydiv(a, b)
        a, b = b, _primitive(r)
    if a:
        a = [x / a[-1] for x in a]  # monic
    return a


def _exact_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    q, r = _polydiv(a, b)
    if r:
        raise AssertionError("inexact polynomial division")
    return q


def _yun(p: list[Fraction]) -> list[tuple[int, list[Fraction]]]:
    """Yun square-free decomposition: p ~ prod f_i^i with f_i square-free,
    pairwise coprime.  Returns [(multiplicity, factor)] for deg >= 1 factors.
    """
    p = _primitive(_trim(list(p)))
    dp = _derivative(p)
    g = _gcd_poly(p, dp)
    if len(g) <= 1:
        return [(1, p)]
    out = []
    w = _exact_div(p, g)
    y = _exact_div(dp, g)
    i = 1
    while len(w) > 1:
        z = _trim([a - b for a, b in _pad(y, _derivative(w))])
        if not z:
            out.append((i, w))
            break
        f = _gcd_poly(w, z)
        if len(f) > 1:
            out.append((i, f))
            w = _exact_div(w, f)
            y = _exact_div(z, f)
        else:
            y = z
        i += 1
    return out


def _pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    return zip(a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b)))


def _squarefree_odd_part(c: list[Fraction]) -> list[Fraction]:
    """Product of the irreducible factors of odd multiplicity (square-free).

    The real roots of this polynomial are exactly the sign changes of p.
    """
    p = _trim(list(c))
    if len(p) <= 1:
        return p
    out = [Fraction(1)]
    for mult, f in _yun(p):
        if mult % 2 == 1 and len(f) > 1:
            out = _polymul(out, f)
    return out


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [_primitive(_trim(list(p)))]
    d = _primitive(_derivative(chain[0]))
    if d:
        chain.append(d)
    while len(chain) >= 2 and len(chain[-1]) > 1:
        _, r = _polydiv(chain[-2], chain[-1])
        r = _primitive(r)
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _sign_changes_at(chain, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = _eval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_roots_half_open(p: list[Fraction], a: Fraction, b: Fraction,
                          chain=None) -> int:
    """Distinct real roots of square-free p in (a, b] via Sturm's theorem."""
    p = _trim(list(p))
    if len(p) <= 1:
        return 0
    if chain is None:
        chain = _sturm_chain(p)
    return _sign_changes_at(chain, a) - _sign_changes_at(chain, b)


def count_roots_open(p: list[Fraction], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of square-free p in the open interval (a, b)."""
    n = count_roots_half_open(p, a, b)
    if _eval(p, b) == 0:
        n -= 1
    return max(n, 0)


def _deflate_root(g: list[Fraction], r: Fraction) -> list[Fraction]:
    """Divide out (x - r) while g(r) == 0."""
    while len(g) > 1 and _eval(g, r) == 0:
        g = _exact_div(g, [-r, Fraction(1)])
    return g


def _find_negative_sample(c: list[Fraction], g: list[Fraction],
                          lo: Fraction, hi: Fraction):
    """Rational x in (lo, hi) with p(x) < 0, given that the odd part g of p
    has a root in the open interval (so p changes sign there).

    Sturm-guided: isolate one root of g to a bracket with opposite end
    signs, then probe geometrically shrinking neighbourhoods of the root.
    Terminates because p is strictly negative on one side of the root.
    """
    g = _deflate_root(_deflate_root(list(g), lo), hi)
    chain = _sturm_chain(g)
    a, b = lo, hi
    # bisect until the bracket holds exactly one root and endpoint signs differ
    for _ in range(256):
        fa, fb = _eval(g, a), _eval(g, b)
        if fa != 0 and fb != 0 and (fa < 0) != (fb < 0) \
                and count_roots_half_open(g, a, b, chain) == 1:
            break
        mid = (a + b) / 2
        if _eval(g, mid) == 0:
            mid = a + (b - a) * Fraction(5, 11)  # avoid landing on a root
        left = count_roots_half_open(g, a, mid, chain)
        if left >= 1:
            b = mid
        else:
            a = mid
    # probe both sides of the bracketed root, approaching it geometrically
    for j in range(2, 200):
        step = (b - a) / 2 ** j
        for x in (a + step, b - step, (a + b) / 2 + step):
            if lo < x < hi:
                v = _eval(c, x)
                if v < 0:
                    return x, v
    raise AssertionError("sign change certified by Sturm but no sample found")


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def _off_open_end(c: list[Fraction], x: Fraction, iv: IntervalQ) -> Fraction:
    """x, or a point strictly inside iv where p < 0 when x is an open end.

    p(x) < 0 and p is continuous, so halving the step from x into the
    interval ends at a point where p is still negative.
    """
    if x == iv.lo and not iv.lo_closed:
        sign = 1
    elif x == iv.hi and not iv.hi_closed:
        sign = -1
    else:
        return x
    bounded = iv.lo is not None and iv.hi is not None
    step = (iv.hi - iv.lo) / 2 if bounded else Fraction(1)
    while _eval(c, x + sign * step) >= 0:
        step /= 2
    return x + sign * step


def _negative_witness(c: list[Fraction], x: Fraction, iv: IntervalQ,
                      sign_roots: int | None = None) -> NonnegWitness:
    """Disproof at x (moved off an open end of iv), carrying the exact
    value of p itself there."""
    x = _off_open_end(c, x, iv)
    return NonnegWitness("negative-value", sample=(x, _eval(c, x)),
                         interior_sign_roots=sign_roots)


def nonneg_on_interval(
    poly: MultiPoly | list,
    interval: IntervalQ,
    var: str | None = None,
) -> tuple[bool, NonnegWitness]:
    """Decide exactly whether a univariate polynomial is >= 0 on an interval.

    Accepts a univariate MultiPoly (variable inferred when unique) or an
    ascending coefficient list, and works on the interval as given.  p is
    evaluated at each finite end.  An infinite end is replaced by a
    finite stand-in past the Cauchy bound 1 + max|c_i/c_n|, beyond which
    p has no root and so keeps one sign.  Between the ends, a Sturm chain
    counts the roots of the odd square-free part of p, which are exactly
    the points where p changes sign.  With none, one interior sample where
    p != 0 gives the sign of p on the whole interval; with some, p < 0
    next to one of them.

    The result is exact.  Every sample (x, v) has x in the interval and
    v == p(x); a negative verdict's x is never on an open end.  Open and
    closed ends give the same verdict: p is continuous, so p < 0 at an
    end means p < 0 just inside it.
    """
    if isinstance(poly, MultiPoly):
        used = poly.variables_used()
        if var is None:
            if len(used) > 1:
                raise ValueError(f"polynomial is not univariate: uses {used}")
            var = used[0] if used else "s"
        coeffs = poly.to_univariate(var)
    else:
        coeffs = [Fraction(x) for x in poly]
    coeffs = _trim(list(coeffs))
    if not coeffs:
        return True, NonnegWitness("zero-poly")
    lo, hi = interval.lo, interval.hi
    for end in (lo, hi):
        if end is not None and _eval(coeffs, end) < 0:
            return False, _negative_witness(coeffs, end, interval)
    # every root z has |z| < 1 + max|c_i/c_n| (Cauchy); adding |lo| + |hi|
    # keeps a stand-in past the finite end too
    cauchy = max((abs(c / coeffs[-1]) for c in coeffs[:-1]), default=Fraction(0))
    far = 1 + cauchy + sum(abs(e) for e in (lo, hi) if e is not None)
    a = -far if lo is None else lo
    b = far if hi is None else hi
    g = _squarefree_odd_part(coeffs)
    sign_roots = count_roots_open(g, a, b)
    if sign_roots:
        x, _ = _find_negative_sample(coeffs, g, a, b)
        return False, _negative_witness(coeffs, x, interval, sign_roots)
    # one sign on (a, b), read where p != 0: p has fewer roots than the
    # n - 1 samples
    n = 2 * len(coeffs) + 4
    for k in range(1, n):
        x = a + (b - a) * Fraction(k, n)
        v = _eval(coeffs, x)
        if v != 0:
            break
    if v < 0:
        return False, _negative_witness(coeffs, x, interval, 0)
    return True, NonnegWitness("sturm", sample=(x, v), interior_sign_roots=0)
