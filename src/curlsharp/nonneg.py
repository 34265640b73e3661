"""Exact nonnegativity decision for univariate rational polynomials.

One procedure, on the interval as given.  p is evaluated at each finite
end.  An infinite end is replaced by a finite stand-in past the Cauchy
root bound, so no root of p lies beyond it.  Between the ends one
root-isolation loop decides the sign: the roots of p at the ends are
divided out, a Sturm chain of what is left counts its distinct roots in
a piece, and the interval is split depth-first until every piece has
positive ends and at most one root, or a split point where p < 0 turns
up.  Sound and complete for any polynomial with finitely many zeros on
the interval, i.e. any nonzero polynomial.

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

    def __str__(self) -> str:
        if self.sample is None:
            return self.method
        return f"{self.method}, p({self.sample[0]})={self.sample[1]}"


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


# ---------------------------------------------------------------------------
# Sturm chains and root isolation
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


def _probe(chain, x: Fraction) -> tuple[bool, int]:
    """(chain[0](x) > 0, the sign changes of the chain at x), for x not a
    root of chain[0]."""
    signs = [v > 0 for v in (_eval(c, x) for c in chain) if v != 0]
    return signs[0], sum(s != t for s, t in zip(signs, signs[1:]))


def _deflate_root(g: list[Fraction], x: Fraction) -> tuple[list[Fraction], int]:
    """g divided by (s - x)^m, and the multiplicity m of x as a root of g."""
    m = 0
    while _eval(g, x) == 0:
        g, _ = _polydiv(g, [-x, Fraction(1)])
        m += 1
    return g, m


def _split_point(r: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly between lo and hi where r != 0: the midpoint, else
    the first of lo + (hi - lo) k/(2k + 1), k = 1, 2, ..., that misses the
    finitely many roots of r."""
    x, k = (lo + hi) / 2, 1
    while _eval(r, x) == 0:
        x, k = lo + (hi - lo) * Fraction(k, 2 * k + 1), k + 1
    return x


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


def _negative_witness(c: list[Fraction], x: Fraction, iv: IntervalQ) -> NonnegWitness:
    """Disproof at x (moved off an open end of iv), carrying the exact
    value of p itself there."""
    x = _off_open_end(c, x, iv)
    return NonnegWitness("negative-value", sample=(x, _eval(c, x)))


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
    p has no root and so keeps one sign.  Between the ends a and b, one
    root-isolation loop decides:

    1. The roots of p at a and b are divided out, and the sign flipped
       when b's multiplicity is odd, leaving r with the sign of p on
       (a, b) and r(a), r(b) != 0.
    2. The Sturm chain of r, square-free or not, counts the distinct
       roots of r between two points that are not roots.
    3. [a, b] is split depth-first at points where r != 0.  A piece whose
       ends are positive and that holds at most one root is done: r does
       not change sign there.  A split point where r < 0 is a disproof.
       The pieces shrink until each holds at most one root, so a stretch
       where r < 0 is always reached.

    The result is exact.  Every sample (x, v) has x in the interval and
    v == p(x); a negative verdict's x is never on an open end, and a
    positive verdict's x is a split point inside, where p > 0, the same
    for open and closed ends.  Open and closed ends give the same
    verdict: p is continuous, so p < 0 at an end means p < 0 just inside
    it.
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
    if lo is not None and lo == hi:
        return True, NonnegWitness("sturm", sample=(lo, _eval(coeffs, lo)))
    # every root z has |z| < 1 + max|c_i/c_n| (Cauchy); adding |lo| + |hi|
    # keeps a stand-in past the finite end too
    cauchy = max((abs(c / coeffs[-1]) for c in coeffs[:-1]), default=Fraction(0))
    far = 1 + cauchy + sum(abs(e) for e in (lo, hi) if e is not None)
    a = -far if lo is None else lo
    b = far if hi is None else hi
    r, _ = _deflate_root(coeffs, a)
    r, mult_b = _deflate_root(r, b)
    chain = _sturm_chain([-c for c in r] if mult_b % 2 else r)
    # pieces are pairs of ends (x, r(x) > 0, Sturm sign changes at x); the
    # first piece is always split, so that a positive verdict has a sample
    pieces = [((a, *_probe(chain, a)), (b, *_probe(chain, b)))]
    sample = None
    while pieces:
        left, right = pieces.pop()
        (x0, pos0, changes0), (x1, pos1, changes1) = left, right
        if sample is not None and pos0 and pos1 and changes0 - changes1 <= 1:
            continue  # no root inside, or one of even multiplicity
        x = _split_point(chain[0], x0, x1)
        mid = (x, *_probe(chain, x))
        if not mid[1]:
            return False, _negative_witness(coeffs, x, interval)
        if sample is None:
            sample = (x, _eval(coeffs, x))
        pieces += [(mid, right), (left, mid)]
    return True, NonnegWitness("sturm", sample=sample)
