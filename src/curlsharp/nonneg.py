"""Exact nonnegativity decision for univariate rational polynomials.

Two engines, run in order:

1. Bernstein: convert to the Bernstein basis on [0,1] (after an exact
   affine map for bounded intervals, or the Goursat substitution
   x = a + y/(1-y) for half-lines).  All Bernstein coefficients
   nonnegative is a nonnegativity certificate; a negative *value* at a
   subdivision endpoint is a disproof.  Indefinite coefficient patterns
   are split by de Casteljau subdivision up to a depth cap.

2. Sturm: complete fallback.  Strip even-multiplicity factors (Yun
   square-free decomposition), count sign-changing roots in the open
   interval with a Sturm chain, and decide from endpoint values plus one
   interior sample.  Sound and complete for any polynomial with finitely
   many zeros on the interval, i.e. any nonzero polynomial.

The answer is exact either way; the witness records which engine decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

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
    method: str  # zero-poly | bernstein | sturm | negative-value | inconclusive
    depth: int = 0
    sample: tuple[Fraction, Fraction] | None = None  # (point, value)
    interior_sign_roots: int | None = None

    def __str__(self) -> str:
        bits = [self.method]
        if self.method == "bernstein":
            bits.append(f"depth={self.depth}")
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


def _shift_scale(c: list[Fraction], a: Fraction, h: Fraction) -> list[Fraction]:
    """Coefficients of q(y) = p(a + h*y)."""
    out: list[Fraction] = []
    for coeff in reversed(c):
        # out <- out*(a + h*y) + coeff
        new = [Fraction(0)] * (len(out) + 1)
        for k, v in enumerate(out):
            new[k] += v * a
            new[k + 1] += v * h
        new[0] += coeff
        out = new
    return _trim(out)


def _reverse_into_goursat(c: list[Fraction]) -> list[Fraction]:
    """Coefficients of q(y) = (1-y)^n p(y/(1-y)) for p of degree n.

    Sign of q on [0,1) matches the sign of p on [0,oo); q(1) is the
    leading coefficient of p.
    """
    n = len(c) - 1
    out = [Fraction(0)] * (n + 1)
    for k, ck in enumerate(c):
        if ck == 0:
            continue
        for j in range(n - k + 1):  # y^k (1-y)^(n-k)
            out[k + j] += ck * comb(n - k, j) * (-1) ** j
    return _trim(out)


# ---------------------------------------------------------------------------
# Bernstein engine on [0,1]
# ---------------------------------------------------------------------------

def _to_bernstein(c: list[Fraction]) -> list[Fraction]:
    n = len(c) - 1
    return [
        sum((Fraction(comb(k, i), comb(n, i)) * c[i] for i in range(k + 1)),
            Fraction(0))
        for k in range(n + 1)
    ]


def _de_casteljau(b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    n = len(b) - 1
    left = [b[0]]
    right = [b[n]]
    work = list(b)
    for _ in range(n):
        work = [(work[i] + work[i + 1]) / 2 for i in range(len(work) - 1)]
        left.append(work[0])
        right.append(work[-1])
    return left, right[::-1]


def _bernstein_decide(c: list[Fraction], max_depth: int, node_budget: int = 4096):
    """(True, depth) / (False, (y, value)) / (None, None) for p >= 0 on [0,1]."""
    queue = [(_to_bernstein(c), Fraction(0), Fraction(1), 0)]
    seen = 0
    deepest = 0
    while queue:
        seen += 1
        if seen > node_budget:
            return None, None
        b, lo, hi, depth = queue.pop()
        deepest = max(deepest, depth)
        if all(x >= 0 for x in b):
            continue
        # end coefficients of a Bernstein segment are exact values of p
        if b[0] < 0:
            return False, (lo, b[0])
        if b[-1] < 0:
            return False, (hi, b[-1])
        if depth >= max_depth:
            return None, None
        left, right = _de_casteljau(b)
        mid = (lo + hi) / 2
        queue.append((left, lo, mid, depth + 1))
        queue.append((right, mid, hi, depth + 1))
    return True, deepest


# ---------------------------------------------------------------------------
# Sturm engine
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


def _sturm_decide(c: list[Fraction]):
    """Exact decision of p >= 0 on [0,1]: (bool, NonnegWitness)."""
    p0 = _eval(c, Fraction(0))
    p1 = _eval(c, Fraction(1))
    if p0 < 0:
        return False, NonnegWitness("negative-value", sample=(Fraction(0), p0))
    if p1 < 0:
        return False, NonnegWitness("negative-value", sample=(Fraction(1), p1))
    g = _squarefree_odd_part(c)
    nroots = count_roots_open(g, Fraction(0), Fraction(1)) if len(g) > 1 else 0
    if nroots == 0:
        # constant sign on (0,1); read it off at a point where p != 0
        for k in range(1, 2 * len(c) + 4):
            x = Fraction(k, 2 * len(c) + 4)
            v = _eval(c, x)
            if v != 0:
                if v > 0:
                    return True, NonnegWitness(
                        "sturm", interior_sign_roots=0, sample=(x, v))
                return False, NonnegWitness("negative-value", sample=(x, v))
        return True, NonnegWitness("zero-poly")
    x, v = _find_negative_sample(c, g, Fraction(0), Fraction(1))
    return False, NonnegWitness(
        "negative-value", interior_sign_roots=nroots, sample=(x, v))


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def _far_negative_point(c: list[Fraction], start: Fraction,
                        step: int) -> Fraction:
    """First start + k*step, k = 1, 2, 4, ..., where p < 0.

    Called for the point at infinity of a half-line, where the leading
    coefficient of p (of the reflected p on a left half-line) is negative,
    so p tends to -oo in the direction of `step` and the doubling ends.
    """
    k = 1
    while _eval(c, start + k * step) >= 0:
        k *= 2
    return start + k * step


def _unit_interval_problems(coeffs: list[Fraction], iv: IntervalQ):
    """Reduce `p >= 0 on iv` to problems on [0,1]; yields (coeffs, back-map).

    The back-map sends a point y of [0,1] where the unit problem is
    negative to a point x of iv where p is negative (the signs agree).
    """
    lo, hi = iv.lo, iv.hi
    if lo is not None and hi is not None:
        if lo == hi:
            yield [_eval(coeffs, lo)], (lambda y, lo=lo: lo)
            return
        h = hi - lo
        yield _shift_scale(coeffs, lo, h), (lambda y, lo=lo, h=h: lo + h * y)
        return
    if lo is not None:  # [lo, oo)
        shifted = _shift_scale(coeffs, lo, Fraction(1))
        yield _reverse_into_goursat(shifted), (
            lambda y, lo=lo: lo + y / (1 - y) if y != 1
            else _far_negative_point(coeffs, lo, 1))
        return
    if hi is not None:  # (-oo, hi]: reflect onto [-hi, oo)
        reflected = [(-1) ** k * ck for k, ck in enumerate(coeffs)]
        shifted = _shift_scale(reflected, -hi, Fraction(1))
        yield _reverse_into_goursat(shifted), (
            lambda y, hi=hi: hi - y / (1 - y) if y != 1
            else _far_negative_point(coeffs, hi, -1))
        return
    yield from _unit_interval_problems(coeffs, IntervalQ.at_least(0))
    yield from _unit_interval_problems(coeffs, IntervalQ.at_most(0))


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
    max_depth: int = 10,
) -> tuple[bool, NonnegWitness]:
    """Decide exactly whether a univariate polynomial is >= 0 on an interval.

    Accepts a univariate MultiPoly (variable inferred when unique) or an
    ascending coefficient list.  Bernstein subdivision (at most `max_depth`
    halvings) answers the easy cases quickly and carries an
    all-nonnegative-coefficients witness; the Sturm fallback makes the
    decision complete.  The result is exact, and a negative verdict's
    sample (x, v) has x in the interval, never on an open end, and
    v == p(x).  Open and closed ends give the same verdict: p is
    continuous, so p < 0 at an end means p < 0 just inside it.
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
    if len(coeffs) == 1:
        x = next((e for e in (interval.lo, interval.hi) if e is not None),
                 Fraction(0))
        if coeffs[0] < 0:
            return False, _negative_witness(coeffs, x, interval)
        return True, NonnegWitness("bernstein", sample=(x, coeffs[0]))

    best: NonnegWitness | None = None
    for unit_coeffs, back in _unit_interval_problems(coeffs, interval):
        unit_coeffs = _trim(list(unit_coeffs))
        if not unit_coeffs:
            continue
        if len(unit_coeffs) == 1:
            if unit_coeffs[0] < 0:
                return False, _negative_witness(coeffs, back(Fraction(0)),
                                                interval)
            continue
        verdict, info = _bernstein_decide(unit_coeffs, max_depth)
        if verdict is True:
            cand = NonnegWitness("bernstein", depth=info)
        elif verdict is False:
            return False, _negative_witness(coeffs, back(info[0]), interval)
        else:
            ok, w = _sturm_decide(unit_coeffs)
            if not ok:
                return False, _negative_witness(coeffs, back(w.sample[0]),
                                                interval, w.interior_sign_roots)
            cand = w
        if best is None or (cand.method == "sturm") or cand.depth > best.depth:
            best = cand
    return True, (best or NonnegWitness("bernstein"))
