"""Sturm nonnegativity decision on the interval itself: exactness,
completeness and true-valued witnesses."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from curlsharp.nonneg import IntervalQ, nonneg_on_interval
from curlsharp.poly import MultiPoly, parse_poly

S = MultiPoly.var("s")


def test_quadratic_on_unit_interval():
    # 1 - 3s + 3s^2: exact vertex minimum 1 - 3*(1/2) + 3*(1/4) = 1/4 > 0
    p = parse_poly("1 - 3*s + 3*s^2")
    vertex = F(1, 2)
    assert p.eval({"s": vertex}) == F(1, 4)
    ok, witness = nonneg_on_interval(p, IntervalQ.closed(0, 1))
    assert ok, witness


def test_halfline_negative_discriminant():
    # discriminant 15^2 - 4*(601/8)*(125/32) computed exactly
    disc = F(225) - 4 * F(601, 8) * F(125, 32)
    assert disc == F(14400 - 75125, 64) and disc < 0
    p = parse_poly("601/8*s^2 - 15*s + 125/32")
    ok, witness = nonneg_on_interval(p, IntervalQ.at_least(0))
    assert ok, witness


def test_sign_case():
    ok, witness = nonneg_on_interval(parse_poly("-s"), IntervalQ.closed(0, 1))
    assert not ok
    x, v = witness.sample
    assert v < 0 and 0 <= x <= 1


def test_interior_dip_detected():
    ok, witness = nonneg_on_interval(parse_poly("s^2 - s"), IntervalQ.closed(0, 1))
    assert not ok and witness.sample[1] < 0


def test_double_root_inside():
    # nonnegative with an interior zero: the piece holding the one root
    # 1/3 has positive ends, so the root has even multiplicity
    ok, witness = nonneg_on_interval(parse_poly("(s - 1/3)^2"),
                                     IntervalQ.closed(0, 1))
    assert ok and witness.method == "sturm"


def test_double_root_times_sign_change():
    ok, witness = nonneg_on_interval(parse_poly("(s-1/3)^2 * (s - 1/2)"),
                                     IntervalQ.closed(0, 1))
    assert not ok and witness.sample[1] < 0


def test_halfline_with_roots_below():
    p = parse_poly("s^3 - 6*s^2 + 11*s - 6")  # roots 1, 2, 3
    assert nonneg_on_interval(p, IntervalQ.at_least(4))[0]
    assert nonneg_on_interval(p, IntervalQ.at_least(3))[0]
    assert not nonneg_on_interval(p, IntervalQ.at_least(0))[0]


def test_left_halfline():
    assert nonneg_on_interval(parse_poly("1 - 6*lam"), IntervalQ.at_most(0))[0]
    assert not nonneg_on_interval(parse_poly("lam + 2"), IntervalQ.at_most(-3))[0]


def test_whole_line():
    assert nonneg_on_interval(parse_poly("s^2 + 1"), IntervalQ.real_line())[0]
    assert not nonneg_on_interval(parse_poly("s"), IntervalQ.real_line())[0]


def test_zero_and_constant():
    assert nonneg_on_interval(MultiPoly(), IntervalQ.closed(0, 1))[0]
    assert nonneg_on_interval(MultiPoly.const(F(3, 7)), IntervalQ.real_line())[0]
    assert not nonneg_on_interval(MultiPoly.const(-1), IntervalQ.closed(0, 1))[0]


def test_agrees_with_dense_sampling():
    """200 random cubics/quartics vs a 1000-point exact rational sampling.

    Dense sampling can only miss thin negative dips, so any disagreement
    must be a False from the decision procedure with a genuine negative
    witness value.
    """
    rng = random.Random(5)
    for _ in range(200):
        deg = rng.choice([3, 4])
        coeffs = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(deg + 1)]
        p = MultiPoly()
        for k, c in enumerate(coeffs):
            p = p + MultiPoly.const(c) * S ** k
        ok, witness = nonneg_on_interval(p, IntervalQ.closed(0, 1))
        dense_ok = all(
            sum(c * F(i, 1000) ** k for k, c in enumerate(coeffs)) >= 0
            for i in range(1001))
        if ok != dense_ok:
            assert not ok and witness.sample is not None
            x, v = witness.sample
            assert v < 0 and 0 <= x <= 1
            assert sum(c * x ** k for k, c in enumerate(coeffs)) == v
        if ok:
            assert dense_ok


def test_interval_validation():
    import pytest
    with pytest.raises(ValueError):
        IntervalQ.closed(1, 0)
    assert str(IntervalQ.at_least(0)) == "[0, oo)"
    # a point is an interval only when both its ends are closed
    assert str(IntervalQ.closed(1, 1)) == "[1, 1]"
    for lo_closed, hi_closed in ((False, True), (True, False), (False, False)):
        with pytest.raises(ValueError):
            IntervalQ(F(1), F(1), lo_closed, hi_closed)


def _value(coeffs, x):
    return sum(F(c) * x ** k for k, c in enumerate(coeffs))


def test_halfline_witness_is_true_value():
    # the witness carries p's own value at a point of the half-line, not
    # the value of a transformed problem (the Goursat-scaled -1/1600 once)
    poly = parse_poly("(s - 3)^2 - 1/100")
    ok, witness = nonneg_on_interval(poly, IntervalQ.at_least(0))
    assert not ok and witness.sample == (F(18981, 6400), F(-361639, 40960000))
    assert poly.eval({"s": F(18981, 6400)}) == F(-361639, 40960000)


@pytest.mark.parametrize("text,interval", [
    ("1 - s^3", IntervalQ.at_least(0)),
    ("10^30 - s^3", IntervalQ.at_least(0)),  # still positive at s = 10^9
    ("1 + s^3", IntervalQ.at_most(-2)),
    ("5 - s^2", IntervalQ.real_line()),
])
def test_point_at_infinity_witness_is_real(text, interval):
    # a negative leading term shows past the Cauchy bound; the witness is
    # a real point of the interval where p < 0
    poly = parse_poly(text)
    ok, witness = nonneg_on_interval(poly, interval)
    assert not ok
    x, v = witness.sample
    assert v < 0 and v == poly.eval({"s": x})
    assert interval.lo is None or x >= interval.lo
    assert interval.hi is None or x <= interval.hi


def test_constant_witness_lies_in_interval():
    ok, witness = nonneg_on_interval([-1], IntervalQ.at_most(-2))
    assert not ok and witness.sample == (F(-2), F(-1))


@pytest.mark.parametrize("text,interval", [
    ("s - 1", IntervalQ(F(0), F(1), lo_closed=False)),
    ("-s", IntervalQ(F(0), F(1), hi_closed=False)),
    ("s - 1/2", IntervalQ(F(0), F(1), False, False)),
    ("-s", IntervalQ(F(0), F(1), False, False)),
    ("s", IntervalQ(F(-1), None, lo_closed=False)),
    ("s", IntervalQ(None, F(-1), hi_closed=False)),
    ("-1", IntervalQ(F(0), F(1), lo_closed=False)),
    ("-1", IntervalQ(None, F(-2), hi_closed=False)),
])
def test_open_end_witness_lies_inside(text, interval):
    # a witness that lands on an excluded end moves strictly inside,
    # where p is still negative; the verdict is the closed interval's
    poly = parse_poly(text)
    ok, witness = nonneg_on_interval(poly, interval)
    assert not ok
    x, v = witness.sample
    assert v < 0 and v == poly.eval({"s": x})
    assert interval.lo is None or x > interval.lo
    assert interval.hi is None or x < interval.hi
    closed = IntervalQ(interval.lo, interval.hi)
    assert nonneg_on_interval(poly, closed)[0] is False


_INTERVALS = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(0, 6)).map(
        lambda ab: IntervalQ.closed(F(ab[0], 2), F(ab[0] + ab[1], 2))),
    st.integers(-6, 6).map(lambda a: IntervalQ.at_least(F(a, 3))),
    st.integers(-6, 6).map(lambda b: IntervalQ.at_most(F(b, 3))),
    st.just(IntervalQ.real_line()))


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.fractions(-8, 8, max_denominator=6),
                       min_size=1, max_size=6),
       interval=_INTERVALS)
def test_negative_verdict_sample_is_exact(coeffs, interval):
    ok, witness = nonneg_on_interval(coeffs, interval)
    if ok:
        return
    x, v = witness.sample
    assert v < 0 and _value(coeffs, x) == v
    assert interval.lo is None or x >= interval.lo
    assert interval.hi is None or x <= interval.hi


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.fractions(-8, 8, max_denominator=6),
                       min_size=1, max_size=6),
       interval=_INTERVALS)
@example(coeffs=[F(1), F(-6), F(9)], interval=IntervalQ.closed(0, 3))
@example(coeffs=[F(49), F(35), F(-13), F(1)], interval=IntervalQ.at_least(5))
def test_every_sample_is_a_true_value_in_the_interval(coeffs, interval):
    # positive verdicts too: (3s - 1)^2 on [0, 3] and (s - 7)^2 (s + 1) on
    # [5, oo) once printed a point and value of a transformed problem
    _, witness = nonneg_on_interval(coeffs, interval)
    if witness.sample is None:
        return
    x, v = witness.sample
    assert _value(coeffs, x) == v
    assert interval.lo is None or x >= interval.lo
    assert interval.hi is None or x <= interval.hi


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.fractions(-8, 8, max_denominator=6),
                       min_size=1, max_size=6),
       interval=_INTERVALS, lo_closed=st.booleans(), hi_closed=st.booleans())
def test_open_ends_move_only_negative_witnesses(coeffs, interval, lo_closed,
                                                hi_closed):
    if interval.lo is not None and interval.lo == interval.hi:
        lo_closed = hi_closed = True
    opened = IntervalQ(interval.lo, interval.hi, lo_closed, hi_closed)
    ok, witness = nonneg_on_interval(coeffs, opened)
    closed_ok, closed_witness = nonneg_on_interval(coeffs, interval)
    assert ok == closed_ok
    if ok:
        assert witness == closed_witness
        return
    x, v = witness.sample
    assert v < 0 and _value(coeffs, x) == v
    assert interval.lo is None or x > interval.lo or (
        lo_closed and x == interval.lo)
    assert interval.hi is None or x < interval.hi or (
        hi_closed and x == interval.hi)


def _times(a, b):
    """Product of two ascending coefficient lists."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sympy_verdict(coeffs, interval):
    """p >= 0 on the interval, decided with sympy alone: p is positive at
    an interior point that is not a root, and no root of odd multiplicity
    lies inside (an end root does not count)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(coeffs)], x, domain="QQ")
    lo, hi = interval.lo, interval.hi
    if p.is_zero:
        return True
    if lo is not None and lo == hi:
        return _value(coeffs, lo) >= 0
    if lo is not None and hi is not None:
        points = [lo + (hi - lo) * F(j, 17) for j in range(1, 17)]
    elif lo is not None or hi is not None:
        end, step = (lo, 1) if lo is not None else (hi, -1)
        points = [end + step * j for j in range(1, 17)]
    else:
        points = [F(j) for j in range(-8, 8)]
    # p has at most 15 roots, so one of the 16 points is not a root
    if next(v for v in (_value(coeffs, t) for t in points) if v != 0) < 0:
        return False
    ends = [None if e is None else sympy.Rational(e.numerator, e.denominator)
            for e in (lo, hi)]
    for factor, multiplicity in sympy.sqf_list(p)[1]:
        if multiplicity % 2:
            inside = factor.count_roots(*ends) - sum(
                1 for e in ends if e is not None and factor.eval(e) == 0)
            if inside:
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(st.fractions(-3, 3, max_denominator=7),
                                st.integers(1, 4)), max_size=3),
       cofactor=st.lists(st.fractions(-8, 8, max_denominator=6),
                         min_size=1, max_size=3),
       interval=_INTERVALS)
@example(roots=[(F(0), 3), (F(1), 1)], cofactor=[F(1)],
         interval=IntervalQ.closed(0, 1))
@example(roots=[(F(0), 1), (F(1), 3)], cofactor=[F(1)],
         interval=IntervalQ.closed(0, 1))
@example(roots=[(F(0), 3), (F(1, 2), 1)], cofactor=[F(1)],
         interval=IntervalQ.closed(0, 1))
@example(roots=[(F(0), 3), (F(1), 1)], cofactor=[F(1)],
         interval=IntervalQ.at_least(0))
def test_verdict_matches_sympy_root_count(roots, cofactor, interval):
    # p = cofactor * prod (s - r)^m: rational roots of every multiplicity,
    # often on an interval end, and clustered ones.  The examples have
    # their only negative stretch against a root at a closed end, such as
    # s^3 (s - 1) on [0, 1]; s (s - 1)^3 has odd multiplicity at the right
    # end, where dividing out the root flips the sign
    coeffs = cofactor
    for r, m in roots:
        for _ in range(m):
            coeffs = _times(coeffs, [-r, F(1)])
    ok, _ = nonneg_on_interval(coeffs, interval)
    assert ok == _sympy_verdict(coeffs, interval)
