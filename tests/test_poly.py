"""Exact polynomial arithmetic, substitution, Taylor re-expansion, text format."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from curlsharp.certificates import _at_table
from curlsharp.poly import (VARS, MultiPoly, PolyParseError,
                            UnknownVariableError, format_poly, parse_poly)

TAU, A, LAM, N, S, M, MU = (MultiPoly.var(v) for v in VARS)


def rand_poly(rng, vars_=(TAU, A, LAM), terms=6, deg=3, span=9):
    out = MultiPoly()
    for _ in range(terms):
        t = MultiPoly.const(F(rng.randint(-span, span), rng.randint(1, span)))
        for v in vars_:
            t = t * v ** rng.randint(0, deg)
        out = out + t
    return out


def test_difference_of_squares():
    assert (TAU + 1) * (TAU - 1) == TAU ** 2 - 1
    assert (A + LAM ** 2) * (A - LAM ** 2) == A ** 2 - LAM ** 4


def test_additive_identity():
    p = parse_poly("2*tau^2 - 1/3*a + 5")
    assert p + MultiPoly() == p
    assert p + 0 == p


def test_add_sub_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p + q) - q == p


def test_product_matches_pointwise_evaluation():
    rng = random.Random(11)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        prod = p * q
        point = {v: F(rng.randint(-9, 9), rng.randint(1, 9))
                 for v in ("tau", "a", "lam")}
        assert prod.eval(point) == p.eval(point) * q.eval(point)


def test_substitute_binomial():
    # lam^2 at lam = 1 - N s / 2
    got = (LAM ** 2).subs("lam", 1 - N * S * F(1, 2))
    assert got == parse_poly("1 - N*s + 1/4*N^2*s^2")


def test_substitute_identity():
    p = parse_poly("a^3 - 2*a + 7")
    assert p.subs("a", A) == p


def test_substitute_shift_slot():
    # alpha_1 = N - 1: shifting the slot by s
    assert A.subs("a", N - 1 + S) == N - 1 + S


def test_taylor_perfect_square():
    coeffs = (TAU ** 2 + 2 * TAU + 1).taylor("tau", -1)
    assert [str(c) for c in coeffs] == ["0", "0", "1"]


def test_taylor_constant():
    assert MultiPoly.const(F(5, 3)).taylor("tau", 2) == [MultiPoly.const(F(5, 3))]


def test_taylor_reexpansion_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        p = rand_poly(rng, vars_=(TAU, A), terms=5, deg=4)
        center = MultiPoly.const(rng.randint(-3, 3)) + A * rng.randint(0, 2)
        coeffs = p.taylor("tau", center)
        rebuilt = MultiPoly()
        for k, c in enumerate(coeffs):
            assert "tau" not in c.variables_used()
            rebuilt = rebuilt + c * (TAU - center) ** k
        assert rebuilt == p


def test_g1_taylor_coefficients_at_alpha1():
    # cross-checked by exact expansion: G1(alpha_1 + s) coefficient list
    from curlsharp.polyfamily import g1
    coeffs = g1().subs("a", N - 1 + S).coeffs_in("s")
    assert coeffs[2] == parse_poly("2*lam + N")
    assert coeffs[1] == parse_poly("(N-1)*(N + 2*lam - 2) + (lam-1)^2*(2*lam+N)")
    assert coeffs[0] == parse_poly("2*(N-1)*lam^2*(2*lam+N-1)")


def test_diff():
    p = parse_poly("tau^3 - 4*tau*a + a^2")
    assert p.diff("tau") == parse_poly("3*tau^2 - 4*a")


def test_unknown_variable_rejected():
    with pytest.raises(UnknownVariableError):
        MultiPoly.var("x")
    with pytest.raises(PolyParseError):
        parse_poly("tau + y")


def test_format_parse_roundtrip_random():
    rng = random.Random(19)
    for _ in range(100):
        p = rand_poly(rng, vars_=(TAU, LAM, N), terms=5, deg=3, span=20)
        assert parse_poly(format_poly(p)) == p


# sparse polynomials in every variable: up to 4 terms, exponents 0..2
POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(VARS)),
    st.fractions(-9, 9, max_denominator=7), max_size=4).map(MultiPoly)
ZERO, ONE = MultiPoly(), MultiPoly.const(1)


@settings(max_examples=100, deadline=None)
@given(p=POLYS, q=POLYS, r=POLYS)
def test_ring_laws(p, q, r):
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p and p * ONE == p and (p * ZERO).is_zero()
    assert p - p == ZERO and (p - p).is_zero()


@settings(max_examples=200, deadline=None)
@given(p=POLYS)
def test_format_parse_roundtrip_generated(p):
    assert parse_poly(format_poly(p)) == p


def test_parse_rational_literals():
    assert parse_poly("3/4 * tau - 1/2") == TAU.scale(F(3, 4)) - F(1, 2)
    assert parse_poly("-5/7") == MultiPoly.const(F(-5, 7))


def test_parse_rejects_general_division():
    with pytest.raises(PolyParseError):
        parse_poly("tau / 2")


def test_to_univariate():
    p = parse_poly("2*s^3 - s + 1/4")
    assert p.to_univariate("s") == [F(1, 4), F(-1), F(0), F(2)]
    with pytest.raises(ValueError):
        parse_poly("s + tau").to_univariate("s")


def test_immutability_and_hash():
    p = parse_poly("tau + 1")
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(parse_poly("1 + tau"))


# ---- the @name atom ----------------------------------------------------

_TABLE = _at_table()


def _paste_then_parse(text, table):
    """Reference expansion: each @name replaced by the canonical text of
    its polynomial in parentheses, then the whole text parsed."""
    return parse_poly(re.sub(r"@([A-Za-z_][A-Za-z0-9_]*)",
                             lambda m: "(" + format_poly(table[m.group(1)]) + ")",
                             text))


_AT_TEXTS = ("{k}*@{x}^{e} + {p}", "{k}*@{x}^{e} - {p}", "-@{x}^{e} + {p}",
             "{p} - @{x}", "({p}) * @{x}^{e}", "{k}*-@{x}^{e}", "@{x} * @{y}")


@settings(max_examples=60, deadline=None)
@given(x=st.sampled_from(sorted(_TABLE)), y=st.sampled_from(sorted(_TABLE)),
       form=st.sampled_from(_AT_TEXTS), k=st.integers(1, 9),
       e=st.integers(0, 2), p=POLYS)
def test_at_atom_equals_paste_then_parse(x, y, form, k, e, p):
    text = form.format(x=x, y=y, k=k, e=e, p=format_poly(p))
    assert parse_poly(text, _TABLE) == _paste_then_parse(text, _TABLE)


def test_every_at_name_parses_to_its_polynomial():
    for name, poly in _TABLE.items():
        assert parse_poly(f"@{name}", _TABLE) == poly


@pytest.mark.parametrize("text,names,problem", [
    ("tau + @G9", _TABLE, "unknown @reference 'G9'"),
    ("tau + @", _TABLE, "'@' must be followed by a name"),
    ("@ G0", _TABLE, "'@' must be followed by a name"),
    ("2 * @G0", None, "@G0 used without a mapping of names"),
], ids=["unknown-name", "bare-at-end", "bare-at-space", "no-mapping"])
def test_at_atom_errors_name_the_problem(text, names, problem):
    with pytest.raises(PolyParseError, match=re.escape(problem)):
        parse_poly(text, names)
