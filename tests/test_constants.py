"""Closed-form sharp constants: frozen values, certified minima, invariants."""

import contextlib
import inspect
import io
import json
import math
import textwrap
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from curlsharp import cli, constants
from curlsharp.constants import (Params, TailBoundError, alpha, hardy_leray,
                                 improvement_report, in_improvement_region,
                                 rellich_hardy_A, rellich_hardy_A_min,
                                 rellich_hardy_C, rellich_hardy_C_min,
                                 rellich_leray_curlfree,
                                 rellich_leray_unconstrained)
from curlsharp import sweep

GAMMA_GRID = [F(-3), F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2),
              F(2), F(3)]


def test_params_lambda_relation():
    p = Params(3, F(1, 2))
    assert p.lam == F(4 - 3, 2) - F(1, 2) == 0
    assert p.degenerate
    with pytest.raises(ValueError):
        Params(1, F(0))


def test_alpha():
    assert alpha(0, 5) == 0
    assert alpha(1, 4) == 3          # N - 1
    assert alpha(2, 3) == 6          # 2 * (2 + 1)
    assert alpha(F(1, 2), 3) == F(3, 4)


def test_hardy_leray_values():
    # (3,0): first branch, (1/4)(6 + 1/4)/(2 + 1/4) = 25/36 by direct substitution
    assert hardy_leray(Params(3, F(0))) == F(25, 36)
    # (2,0): (gamma + N/2 - 1)^2 = 0
    assert hardy_leray(Params(2, F(0))) == 0
    # (2,10): |gamma + 1| = 11 > sqrt(3), second branch 10^2 + 1
    assert hardy_leray(Params(2, F(10))) == 101


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 40),
       gamma=st.builds(F, st.integers(-300, 300), st.integers(1, 24)))
@example(n=3, gamma=F(0))
@example(n=4, gamma=F(3))
@example(n=2, gamma=F(1))
@example(n=6, gamma=F(-5, 2))
def test_rellich_leray_unconstrained(n, gamma):
    # the window needs no tail check: a scan to four times its end finds
    # the same value and first argmin
    hi = max(4, math.ceil(abs(gamma - 1) - F(n, 2) + 1) + 3)
    vals = [((gamma - 1) ** 2 - (nu + F(n, 2) - 1) ** 2) ** 2
            for nu in range(4 * hi + 1)]
    value = min(vals)
    res = rellich_leray_unconstrained(Params(n, gamma))
    assert res == constants.MinResult(value, vals.index(value), hi)


def test_rellich_leray_unconstrained_values():
    assert rellich_leray_unconstrained(Params(3, F(0))).value == F(9, 16)
    assert rellich_leray_unconstrained(Params(4, F(3))).value == 0  # (g-1)^2=(nu+1)^2
    assert rellich_leray_unconstrained(Params(2, F(1))).value == 0


def test_rellich_leray_curlfree():
    def brute(p):
        g, n = p.gamma, p.N
        vals = [((g - 1) ** 2 - F(n * n, 4)) ** 2]
        for nu in range(1, 51):
            anu = alpha(nu, n)
            vals.append(((g + F(n, 2) - 1) ** 2 + anu)
                        / ((g + F(n, 2) - 3) ** 2 + anu)
                        * ((g - 2) ** 2 - (nu + F(n, 2) - 1) ** 2) ** 2)
        return min(vals)

    p = Params(3, F(0))
    res = rellich_leray_curlfree(p)
    assert res.value == F(25, 16) and res.argmin_nu == 0
    # inner nu=1 term evaluates to (9/17)(49/16)
    g, n = p.gamma, p.N
    inner1 = ((g + F(n, 2) - 1) ** 2 + alpha(1, n)) \
        / ((g + F(n, 2) - 3) ** 2 + alpha(1, n)) \
        * ((g - 2) ** 2 - (1 + F(n, 2) - 1) ** 2) ** 2
    assert inner1 == F(9, 17) * F(49, 16) == F(441, 272)
    for (n, g) in [(2, F(0)), (3, F(1)), (5, F(-1)), (4, F(5, 2))]:
        assert rellich_leray_curlfree(Params(n, g)).value == brute(Params(n, g))
    # exact zero of the radial branch: (gamma-1)^2 = N^2/4
    assert rellich_leray_curlfree(Params(4, F(3))).value == 0


def _rl_curlfree_overshoot(p, nu_max):
    """The former finite overshoot check: the last nine window values
    nondecreasing and no term in nu_max < nu <= 8 nu_max reaching the
    window minimum; returns (value, argmin) or None."""
    g, n = p.gamma, p.N

    def term(nu):
        if nu == 0:
            return ((g - 1) ** 2 - F(n * n, 4)) ** 2
        anu = alpha(nu, n)
        return ((g + F(n, 2) - 1) ** 2 + anu) / ((g + F(n, 2) - 3) ** 2 + anu) \
            * ((g - 2) ** 2 - (nu + F(n, 2) - 1) ** 2) ** 2

    vals = [term(nu) for nu in range(nu_max + 1)]
    value = min(vals)
    if any(vals[k] > vals[k + 1] for k in range(max(0, nu_max - 8), nu_max)) \
            or any(term(nu) <= value for nu in range(nu_max + 1, 8 * nu_max + 1)):
        return None
    return value, vals.index(value)


def test_rellich_leray_curlfree_tail_bound():
    # the exact tail bound keeps the values of the former overshoot check,
    # including the lam = 0 points and |gamma| up to 12
    for n in (2, 3, 4, 7, 12, 24):
        for g in sorted({F(-12), F(-7, 3), F(-1), F(-1, 2), F(0), F(1, 2), F(2),
                         F(5, 2), F(31, 4), F(12), F(4 - n, 2)}):
            p = Params(n, g)
            res = rellich_leray_curlfree(p)
            assert (res.value, res.argmin_nu) \
                == _rl_curlfree_overshoot(p, res.scanned_up_to)
            # a window that holds the minimum and has quart increasing past it
            k = max(1, int(abs(g - 2) - F(n, 2) + 1) + 1)
            short = rellich_leray_curlfree(p, nu_max=k) if k < res.scanned_up_to else res
            assert (short.value, short.argmin_nu) == (res.value, res.argmin_nu)
    # quart still decreasing at nu_max (nu_max + N/2 - 1 < |gamma - 2|): at
    # (2, -19/2) the product bound alone would hold
    with pytest.raises(TailBoundError,
                       match="rellich_leray_curlfree window nu <= 4"):
        rellich_leray_curlfree(Params(2, F(12)), nu_max=4)
    with pytest.raises(TailBoundError):
        rellich_leray_curlfree(Params(2, F(-19, 2)), nu_max=11)
    # the radial branch alone bounds no tail; here c = 0, so f(alpha_0) is
    # not even defined
    with pytest.raises(TailBoundError):
        rellich_leray_curlfree(Params(4, F(1)), nu_max=0)


def test_rellich_hardy_A_values():
    assert rellich_hardy_A(Params(3, F(0)), 1) == F(25, 36)
    assert rellich_hardy_A(Params(4, F(0)), 1) == 3
    assert rellich_hardy_A(Params(3, F(0)), 0) == F(9, 4)


def test_rellich_hardy_C_values():
    assert rellich_hardy_C(Params(3, F(1, 2)), 1) == F(27, 7)   # N^3/(3N-2)
    assert rellich_hardy_C(Params(3, F(1, 2)), 0) == 2          # N - 1
    assert rellich_hardy_C(Params(3, F(0)), 1) == F(147, 44)


def test_min_results():
    res = rellich_hardy_A_min(Params(3, F(0)))
    assert (res.value, res.argmin_nu) == (F(25, 36), 1)
    res = rellich_hardy_C_min(Params(5, F(0)))
    assert (res.value, res.argmin_nu) == (F(441, 68), 0)
    n = 5
    assert res.value == (F(n * n, 4) - 1) ** 2 / (F(n * n, 4) - n + 3)
    res = rellich_hardy_C_min(Params(2, F(1)))
    assert (res.value, res.argmin_nu) == (1, 0)


def test_min_against_brute_force():
    # oracle: value and first argmin over nu <= 8 nu_max, including the
    # lam = 0 points gamma = (4 - N)/2 and |gamma| up to 12
    for n in range(2, 9):
        gammas = {F(-12), F(-7, 3), F(-2), F(-1, 2), F(0), F(1, 2), F(1),
                  F(5, 2), F(31, 4), F(12), F(4 - n, 2)}
        for g in sorted(gammas):
            p = Params(n, g)
            for mode, mode_min in ((rellich_hardy_C, rellich_hardy_C_min),
                                   (rellich_hardy_A, rellich_hardy_A_min)):
                res = mode_min(p)
                vals = [mode(p, nu) for nu in range(8 * res.scanned_up_to + 1)]
                brute = min(vals)
                assert (res.value, res.argmin_nu) == (brute, vals.index(brute)), \
                    (n, g, mode.__name__)


def test_c_min_short_windows():
    # A still decreasing at nu = 4 (it turns near nu = 11): no certificate
    with pytest.raises(TailBoundError):
        rellich_hardy_C_min(Params(2, F(12)), nu_max=4)
    p = Params(3, F(0))
    short, full = rellich_hardy_C_min(p, nu_max=2), rellich_hardy_C_min(p)
    assert (short.value, short.argmin_nu) == (full.value, full.argmin_nu)


def test_c0_equals_a1_on_grid():
    for n in range(2, 13):
        for g in GAMMA_GRID:
            p = Params(n, g)
            assert rellich_hardy_C(p, 0) == rellich_hardy_A(p, 1)


def test_c_min_dominates_a_min():
    for n in range(2, 13):
        for g in GAMMA_GRID:
            p = Params(n, g)
            assert rellich_hardy_C_min(p).value >= rellich_hardy_A_min(p).value


def test_interleaving_on_scan_window():
    for n in (2, 3, 5, 8):
        for g in [F(-2), F(0), F(3, 4), F(2)]:
            p = Params(n, g)
            if p.degenerate:
                continue
            for nu in range(1, 12):
                c = rellich_hardy_C(p, nu)
                lo = min(rellich_hardy_A(p, nu - 1), rellich_hardy_A(p, nu + 1))
                hi = max(rellich_hardy_A(p, nu - 1), rellich_hardy_A(p, nu + 1))
                assert lo <= c <= hi


def test_a_monotone_after_turning_index():
    for n in (2, 4, 7, 10):
        for g in GAMMA_GRID:
            p = Params(n, g)
            vals = [rellich_hardy_A(p, nu) for nu in range(40)]
            ks = [k for k in range(39) if vals[k] <= vals[k + 1]]
            assert ks, (n, g)
            k = ks[0]
            assert all(vals[j] <= vals[j + 1] for j in range(k, 39))


def test_two_a_forms_agree_on_random_points():
    # rellich_hardy_A reads the gamma-form table; the slot form, run on
    # the same integers G = 2 num(gamma) and q = den(gamma), must agree
    import random
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(2, 12)
        g = F(rng.randint(-24, 24), rng.randint(1, 6))
        nu = rng.randint(0, 10)
        slot = F(*constants._a_slot(2 * g.numerator, g.denominator, n, nu))
        assert rellich_hardy_A(Params(n, g), nu) == slot, (n, g, nu)


# The exact mode constants as Fraction closed forms, term by term: the
# reference for the integer evaluation of rellich_hardy_A/C.

def _ref_A_forms(p, nu):
    """(gamma-form, lam-form) of A(nu)."""
    g, n, lam = p.gamma, p.N, p.lam
    if nu == 0:
        return (g - F(n, 2)) ** 2, (lam + n - 2) ** 2
    anu = alpha(nu, n)
    return (((g - 1) ** 2 - (nu + F(n, 2) - 1) ** 2) ** 2
            / ((g + F(n, 2) - 2) ** 2 + anu),
            (anu - alpha(lam, n)) ** 2 / (anu + lam ** 2))


def _ref_C(p, nu):
    g, n = p.gamma, p.N
    if nu == 0:
        return ((g - 1) ** 2 - F(n * n, 4)) ** 2 / ((g + F(n, 2) - 2) ** 2 + n - 1)
    if nu == 1:
        return (g - F(n, 2) - 2) ** 2 * ((g + F(n, 2) - 1) ** 2 + n - 1) \
            / ((g + F(n, 2) - 3) ** 2 + 3 * (n - 1))
    anu = alpha(nu, n)
    quart = ((g - 2) ** 2 - (nu + F(n, 2) - 1) ** 2) ** 2
    den = quart + 2 * (g - 1) * ((2 * g + n - 5) * anu
                                 + (n - 1) * (g + F(n, 2) - 3) ** 2)
    return quart * ((g + F(n, 2) - 1) ** 2 + anu) / den


def _outcome(fn, *args):
    """The value, or the type of the ZeroDivisionError raised instead."""
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(n=st.integers(2, 40), nu=st.integers(0, 80), data=st.data())
def test_integer_modes_equal_fraction_closed_forms(n, nu, data):
    gamma = data.draw(st.one_of(
        st.builds(F, st.integers(-400, 400), st.integers(1, 24)),
        st.floats(-30.0, 30.0, allow_nan=False).map(F),   # q = 2^k
        st.just(F(4 - n, 2))))                            # lam = 0
    p = Params(n, gamma)
    ref_a = _outcome(_ref_A_forms, p, nu)
    if ref_a is not ZeroDivisionError:
        via_gamma, via_lam = ref_a
        assert via_gamma == via_lam
        ref_a = via_gamma
    assert _outcome(rellich_hardy_A, p, nu) == ref_a
    assert _outcome(rellich_hardy_C, p, nu) == _outcome(_ref_C, p, nu)


def test_degenerate_gamma_values():
    # gamma = 2 - N/2
    for n in range(3, 13):
        p = Params(n, F(4 - n, 2))
        assert p.degenerate
        assert rellich_hardy_C_min(p).value == n - 1
        assert rellich_hardy_C(p, 1) == F(n ** 3, 3 * n - 2)
        assert rellich_hardy_C(p, 2) == F((n + 1) * (2 * n + 1), 2 * n - 1)
    assert rellich_hardy_C_min(Params(2, F(1))).value == 1
    assert rellich_hardy_A_min(Params(2, F(1))).value == 0


def test_improvement_report_cases():
    rep = improvement_report(Params(4, F(0)))
    assert rep.equal and rep.A.value == 3 and rep.C.value == 3
    rep = improvement_report(Params(5, F(0)))
    assert rep.strict_improvement
    assert rep.A.value == F(25, 4) and rep.C.value == F(441, 68)
    assert rep.in_region
    rep = improvement_report(Params(2, F(1)))
    assert rep.A.value == 0 and rep.C.value == 1 and rep.strict_improvement
    assert rep.degenerate_mode_nu1 and rep.sandwich_ok is None
    rep = improvement_report(Params(3, F(0)))
    assert rep.equal and not rep.in_region
    assert rep.sandwich_ok


def test_improvement_report_short_windows():
    # the same errors, in the same order, as the public minima
    with pytest.raises(TailBoundError) as exc:
        improvement_report(Params(2, F(12)), nu_max=4)
    assert str(exc.value) == "tail_bound_failed: A-scan window nu <= 4"
    with pytest.raises(TailBoundError) as exc:
        improvement_report(Params(3, F(4)), nu_max=3)
    assert str(exc.value) == "tail_bound_failed: C-scan window nu <= 3"
    with pytest.raises(TailBoundError, match="C-scan"):
        rellich_hardy_C_min(Params(3, F(4)), nu_max=3)


def test_improvement_report_equals_public_minima():
    for n in (2, 3, 5, 8, 13, 24):
        for g in sorted({F(-12), F(-29, 8), F(-1), F(0), F(1, 3), F(3, 4),
                         F(5, 2), F(23, 4), F(12), F(4 - n, 2)}):
            p = Params(n, g)
            rep = improvement_report(p)
            # the default-window minima are cached apart from the report's
            a_min, c_min = rellich_hardy_A_min(p), rellich_hardy_C_min(p)
            assert (rep.A, rep.C) == (a_min, c_min), (n, g)
            assert rep.equal == (a_min.value == c_min.value)
            assert rep.strict_improvement == (c_min.value > a_min.value)
            assert rep.in_region == in_improvement_region(p)
            # each table holds the modes nu = 0, 1, ... that the rules read
            for modes, mode in ((rep.A_modes, rellich_hardy_A),
                                (rep.C_modes, rellich_hardy_C)):
                assert sorted(modes) == list(range(len(modes))), (n, g)
                assert all(v == mode(p, nu) for nu, v in modes.items()), (n, g)
            assert rep.sandwich_ok is (None if p.degenerate else True)


def test_report_and_minima_share_the_window_rules(monkeypatch):
    # one statement of each rule: the report, the cached minima and the
    # float path all apply it, by module name, where a caller can wrap it
    called = Counter()

    def counting(name, fn):
        def wrapper(*args):
            called[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_a_window_min", "_c_window_min"):
        wrapped = counting(name, getattr(constants, name))
        monkeypatch.setattr(constants, name, wrapped)
        monkeypatch.setattr(sweep, name, wrapped)
    p = Params(7, F(-5, 3))
    rellich_hardy_A_min.cache_clear()
    rellich_hardy_C_min.cache_clear()
    rep = improvement_report(p, nu_max=30)
    assert called == {"_a_window_min": 1, "_c_window_min": 1}
    # the report fills no cache of the public minima, and equals them
    assert rellich_hardy_A_min.cache_info().currsize == 0
    assert rellich_hardy_C_min.cache_info().currsize == 0
    assert (rellich_hardy_A_min(p, 30), rellich_hardy_C_min(p, 30)) == (rep.A, rep.C)
    # the C minimum is the C of a report, which applies both rules once more
    assert called == {"_a_window_min": 3, "_c_window_min": 2}
    sweep.point(7, -5 / 3)
    assert called == {"_a_window_min": 4, "_c_window_min": 3}


def test_c_min_fills_no_a_min_cache():
    # the undecorated C minimum (as a benchmark check calls it) leaves the
    # A minimum's cache as it found it
    rellich_hardy_A_min.cache_clear()
    before = rellich_hardy_A_min.cache_info()
    res = rellich_hardy_C_min.__wrapped__(Params(5, F(0)))
    assert res == constants.MinResult(F(441, 68), 0, 21)
    assert rellich_hardy_A_min.cache_info() == before


@pytest.mark.parametrize("n,gamma,window,message", [
    (2, 12, 4, "tail_bound_failed: A-scan window nu <= 4"),   # A turns near nu = 11
    (3, 4, 3, "tail_bound_failed: C-scan window nu <= 3"),    # A(3) <= min C
], ids=["a-turn", "c-tail"])
def test_point_f_raises_where_the_exact_path_does(monkeypatch, capsys, n, gamma,
                                                  window, message):
    with pytest.raises(TailBoundError) as exact:
        improvement_report(Params(n, F(gamma)), nu_max=window)
    assert str(exact.value) == message
    monkeypatch.setattr(sweep, "default_nu_max", lambda N, g: window)
    with pytest.raises(TailBoundError) as float_path:
        sweep.point(n, float(gamma))
    assert str(float_path.value) == message
    # a decimal gamma reaches the float path through the CLI: a math failure,
    # not an unchecked minimum on stdout
    assert cli.main(["constants", "--N", str(n), f"--gamma={gamma}.0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def _count_evaluations(mp, calls):
    """Patch the mode tables so that `calls[kind, nu]` counts the
    evaluations of mode nu of A or C: each evaluation stores its mode in
    its table once, in `__init__` or on its first read."""
    for kind, table in (("A", constants._AModes), ("C", constants._CModes)):
        def store(self, nu, value, kind=kind):
            calls[kind, nu] += 1
            dict.__setitem__(self, nu, value)
        mp.setattr(table, "__setitem__", store)


@pytest.mark.parametrize("argv", [
    ["--N", "5", "--gamma=1/3"],
    ["--N", "4", "--gamma=0"],            # lam = 0
    ["--N", "3", "--gamma=-7/2", "--nu-max", "40"],   # past the window
])
def test_constants_op_evaluates_each_mode_once(monkeypatch, capsys, argv):
    # cold minima, as at a grid point seen for the first time
    rellich_hardy_A_min.cache_clear()
    rellich_hardy_C_min.cache_clear()
    calls = Counter()
    _count_evaluations(monkeypatch, calls)
    assert cli.main(["constants"] + argv) == 0
    capsys.readouterr()
    # every mode is evaluated exactly once
    assert set(calls.values()) == {1}


class _Reads:
    """A list read through `[]`, recording the highest index read."""

    def __init__(self, values):
        self.values, self.top = values, -1

    def __getitem__(self, nu):
        self.top = max(self.top, nu)
        return self.values[nu]


def _eager_constants(n, gamma, nu_cli):
    """(exit code, stdout, A modes read, C modes read) of `constants` on the
    eager design: A(0..nu_max+1) and C(0..nu_max) evaluated up front over
    the default window, the sandwich recomputed for 1 <= nu <= nu_max, and
    the printed lists extended by direct evaluation past the window.  The
    reads are those of the window rules, plus nu <= nu_cli on success."""
    p = Params(n, gamma)
    nu_max = constants.default_nu_max(n, gamma)
    a = _Reads([rellich_hardy_A(p, nu) for nu in range(nu_max + 2)])
    c = _Reads([rellich_hardy_C(p, nu) for nu in range(nu_max + 1)])
    try:
        a_min = constants._a_window_min(a, nu_max)
        c_min = constants._c_window_min(c, a, nu_max)
    except TailBoundError:
        return 1, "", a.top + 1, c.top + 1
    av, cv = a.values, c.values
    sandwich = None
    if not p.degenerate:
        sandwich = all(min(av[nu - 1], av[nu + 1]) <= cv[nu] <= max(av[nu - 1], av[nu + 1])
                       for nu in range(1, nu_max + 1))
    av = av + [rellich_hardy_A(p, nu) for nu in range(len(av), nu_cli + 1)]
    cv = cv + [rellich_hardy_C(p, nu) for nu in range(len(cv), nu_cli + 1)]
    payload = {
        "command": "constants",
        "N": p.N,
        "gamma": str(p.gamma),
        "lam": str(p.lam),
        "float_path": False,
        "H": str(hardy_leray(p)),
        "A": [str(v) for v in av[:nu_cli + 1]],
        "C": [str(v) for v in cv[:nu_cli + 1]],
        "A_min": str(a_min[0]), "A_argmin": a_min[1],
        "C_min": str(c_min[0]), "C_argmin": c_min[1],
        "equal": a_min[0] == c_min[0],
        "strict_improvement": c_min[0] > a_min[0],
        "in_improvement_region": in_improvement_region(p),
        "sandwich_ok": sandwich,
        "degenerate_mode_nu1": p.degenerate,
    }
    return (0, json.dumps(payload, indent=2, sort_keys=True) + "\n",
            max(a.top, nu_cli) + 1, max(c.top, nu_cli) + 1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_constants_output_equals_the_eager_path(n, data):
    # the lazy tables print what the eager ones printed, the certified
    # sandwich_ok included, and evaluate only the modes the rules read and
    # the printed nu <= --nu-max, each exactly once
    q = data.draw(st.integers(1, 24))
    gamma = data.draw(st.one_of(st.builds(F, st.integers(-30 * q, 30 * q), st.just(q)),
                                st.just(F(4 - n, 2))))        # lam = 0
    for nu_cli in (0, 8, 70):
        rc, out, a_read, c_read = _eager_constants(n, gamma, nu_cli)
        calls = Counter()
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            _count_evaluations(mp, calls)
            got = cli.main(["constants", "--N", str(n), f"--gamma={gamma}",
                            "--nu-max", str(nu_cli)])
        assert (got, buf.getvalue()) == (rc, out), (n, gamma, nu_cli)
        want = Counter({("A", nu): 1 for nu in range(a_read)})
        want.update({("C", nu): 1 for nu in range(c_read)})
        assert calls == want, (n, gamma, nu_cli)


def test_cold_minima_read_modes_only_up_to_the_stop(monkeypatch):
    # at (5, 0) A turns at k = 1 (A(1) <= A(2)); C(0) = A(1), so the C rule
    # stops at m = 2, the first m >= k with A(m) > min C(0..m).  The window
    # runs to nu_max = 21, yet no mode past m + 1 is read
    calls = Counter()
    _count_evaluations(monkeypatch, calls)
    rellich_hardy_A_min.cache_clear()
    rellich_hardy_C_min.cache_clear()
    res = rellich_hardy_C_min(Params(5, F(0)))
    assert res == constants.MinResult(F(441, 68), 0, 21)
    assert sorted(calls) == [("A", nu) for nu in range(4)] + [("C", nu) for nu in range(3)]
    # the float path reads the same modes
    row, a, c = sweep.point(5, 0.0)
    assert (row.C_min, row.C_argmin) == (441 / 68, 0)
    assert (len(a), len(c)) == (4, 3)


def test_improvement_region_boundary_exact():
    # (6 gamma - (N+4))^2 < 4(N^2 - N + 1), decided exactly: for N = 3 the
    # region is |gamma - 7/6| < sqrt(7)/3, so gamma = 0 is outside and
    # gamma = 1 inside
    assert not in_improvement_region(Params(3, F(0)))
    assert in_improvement_region(Params(3, F(1)))


def test_improvement_region_is_where_a0_is_below_a1():
    # the tested reading of in_region, not yet proven;
    # it is not strict improvement: at N = 3, gamma = -1 the point is
    # outside the region, and yet C_min = C(0) > A_min = A(2)
    for n in range(2, 25):
        for k in range(-96, 97):
            p = Params(n, F(k, 8))
            a0, a1 = rellich_hardy_A(p, 0), rellich_hardy_A(p, 1)
            assert in_improvement_region(p) == (a0 < a1), (n, k)
    rep = improvement_report(Params(3, F(-1)))
    assert not rep.in_region and rep.strict_improvement
    assert (rep.A.argmin_nu, rep.C.argmin_nu) == (2, 0)


def test_float_path_matches_exact():
    for n in (2, 3, 5, 9, 12):
        for g in GAMMA_GRID:
            p = Params(n, g)
            gf = float(g)
            row, a, c = sweep.point(n, gf)
            for nu in range(0, 6):
                assert a[nu] == float(rellich_hardy_A(p, nu)), (n, g, nu)
                assert c[nu] == float(rellich_hardy_C(p, nu)), (n, g, nu)
            assert constants._hardy_leray(n, gf, n / 2.0) == float(hardy_leray(p)), (n, g)
            a_min, c_min = rellich_hardy_A_min(p), rellich_hardy_C_min(p)
            assert (row.A_min, row.A_argmin) == (float(a_min.value), a_min.argmin_nu)
            assert (row.C_min, row.C_argmin) == (float(c_min.value), c_min.argmin_nu)
            # EQUAL_REL_TOL: on rational points float equality is exact equality
            rep = improvement_report(p)
            assert row.equal == rep.equal, (n, g)
            assert row.in_improvement_region == rep.in_region, (n, g)


# The float mode formulas as closed forms per nu: the reference for the
# per-(N, gamma) tables of sweep.point, which must be bit-identical.

def _ref_A_f(N, gamma, nu):
    if nu == 0:
        return (gamma - N / 2.0) ** 2
    anu = nu * (nu + N - 2)
    return ((gamma - 1.0) ** 2 - (nu + N / 2.0 - 1.0) ** 2) ** 2 \
        / ((gamma + N / 2.0 - 2.0) ** 2 + anu)


def _ref_C_f(N, gamma, nu):
    if nu == 0:
        return ((gamma - 1.0) ** 2 - N * N / 4.0) ** 2 \
            / ((gamma + N / 2.0 - 2.0) ** 2 + N - 1)
    if nu == 1:
        return (gamma - N / 2.0 - 2.0) ** 2 \
            * ((gamma + N / 2.0 - 1.0) ** 2 + N - 1) \
            / ((gamma + N / 2.0 - 3.0) ** 2 + 3.0 * (N - 1))
    anu = nu * (nu + N - 2)
    quart = ((gamma - 2.0) ** 2 - (nu + N / 2.0 - 1.0) ** 2) ** 2
    den = quart + 2.0 * (gamma - 1.0) * ((2.0 * gamma + N - 5.0) * anu
                                         + (N - 1) * (gamma + N / 2.0 - 3.0) ** 2)
    return quart * ((gamma + N / 2.0 - 1.0) ** 2 + anu) / den


def _ref_min(vals):
    v = min(vals)
    return v, vals.index(v)


_SWEEP_GAMMAS = [-12.0 + k * 0.0625 for k in range(385)]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_float_tables_bit_identical_to_closed_forms(n, data):
    gamma = data.draw(st.one_of(
        st.sampled_from(_SWEEP_GAMMAS),
        st.floats(-30.0, 30.0, allow_nan=False),
        st.just(2.0 - n / 2.0)))                     # lam = 0
    hi = data.draw(st.sampled_from([0, 0, 70]))       # 70: a CLI --nu-max past the window
    row, a, c = sweep.point(n, gamma)
    for nu in range(hi + 1):                          # as `constants` reads them
        a[nu], c[nu]
    window = math.ceil(abs(gamma)) + n + 16
    ref_a = [_ref_A_f(n, gamma, nu) for nu in range(max(len(a), window + 1))]
    ref_c = [_ref_C_f(n, gamma, nu) for nu in range(max(len(c), window + 1))]
    # each table holds nu = 0, 1, ... in order, each float bit-identical
    for table, ref in ((a, ref_a), (c, ref_c)):
        assert list(table) == list(range(len(table)))
        assert repr(list(table.values())) == repr(ref[:len(table)])
    # the row against the minima of the full-window reference tables
    ref_a, ref_c = ref_a[:window + 1], ref_c[:window + 1]
    assert sweep.sweep_gamma(n, [gamma]) == [row]
    assert repr((row.A_min, row.A_argmin)) == repr(_ref_min(ref_a))
    assert repr((row.C_min, row.C_argmin)) == repr(_ref_min(ref_c))


def test_float_path_runs_the_certified_c_table(monkeypatch):
    # one statement of C(nu): C(nu >= 2)'s linear coefficient changed from
    # 5 D to 4 D in the certified table (the links name it, see
    # test_links_report_a_perturbed_closed_form[c-lin]) moves the float
    # path off its term-by-term reference, C(0) and C(1) aside
    n, gamma = 5, 0.3
    src = textwrap.dedent(inspect.getsource(constants._CModes.__init__))
    assert src.count("5 * D") == 1
    scope = dict(vars(constants))
    exec(src.replace("5 * D", "4 * D"), scope)
    monkeypatch.setattr(constants._CModes, "__init__", scope["__init__"])
    row, a, c = sweep.point(n, gamma)
    got = [c[nu] for nu in range(6)]
    ref = [_ref_C_f(n, gamma, nu) for nu in range(6)]
    assert got[:2] == ref[:2]
    assert all(x != y for x, y in zip(got[2:], ref[2:])), (got, ref)


def test_sweep_rows():
    rows = sweep.sweep_gamma(5, [0.0, 0.5])
    assert rows[0].in_improvement_region and not rows[0].equal
    assert abs(rows[0].C_min - 441 / 68) < 1e-12

