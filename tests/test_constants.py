"""Closed-form sharp constants: frozen values, certified minima, invariants."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import curlsharp
from curlsharp import constants
from curlsharp.constants import (ModeInvariantError, Params, TailBoundError,
                                 alpha, hardy_leray,
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


def test_rellich_leray_unconstrained():
    # brute force over nu <= 50 as the oracle
    for (n, g) in [(3, F(0)), (4, F(3)), (2, F(1)), (6, F(-5, 2))]:
        p = Params(n, g)
        brute = min(((g - 1) ** 2 - (nu + F(n, 2) - 1) ** 2) ** 2
                    for nu in range(51))
        res = rellich_leray_unconstrained(p)
        assert res.value == brute
        assert res.tail_bound_ok
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
    # rellich_hardy_A evaluates both closed forms and asserts equality
    import random
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(2, 12)
        g = F(rng.randint(-24, 24), rng.randint(1, 6))
        nu = rng.randint(0, 10)
        rellich_hardy_A(Params(n, g), nu)


def test_mode_invariants_raise(monkeypatch):
    p = Params(3, F(0))
    real_alpha = constants.alpha
    monkeypatch.setattr(constants, "alpha", lambda s, n: 2 * real_alpha(s, n))
    with pytest.raises(ModeInvariantError):
        rellich_hardy_A(p, 2)
    monkeypatch.setattr(constants, "alpha", real_alpha)
    monkeypatch.setattr(constants, "rellich_hardy_A", lambda p, nu: F(-1))
    with pytest.raises(ModeInvariantError):
        rellich_hardy_C(p, 0)
    assert issubclass(curlsharp.ModeInvariantError, RuntimeError)


def test_mode_invariants_raise_under_python_O():
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from curlsharp import constants as c\n"
            "if __debug__:\n"
            "    sys.exit(4)\n"
            "real_alpha = c.alpha\n"
            "c.alpha = lambda s, n: 2 * real_alpha(s, n)\n"
            "try:\n"
            "    c.rellich_hardy_A(c.Params(3, Fraction(0)), 2)\n"
            "except c.ModeInvariantError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(curlsharp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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


def test_improvement_region_boundary_exact():
    # (6 gamma - (N+4))^2 < 4(N^2 - N + 1), decided exactly: for N = 3 the
    # region is |gamma - 7/6| < sqrt(7)/3, so gamma = 0 is outside and
    # gamma = 1 inside
    assert not in_improvement_region(Params(3, F(0)))
    assert in_improvement_region(Params(3, F(1)))


def test_float_path_matches_exact():
    for n in (2, 3, 5, 9, 12):
        for g in GAMMA_GRID:
            p = Params(n, g)
            gf = float(g)
            for nu in range(0, 6):
                ex = float(rellich_hardy_A(p, nu))
                fl = sweep.rellich_hardy_A_f(n, gf, nu)
                assert abs(ex - fl) <= 1e-12 * max(1.0, abs(ex))
                ex = float(rellich_hardy_C(p, nu))
                fl = sweep.rellich_hardy_C_f(n, gf, nu)
                assert abs(ex - fl) <= 1e-12 * max(1.0, abs(ex))
            exh = float(hardy_leray(p))
            assert abs(exh - sweep.hardy_leray_f(n, gf)) <= 1e-12 * max(1.0, exh)
            a_min, _ = sweep.rellich_hardy_A_min_f(n, gf)
            assert abs(a_min - float(rellich_hardy_A_min(p).value)) \
                <= 1e-12 * max(1.0, a_min)


def test_sweep_rows():
    rows = sweep.sweep_gamma(5, [0.0, 0.5])
    assert rows[0].in_improvement_region and not rows[0].equal
    assert abs(rows[0].C_min - 441 / 68) < 1e-12


def test_mode_table():
    from curlsharp.constants import mode_table
    table = mode_table(Params(3, F(0)), nu_max=2)
    assert len(table) == 6
    kinds = {(m.nu, m.kind): m.value for m in table}
    assert kinds[(1, "A")] == F(25, 36)
    assert kinds[(1, "C")] == F(147, 44)
