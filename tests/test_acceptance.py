"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run `pytest -s tests/test_acceptance.py` to see
them).  All tolerances are pinned here, not configured elsewhere."""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from curlsharp import certificates as certs
from curlsharp import polyfamily as pf
from curlsharp.constants import (Params, alpha, rellich_hardy_A,
                                 rellich_hardy_A_min, rellich_hardy_C,
                                 rellich_hardy_C_min)
from curlsharp.oracle import crosscheck
from curlsharp.spectral import (Profile, SpectralField, brute_min_tau_nu,
                                minimizing_sequence, remainder_check)

GAMMA_GRID = [F(-3), F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2),
              F(2), F(3)]


class _Timer:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {status} "
              f"({time.perf_counter() - self.t0:.2f}s)")
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_1_exact_constants():
    with _Timer("1 exact constants") as timer:
        assert rellich_hardy_A_min(Params(3, F(0))).value == F(25, 36)
        assert rellich_hardy_A_min(Params(4, F(0))).value == 3
        for n in range(3, 13):
            assert rellich_hardy_C_min(Params(n, F(4 - n, 2))).value == n - 1
        assert rellich_hardy_C_min(Params(2, F(1))).value == 1
        assert rellich_hardy_A_min(Params(2, F(1))).value == 0
        for n in (2, 3, 4):
            p = Params(n, F(0))
            assert rellich_hardy_C_min(p).value == rellich_hardy_A_min(p).value
        for n in range(5, 13):
            p = Params(n, F(0))
            c = rellich_hardy_C_min(p).value
            assert c > rellich_hardy_A_min(p).value
            assert c == (F(n * n, 4) - 1) ** 2 / (F(n * n, 4) - n + 3)
    assert timer.elapsed < 1.0, "criterion 1 must finish under 1 s"


def test_criterion_2_certificate_suite():
    with _Timer("2 certificate suite") as timer:
        suite = certs.run_suite()
        bad = [r for r in suite.reports + suite.structural if not r.ok]
        assert not bad, [f"{r.name}: {r.detail}" for r in bad]
    assert timer.elapsed < 30.0, "criterion 2 must finish under 30 s"


def test_criterion_3_identity_links():
    with _Timer("3 identity links"):
        assert certs.quotient_constant_links() == []
        # the grid the identities cover: Q/P at tau = 0 against C, per cell
        for n in range(2, 11):
            for g in GAMMA_GRID:
                p = Params(n, g)
                fam = pf.build_family(p)
                q0, p0 = (f.subs("tau", 0).constant_value()
                          for f in (fam["Q0"], fam["P0"]))
                assert q0 / p0 == rellich_hardy_C(p, 0) \
                    == rellich_hardy_A(p, 1), (n, g)
                for nu in range(1, 9):
                    if p.degenerate and nu == 1:
                        continue  # P1(0, alpha_1) = 0 exactly there
                    q1, p1 = (f.subs("tau", 0).subs("a", alpha(nu, n))
                              .constant_value() for f in (fam["Q1"], fam["P1"]))
                    assert q1 / p1 == rellich_hardy_C(p, nu), (n, g, nu)


def test_criterion_4_brute_force_min_location():
    with _Timer("4 brute-force minimum location"):
        for n in range(2, 11):
            for g in GAMMA_GRID:
                result = brute_min_tau_nu(Params(n, g), rel_tol=1e-10)
                assert result.argmin_tau == 0.0
                assert result.rel_error <= 1e-10


def test_criterion_5_sharpness():
    with _Timer("5 sharpness at desk scale") as timer:
        for (n_dim, g) in [(3, F(0)), (4, F(0)), (5, F(0)), (2, F(1, 2))]:
            p = Params(n_dim, g)
            nu_star = rellich_hardy_C_min(p).argmin_nu
            res = minimizing_sequence(p, nu_star, (10, 20, 40))
            g10, g20, g40 = (r.gap for r in res.reports)
            assert 3.5 <= g10 / g20 <= 4.5, (n_dim, g, g10 / g20)
            assert 3.5 <= g20 / g40 <= 4.5, (n_dim, g, g20 / g40)
    assert timer.elapsed < 60.0, "criterion 5 must finish under 60 s"


def test_criterion_6_reduction_oracle():
    with _Timer("6 reduction oracle"):
        for dim in (2, 3):
            tol = 1e-6 if dim == 2 else 1e-5
            for g in [F(-1), F(0), F(1, 2), F(1), F(2)]:
                for nu in range(0, 4):
                    for n in (1, 2):
                        rep = crosscheck(Params(dim, g), nu,
                                         Profile.make("bump", n), tol=tol)
                        assert rep.max_rel <= tol


def test_criterion_7_remainder_inequality():
    with _Timer("7 remainder inequality"):
        rng = np.random.default_rng(2024)
        regimes = {
            "le1": ([F(k, 4) for k in range(-8, 5)], (2, 3, 4, 5, 6)),
            "gt1-nge3": ([F(5, 4), F(3, 2), F(2), F(3)], (3, 4, 5, 6)),
            "gt1-n2": ([F(5, 4), F(3, 2), F(2), F(3)], (2,)),
        }
        for gammas, dims in regimes.values():
            done = 0
            while done < 20:
                p = Params(int(rng.choice(list(dims))),
                           gammas[rng.integers(len(gammas))])
                nu = int(rng.integers(0, 5))
                if p.degenerate and nu == 1:
                    continue
                field = SpectralField(p, nu, Profile.make(
                    "bump" if rng.integers(2) else "cos4",
                    int(rng.integers(2, 8))))
                rep = remainder_check(field)
                assert rep.gap >= min(1.0, rep.c0) * rep.remainder \
                    - 1e-8 * rep.scale
                done += 1


def test_criterion_8_difference_quotient_guard():
    with _Timer("8 difference-quotient numeric guard"):
        margin, checked, failures = certs.difference_quotient_guard(
            seed=0, count=10_000)
        assert checked >= 10_000
        assert not failures and margin >= -1e-12
        # gamma <= 1: the difference quotient tends to the sharp channel
        # constant 1 as tau -> oo, exactly
        for (n, g, nu) in [(3, F(0), 1), (2, F(0), 1), (4, F(1), 2),
                           (5, F(-2), 3)]:
            q1, p1 = pf.channel_polys(Params(n, g), nu)
            p1z = p1.subs("tau", 0).constant_value()
            num = (q1 * p1z - q1.subs("tau", 0) * p1).to_univariate("tau")
            assert num[3] / (p1.to_univariate("tau")[2] * p1z) == 1, (n, g, nu)
