"""Profiles, quadratic-form backends, quotients, scans, remainder checks."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import curlsharp
from curlsharp import polyfamily as pf
from curlsharp import spectral
from curlsharp.constants import (Params, alpha, rellich_hardy_C,
                                 rellich_hardy_C_min)
from curlsharp.spectral import (AngularGrid, ArgminNotAtZeroError,
                                BUMP_NORM2, COS4_NORM2, DegenerateModeError,
                                NonPositiveFormError, Profile, SpectralField,
                                brute_min_tau_nu, decompose_potential,
                                derivative_norms, minimizing_sequence,
                                quadratic_form, remainder_check, rh_quotient)

# frozen from an independent 40-digit quadrature / symbolic differentiation
BUMP_AT_HALF = [0.26359713811572677, -0.46861713442795870,
                -1.3537828327918807, -2.3141586885331294, 2.8181310251470109]


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile.make("bump", 1, 8)
    with pytest.raises(ValueError):
        Profile.make("sinc", 1, 64)
    with pytest.raises(ValueError):
        Profile.make("bump", 0, 64)


def test_bump_point_values():
    prof = Profile.make("bump", 1, 64)
    assert abs(prof.deriv(np.array([0.0]), 0)[0] - math.exp(-1)) < 1e-15
    assert prof.deriv(np.array([0.0]), 1)[0] == 0.0  # even profile
    for k, want in enumerate(BUMP_AT_HALF):
        got = prof.deriv(np.array([0.5]), k)[0]
        assert abs(got - want) < 1e-13 * max(1.0, abs(want)), (k, got)
    assert prof.deriv(np.array([1.5]), 0)[0] == 0.0  # compact support


def test_norms_match_reference():
    prof = Profile.make("bump", 1, 64)
    got = derivative_norms(prof, 0)[0]
    assert abs(got - BUMP_NORM2) < 1e-10 * BUMP_NORM2
    c4 = Profile.make("cos4", 3, 64)
    got = derivative_norms(c4, 0)[0]
    assert abs(got - 3 * COS4_NORM2) < 1e-12 * 3 * COS4_NORM2
    assert abs(prof.norm2() - BUMP_NORM2) < 1e-15


@pytest.mark.parametrize("kind", ["bump", "cos4"])
def test_derivatives_match_finite_differences(kind):
    # second-order convergence of central differences onto the closed forms
    prof = Profile.make(kind, 2, 64)

    def sup_error(points):
        t = np.linspace(-1.9, 1.9, points)
        dt = t[1] - t[0]
        worst = 0.0
        for k in range(4):
            fd = (prof.deriv(t + dt, k) - prof.deriv(t - dt, k)) / (2 * dt)
            an = prof.deriv(t, k + 1)
            scale = max(np.max(np.abs(an)), 1.0)
            worst = max(worst, np.max(np.abs(fd - an)) / scale)
        return worst

    e1, e2 = sup_error(761), sup_error(1521)
    assert e2 < e1
    # halving the step divides the error by about four
    assert 2.5 <= e1 / e2 <= 6.0, (kind, e1, e2)
    assert e2 < 1e-2


@pytest.mark.parametrize("kind,n", [("bump", 1), ("bump", 3), ("cos4", 1),
                                    ("cos4", 4)])
def test_backend_agreement(kind, n):
    prof = Profile.make(kind, n, 64)
    p = Params(3, F(0))
    fam = pf.build_family(p)
    for poly, a_val in [(fam.P0, None), (fam.Q0, None),
                        (fam.P1, F(2)), (fam.Q1, F(2))]:
        fv = quadratic_form(prof, poly, a_val)
        assert fv.rel_diff < 1e-8


def test_form_identity_polynomial():
    # poly = 1 gives the norm; poly = tau gives the first-derivative norm
    prof = Profile.make("bump", 2, 64)
    one = quadratic_form(prof, pf.TAU ** 0)
    assert abs(one.value - prof.norm2()) < 1e-10
    tau_form = quadratic_form(prof, pf.TAU)
    d1 = derivative_norms(prof, 1)[1]
    assert abs(tau_form.value - d1) < 1e-8 * d1


def test_p0_form_decomposes():
    # P0 form = (lam^2 + N - 1) norm + first-derivative norm, independently
    p = Params(3, F(0))
    prof = Profile.make("bump", 1, 64)
    fv = quadratic_form(prof, pf.build_family(p).P0)
    norms = derivative_norms(prof, 1)
    manual = (float(p.lam) ** 2 + 2) * norms[0] + norms[1]
    assert abs(fv.value - manual) < 1e-8 * manual


def test_quotient_scaling_invariance():
    # the quotient is 0-homogeneous in the profile; forms scale by c^2
    p = Params(4, F(1, 2))
    prof = Profile.make("bump", 3, 64)
    rep = rh_quotient(SpectralField(p, 1, prof))
    fam = pf.build_family(p)
    from curlsharp.constants import alpha
    anu = alpha(1, 4)
    num = quadratic_form(prof, fam.Q1.subs("a", anu)).value
    den = quadratic_form(prof, fam.P1.subs("a", anu)).value
    for c in (3.0, 0.125):
        assert abs((c * c * num) / (c * c * den) - rep.quotient) \
            <= 1e-12 * abs(rep.quotient)


def test_radial_quotient_above_constant():
    for (n_dim, g) in [(3, F(0)), (2, F(-1)), (5, F(2))]:
        p = Params(n_dim, g)
        for n in (1, 3):
            rep = rh_quotient(SpectralField(p, 0, Profile.make("bump", n, 64)))
            assert rep.quotient >= float(rellich_hardy_C(p, 0)) - 1e-6


def test_quotient_decreases_with_dilation():
    p = Params(3, F(0))
    q1 = rh_quotient(SpectralField(p, 0, Profile.make("bump", 1, 64))).quotient
    q2 = rh_quotient(SpectralField(p, 0, Profile.make("bump", 2, 64))).quotient
    assert q2 <= q1 + 1e-9


def test_spherical_quotient_converges():
    p = Params(3, F(0))
    rep = rh_quotient(SpectralField(p, 1, Profile.make("bump", 40, 64)))
    assert abs(rep.quotient - rep.target) < 0.01 * rep.target
    assert rep.target == pytest.approx(147 / 44)


def test_degenerate_mode_raises():
    p = Params(2, F(1))
    with pytest.raises(DegenerateModeError):
        rh_quotient(SpectralField(p, 1, Profile.make("bump", 2, 64)))
    with pytest.raises(DegenerateModeError):
        minimizing_sequence(p, 1, (5, 10))


def test_minimizing_sequence_gap_ratios():
    res = minimizing_sequence(Params(3, F(0)), 0, (10, 20, 40))
    g1, g2, g3 = (r.gap for r in res.reports)
    assert 3.5 <= g1 / g2 <= 4.5
    assert 3.5 <= g2 / g3 <= 4.5
    assert 1.8 <= res.fitted_exponent <= 2.2


def test_minimizing_sequence_mode_channel():
    # mode-1 channel at (3,0) tends to its own constant 147/44; the
    # pre-asymptotic range needs slightly larger n for clean n^-2 ratios
    res = minimizing_sequence(Params(3, F(0)), 1, (20, 40, 80))
    assert res.target == pytest.approx(147 / 44)
    assert all(r.gap > 0 for r in res.reports)
    assert 1.8 <= res.fitted_exponent <= 2.2


def test_quotients_dominate_global_minimum_random():
    rng = np.random.default_rng(4)
    gammas = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2), F(2)]
    checked = 0
    while checked < 100:
        n_dim = int(rng.integers(2, 7))
        g = gammas[rng.integers(len(gammas))]
        p = Params(n_dim, g)
        nu = int(rng.integers(0, 7))
        if p.degenerate and nu == 1:
            continue
        n = int(rng.integers(1, 21))
        kind = "bump" if rng.integers(2) else "cos4"
        rep = rh_quotient(SpectralField(p, nu, Profile.make(kind, n, 64)))
        c_min = float(rellich_hardy_C_min(p).value)
        assert rep.quotient >= c_min - 1e-6, (n_dim, g, nu, n, kind)
        checked += 1


def test_brute_min_locations():
    r = brute_min_tau_nu(Params(3, F(0)))
    assert (r.argmin_tau, r.argmin_nu) == (0.0, 0)
    assert r.min_value == pytest.approx(25 / 36, rel=1e-12)
    r = brute_min_tau_nu(Params(2, F(1)))  # skips (nu=1, tau=0) exactly
    assert (r.argmin_tau, r.argmin_nu) == (0.0, 0)
    assert r.min_value == pytest.approx(1.0, rel=1e-12)
    r = brute_min_tau_nu(Params(4, F(0)))
    assert r.min_value == pytest.approx(3.0, rel=1e-12)
    assert r.argmin_tau == 0.0


def test_brute_min_detects_mismatch():
    with pytest.raises(ArgminNotAtZeroError):
        brute_min_tau_nu(Params(3, F(0)), rel_tol=-1.0)  # any rel error trips


def test_remainder_examples():
    # radial channel carries constant 1, not just min(1, c0)
    p = Params(3, F(0))
    rep = remainder_check(SpectralField(p, 0, Profile.make("bump", 5, 64)))
    assert rep.passed and rep.gap >= 1.0 * rep.remainder - 1e-8 * rep.scale
    rep = remainder_check(SpectralField(p, 1, Profile.make("bump", 5, 64)))
    assert rep.passed and rep.c0 == 1.0
    p = Params(2, F(2))
    rep = remainder_check(SpectralField(p, 2, Profile.make("bump", 5, 64)))
    assert rep.passed and rep.c0 == pytest.approx(1 / 3)


def test_remainder_random_suite():
    rng = np.random.default_rng(12)
    regimes = {
        "le1": ([F(k, 4) for k in range(-8, 5)], range(2, 7)),
        "gt1-nge3": ([F(3, 2), F(2), F(3)], range(3, 7)),
        "gt1-n2": ([F(3, 2), F(2), F(3)], (2,)),
    }
    for gammas, dims in regimes.values():
        done = 0
        while done < 20:
            n_dim = int(rng.choice(list(dims)))
            p = Params(n_dim, gammas[rng.integers(len(gammas))])
            nu = int(rng.integers(0, 5))
            if p.degenerate and nu == 1:
                continue
            field = SpectralField(p, nu, Profile.make(
                "bump" if rng.integers(2) else "cos4",
                int(rng.integers(2, 8)), 64))
            assert remainder_check(field).passed
            done += 1


def test_decompose_pure_mode():
    p = Params(3, F(3, 2))  # lam = -1
    lam = float(p.lam)
    prof = Profile.make("bump", 2, 64)
    from scipy.special import eval_legendre

    def potential(t, c):
        return np.exp((lam + 1) * t) * prof.deriv(t, 0) * eval_legendre(2, c)

    t = np.linspace(-3, 3, 769)
    res = decompose_potential(p, potential, t, nu_max=4)
    expected = np.exp(t) * prof.deriv(t, 0)  # r h, the stated convention
    err = np.linalg.norm(res.phi_profiles[2] - expected) / np.linalg.norm(expected)
    assert err < 1e-6
    assert np.linalg.norm(res.f_profile) < 1e-10
    for nu, profile in res.phi_profiles.items():
        if nu != 2:
            assert np.linalg.norm(profile) < 1e-10
    assert res.residual_rel < 1e-10


def test_decompose_radial():
    p = Params(3, F(3, 2))
    lam = float(p.lam)
    prof = Profile.make("bump", 2, 64)

    def potential(t, c):
        return np.exp((lam + 1) * t) * prof.deriv(t, 0) * np.ones_like(c)

    t = np.linspace(-3, 3, 769)
    res = decompose_potential(p, potential, t, nu_max=4)
    expected = np.exp(t) * ((lam + 1) * prof.deriv(t, 0) + prof.deriv(t, 1))
    err = np.linalg.norm(res.f_profile - expected) / np.linalg.norm(expected)
    assert err < 1e-6
    assert all(np.linalg.norm(v) < 1e-12 for v in res.phi_profiles.values())


def test_decompose_zero():
    p = Params(2, F(0))
    t = np.linspace(-2, 2, 257)
    res = decompose_potential(p, lambda tt, aa: np.zeros(np.broadcast(tt, aa).shape),
                              t, nu_max=3)
    assert np.allclose(res.f_profile, 0)
    assert all(np.allclose(v, 0) for v in res.phi_profiles.values())


def test_angular_grid_norms():
    for n_dim in (2, 3):
        grid = AngularGrid.make(n_dim, 64)
        area = 2 * np.pi if n_dim == 2 else 4 * np.pi
        assert grid.area == pytest.approx(area)
        for nu in range(4):
            y = grid.harmonic(nu)
            got = float(np.sum(grid.weights * y * y))
            assert got == pytest.approx(grid.harmonic_norm2(nu), rel=1e-12)


# ---------------------------------------------------------------------------
# the channel builder, the shared form basis, and the runtime invariants
# ---------------------------------------------------------------------------

CHANNEL_PARAMS = sorted({Params(n, g) for n in range(2, 7)
                         for g in (F(-1), F(0), F(1, 2), F(5, 4), F(4 - n, 2))},
                        key=lambda p: (p.N, p.gamma))


def test_channel_polys_match_family():
    assert any(p.degenerate for p in CHANNEL_PARAMS)
    for p in CHANNEL_PARAMS:
        fam = pf.build_family(p)
        assert pf.channel_polys(p, 0) == (fam.Q0, fam.P0)
        for nu in range(1, 9):
            anu = alpha(nu, p.N)
            want = (fam.Q1.subs("a", anu), fam.P1.subs("a", anu))
            assert pf.channel_polys(p, nu) == want, (p, nu)


def test_channel_polys_cached():
    p = Params(5, F(1, 2))
    assert pf.channel_polys(p, 3) is pf.channel_polys(p, 3)
    assert pf.channel_polys(Params(5, F(1, 2)), 3) is pf.channel_polys(p, 3)


def _reference_form(prof, poly, shift):
    """quadratic_form's two backends, computed per order from profile.deriv
    with no shared basis."""
    coeffs = [float(c.constant_value()) for c in poly.coeffs_in("tau")]
    nodes, weights = spectral._gl_nodes(prof.n)
    norms = []
    for k in range(len(coeffs)):
        vals = prof.deriv(nodes, k + shift)
        norms.append(float(np.sum(weights * vals * vals)))
    moments = spectral._fourier_moments(prof, len(coeffs) - 1, shift)
    return (sum(c * v for c, v in zip(coeffs, norms)),
            sum(c * v for c, v in zip(coeffs, moments)))


@pytest.mark.parametrize("kind", ["bump", "cos4"])
def test_shared_basis_forms_exact(kind):
    p = Params(3, F(1, 2))
    q0, p0 = pf.channel_polys(p, 0)
    q1, p1 = pf.channel_polys(p, 2)
    shared = Profile.make(kind, 3, 64)
    # cos4's fourth derivative jumps at the support ends, so a cubic form
    # on the shifted profile splits the backends; tol=1 tests exactness only
    for shift in (0, 1):
        for poly in (q0, p0, q1, p1):
            fv = quadratic_form(shared, poly, derivative_shift=shift, tol=1.0)
            fresh = quadratic_form(Profile.make(kind, 3, 64), poly,
                                   derivative_shift=shift, tol=1.0)
            assert fv == fresh
            assert (fv.value, fv.fourier) == _reference_form(shared, poly, shift)
    assert set(shared._bases) == {(0, 16), (1, 16)}


@pytest.mark.parametrize("kind,n", [("bump", 1), ("bump", 4), ("cos4", 2)])
def test_derivative_norms_match_per_order(kind, n):
    prof = Profile.make(kind, n, 64)
    nodes, weights = spectral._gl_nodes(n)
    for shift in (0, 1):
        want = []
        for k in range(4):
            vals = prof.deriv(nodes, k + shift)
            want.append(float(np.sum(weights * vals * vals)))
        assert derivative_norms(prof, 3, shift) == want


def test_form_positivity_invariant(monkeypatch):
    p = Params(3, F(0))
    q_poly, p_poly = pf.channel_polys(p, 2)
    monkeypatch.setattr(pf, "channel_polys", lambda params, nu: (-q_poly, p_poly))
    with pytest.raises(NonPositiveFormError):
        rh_quotient(SpectralField(p, 2, Profile.make("bump", 2, 64)))
    assert curlsharp.NonPositiveFormError is NonPositiveFormError
    assert issubclass(NonPositiveFormError, RuntimeError)


def test_q1_forms_invariant(monkeypatch):
    monkeypatch.setattr(pf, "q1_factored", lambda: pf.q1() + pf.TAU)
    pf._check_q1_forms.cache_clear()
    pf._numeric_channels.cache_clear()
    pf.channel_polys.cache_clear()
    with pytest.raises(pf.FamilyInvariantError):
        pf.build_family()
    with pytest.raises(pf.FamilyInvariantError):
        pf.channel_polys(Params(3, F(0)), 1)
    assert curlsharp.FamilyInvariantError is pf.FamilyInvariantError
    assert issubclass(pf.FamilyInvariantError, RuntimeError)


def test_q1_forms_invariant_under_python_O():
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from curlsharp import polyfamily as pf\n"
            "from curlsharp.constants import Params\n"
            "if __debug__:\n"
            "    sys.exit(4)\n"
            "pf.q1_factored = lambda: pf.q1() + pf.TAU\n"
            "try:\n"
            "    pf.channel_polys(Params(3, Fraction(0)), 1)\n"
            "except pf.FamilyInvariantError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(curlsharp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
