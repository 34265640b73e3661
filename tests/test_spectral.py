"""Profiles, quadratic-form backends, quotients, scans, remainder checks."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_legendre

import curlsharp
from curlsharp import polyfamily as pf
from curlsharp import oracle, spectral
from curlsharp.poly import MultiPoly, parse_poly
from curlsharp.constants import (Params, alpha, rellich_hardy_C,
                                 rellich_hardy_C_min)
from curlsharp.spectral import (ArgminNotAtZeroError,
                                BUMP_NORM2, COS4_NORM2, DegenerateModeError,
                                NonPositiveFormError, Profile, SpectralField,
                                brute_min_tau_nu, derivative_norms,
                                minimizing_sequence, quadratic_form,
                                remainder_check, rh_quotient)

# frozen from an independent 40-digit quadrature / symbolic differentiation
BUMP_AT_HALF = [0.26359713811572677, -0.46861713442795870,
                -1.3537828327918807, -2.3141586885331294, 2.8181310251470109]


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile.make("sinc", 1)
    with pytest.raises(ValueError):
        Profile.make("bump", 0)
    # derivative orders outside the closed-form tables: -1 used to wrap
    # round to the fourth derivative and 5 to raise a bare IndexError
    for kind in ("bump", "cos4"):
        prof = Profile.make(kind, 2)
        for bad in (-1, 5):
            with pytest.raises(ValueError):
                prof.deriv(np.array([0.5]), bad)
            with pytest.raises(ValueError):
                prof.derivs(np.array([0.5]), (0, bad))
        with pytest.raises(ValueError):
            prof.derivs(np.array([0.5]), ())


@pytest.mark.parametrize("kind", ["bump", "cos4"])
def test_order_limited_derivs_match_full_table(kind):
    # rows of the table built up to the highest order asked for equal the
    # rows of the full five-row table, bit for bit, inside and outside the
    # support [-n, n]
    n = 3
    prof = Profile.make(kind, n)
    t = np.linspace(-4.0, 4.0, 801)
    top = spectral.MAX_DERIV_ORDER
    full = spectral._KINDS[kind](t / n, top)
    want = [full[k] / n ** k for k in range(top + 1)]
    for k in range(top + 1):
        assert np.array_equal(prof.deriv(t, k), want[k])
        for hi in range(k, top + 1):
            got = prof.derivs(t, range(k, hi + 1))
            assert all(np.array_equal(g, w) for g, w in zip(got, want[k:]))
    got = prof.derivs(t, (3, 0, 1))
    assert all(np.array_equal(g, want[k]) for g, k in zip(got, (3, 0, 1)))


def _gl_nodes_loop(n, nodes_per_unit=16):
    """Per-interval reference for spectral._gl_nodes."""
    x, w = roots_legendre(nodes_per_unit)
    right = [n - 2.0 ** (-j) for j in range(0, spectral._EDGE_LEVELS + 1)]
    breaks = sorted(set([-n] + [-b for b in right]
                        + [float(k) for k in range(-n + 1, n)] + right + [n]))
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("n", [1, 2, 40])
def test_gl_nodes_match_loop(n):
    for npu in (16, 32):
        nodes, weights = spectral._gl_nodes(n, npu)
        want_nodes, want_weights = _gl_nodes_loop(n, npu)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)


def test_gl_nodes_cached_and_read_only():
    nodes, weights = spectral._gl_nodes(3, 16)
    assert spectral._gl_nodes(3, 16)[0] is nodes  # one build per key
    fresh_nodes, fresh_weights = spectral._gl_nodes.__wrapped__(3, 16)
    assert np.array_equal(nodes, fresh_nodes)
    assert np.array_equal(weights, fresh_weights)
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        weights *= 2


def test_bump_point_values():
    prof = Profile.make("bump", 1)
    assert abs(prof.deriv(np.array([0.0]), 0)[0] - math.exp(-1)) < 1e-15
    assert prof.deriv(np.array([0.0]), 1)[0] == 0.0  # even profile
    for k, want in enumerate(BUMP_AT_HALF):
        got = prof.deriv(np.array([0.5]), k)[0]
        assert abs(got - want) < 1e-13 * max(1.0, abs(want)), (k, got)
    assert prof.deriv(np.array([1.5]), 0)[0] == 0.0  # compact support


def test_norms_match_reference():
    prof = Profile.make("bump", 1)
    got = derivative_norms(prof, 0)[0]
    assert abs(got - BUMP_NORM2) < 1e-10 * BUMP_NORM2
    c4 = Profile.make("cos4", 3)
    got = derivative_norms(c4, 0)[0]
    assert abs(got - 3 * COS4_NORM2) < 1e-12 * 3 * COS4_NORM2
    assert abs(prof.norm2() - BUMP_NORM2) < 1e-15


@pytest.mark.parametrize("kind", ["bump", "cos4"])
def test_frozen_norms_rederived_with_mpmath(kind):
    # BUMP_NORM2 and COS4_NORM2 = 35/64 from the base profile's own
    # definition at 30 digits: bump exp(-1/(1-x^2)), cos4 cos^4(pi x/2),
    # both on (-1, 1)
    mpmath = pytest.importorskip("mpmath")
    h = {"bump": lambda x: mpmath.exp(-1 / (1 - x * x)),
         "cos4": lambda x: mpmath.cos(mpmath.pi * x / 2) ** 4}[kind]
    prof = Profile.make(kind, 1)
    frozen = prof.base_norm2()
    assert frozen == {"bump": BUMP_NORM2, "cos4": COS4_NORM2}[kind]
    for x in (-0.9, -0.5, 0.0, 0.3, 0.75):
        want = float(h(mpmath.mpf(x)))
        assert abs(prof.deriv(np.array([x]), 0)[0] - want) <= 1e-15 * want, x
    with mpmath.workdps(30):
        norm2 = mpmath.quad(lambda x: h(x) ** 2, [-1, 0, 1])
    assert abs(frozen - float(norm2)) <= 1e-15 * float(norm2)


@pytest.mark.parametrize("kind", ["bump", "cos4"])
def test_derivatives_match_finite_differences(kind):
    # second-order convergence of central differences onto the closed forms
    prof = Profile.make(kind, 2)

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
    prof = Profile.make(kind, n)
    p = Params(3, F(0))
    fam = pf.build_family(p)
    for poly in [fam.P0, fam.Q0, fam.P1.subs("a", F(2)), fam.Q1.subs("a", F(2))]:
        fv = quadratic_form(prof, poly)
        assert fv.rel_diff < 1e-8


def test_form_identity_polynomial():
    # poly = 1 gives the norm; poly = tau gives the first-derivative norm
    prof = Profile.make("bump", 2)
    one = quadratic_form(prof, pf.TAU ** 0)
    assert abs(one.value - prof.norm2()) < 1e-10
    tau_form = quadratic_form(prof, pf.TAU)
    d1 = derivative_norms(prof, 1)[1]
    assert abs(tau_form.value - d1) < 1e-8 * d1


def test_p0_form_decomposes():
    # P0 form = (lam^2 + N - 1) norm + first-derivative norm, independently
    p = Params(3, F(0))
    prof = Profile.make("bump", 1)
    fv = quadratic_form(prof, pf.build_family(p).P0)
    norms = derivative_norms(prof, 1)
    manual = (float(p.lam) ** 2 + 2) * norms[0] + norms[1]
    assert abs(fv.value - manual) < 1e-8 * manual


def test_quotient_scaling_invariance():
    # the quotient is 0-homogeneous in the profile; forms scale by c^2
    p = Params(4, F(1, 2))
    prof = Profile.make("bump", 3)
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
            rep = rh_quotient(SpectralField(p, 0, Profile.make("bump", n)))
            assert rep.quotient >= float(rellich_hardy_C(p, 0)) - 1e-6


def test_quotient_decreases_with_dilation():
    p = Params(3, F(0))
    q1 = rh_quotient(SpectralField(p, 0, Profile.make("bump", 1))).quotient
    q2 = rh_quotient(SpectralField(p, 0, Profile.make("bump", 2))).quotient
    assert q2 <= q1 + 1e-9


def test_spherical_quotient_converges():
    p = Params(3, F(0))
    rep = rh_quotient(SpectralField(p, 1, Profile.make("bump", 40)))
    assert abs(rep.quotient - rep.target) < 0.01 * rep.target
    assert rep.target == pytest.approx(147 / 44)


def test_degenerate_mode_raises():
    p = Params(2, F(1))
    with pytest.raises(DegenerateModeError):
        rh_quotient(SpectralField(p, 1, Profile.make("bump", 2)))
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
        rep = rh_quotient(SpectralField(p, nu, Profile.make(kind, n)))
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


def _brute_min_loop(params, tau_min=1e-4, tau_max=1e4, tau_points=400,
                    nu_max=40, rel_tol=1e-10):
    """The per-mode scan that the one-pass brute_min_tau_nu replaced."""
    taus = np.concatenate([[0.0], np.exp(np.linspace(
        np.log(tau_min), np.log(tau_max), tau_points))])
    best = (math.inf, 0.0, -1)
    for nu in range(nu_max + 1):
        q_poly, p_poly = pf.channel_polys(params, nu)
        qc = np.array([float(c.constant_value()) for c in q_poly.coeffs_in("tau")])
        pc = np.array([float(c.constant_value()) for c in p_poly.coeffs_in("tau")])
        tt = taus
        if params.degenerate and nu == 1:
            tt = taus[1:]
        vals = (np.polynomial.polynomial.polyval(tt, qc)
                / np.polynomial.polynomial.polyval(tt, pc))
        k = int(np.argmin(vals))
        if vals[k] < best[0]:
            best = (float(vals[k]), float(tt[k]), nu)
    c_min = float(rellich_hardy_C_min(params).value)
    rel = abs(best[0] - c_min) / max(abs(c_min), 1e-300)
    if best[1] != 0.0:
        raise ArgminNotAtZeroError(
            f"argmin_not_at_zero: tau = {best[1]} at nu = {best[2]}")
    if rel > rel_tol:
        raise ArgminNotAtZeroError(
            f"scan minimum {best[0]} differs from certified {c_min} (rel {rel:.2e})")
    return spectral.BruteMinResult(best[0], best[1], best[2], c_min, rel)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ArgminNotAtZeroError as exc:
        return str(exc)


# the 20 (N, gamma) pairs of the numerics benchmark, plus lam = 0 at N = 2
BRUTE_PARAMS = [(n, F(g)) for n in range(2, 7)
                for g in ("-1", "0", "1/2", "5/4")] + [(2, F(1))]


@pytest.mark.parametrize("n_dim,gamma", BRUTE_PARAMS)
@pytest.mark.parametrize("kwargs", [{}, {"nu_max": 0}, {"nu_max": 1},
                                    {"nu_max": 5, "tau_points": 17}],
                         ids=["default", "nu_max0", "nu_max1", "short"])
def test_brute_min_matches_per_mode_loop(n_dim, gamma, kwargs):
    p = Params(n_dim, gamma)
    expected = _outcome(_brute_min_loop, p, **kwargs)
    if not kwargs:
        assert isinstance(expected, spectral.BruteMinResult)
    assert _outcome(brute_min_tau_nu, p, **kwargs) == expected


def test_brute_min_rejects_negative_nu_max():
    with pytest.raises(ValueError, match="nu_max"):
        brute_min_tau_nu(Params(3, F(0)), nu_max=-1)


def _tau_coefficients_reference(poly):
    return [float(c.constant_value()) for c in poly.coeffs_in("tau")]


_fractions = st.fractions(-50, 50, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(coeffs=st.dictionaries(
           st.tuples(st.integers(0, spectral.MAX_TAU_DEGREE), st.integers(0, 2)),
           _fractions, max_size=8),
       a_value=_fractions)
def test_tau_coefficients_match_coeffs_in(coeffs, a_value):
    # terms tau^i a^j; with a left free only the j = 0 terms are kept
    tau_only = MultiPoly({(i, 0, 0, 0, 0, 0, 0): c
                          for (i, j), c in coeffs.items() if j == 0})
    assert (spectral._tau_coefficients(tau_only)
            == _tau_coefficients_reference(tau_only))
    with_a = MultiPoly({(i, j, 0, 0, 0, 0, 0): c
                        for (i, j), c in coeffs.items()}).subs("a", a_value)
    assert (spectral._tau_coefficients(with_a)
            == _tau_coefficients_reference(with_a))


def test_tau_coefficients_edge_cases():
    assert spectral._tau_coefficients(MultiPoly()) == [0.0]
    assert spectral._tau_coefficients(parse_poly("tau^3")) == [0.0] * 3 + [1.0]
    assert spectral._tau_coefficients(
        parse_poly("a * tau - 1").subs("a", F(1, 2))) == [-1.0, 0.5]
    with pytest.raises(ValueError, match=r"^form polynomial still has free "
                       r"variables \('tau', 'lam'\)$"):
        spectral._tau_coefficients(parse_poly("tau + lam"))
    # the free-variable check comes before the degree check
    with pytest.raises(ValueError, match=r"free variables \('tau', 'a'\)$"):
        spectral._tau_coefficients(parse_poly("a^2 + tau^4"))
    with pytest.raises(ValueError, match=r"^form polynomial must have degree "
                       r"<= 3 in tau$"):
        spectral._tau_coefficients(parse_poly("tau^4 + a").subs("a", F(2)))


def test_remainder_examples():
    # radial channel carries constant 1, not just min(1, c0)
    p = Params(3, F(0))
    rep = remainder_check(SpectralField(p, 0, Profile.make("bump", 5)))
    assert rep.passed and rep.gap >= 1.0 * rep.remainder - 1e-8 * rep.scale
    rep = remainder_check(SpectralField(p, 1, Profile.make("bump", 5)))
    assert rep.passed and rep.c0 == 1.0
    p = Params(2, F(2))
    rep = remainder_check(SpectralField(p, 2, Profile.make("bump", 5)))
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
                int(rng.integers(2, 8))))
            assert remainder_check(field).passed
            done += 1


def test_angular_grid_norms():
    # the oracle's angular rule: total weight is the sphere's area, and
    # each zonal harmonic's quadrature norm is the closed form
    for n_dim in (2, 3):
        area = 2 * np.pi if n_dim == 2 else 4 * np.pi
        for nu in range(4):
            ang, w = oracle._angular_rule(n_dim, nu)
            assert float(np.sum(w)) == pytest.approx(area, rel=1e-12)
            y = oracle._Zonal(n_dim, nu).y(ang)
            got = float(np.sum(w * y * y))
            assert got == pytest.approx(oracle._harmonic_norm2(n_dim, nu), rel=1e-12)


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
    nodes, weights = spectral._gl_nodes(prof.n, spectral._GL_NODES_PER_UNIT)
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
    shared = Profile.make(kind, 3)
    for shift in (0, 1):
        for poly in (q0, p0, q1, p1):
            if kind == "cos4" and shift == 1 and poly is q1:
                # cubic in tau on h' reads cos4's fourth derivative, which
                # jumps at the support ends: rejected before any quadrature
                fresh = Profile.make(kind, 3)
                with pytest.raises(ValueError):
                    quadratic_form(fresh, poly, derivative_shift=shift)
                assert fresh._bases == {}
                continue
            fv = quadratic_form(shared, poly, derivative_shift=shift)
            fresh = quadratic_form(Profile.make(kind, 3), poly,
                                   derivative_shift=shift)
            assert fv == fresh
            assert (fv.value, fv.fourier) == _reference_form(shared, poly, shift)
    assert set(shared._bases) == {0, 1}


@pytest.mark.parametrize("kind,shift,length", [
    ("bump", 0, 4), ("bump", 1, 4), ("cos4", 0, 4), ("cos4", 1, 3)])
def test_form_basis_stops_at_continuous_order(kind, shift, length):
    # cos4 is C^3: at shift 1 the basis keeps orders 1..3 and skips the
    # order-4 norm and the divergent tau^8 moment no form may read
    prof = Profile.make(kind, 2)
    norms, moments = prof.form_basis(shift)
    assert len(norms) == len(moments) == length
    assert norms == tuple(derivative_norms(prof, 3, shift))[:length]
    assert moments == tuple(spectral._fourier_moments(prof, 3, shift))[:length]


@pytest.mark.parametrize("kind,bound", [("bump", 1e-12), ("cos4", 1e-8)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 40, 80])
def test_backends_agree_per_order(kind, bound, n):
    # each order on its own, GL norm vs FFT moment, at every dilation of
    # a minimizing sequence; cos4's C^3 tail limits its FFT moments
    for shift in (0, 1):
        top = min(3, spectral._CONTINUOUS_ORDER[kind] - shift)
        prof = Profile.make(kind, n)
        norms = derivative_norms(prof, top, shift)
        moments = spectral._fourier_moments(prof, top, shift)
        for k, (g, f) in enumerate(zip(norms, moments)):
            assert abs(g - f) <= bound * g, (kind, n, shift, k, g, f)


def test_fft_length_bounded_for_every_dilation(monkeypatch):
    # samples are counted per base unit of the profile, so the window
    # length does not grow with n
    for n in range(1, 129):
        L, m = spectral._fft_grid(n)
        assert L == n + 2 and 2048 <= m <= 4096 and m & (m - 1) == 0
        # at least 512 samples per base unit of h(t/n)
        assert 2 * L / m <= n / 512
    lengths = []
    real_rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a: (lengths.append(len(a)),
                                                   real_rfft(a))[1])
    for n in (1, 2, 40, 128):
        spectral._fourier_moments(Profile.make("bump", n), 0)
        assert lengths[-1] == spectral._fft_grid(n)[1] <= 4096


@pytest.mark.parametrize("order", [0, 3])
def test_form_basis_gate_is_per_order(monkeypatch, order):
    # one perturbed moment fails the basis, even where the forms built on
    # it would still pass their own tolerance; nothing is cached
    real = spectral._fourier_moments

    def perturbed(profile, max_order, derivative_shift=0):
        out = real(profile, max_order, derivative_shift)
        out[order] *= 1 + 1e-7
        return out

    monkeypatch.setattr(spectral, "_fourier_moments", perturbed)
    prof = Profile.make("bump", 3)
    with pytest.raises(spectral.BackendDisagreementError, match=f"order {order}"):
        prof.form_basis(0)
    assert prof._bases == {}
    with pytest.raises(spectral.BackendDisagreementError):
        quadratic_form(prof, pf.TAU ** 0)
    # below the gate, the same perturbation passes
    monkeypatch.setattr(spectral, "ORDER_REL_TOL", 1e-6)
    assert len(prof.form_basis(0)[1]) == 4


def test_per_unit_of_t_sizing_trips_the_gate(monkeypatch):
    # 512 samples per unit of t (2^16 at n = 40) let high-tau rounding
    # noise into the bump's tau^6 moment: the per-order gate rejects it
    prof = Profile.make("bump", 40)
    assert prof.form_basis(0)
    monkeypatch.setattr(spectral, "_FFT_SAMPLES_PER_BASE_UNIT", 512 * 40)
    assert spectral._fft_grid(40)[1] == 1 << 16
    with pytest.raises(spectral.BackendDisagreementError):
        Profile.make("bump", 40).form_basis(0)


@pytest.mark.parametrize("kind,n", [("bump", 1), ("bump", 4), ("cos4", 2)])
def test_derivative_norms_match_per_order(kind, n):
    prof = Profile.make(kind, n)
    nodes, weights = spectral._gl_nodes(n, spectral._GL_NODES_PER_UNIT)
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
        rh_quotient(SpectralField(p, 2, Profile.make("bump", 2)))
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
