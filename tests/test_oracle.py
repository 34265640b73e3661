"""Full-dimensional oracle: curl residuals, analytic Jacobians, eigenvalue
conventions, and the cross-check against the reduced forms."""

from fractions import Fraction as F

import numpy as np
import pytest

from curlsharp import oracle, spectral
from curlsharp.constants import Params, rellich_hardy_C_min
from curlsharp.oracle import (CrosscheckMismatch, _Zonal, analytic_field,
                              crosscheck, weighted_integrals)
from curlsharp.spectral import Profile


def _random_points(rng, dim, count=100):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-1.0, 1.0, dim)
        r = np.linalg.norm(x)
        if r < 1e-3:
            continue
        x = x / r * np.exp(rng.uniform(-1.5, 0.5))
        if dim == 3 and abs(x[2] / np.linalg.norm(x)) > 0.99:
            continue  # keep away from the axis where the frame degenerates
        pts.append(x)
    return pts


@pytest.mark.parametrize("dim,nu,gamma", [
    (2, 0, F(1)), (2, 1, F(0)), (2, 3, F(-1)),
    (3, 0, F(0)), (3, 1, F(2)), (3, 2, F(1, 2)),
])
def test_curl_residual_is_rounding(dim, nu, gamma):
    bundle = analytic_field(Params(dim, gamma), nu, Profile.make("bump", 2))
    rng = np.random.default_rng(2)
    for x in _random_points(rng, dim):
        jac = bundle.jac_cart(x)
        scale = max(np.max(np.abs(jac)), 1e-300)
        assert np.max(np.abs(jac - jac.T)) / scale < 1e-12


@pytest.mark.parametrize("dim,nu,gamma", [(2, 1, F(0)), (3, 2, F(1, 2)),
                                          (3, 0, F(1))])
def test_jacobian_matches_finite_differences(dim, nu, gamma):
    bundle = analytic_field(Params(dim, gamma), nu, Profile.make("bump", 2))
    rng = np.random.default_rng(8)
    eps = 1e-6
    for x in _random_points(rng, dim, count=25):
        jac = bundle.jac_cart(x)
        fd = np.zeros((dim, dim))
        for k in range(dim):
            dx = np.zeros(dim)
            dx[k] = eps
            fd[:, k] = (bundle.u_cart(x + dx) - bundle.u_cart(x - dx)) / (2 * eps)
        scale = max(np.max(np.abs(jac)), 1e-300)
        assert np.max(np.abs(jac - fd)) / scale < 1e-5


def test_gradient_of_potential_is_field():
    # u = grad(potential), checked by finite differences of the potential
    bundle = analytic_field(Params(3, F(1, 2)), 2, Profile.make("bump", 2))
    rng = np.random.default_rng(5)
    eps = 1e-6
    for x in _random_points(rng, 3, count=20):
        grad_fd = np.zeros(3)
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = eps

            def pot(y):
                r = np.linalg.norm(y)
                theta = np.arccos(np.clip(y[2] / r, -1, 1))
                return float(bundle.potential(np.array([np.log(r)]),
                                              np.array([theta]))[0])

            grad_fd[k] = (pot(x + dx) - pot(x - dx)) / (2 * eps)
        u = bundle.u_cart(x)
        assert np.max(np.abs(u - grad_fd)) < 1e-5 * max(1.0, np.max(np.abs(u)))


@pytest.mark.parametrize("dim,nu", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_zonal_eigenvalue(dim, nu):
    # -Laplace-Beltrami Y = alpha_nu Y, checked by finite differences in theta
    zon = _Zonal(dim, nu)
    theta = np.linspace(0.15, np.pi - 0.15, 4001)
    dth = theta[1] - theta[0]
    y = zon.y(theta)
    d2 = (y[2:] - 2 * y[1:-1] + y[:-2]) / dth ** 2
    if dim == 2:
        lap = d2
    else:
        d1 = (y[2:] - y[:-2]) / (2 * dth)
        lap = d2 + np.cos(theta[1:-1]) / np.sin(theta[1:-1]) * d1
    anu = nu * (nu + dim - 2)
    resid = np.max(np.abs(-lap - anu * y[1:-1]))
    assert resid < 5e-5 * max(1.0, anu)


def test_harmonic_normalisation_asserted_at_startup(monkeypatch):
    # closed-form norms: pi for cos(nu theta), 4 pi/(2 nu + 1) for Legendre
    bundle = analytic_field(Params(2, F(0)), 2, Profile.make("bump", 1))
    assert bundle.harmonic_norm2_quadrature() == pytest.approx(np.pi)
    bundle = analytic_field(Params(3, F(0)), 2, Profile.make("bump", 1))
    assert bundle.harmonic_norm2_quadrature() == pytest.approx(4 * np.pi / 5)
    # the closed form checked against is the oracle's own table
    monkeypatch.setattr(oracle, "_harmonic_norm2", lambda dim, nu: 1.0)
    with pytest.raises(AssertionError, match="normalisation mismatch"):
        analytic_field(Params(3, F(0)), 2, Profile.make("bump", 1))


def test_cot_dy_exists_for_n3_only():
    theta = np.linspace(0.2, 3.0, 7)
    with pytest.raises(ValueError):
        _Zonal(2, 1).cot_dy(theta)
    zon = _Zonal(3, 2)
    samples = zon.samples(theta)
    assert np.allclose(zon.cot_dy(theta),
                       np.cos(theta) / np.sin(theta) * samples["dy"])


def test_zero_and_positive_integrals():
    bundle = analytic_field(Params(2, F(1, 2)), 1, Profile.make("bump", 2))
    ints = weighted_integrals(bundle)
    assert ints.I_lap > 0 and ints.I_grad > 0 and ints.I_u > 0 and ints.I_rem > 0
    assert ints.est_error < 1e-7


def test_quotient_dominates_constant():
    p = Params(2, F(1, 2))
    bundle = analytic_field(p, 1, Profile.make("bump", 3))
    ints = weighted_integrals(bundle)
    c_min = float(rellich_hardy_C_min(p).value)
    assert ints.I_lap / ints.I_grad >= c_min - 1e-6


def test_bundle_validation():
    with pytest.raises(ValueError):
        analytic_field(Params(4, F(0)), 1, Profile.make("bump", 1))
    with pytest.raises(ValueError):
        analytic_field(Params(2, F(0)), -1, Profile.make("bump", 1))


@pytest.mark.parametrize("gamma", [F(-1), F(0), F(1, 2), F(1), F(2)])
@pytest.mark.parametrize("dim", [2, 3])
def test_reduction_equivalence_grid(dim, gamma):
    """Full-dimensional vs reduced values of both channels and the
    remainder integral, across the case grid."""
    tol = 1e-6 if dim == 2 else 1e-5
    for nu in range(0, 4):
        for n in (1, 2):
            report = crosscheck(Params(dim, gamma), nu,
                                Profile.make("bump", n), tol=tol)
            assert report.max_rel <= tol


def test_crosscheck_spot_cases():
    rep = crosscheck(Params(2, F(0)), 1, Profile.make("bump", 2))
    assert rep.max_rel <= 1e-6
    rep = crosscheck(Params(2, F(1)), 0, Profile.make("bump", 2))
    assert rep.max_rel <= 1e-6
    rep = crosscheck(Params(3, F(1, 2)), 2, Profile.make("bump", 2))
    assert rep.max_rel <= 1e-5


def test_crosscheck_rejects_high_dim():
    with pytest.raises(ValueError):
        crosscheck(Params(4, F(0)), 1, Profile.make("bump", 1))


def test_mismatch_raises():
    with pytest.raises(CrosscheckMismatch):
        crosscheck(Params(2, F(0)), 1, Profile.make("bump", 2), tol=1e-18)


@pytest.mark.parametrize("dim,nu", [(2, 0), (2, 2), (3, 0), (3, 2)])
def test_weighted_integrals_match_per_term_reference(monkeypatch, dim, nu):
    # one derivative table per radial grid and pass gives the same floats
    # as evaluating profile.deriv separately for every term
    bundle = analytic_field(Params(dim, F(1, 2)), nu,
                            Profile.make("bump", 2))
    got = weighted_integrals(bundle)

    def per_term(self, t, orders):
        # each order from its own full five-row table
        x = np.asarray(t, dtype=float) / self.n
        return [spectral._KINDS[self.kind](x, spectral.MAX_DERIV_ORDER)[k]
                / self.n ** k for k in orders]

    monkeypatch.setattr(Profile, "derivs", per_term)
    assert weighted_integrals(bundle) == got


def test_crosscheck_reuses_harmonic_norm(monkeypatch):
    bundle = analytic_field(Params(3, F(0)), 2, Profile.make("bump", 1))
    assert bundle.harmonic_norm2 == bundle.harmonic_norm2_quadrature()
    calls = []
    real = oracle.AnalyticFieldBundle.harmonic_norm2_quadrature
    monkeypatch.setattr(oracle.AnalyticFieldBundle, "harmonic_norm2_quadrature",
                        lambda self: calls.append(1) or real(self))
    rep = crosscheck(Params(3, F(0)), 2, Profile.make("bump", 1))
    assert len(calls) == 1
    assert rep.harmonic_norm2 == bundle.harmonic_norm2


def _brute_grid_integrals(bundle, nodes_per_unit, angular_points):
    """The four integrals of one pass, summing the bundle's squared entries
    point by point over the (t, theta) tensor grid."""
    gamma = float(bundle.params.gamma)
    tn, tw = spectral._gl_nodes(bundle.profile.n, nodes_per_unit)
    ang, aw = oracle._angular_rule(bundle.dim, bundle.nu, angular_points)
    angular = _Zonal(bundle.dim, bundle.nu).samples(ang)
    terms = bundle.integrand_terms(tn, bundle.radial_derivs(tn))
    volume = np.exp(bundle.dim * tn)[:, None] * (tw[:, None] * aw[None, :])
    out = []
    for name, power in (("lap", 2 * gamma), ("grad", 2 * gamma - 2),
                        ("u", 2 * gamma - 4), ("rem", 2 * gamma - 2)):
        values = np.zeros((len(tn), len(ang)))
        for entry in terms[name]:
            e = np.zeros_like(values)
            for radial, key in entry:
                e += radial[:, None] * angular[key][None, :]
            values += e * e
        out.append(float(np.sum(values * np.exp(power * tn)[:, None] * volume)))
    return out


@pytest.mark.parametrize("gamma", [F(-1), F(1, 2), F(2)])
@pytest.mark.parametrize("dim", [2, 3])
def test_gram_contraction_matches_brute_grid(dim, gamma):
    for nu in range(4):
        bundle = analytic_field(Params(dim, gamma), nu,
                                Profile.make("bump", 2))
        ang, _ = oracle._angular_rule(dim, nu)
        for npu, points in ((16, None), (32, 2 * len(ang))):
            got = oracle._integrate(bundle, npu, points)
            want = _brute_grid_integrals(bundle, npu, points)
            assert len(got) == len(want) == 4
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-13 * abs(b), (nu, npu, a, b)
