"""Independent full-dimensional verification for N = 2 and N = 3.

Builds the curl-free test fields in polar/spherical coordinates with
fully analytic derivatives (no finite differences inside the oracle) and
computes the weighted integrals by direct tensor-product quadrature with
the radial weights and volume Jacobians written out explicitly.  The
results cross-check the reduction to the 1-D spectral forms: the oracle
shares only the profile's closed-form derivatives with `spectral`, not
its quadratic-form code path.

Field shapes (g is the dilated profile, t = log r, Y a zonal harmonic):

    mode 0:     u = sigma r^lam g(t)                 (radial channel)
    mode nu>=1: u = grad( r^(lam+1) g(t) Y(sigma) )  (spherical channel)

The gradient tensor is assembled in the orthonormal polar frame, where a
field U e_r + V e_theta has

    J = [ d_r U            (d_theta U - V)/r ]
        [ d_r V            (d_theta V + U)/r ]     (+ the phi-phi entry
                                       (U + V cot theta)/r when N = 3).

Curl-freeness is the symmetry J_{r theta} = J_{theta r}, which holds
identically for these fields; the numerical residual is pure rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_legendre

from .constants import Params, alpha, rellich_hardy_C
from .spectral import (Profile, _gl_nodes, _legendre_rule, quadratic_form,
                       NotConvergedError)
from . import polyfamily as pf


@dataclass(frozen=True)
class WeightedIntegrals:
    I_lap: float    # integral |laplacian u|^2 r^(2 gamma)
    I_grad: float   # integral |grad u|^2 r^(2 gamma - 2)
    I_u: float      # integral |u|^2 r^(2 gamma - 4)
    I_rem: float    # remainder-term integral
    est_error: float  # max relative change under resolution doubling


class _Zonal:
    """Zonal harmonic and its theta-derivatives for N = 2 or 3."""

    def __init__(self, dim: int, nu: int):
        self.dim = dim
        self.nu = nu

    def y(self, ang):
        if self.dim == 2:
            return np.cos(self.nu * ang)
        return eval_legendre(self.nu, np.cos(ang))

    def dy(self, ang):
        """dY/d theta."""
        if self.dim == 2:
            return -self.nu * np.sin(self.nu * ang)
        c = np.cos(ang)
        return -np.sin(ang) * self._dp(c)

    def d2y(self, ang):
        if self.dim == 2:
            return -self.nu ** 2 * np.cos(self.nu * ang)
        c, s = np.cos(ang), np.sin(ang)
        return -c * self._dp(c) + s ** 2 * self._d2p(c)

    def cot_dy(self, ang):
        """cot(theta) dY/d theta, written without the cot singularity."""
        if self.dim == 2:
            raise AssertionError("phi-phi entry only exists for N = 3")
        c = np.cos(ang)
        return -c * self._dp(c)

    def _dp(self, c):
        nu = self.nu
        if nu == 0:
            return np.zeros_like(c)
        return (nu * (eval_legendre(nu - 1, c) - c * eval_legendre(nu, c))
                / (1.0 - c * c))

    def _d2p(self, c):
        nu = self.nu
        # Legendre ODE: (1-c^2) P'' - 2c P' + nu(nu+1) P = 0
        return ((2.0 * c * self._dp(c) - nu * (nu + 1) * eval_legendre(nu, c))
                / (1.0 - c * c))

    def norm2_closed_form(self) -> float:
        if self.dim == 2:
            return 2.0 * np.pi if self.nu == 0 else np.pi
        return 4.0 * np.pi if self.nu == 0 else 4.0 * np.pi / (2 * self.nu + 1)


def _angular_rule(dim: int, nu: int, points: int | None = None):
    """(theta nodes, surface weights): trapezoid on the circle (exact for
    trigonometric polynomials below the node count), Gauss-Legendre in
    cos(theta) on the 2-sphere (exact for the polynomial integrands)."""
    if dim == 2:
        m = points or max(64, 8 * nu + 16)
        theta = 2.0 * np.pi * np.arange(m) / m
        return theta, np.full(m, 2.0 * np.pi / m)
    m = points or max(24, 2 * nu + 8)
    c, w = _legendre_rule(m)
    return np.arccos(c), 2.0 * np.pi * w


@dataclass(frozen=True)
class AnalyticFieldBundle:
    """Closed-form evaluators for one test field in dimension 2 or 3.

    The integrand evaluators take `gs`, the profile derivatives of
    orders 0..3 at t from `radial_derivs` (no integrand reads the fourth),
    so several integrands on one radial grid share one derivative table.
    """

    dim: int
    nu: int
    params: Params
    profile: Profile
    # sigma-integral of Y^2 by the angular rule, checked at construction
    harmonic_norm2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("full-dimensional oracle exists for N = 2, 3 only")
        if self.dim != self.params.N:
            raise ValueError("bundle dimension must match params.N")
        if self.nu < 0:
            raise ValueError("mode must be >= 0")
        # fail fast on a normalisation-convention error
        got = self.harmonic_norm2_quadrature()
        want = _Zonal(self.dim, self.nu).norm2_closed_form()
        if abs(got - want) > 1e-10 * want:
            raise AssertionError(
                f"harmonic normalisation mismatch: {got} vs {want}")
        object.__setattr__(self, "harmonic_norm2", got)

    # -- scalar building blocks ------------------------------------------

    def radial_derivs(self, t) -> list[np.ndarray]:
        """g and its first three derivatives at t, from one derivative table."""
        return self.profile.derivs(t, range(4))

    def _lam(self) -> float:
        return float(self.params.lam)

    def harmonic_norm2_quadrature(self) -> float:
        ang, w = _angular_rule(self.dim, self.nu)
        y = _Zonal(self.dim, self.nu).y(ang)
        return float(np.sum(w * y * y))

    def potential(self, t, ang):
        """Scalar potential of the mode field (mode >= 1 only)."""
        if self.nu == 0:
            raise ValueError("the radial channel is specified by its field")
        lam = self._lam()
        zon = _Zonal(self.dim, self.nu)
        return np.exp((lam + 1) * t) * self.profile.deriv(t, 0) * zon.y(ang)

    def u_frame(self, t, ang):
        """(U, V): radial and theta components of u at (t, theta)."""
        lam = self._lam()
        g, dg = self.profile.derivs(t, (0, 1))
        if self.nu == 0:
            shape = np.broadcast(t, ang).shape
            return np.exp(lam * t) * g * np.ones(shape), np.zeros(shape)
        zon = _Zonal(self.dim, self.nu)
        u1 = (lam + 1) * g + dg
        rl = np.exp(lam * t)
        return rl * u1 * zon.y(ang), rl * g * zon.dy(ang)

    def _frame_gradient(self, t, ang, gs, shift: int):
        """Gradient-tensor frame entries of the field built from the
        (shift)-times differentiated profile pair; shift=0 is u itself,
        shift=1 the remainder field r^lam d(r^-lam u)."""
        lam = self._lam()
        g, dg, d2g = gs[shift:shift + 3]
        rfac = np.exp((lam - 1) * t)
        if self.nu == 0:
            zero = np.zeros(np.broadcast(t, ang).shape)
            j_rr = rfac * (lam * g + dg) + zero
            j_tt = rfac * g + zero
            entries = [j_rr, zero, zero, j_tt]
            if self.dim == 3:
                entries.append(j_tt)
            return entries
        zon = _Zonal(self.dim, self.nu)
        a_val = (lam + 1) * g + dg          # u1 shifted
        da_val = (lam + 1) * dg + d2g
        y, dy, d2y = zon.y(ang), zon.dy(ang), zon.d2y(ang)
        j_rr = rfac * (lam * a_val + da_val) * y
        j_rt = rfac * (a_val - g) * dy
        j_tr = rfac * (lam * g + dg) * dy
        j_tt = rfac * (g * d2y + a_val * y)
        entries = [j_rr, j_rt, j_tr, j_tt]
        if self.dim == 3:
            entries.append(rfac * (a_val * y + g * zon.cot_dy(ang)))
        return entries

    def grad_sq(self, t, ang, gs, shift: int = 0):
        """|grad u|^2 (shift 0) or the remainder integrand core (shift 1)."""
        return sum(e * e for e in self._frame_gradient(t, ang, gs, shift))

    def curl_residual(self, t, ang) -> float:
        """Max |J_{r theta} - J_{theta r}| over the points, relative to the
        tensor magnitude (identically zero in exact arithmetic)."""
        e = self._frame_gradient(t, ang, self.radial_derivs(t), 0)
        scale = max(float(np.max(np.sqrt(sum(x * x for x in e)))), 1e-300)
        return float(np.max(np.abs(e[1] - e[2]))) / scale

    def lap_sq(self, t, ang, gs):
        """|laplacian u|^2 with laplacian u = grad(laplacian potential)."""
        lam = self._lam()
        n = self.dim
        g, dg, d2g, d3g = gs
        rfac = np.exp((lam - 2) * t)
        if self.nu == 0:
            kg = d2g + (2 * lam + n - 2) * dg + (lam - 1) * (lam + n - 1) * g
            return (rfac * kg) ** 2 * np.ones(np.broadcast(t, ang).shape)
        zon = _Zonal(self.dim, self.nu)
        anu = float(alpha(self.nu, n))
        al1 = (lam + 1) * (lam + n - 1)
        lg = d2g + (2 * lam + n) * dg + (al1 - anu) * g
        dlg = d3g + (2 * lam + n) * d2g + (al1 - anu) * dg
        mg = (lam - 1) * lg + dlg
        y, dy = zon.y(ang), zon.dy(ang)
        return (rfac * mg * y) ** 2 + (rfac * lg * dy) ** 2

    def u_sq(self, t, ang, gs):
        lam = self._lam()
        g, dg = gs[:2]
        rl = np.exp(lam * t)
        if self.nu == 0:
            return (rl * g) ** 2 * np.ones(np.broadcast(t, ang).shape)
        zon = _Zonal(self.dim, self.nu)
        u1 = (lam + 1) * g + dg
        return (rl * u1 * zon.y(ang)) ** 2 + (rl * g * zon.dy(ang)) ** 2

    # -- Cartesian evaluators (for pointwise sanity checks) ---------------

    def _frames(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        sigma = x / r
        if self.dim == 2:
            theta = math.atan2(x[1], x[0])
            e_t = np.array([-sigma[1], sigma[0]])
            return r, theta, sigma, e_t, None
        theta = math.acos(max(-1.0, min(1.0, sigma[2])))
        phi = math.atan2(x[1], x[0])
        e_t = np.array([math.cos(theta) * math.cos(phi),
                        math.cos(theta) * math.sin(phi),
                        -math.sin(theta)])
        e_p = np.array([-math.sin(phi), math.cos(phi), 0.0])
        return r, theta, sigma, e_t, e_p

    def u_cart(self, x: np.ndarray) -> np.ndarray:
        r, theta, sigma, e_t, _ = self._frames(x)
        t = math.log(r)
        uu, vv = self.u_frame(np.array([t]), np.array([theta]))
        return float(uu[0]) * sigma + float(vv[0]) * e_t

    def jac_cart(self, x: np.ndarray) -> np.ndarray:
        r, theta, sigma, e_t, e_p = self._frames(x)
        t = math.log(r)
        tt = np.array([t])
        e = self._frame_gradient(tt, np.array([theta]),
                                 self.radial_derivs(tt), 0)
        vals = [float(v[0]) for v in e]
        j = (vals[0] * np.outer(sigma, sigma) + vals[1] * np.outer(sigma, e_t)
             + vals[2] * np.outer(e_t, sigma) + vals[3] * np.outer(e_t, e_t))
        if self.dim == 3:
            j = j + vals[4] * np.outer(e_p, e_p)
        return j


def analytic_field(params: Params, nu: int, profile: Profile,
                   dim: int) -> AnalyticFieldBundle:
    return AnalyticFieldBundle(dim, nu, params, profile)


# ---------------------------------------------------------------------------
# weighted integrals by direct tensor quadrature
# ---------------------------------------------------------------------------

def _integrate(bundle: AnalyticFieldBundle, nodes_per_unit: int,
               angular_points: int | None):
    """One resolution pass; returns the four weighted integrals."""
    p = bundle.params
    gamma = float(p.gamma)
    n_dim = bundle.dim
    tn, tw = _gl_nodes(bundle.profile.n, nodes_per_unit)
    ang, aw = _angular_rule(n_dim, bundle.nu, angular_points)
    tt = tn[:, None]
    aa = ang[None, :]
    volume = np.exp(n_dim * tn)[:, None] * (tw[:, None] * aw[None, :])
    gs = bundle.radial_derivs(tt)

    def wint(values: np.ndarray, weight_power: float) -> float:
        weight = np.exp(weight_power * tn)[:, None]
        return float(np.sum(values * weight * volume))

    i_lap = wint(bundle.lap_sq(tt, aa, gs), 2 * gamma)
    i_grad = wint(bundle.grad_sq(tt, aa, gs, 0), 2 * gamma - 2)
    i_u = wint(bundle.u_sq(tt, aa, gs), 2 * gamma - 4)
    i_rem = wint(bundle.grad_sq(tt, aa, gs, 1), 2 * gamma - 2)
    return i_lap, i_grad, i_u, i_rem


def weighted_integrals(bundle: AnalyticFieldBundle,
                       nodes_per_unit: int = 16,
                       angular_points: int | None = None,
                       tol: float = 1e-7) -> WeightedIntegrals:
    """Weighted integrals with an a-posteriori resolution-doubling check;
    raises NotConvergedError when doubling moves any of them beyond `tol`
    relative."""
    coarse = _integrate(bundle, nodes_per_unit, angular_points)
    ang, _ = _angular_rule(bundle.dim, bundle.nu, angular_points)
    fine = _integrate(bundle, 2 * nodes_per_unit, 2 * len(ang))
    rels = [abs(a - b) / max(abs(b), 1e-300) for a, b in zip(coarse, fine)]
    err = max(rels)
    if err > tol:
        raise NotConvergedError(f"not_converged: doubling changed by {err:.2e}")
    return WeightedIntegrals(*fine, est_error=err)


# ---------------------------------------------------------------------------
# cross-check against the reduced spectral forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckReport:
    params: Params
    dim: int
    nu: int
    n: int
    harmonic_norm2: float
    i_lap: float
    lap_reduced: float
    rel_lap: float
    i_grad: float
    grad_reduced: float
    rel_grad: float
    i_rem: float
    rem_reduced: float
    rel_rem: float
    quotient: float
    c_mode: float

    @property
    def max_rel(self) -> float:
        return max(self.rel_lap, self.rel_grad, self.rel_rem)

    def as_dict(self) -> dict:
        return {
            "N": self.params.N, "gamma": str(self.params.gamma),
            "nu": self.nu, "n": self.n,
            "I_lap": self.i_lap, "lap_reduced": self.lap_reduced,
            "I_grad": self.i_grad, "grad_reduced": self.grad_reduced,
            "I_rem": self.i_rem, "rem_reduced": self.rem_reduced,
            "rel_lap": self.rel_lap, "rel_grad": self.rel_grad,
            "rel_rem": self.rel_rem, "quotient": self.quotient,
            "c_mode": self.c_mode,
        }


class CrosscheckMismatch(RuntimeError):
    pass


def crosscheck(params: Params, nu: int, profile: Profile,
               tol: float | None = None) -> CrosscheckReport:
    """Full-dimensional integrals vs the 1-D reduced forms.

    The sigma-integral of Y^2 is carried explicitly; a mismatch beyond
    `tol` (1e-6 for N=2, 1e-5 for N=3 by default) raises, since it would
    signal a transcription error in the reduction, not noise.
    """
    if params.N not in (2, 3):
        raise ValueError("crosscheck needs N in {2, 3}")
    tol = tol if tol is not None else (1e-6 if params.N == 2 else 1e-5)
    bundle = analytic_field(params, nu, profile, params.N)
    ints = weighted_integrals(bundle)
    q_poly, p_poly = pf.channel_polys(params, nu)
    norm_y2 = bundle.harmonic_norm2
    lap_red = norm_y2 * quadratic_form(profile, q_poly).value
    grad_red = norm_y2 * quadratic_form(profile, p_poly).value
    rem_red = norm_y2 * quadratic_form(profile, p_poly, derivative_shift=1).value
    rel_lap = abs(ints.I_lap - lap_red) / max(abs(lap_red), 1e-300)
    rel_grad = abs(ints.I_grad - grad_red) / max(abs(grad_red), 1e-300)
    rel_rem = abs(ints.I_rem - rem_red) / max(abs(rem_red), 1e-300)
    report = CrosscheckReport(
        params=params, dim=params.N, nu=nu, n=profile.n,
        harmonic_norm2=norm_y2,
        i_lap=ints.I_lap, lap_reduced=lap_red, rel_lap=rel_lap,
        i_grad=ints.I_grad, grad_reduced=grad_red, rel_grad=rel_grad,
        i_rem=ints.I_rem, rem_reduced=rem_red, rel_rem=rel_rem,
        quotient=ints.I_lap / ints.I_grad,
        c_mode=float(rellich_hardy_C(params, nu)),
    )
    if report.max_rel > tol:
        raise CrosscheckMismatch(
            f"mismatch: rel errors lap={rel_lap:.2e} grad={rel_grad:.2e} "
            f"rem={rel_rem:.2e} exceed {tol:.0e}")
    return report
