"""Independent full-dimensional verification for N = 2 and N = 3.

Builds the curl-free test fields in polar/spherical coordinates with
fully analytic derivatives (no finite differences inside the oracle) and
computes the weighted integrals by tensor-product quadrature with the
radial weights and volume Jacobians written out explicitly.  The results
cross-check the reduction to the 1-D spectral forms, which every
sharp-constant claim rests on, so the oracle stays independent of it: it
shares with `spectral` the profile's closed-form derivatives, the
Gauss-Legendre rule and the Legendre recurrence (`_legendre`, which gives
the N = 3 zonal harmonic P_nu(cos theta) and its derivatives), not its
quadratic-form code path, and it integrates the zonal harmonic over the
sphere by quadrature rather than through a closed-form norm.  At
construction the quadrature norm is checked against `_harmonic_norm2`,
the closed form 4 pi / (2 nu + 1), which checks the shared rule and the
recurrence independently of both.

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

Every integrand is a sum of squared entries, and every entry is a sum of
at most two separable terms r_k(t) A_k(theta), where A_k is one of the
angular factors 1, Y, dY/dtheta, d2Y/dtheta2 and cot(theta) dY/dtheta.
So the tensor-product quadrature of an integrand with radial weight
r^p factorises.  With W(t) = exp((p + N) t) w_t on the radial nodes and
the angular Gram matrix G = (A w_theta) A^T on the angular rule,

    sum_{t, theta} W(t) w_theta (sum_k r_k(t) A_k(theta))^2
        = sum_{k, l} G[k, l] sum_t W(t) r_k(t) r_l(t).

That is the same quadrature sum in another order, at O(N_t + N_theta)
cost instead of O(N_t N_theta).  The terms are stated once, in
`AnalyticFieldBundle`; the pointwise evaluators behind `u_cart` and
`jac_cart` form the same terms' outer products on a (t, theta) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import Params, alpha, rellich_hardy_C
from .spectral import (_GL_NODES_PER_UNIT, Profile, _derivative_table,
                       _gl_nodes, _legendre, _legendre_rule, quadratic_form,
                       NotConvergedError)
from . import polyfamily as pf


@dataclass(frozen=True)
class WeightedIntegrals:
    I_lap: float    # integral |laplacian u|^2 r^(2 gamma)
    I_grad: float   # integral |grad u|^2 r^(2 gamma - 2)
    I_rem: float    # remainder-term integral
    est_error: float  # max relative change under resolution doubling


class _Zonal:
    """Zonal harmonic and its theta-derivatives for N = 2 or 3."""

    def __init__(self, dim: int, nu: int):
        self.dim = dim
        self.nu = nu

    def samples(self, ang) -> dict[str, np.ndarray]:
        """The angular factors of the field terms at ang, by key: "1",
        "y" (Y), "dy" (dY/dtheta), "d2y" (d2Y/dtheta2) and, for N = 3
        only, "cot_dy" (cot(theta) dY/dtheta, written without the cot
        singularity).  For N = 3 one Legendre recurrence gives P_nu, P'_nu
        and P''_nu at cos(theta) for all of them, and no factor divides by
        sin(theta), so the values hold on the polar axis too."""
        ang = np.asarray(ang, dtype=float)
        nu = self.nu
        one = np.ones_like(ang)
        if self.dim == 2:
            return {"1": one, "y": np.cos(nu * ang),
                    "dy": -nu * np.sin(nu * ang),
                    "d2y": -nu ** 2 * np.cos(nu * ang)}
        c, s = np.cos(ang), np.sin(ang)
        p, dp, d2p = _legendre(nu, c)
        return {"1": one, "y": p, "dy": -s * dp,
                "d2y": -c * dp + s ** 2 * d2p, "cot_dy": -c * dp}

    def y(self, ang):
        return self.samples(ang)["y"]

    def cot_dy(self, ang):
        """cot(theta) dY/dtheta; only the N = 3 phi-phi entry reads it."""
        if self.dim == 2:
            raise ValueError("cot(theta) dY/dtheta exists for N = 3 only: "
                             "the phi-phi entry has no N = 2 counterpart")
        return self.samples(ang)["cot_dy"]


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


def _harmonic_norm2(dim: int, nu: int) -> float:
    """Closed-form sigma-integral of Y^2 for the zonal harmonic of
    `_Zonal`: cos(nu theta) on the circle, P_nu(cos theta) on the
    2-sphere.  The oracle checks its angular quadrature against this at
    construction; no integral uses it."""
    if dim == 2:
        return 2.0 * np.pi if nu == 0 else np.pi
    return 4.0 * np.pi / (2 * nu + 1)


# A field term r(t) A(theta) is (radial vector, key of A in
# _Zonal.samples).  An entry (one component of a vector or of the gradient
# tensor) is a list of terms; an empty list is an entry that vanishes
# identically.
Term = tuple[np.ndarray, str]

# radial weight r^(2 gamma + offset) of each integrand, in the field
# order of WeightedIntegrals
_WEIGHT_OFFSET = {"lap": 0, "grad": -2, "rem": -2}

# the largest relative change that doubling the resolution of
# weighted_integrals may make
CONVERGENCE_REL_TOL = 1e-7


def _on_grid(entries: list[list[Term]], t: np.ndarray,
             angular: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Each entry's value at every (t, theta) pair of the grid: the outer
    products of its terms, summed."""
    shape = (len(t), len(angular["1"]))
    return [sum((np.multiply.outer(r, angular[k]) for r, k in entry),
                np.zeros(shape)) for entry in entries]


@dataclass(frozen=True)
class AnalyticFieldBundle:
    """Closed-form evaluators for one test field in dimension 2 or 3.

    The field, its gradient tensor and its Laplacian are stated once, as
    entries made of separable (radial vector, angular key) terms.  The
    radial vectors are built from `gs`, the profile derivatives of orders
    0..3 on the radial nodes (no entry reads the fourth).  `_integrate`
    takes them from `spectral._derivative_table`, the one read-only table
    per (profile, nodes per unit) that the GL bases of the reduced forms
    read too, and contracts the squared entries with the angular Gram
    matrix; `u_frame` and `_frame_gradient` (behind `u_cart` and
    `jac_cart`) evaluate the same terms on a (t, theta) grid, with
    `radial_derivs` at the given points, so the pointwise checks test the
    very formulas that are integrated.
    """

    nu: int
    params: Params
    profile: Profile
    # sigma-integral of Y^2 by the angular rule, checked at construction
    harmonic_norm2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("full-dimensional oracle exists for N = 2, 3 only")
        if self.nu < 0:
            raise ValueError("mode must be >= 0")
        # fail fast on a normalisation-convention error
        got = self.harmonic_norm2_quadrature()
        want = _harmonic_norm2(self.dim, self.nu)
        if abs(got - want) > 1e-10 * want:
            raise AssertionError(
                f"harmonic normalisation mismatch: {got} vs {want}")
        object.__setattr__(self, "harmonic_norm2", got)

    # -- scalar building blocks ------------------------------------------

    @property
    def dim(self) -> int:
        return self.params.N

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

    # -- the field, its gradient tensor and its Laplacian, as terms -------

    def _u_terms(self, t, gs) -> list[list[Term]]:
        """(U, V): radial and theta components of u."""
        lam = self._lam()
        g, dg = gs[:2]
        rl = np.exp(lam * t)
        if self.nu == 0:
            return [[(rl * g, "1")], []]
        return [[(rl * ((lam + 1) * g + dg), "y")], [(rl * g, "dy")]]

    def _frame_terms(self, t, gs, shift: int) -> list[list[Term]]:
        """Gradient-tensor frame entries (rr, r theta, theta r, theta theta
        and, for N = 3, phi phi) of the field built from the (shift)-times
        differentiated profile pair; shift=0 is u itself, shift=1 the
        remainder field r^lam d(r^-lam u)."""
        lam = self._lam()
        g, dg, d2g = gs[shift:shift + 3]
        rfac = np.exp((lam - 1) * t)
        if self.nu == 0:
            j_tt = [(rfac * g, "1")]
            entries = [[(rfac * (lam * g + dg), "1")], [], [], j_tt]
            return entries + [j_tt] if self.dim == 3 else entries
        a_val = (lam + 1) * g + dg          # u1 shifted
        da_val = (lam + 1) * dg + d2g
        entries = [[(rfac * (lam * a_val + da_val), "y")],
                   [(rfac * (a_val - g), "dy")],
                   [(rfac * (lam * g + dg), "dy")],
                   [(rfac * g, "d2y"), (rfac * a_val, "y")]]
        if self.dim == 3:
            entries.append([(rfac * a_val, "y"), (rfac * g, "cot_dy")])
        return entries

    def _lap_terms(self, t, gs) -> list[list[Term]]:
        """Components of laplacian u = grad(laplacian potential)."""
        lam = self._lam()
        n = self.dim
        g, dg, d2g, d3g = gs
        rfac = np.exp((lam - 2) * t)
        if self.nu == 0:
            kg = d2g + (2 * lam + n - 2) * dg + (lam - 1) * (lam + n - 1) * g
            return [[(rfac * kg, "1")]]
        anu = float(alpha(self.nu, n))
        al1 = (lam + 1) * (lam + n - 1)
        lg = d2g + (2 * lam + n) * dg + (al1 - anu) * g
        dlg = d3g + (2 * lam + n) * d2g + (al1 - anu) * dg
        mg = (lam - 1) * lg + dlg
        return [[(rfac * mg, "y")], [(rfac * lg, "dy")]]

    def integrand_terms(self, t, gs) -> dict[str, list[list[Term]]]:
        """Entries of the three integrands, each integrand being the sum
        of its squared entries: |laplacian u|^2 ("lap"), |grad u|^2
        ("grad") and the remainder core, the squared gradient of the
        shift-1 field ("rem")."""
        return {"lap": self._lap_terms(t, gs),
                "grad": self._frame_terms(t, gs, 0),
                "rem": self._frame_terms(t, gs, 1)}

    # -- pointwise evaluators on a (t, theta) grid -------------------------

    def u_frame(self, t, ang):
        """(U, V) at every (t, theta) pair of the grid."""
        t = np.asarray(t, dtype=float)
        return _on_grid(self._u_terms(t, self.profile.derivs(t, (0, 1))), t,
                        _Zonal(self.dim, self.nu).samples(ang))

    def _frame_gradient(self, t, ang, gs, shift: int):
        """Frame entries of the gradient tensor at every (t, theta) pair."""
        return _on_grid(self._frame_terms(t, gs, shift), t,
                        _Zonal(self.dim, self.nu).samples(ang))

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
        return float(uu[0, 0]) * sigma + float(vv[0, 0]) * e_t

    def jac_cart(self, x: np.ndarray) -> np.ndarray:
        r, theta, sigma, e_t, e_p = self._frames(x)
        t = math.log(r)
        tt = np.array([t])
        e = self._frame_gradient(tt, np.array([theta]),
                                 self.radial_derivs(tt), 0)
        vals = [float(v[0, 0]) for v in e]
        j = (vals[0] * np.outer(sigma, sigma) + vals[1] * np.outer(sigma, e_t)
             + vals[2] * np.outer(e_t, sigma) + vals[3] * np.outer(e_t, e_t))
        if self.dim == 3:
            j = j + vals[4] * np.outer(e_p, e_p)
        return j


def analytic_field(params: Params, nu: int, profile: Profile) -> AnalyticFieldBundle:
    """The mode-nu test field in dimension params.N (2 or 3)."""
    return AnalyticFieldBundle(nu, params, profile)


# ---------------------------------------------------------------------------
# weighted integrals by tensor quadrature, summed as Gram contractions
# ---------------------------------------------------------------------------

def _integrate(bundle: AnalyticFieldBundle, nodes_per_unit: int,
               angular_points: int | None):
    """One resolution pass; returns the three weighted integrals (lap,
    grad, rem).  Each is the tensor-product quadrature sum, taken as
    radial sums contracted with the angular Gram matrix (module
    docstring).  The profile derivatives on the radial nodes are rows
    0..3 of the shared `_derivative_table`, bit for bit what
    `bundle.radial_derivs` gives there."""
    gamma = float(bundle.params.gamma)
    n_dim = bundle.dim
    tn, tw = _gl_nodes(bundle.profile.n, nodes_per_unit)
    ang, aw = _angular_rule(n_dim, bundle.nu, angular_points)
    angular = _Zonal(n_dim, bundle.nu).samples(ang)
    row = {key: i for i, key in enumerate(angular)}
    basis = np.array(list(angular.values()))
    gram = (basis * aw) @ basis.T
    terms = bundle.integrand_terms(
        tn, _derivative_table(bundle.profile, nodes_per_unit)[:4])
    out = []
    for name, offset in _WEIGHT_OFFSET.items():
        weight = np.exp((2 * gamma + offset + n_dim) * tn) * tw
        total = 0.0
        for entry in terms[name]:
            if entry:
                radial = np.array([r for r, _ in entry])
                idx = [row[key] for _, key in entry]
                total += float(np.sum(gram[np.ix_(idx, idx)]
                                      * ((radial * weight) @ radial.T)))
        out.append(total)
    return tuple(out)


def weighted_integrals(bundle: AnalyticFieldBundle) -> WeightedIntegrals:
    """Weighted integrals with an a-posteriori resolution-doubling check:
    a pass at the GL bases' _GL_NODES_PER_UNIT radial nodes per unit of t
    and the default angular rule, then one at twice both.  The coarse
    pass reads the same derivative table as the profile's GL bases, so a
    cross-check evaluates the closed forms once for the bases and the
    coarse pass together, and once for the fine pass.  Raises
    NotConvergedError when doubling moves any integral beyond
    CONVERGENCE_REL_TOL relative."""
    coarse = _integrate(bundle, _GL_NODES_PER_UNIT, None)
    ang, _ = _angular_rule(bundle.dim, bundle.nu)
    fine = _integrate(bundle, 2 * _GL_NODES_PER_UNIT, 2 * len(ang))
    rels = [abs(a - b) / max(abs(b), 1e-300) for a, b in zip(coarse, fine)]
    err = max(rels)
    if err > CONVERGENCE_REL_TOL:
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
    bundle = analytic_field(params, nu, profile)
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
