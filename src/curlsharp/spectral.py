"""Numerical side: dilated profiles, reduced 1-D quadratic forms, quotient
minimisation, sharpness sequences, and the remainder inequality check.

Test fields live on the log-radius line t = log r.  A compactly supported
profile h with dilation n (support [-n, n]) generates the radial channel
field and, for a spherical-harmonic mode nu >= 1, the gradient field of
the potential r^(lam+1) h(t/n) Y(sigma).  The weighted Laplacian/gradient
quotient of such a field equals a ratio of 1-D quadratic forms

    integral h . poly(-d^2/dt^2, alpha_nu) h dt

with poly in {Q0, P0, Q1, P1}, which is what `quadratic_form` computes.
Two independent backends are evaluated and compared: derivative-side
composite Gauss-Legendre quadrature (integration by parts realisation)
and a Fourier-side sum over |h^(tau)|^2.  The Fourier discretisation is
exact up to aliasing: the integrand's inverse transform is supported in
[-2n, 2n], inside the sampling window's Poisson-summation margin.

A form of degree <= 3 in tau is a dot product of its tau-coefficients
with the profile's derivative norms and Fourier moments of orders 0..3.
Those two vectors are computed once per (profile, derivative shift) and
kept on the Profile instance, so one basis serves every form on it: the
Q and P forms of a quotient, and the three forms of a remainder check or
an oracle cross-check (two bases).  The (Q, P) pair of a channel comes
from `polyfamily.channel_polys`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import roots_legendre

from .constants import Params, rellich_hardy_C, rellich_hardy_C_min
from .certificates import c0_for
from .poly import MultiPoly
from . import polyfamily as pf


class BackendDisagreementError(RuntimeError):
    """The quadrature and Fourier backends differ beyond tolerance."""


class NonPositiveFormError(RuntimeError):
    """A quadratic form of a nonzero field came out <= 0."""


class DegenerateModeError(ValueError):
    """lam = 0 with nu = 1: the mode's quadratic form vanishes at tau = 0."""


class ArgminNotAtZeroError(AssertionError):
    """Brute-force scan found its minimum away from tau = 0."""


class NotConvergedError(RuntimeError):
    """Resolution doubling changed the result beyond tolerance."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _bump_derivs(x: np.ndarray) -> np.ndarray:
    """h = exp(-1/(1-x^2)) on (-1,1) and its first four derivatives.

    Closed forms via w = -1/(1-x^2): successive w-derivatives feed the
    exponential chain rule (Bell polynomial form).  Returns shape (5, ...).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((5,) + x.shape)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    u = 1.0 - xi * xi
    du = -2.0 * xi
    d2u = -2.0
    w1 = du / u ** 2
    w2 = d2u / u ** 2 - 2.0 * du ** 2 / u ** 3
    w3 = -6.0 * du * d2u / u ** 3 + 6.0 * du ** 3 / u ** 4
    w4 = (-6.0 * d2u ** 2 / u ** 3 + 36.0 * du ** 2 * d2u / u ** 4
          - 24.0 * du ** 4 / u ** 5)
    h = np.exp(-1.0 / u)
    out[0][inside] = h
    out[1][inside] = w1 * h
    out[2][inside] = (w2 + w1 ** 2) * h
    out[3][inside] = (w3 + 3.0 * w1 * w2 + w1 ** 3) * h
    out[4][inside] = (w4 + 4.0 * w1 * w3 + 3.0 * w2 ** 2
                      + 6.0 * w1 ** 2 * w2 + w1 ** 4) * h
    return out


def _cos4_derivs(x: np.ndarray) -> np.ndarray:
    """h = cos^4(pi x / 2) on (-1,1); fourth power keeps h''' continuous,
    which the cubic-in-tau forms need (the classic power-2 raised cosine
    is only C^1 and breaks them)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((5,) + x.shape)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    c = np.cos(0.5 * np.pi * xi)
    s = np.sin(0.5 * np.pi * xi)
    pi = np.pi
    out[0][inside] = c ** 4
    out[1][inside] = -2.0 * pi * c ** 3 * s
    out[2][inside] = -pi ** 2 * (c ** 4 - 3.0 * c ** 2 * s ** 2)
    out[3][inside] = 0.5 * pi ** 3 * (10.0 * c ** 3 * s - 6.0 * c * s ** 3)
    out[4][inside] = 0.25 * pi ** 4 * (10.0 * c ** 4 - 48.0 * c ** 2 * s ** 2
                                       + 6.0 * s ** 4)
    return out


_KINDS = {"bump": _bump_derivs, "cos4": _cos4_derivs}

# reference value of the base-profile norm integral over (-1, 1),
# frozen from a high-precision independent quadrature
BUMP_NORM2 = 0.1330861208449942715569473
COS4_NORM2 = 35.0 / 64.0


# highest tau power a form polynomial may carry
MAX_TAU_DEGREE = 3


@dataclass(frozen=True)
class Profile:
    """Dilated compactly supported smooth profile h(t/n) on [-n, n].

    `points_per_unit` is validated but feeds no computation: the GL rule
    and the FFT grid set their own resolutions.
    """

    kind: str
    n: int
    points_per_unit: int
    # (derivative shift, nodes per unit) -> (norms, moments); see form_basis
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def make(cls, kind: str = "bump", n: int = 1,
             points_per_unit: int = 64) -> "Profile":
        if kind not in _KINDS:
            raise ValueError(f"unknown profile kind {kind!r}; use {list(_KINDS)}")
        if n < 1:
            raise ValueError("dilation n must be >= 1")
        if points_per_unit < 16:
            raise ValueError(
                "points_per_unit < 16 under-resolves the 4th derivatives")
        return cls(kind, n, points_per_unit)

    def deriv(self, t, k: int) -> np.ndarray:
        """k-th derivative of the dilated profile at arbitrary points."""
        return self.derivs(t, (k,))[0]

    def derivs(self, t, orders) -> list[np.ndarray]:
        """Derivatives of the given orders at t, from one evaluation of the
        closed-form table."""
        t = np.asarray(t, dtype=float)
        table = _KINDS[self.kind](t / self.n)
        return [table[k] / self.n ** k for k in orders]

    def form_basis(self, derivative_shift: int = 0, nodes_per_unit: int = 16
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(derivative norms, Fourier moments) of orders 0..MAX_TAU_DEGREE
        for h^(derivative_shift), computed on first use and then reused."""
        key = (derivative_shift, nodes_per_unit)
        if key not in self._bases:
            self._bases[key] = (
                tuple(derivative_norms(self, MAX_TAU_DEGREE, derivative_shift,
                                       nodes_per_unit)),
                tuple(_fourier_moments(self, MAX_TAU_DEGREE, derivative_shift)))
        return self._bases[key]

    def base_norm2(self) -> float:
        return BUMP_NORM2 if self.kind == "bump" else COS4_NORM2

    def norm2(self) -> float:
        """integral of h(t/n)^2 dt = n * (base norm)."""
        return self.n * self.base_norm2()


def make_profile(kind: str = "bump", n: int = 1,
                 points_per_unit: int = 64) -> Profile:
    return Profile.make(kind, n, points_per_unit)


# ---------------------------------------------------------------------------
# quadratic forms, two backends
# ---------------------------------------------------------------------------

def _gl_nodes(n: int, nodes_per_unit: int = 16, edge_levels: int = 36):
    """Composite Gauss-Legendre nodes/weights on [-n, n].

    One rule per unit interval, with the two outermost unit intervals
    geometrically graded toward the support endpoints: the bump profile's
    high derivatives oscillate in an O((1 - |t/n|)^2) boundary layer that
    a uniform composite rule resolves too slowly.
    """
    x, w = roots_legendre(nodes_per_unit)

    def rule(a: float, b: float):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * x, half * w

    breaks: list[float] = [float(k) for k in range(-n + 1, n)]
    # geometric grading inside [n-1, n] and mirrored on the left
    right = [n - 2.0 ** (-j) for j in range(0, edge_levels + 1)]
    breaks = sorted(set([-n] + [-b for b in right] + breaks + right + [n]))
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        nn, ww = rule(a, b)
        nodes.append(nn)
        weights.append(ww)
    return np.concatenate(nodes), np.concatenate(weights)


def derivative_norms(profile: Profile, max_order: int,
                     derivative_shift: int = 0,
                     nodes_per_unit: int = 16) -> list[float]:
    """[integral (h^(k+shift))^2 dt for k = 0..max_order] by composite GL."""
    nodes, weights = _gl_nodes(profile.n, nodes_per_unit)
    orders = range(derivative_shift, derivative_shift + max_order + 1)
    return [float(np.sum(weights * vals * vals))
            for vals in profile.derivs(nodes, orders)]


def _fourier_moments(profile: Profile, max_order: int,
                     derivative_shift: int = 0,
                     points_per_unit: int = 512) -> list[float]:
    """[integral tau^(2k) |h^(tau)|^2 dtau] via FFT of the sampled profile.

    Window [-L, L] with L = n + 2 makes the tau-grid Riemann sum exact by
    Poisson summation (the integrand's transform lives in [-2n, 2n]).
    """
    L = profile.n + 2
    m = 1 << int(math.ceil(math.log2(2 * L * points_per_unit)))
    dt = 2 * L / m
    t = -L + dt * np.arange(m)
    h = profile.deriv(t, derivative_shift)
    spectrum = np.fft.rfft(h)
    power = (np.abs(spectrum) ** 2) * (dt ** 2 / (2.0 * np.pi))
    tau = np.pi / L * np.arange(len(spectrum))
    dtau = np.pi / L
    # even integrand: double the interior bins
    mult = np.full(len(spectrum), 2.0)
    mult[0] = 1.0
    if m % 2 == 0:
        mult[-1] = 1.0
    out = []
    for k in range(max_order + 1):
        out.append(float(np.sum(mult * power * tau ** (2 * k)) * dtau))
    return out


@dataclass(frozen=True)
class FormValue:
    value: float       # derivative-quadrature backend
    fourier: float     # FFT backend
    rel_diff: float


def _tau_coefficients(poly: MultiPoly, a_value: Fraction | None) -> list[float]:
    if a_value is not None:
        poly = poly.subs("a", Fraction(a_value))
    used = poly.variables_used()
    if any(v != "tau" for v in used):
        raise ValueError(f"form polynomial still has free variables {used}")
    coeffs = [c.constant_value() for c in poly.coeffs_in("tau")]
    if len(coeffs) > MAX_TAU_DEGREE + 1:
        raise ValueError(
            f"form polynomial must have degree <= {MAX_TAU_DEGREE} in tau")
    return [float(c) for c in coeffs]


def quadratic_form(profile: Profile, poly: MultiPoly,
                   a_value: Fraction | None = None,
                   derivative_shift: int = 0,
                   nodes_per_unit: int = 16,
                   tol: float = 1e-8) -> FormValue:
    """integral h . poly(-d^2/dt^2, a) h dt for the (possibly shifted)
    profile, with poly of degree <= 3 in tau.

    Computed twice: tau^k -> integral (h^(k))^2 (integration by parts;
    boundary terms vanish by compact support) and tau^k -> Fourier moment.
    Both vectors come from `Profile.form_basis`, so one basis per
    (profile, derivative shift) serves every form on it.  Raises
    BackendDisagreementError when the backends differ beyond `tol`
    relative (a resolution problem, not a rounding one).
    """
    coeffs = _tau_coefficients(poly, a_value)
    norms, moments = profile.form_basis(derivative_shift, nodes_per_unit)
    value = sum(c * v for c, v in zip(coeffs, norms))
    fourier = sum(c * v for c, v in zip(coeffs, moments))
    scale = max(abs(value), abs(fourier),
                sum(abs(c) * v for c, v in zip(coeffs, norms)), 1e-300)
    rel = abs(value - fourier) / scale
    if rel > tol:
        raise BackendDisagreementError(
            f"backend_disagreement: {value} vs {fourier} (rel {rel:.2e})")
    return FormValue(value, fourier, rel)


# ---------------------------------------------------------------------------
# fields and quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralField:
    """Radial (mode 0) or spherical-harmonic (mode nu >= 1) test field."""

    params: Params
    mode: int
    profile: Profile

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode must be >= 0")

    @property
    def degenerate(self) -> bool:
        return self.params.degenerate and self.mode == 1


@dataclass(frozen=True)
class QuotientReport:
    params: Params
    mode: int
    n: int
    numerator: float
    denominator: float
    quotient: float
    target: float  # the mode's sharp constant
    gap: float

    def as_dict(self) -> dict:
        return {
            "N": self.params.N,
            "gamma": str(self.params.gamma),
            "nu": self.mode,
            "n": self.n,
            "quotient": self.quotient,
            "target": self.target,
            "gap": self.gap,
        }


def rh_quotient(field: SpectralField, nodes_per_unit: int = 16) -> QuotientReport:
    """Laplacian-to-gradient quotient of the field via the reduced forms."""
    if field.degenerate:
        raise DegenerateModeError(
            "mode nu=1 at gamma = 2 - N/2: P1(0, alpha_1) vanishes; "
            "interpret only through the n-dependence")
    q_poly, p_poly = pf.channel_polys(field.params, field.mode)
    num = quadratic_form(field.profile, q_poly, nodes_per_unit=nodes_per_unit)
    den = quadratic_form(field.profile, p_poly, nodes_per_unit=nodes_per_unit)
    if not (num.value > 0 and den.value > 0):
        raise NonPositiveFormError(
            f"quadratic forms must be positive for a nonzero field: "
            f"Q form {num.value}, P form {den.value}")
    target = float(rellich_hardy_C(field.params, field.mode))
    quot = num.value / den.value
    return QuotientReport(field.params, field.mode, field.profile.n,
                          num.value, den.value, quot, target, quot - target)


@dataclass(frozen=True)
class MinimizingSequenceResult:
    reports: list[QuotientReport]
    target: float
    fitted_exponent: float


def minimizing_sequence(params: Params, nu_star: int, ns,
                        kind: str = "bump",
                        points_per_unit: int = 64) -> MinimizingSequenceResult:
    """Quotients of the dilated fields for each n; gaps decay like n^-2.

    The quotient of the mode-nu_star field converges to that mode's own
    constant C(N, gamma, nu_star) (the global sharp constant when nu_star
    is the argmin); the fitted log-log slope of the gap is reported.
    """
    if params.degenerate and nu_star == 1:
        raise DegenerateModeError("(lam = 0, nu = 1) excluded")
    reports = []
    for n in ns:
        profile = Profile.make(kind, int(n), points_per_unit)
        reports.append(rh_quotient(SpectralField(params, nu_star, profile)))
    gaps = np.array([r.gap for r in reports], dtype=float)
    ns_arr = np.array([r.n for r in reports], dtype=float)
    if np.all(gaps > 0) and len(ns) >= 2:
        slope = np.polyfit(np.log(ns_arr), np.log(gaps), 1)[0]
        exponent = -float(slope)
    else:
        exponent = float("nan")
    return MinimizingSequenceResult(reports, reports[0].target, exponent)


# ---------------------------------------------------------------------------
# brute-force scan over (tau, nu)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteMinResult:
    min_value: float
    argmin_tau: float
    argmin_nu: int
    c_min: float
    rel_error: float


def brute_min_tau_nu(params: Params, tau_min: float = 1e-4,
                     tau_max: float = 1e4, tau_points: int = 400,
                     nu_max: int = 40, rel_tol: float = 1e-10) -> BruteMinResult:
    """Scan Q/P over tau in {0} plus a log grid, nu <= nu_max.

    Asserts the global minimum sits at tau = 0 and matches the certified
    C minimum to `rel_tol` relative; a violation raises
    ArgminNotAtZeroError (it would contradict the difference-quotient
    bounds, so it is treated as a hard failure, not a result).
    """
    taus = np.concatenate([[0.0], np.exp(np.linspace(
        np.log(tau_min), np.log(tau_max), tau_points))])
    best = (math.inf, 0.0, -1)
    for nu in range(nu_max + 1):
        q_poly, p_poly = pf.channel_polys(params, nu)
        qc = np.array(_tau_coefficients(q_poly, None))
        pc = np.array(_tau_coefficients(p_poly, None))
        tt = taus
        if params.degenerate and nu == 1:
            tt = taus[1:]  # P1(0, alpha_1) = 0 exactly: skip the 0/0 point
        qv = np.polynomial.polynomial.polyval(tt, qc)
        pv = np.polynomial.polynomial.polyval(tt, pc)
        vals = qv / pv
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
    return BruteMinResult(best[0], best[1], best[2], c_min, rel)


# ---------------------------------------------------------------------------
# remainder inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderReport:
    params: Params
    mode: int
    n: int
    gap: float
    remainder: float
    c0: float
    bound: float
    scale: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "N": self.params.N,
            "gamma": str(self.params.gamma),
            "nu": self.mode,
            "n": self.n,
            "gap": self.gap,
            "remainder": self.remainder,
            "c0": self.c0,
            "passed": self.passed,
        }


def remainder_check(field: SpectralField, tol: float = 1e-8,
                    nodes_per_unit: int = 16) -> RemainderReport:
    """Check gap >= min(1, c0) * remainder - tol * scale for the field.

    gap is the Laplacian form minus the certified global constant times
    the gradient form; the remainder is the gradient-side form applied to
    the differentiated profile (the derivative realisation of the extra
    tau^2 weight in the remainder term).
    """
    if field.degenerate:
        raise DegenerateModeError("(lam = 0, nu = 1) excluded")
    q_poly, p_poly = pf.channel_polys(field.params, field.mode)
    qf = quadratic_form(field.profile, q_poly, nodes_per_unit=nodes_per_unit)
    pform = quadratic_form(field.profile, p_poly, nodes_per_unit=nodes_per_unit)
    rem = quadratic_form(field.profile, p_poly, derivative_shift=1,
                         nodes_per_unit=nodes_per_unit)
    c_min = float(rellich_hardy_C_min(field.params).value)
    c0 = float(min(Fraction(1), c0_for(field.params)))
    gap = qf.value - c_min * pform.value
    scale = abs(qf.value) + abs(c_min * pform.value) + abs(rem.value)
    bound = c0 * rem.value - tol * scale
    return RemainderReport(field.params, field.mode, field.profile.n,
                           gap, rem.value, c0, bound, scale, gap >= bound)


# ---------------------------------------------------------------------------
# potential decomposition (radial mean + spherical modes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularGrid:
    """Quadrature on the unit sphere for N = 2 (circle) or N = 3 (zonal)."""

    N: int
    points: np.ndarray   # theta for N=2, cos(theta) for N=3
    weights: np.ndarray  # surface-measure weights (sum = |S^(N-1)|)

    @classmethod
    def make(cls, N: int, points: int = 64) -> "AngularGrid":
        if N == 2:
            theta = 2.0 * np.pi * np.arange(points) / points
            w = np.full(points, 2.0 * np.pi / points)
            return cls(2, theta, w)
        if N == 3:
            c, w = roots_legendre(points)
            return cls(3, c, 2.0 * np.pi * w)
        raise ValueError("angular grids exist for N = 2, 3 only")

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))

    def harmonic(self, nu: int) -> np.ndarray:
        """Zonal harmonic samples: cos(nu theta) (N=2), P_nu(cos) (N=3)."""
        if self.N == 2:
            return np.cos(nu * self.points)
        from scipy.special import eval_legendre
        return eval_legendre(nu, self.points)

    def harmonic_norm2(self, nu: int) -> float:
        if self.N == 2:
            return 2.0 * np.pi if nu == 0 else np.pi
        return 4.0 * np.pi if nu == 0 else 4.0 * np.pi / (2 * nu + 1)


@dataclass(frozen=True)
class DecomposeResult:
    t: np.ndarray
    f_profile: np.ndarray
    phi_profiles: dict[int, np.ndarray]
    residual_rel: float
    mean_refinement_rel: float


def _ddt(values: np.ndarray, dt: float) -> np.ndarray:
    """Sixth-order central differences; compactly supported input, so the
    zero-padded edges are exact."""
    padded = np.pad(values, 3)
    return (-padded[:-6] + 9 * padded[1:-5] - 45 * padded[2:-4]
            + 45 * padded[4:-2] - 9 * padded[5:-1] + padded[6:]) / (60 * dt)


def decompose_potential(params: Params, potential, t: np.ndarray,
                        angular: AngularGrid | None = None,
                        lam: Fraction | None = None, nu_max: int = 8,
                        mean_tol: float = 1e-9) -> DecomposeResult:
    """Split a scalar potential into the radial-mean channel and zonal
    spherical-harmonic channels.

    `potential(t, ang)` must be vectorised over a (t, angle) grid; `t` is
    an increasing uniform grid covering the support.  Returns the radial
    profile f = r^(-lam) d/dt (mean) and per-mode profiles
    r^(-lam) <phi - mean, Y_nu> / ||Y_nu||^2.  Raises NotConvergedError
    when doubling the angular resolution moves the mean (relative L2)
    by more than `mean_tol`.
    """
    if angular is None:
        angular = AngularGrid.make(params.N)
    lam = params.lam if lam is None else Fraction(lam)
    t = np.asarray(t, dtype=float)
    dt = t[1] - t[0]
    tt, aa = np.meshgrid(t, angular.points, indexing="ij")
    values = np.asarray(potential(tt, aa), dtype=float)
    mean = values @ angular.weights / angular.area
    fine = AngularGrid.make(params.N, 2 * len(angular.points))
    tt2, aa2 = np.meshgrid(t, fine.points, indexing="ij")
    mean2 = np.asarray(potential(tt2, aa2), dtype=float) @ fine.weights / fine.area
    denom = max(float(np.linalg.norm(values)) / math.sqrt(max(len(angular.points), 1)),
                1e-300)
    refinement = float(np.linalg.norm(mean - mean2)) / denom
    if refinement > mean_tol:
        raise NotConvergedError(
            f"mean_not_converged: angular refinement moved the mean by {refinement:.2e}")
    radial_scale = np.exp(-float(lam) * t)
    f_profile = radial_scale * _ddt(mean, dt)
    fluct = values - mean[:, None]
    phi_profiles = {}
    recon = np.zeros_like(fluct)
    for nu in range(1, nu_max + 1):
        y = angular.harmonic(nu)
        coeff = (fluct * y[None, :]) @ angular.weights / angular.harmonic_norm2(nu)
        phi_profiles[nu] = radial_scale * coeff
        recon += np.outer(coeff, y)
    resid = float(np.linalg.norm(fluct - recon))
    resid_rel = resid / max(float(np.linalg.norm(values)), 1e-300)
    return DecomposeResult(t, f_profile, phi_profiles, resid_rel, refinement)
