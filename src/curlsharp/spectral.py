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
[-2n, 2n], inside the Poisson-summation margin of the window
[-(n + 2), n + 2].  The window is sampled at 512 points per base unit of
the profile (dt = n / 512 or finer), not per unit of t: h(t/n) gets
smoother as n grows, so 2048-4096 samples serve every n, and the
high-order moments keep their accuracy at large n (each order within
4e-14 of GL for the bump and 2e-9 for cos4, for every n up to 128).

A form of degree <= 3 in tau is a dot product of its tau-coefficients
with the profile's derivative norms and Fourier moments of orders 0..3.
Those two vectors are computed once per (profile, derivative shift) and
kept on the Profile instance, so one basis serves every form on it: the
Q and P forms of a quotient, and the three forms of a remainder check or
an oracle cross-check (two bases).  Each order of a basis is checked on
its own, GL norm against FFT moment, to ORDER_REL_TOL relative.  The
(Q, P) pair of a channel comes from `polyfamily.channel_polys`.

The closed-form derivative tables hold orders 0..4 and are built only up
to the highest order an evaluation asks for: the GL norms of shift s read
orders s..s+3, and the FFT window samples the single order s.  A Fourier
moment of order k needs h^(k) continuous, so a form that would read a
higher order (cos4 is only C^3) is rejected before any quadrature, and
the basis stops at that order (cos4 at shift 1 keeps orders 1..3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .constants import Params, rellich_hardy_C, rellich_hardy_C_min
from .certificates import c0_for
from .poly import VARS, MultiPoly
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

def _bump_derivs(x: np.ndarray, top: int) -> np.ndarray:
    """h = exp(-1/(1-x^2)) on (-1,1) and its derivatives of orders
    0..top (top <= 4).

    Closed forms via w = -1/(1-x^2): successive w-derivatives feed the
    exponential chain rule (Bell polynomial form).  Returns shape
    (top + 1, ...); no row above `top` is computed.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((top + 1,) + x.shape)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    u = 1.0 - xi * xi
    h = np.exp(-1.0 / u)
    out[0][inside] = h
    if top == 0:
        return out
    du = -2.0 * xi
    d2u = -2.0
    w1 = du / u ** 2
    out[1][inside] = w1 * h
    if top == 1:
        return out
    w2 = d2u / u ** 2 - 2.0 * du ** 2 / u ** 3
    out[2][inside] = (w2 + w1 ** 2) * h
    if top == 2:
        return out
    w3 = -6.0 * du * d2u / u ** 3 + 6.0 * du ** 3 / u ** 4
    out[3][inside] = (w3 + 3.0 * w1 * w2 + w1 ** 3) * h
    if top == 3:
        return out
    w4 = (-6.0 * d2u ** 2 / u ** 3 + 36.0 * du ** 2 * d2u / u ** 4
          - 24.0 * du ** 4 / u ** 5)
    out[4][inside] = (w4 + 4.0 * w1 * w3 + 3.0 * w2 ** 2
                      + 6.0 * w1 ** 2 * w2 + w1 ** 4) * h
    return out


def _cos4_derivs(x: np.ndarray, top: int) -> np.ndarray:
    """h = cos^4(pi x / 2) on (-1,1) and its derivatives of orders 0..top
    (top <= 4); shape (top + 1, ...).  The fourth power keeps h'''
    continuous, which the cubic-in-tau forms need (the classic power-2
    raised cosine is only C^1 and breaks them); h'''' jumps at +-1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((top + 1,) + x.shape)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    c = np.cos(0.5 * np.pi * xi)
    s = np.sin(0.5 * np.pi * xi)
    pi = np.pi
    out[0][inside] = c ** 4
    if top >= 1:
        out[1][inside] = -2.0 * pi * c ** 3 * s
    if top >= 2:
        out[2][inside] = -pi ** 2 * (c ** 4 - 3.0 * c ** 2 * s ** 2)
    if top >= 3:
        out[3][inside] = 0.5 * pi ** 3 * (10.0 * c ** 3 * s - 6.0 * c * s ** 3)
    if top >= 4:
        out[4][inside] = 0.25 * pi ** 4 * (10.0 * c ** 4
                                           - 48.0 * c ** 2 * s ** 2
                                           + 6.0 * s ** 4)
    return out


_KINDS = {"bump": _bump_derivs, "cos4": _cos4_derivs}
# the tables hold derivative orders 0..MAX_DERIV_ORDER
MAX_DERIV_ORDER = 4
# highest tabulated derivative order that is continuous on the whole line;
# a Fourier moment of order k needs h^(k) continuous to converge (bump is
# smooth, cos4 only C^3)
_CONTINUOUS_ORDER = {"bump": MAX_DERIV_ORDER, "cos4": 3}

# reference value of the base-profile norm integral over (-1, 1),
# frozen from a high-precision independent quadrature
BUMP_NORM2 = 0.1330861208449942715569473
COS4_NORM2 = 35.0 / 64.0


# highest tau power a form polynomial may carry
MAX_TAU_DEGREE = 3
# position of tau in a MultiPoly exponent vector
_TAU = VARS.index("tau")

# FFT samples per base unit of the profile (unit of t/n); see _fft_grid
_FFT_SAMPLES_PER_BASE_UNIT = 512

# largest relative gap allowed between one order's GL norm and FFT moment
ORDER_REL_TOL = 1e-8
# largest relative gap allowed between a form's two backend values
FORM_REL_TOL = 1e-8
# slack of the remainder inequality, relative to the size of its terms
REMAINDER_TOL = 1e-8

# GL nodes per unit of t for the derivative norms and for the coarse pass
# of oracle.weighted_integrals; see _gl_nodes
_GL_NODES_PER_UNIT = 16


@dataclass(frozen=True)
class Profile:
    """Dilated compactly supported smooth profile h(t/n) on [-n, n].

    `kind` names the base profile h on (-1, 1) and `n` is the dilation.
    The backends set their own resolutions: the GL rule counts nodes per
    unit of t, the FFT window samples per base unit (see `_fft_grid`).
    """

    kind: str
    n: int
    # derivative shift -> (norms, moments); see form_basis
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def make(cls, kind: str = "bump", n: int = 1) -> "Profile":
        if kind not in _KINDS:
            raise ValueError(f"unknown profile kind {kind!r}; use {list(_KINDS)}")
        if n < 1:
            raise ValueError("dilation n must be >= 1")
        return cls(kind, n)

    def deriv(self, t, k: int) -> np.ndarray:
        """k-th derivative (0 <= k <= MAX_DERIV_ORDER) of the dilated profile
        at arbitrary points."""
        return self.derivs(t, (k,))[0]

    def derivs(self, t, orders) -> list[np.ndarray]:
        """Derivatives of the given orders at t, in the order asked for.

        One evaluation of the closed-form table, built only up to the
        highest order asked for.  Raises ValueError unless every order lies
        in 0..MAX_DERIV_ORDER.
        """
        orders = tuple(orders)
        if not orders or any(k not in range(MAX_DERIV_ORDER + 1)
                             for k in orders):
            raise ValueError(f"derivative orders must lie in "
                             f"0..{MAX_DERIV_ORDER}, got {orders}")
        t = np.asarray(t, dtype=float)
        table = _KINDS[self.kind](t / self.n, max(orders))
        return [table[k] / self.n ** k for k in orders]

    def form_basis(self, derivative_shift: int = 0
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(derivative norms, Fourier moments) of orders 0..top for
        h^(derivative_shift), computed on first use and then reused.

        top is MAX_TAU_DEGREE, or less where h^(derivative_shift + top)
        would pass the profile's highest continuous order: a higher
        moment does not converge, and `quadratic_form` rejects every form
        that would read it.  Each order is an independent two-backend
        check: raises BackendDisagreementError, and caches nothing, when
        any order's GL norm and FFT moment differ by more than
        ORDER_REL_TOL relative.
        """
        if derivative_shift not in self._bases:
            top = min(MAX_TAU_DEGREE,
                      _CONTINUOUS_ORDER[self.kind] - derivative_shift)
            norms = tuple(derivative_norms(self, top, derivative_shift))
            moments = tuple(_fourier_moments(self, top, derivative_shift))
            for k, (g, f) in enumerate(zip(norms, moments)):
                rel = abs(g - f) / max(abs(g), abs(f), 1e-300)
                if rel > ORDER_REL_TOL:
                    raise BackendDisagreementError(
                        f"backend_disagreement: {self.kind} n={self.n} order "
                        f"{derivative_shift + k}: GL norm {g} vs FFT moment "
                        f"{f} (rel {rel:.2e})")
            self._bases[derivative_shift] = (norms, moments)
        return self._bases[derivative_shift]

    def base_norm2(self) -> float:
        return BUMP_NORM2 if self.kind == "bump" else COS4_NORM2

    def norm2(self) -> float:
        """integral of h(t/n)^2 dt = n * (base norm)."""
        return self.n * self.base_norm2()


# ---------------------------------------------------------------------------
# quadratic forms, two backends
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre (nodes, weights) on [-1, 1], read-only and shared."""
    x, w = roots_legendre(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# halvings of the grading toward each support endpoint in _gl_nodes
_EDGE_LEVELS = 36


@lru_cache(maxsize=64)
def _gl_nodes(n: int, nodes_per_unit: int):
    """Composite Gauss-Legendre nodes/weights on [-n, n], read-only and
    shared.

    One rule per unit interval, with the two outermost unit intervals
    geometrically graded toward the support endpoints: the bump profile's
    high derivatives oscillate in an O((1 - |t/n|)^2) boundary layer that
    a uniform composite rule resolves too slowly.
    """
    x, w = _legendre_rule(nodes_per_unit)
    interior = [float(k) for k in range(-n + 1, n)]
    # geometric grading inside [n-1, n] and mirrored on the left
    right = [n - 2.0 ** (-j) for j in range(0, _EDGE_LEVELS + 1)]
    breaks = np.array(sorted(set([-n] + [-b for b in right] + interior
                                 + right + [n])))
    a, b = breaks[:-1], breaks[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def derivative_norms(profile: Profile, max_order: int,
                     derivative_shift: int = 0) -> list[float]:
    """[integral (h^(k+shift))^2 dt for k = 0..max_order] by composite GL
    with _GL_NODES_PER_UNIT nodes per unit of t."""
    nodes, weights = _gl_nodes(profile.n, _GL_NODES_PER_UNIT)
    orders = range(derivative_shift, derivative_shift + max_order + 1)
    return [float(np.sum(weights * vals * vals))
            for vals in profile.derivs(nodes, orders)]


def _fft_grid(n: int) -> tuple[int, int]:
    """(L, m): the FFT window [-L, L] and its sample count for dilation n.

    L = n + 2, and m is the power of two that gives at least
    _FFT_SAMPLES_PER_BASE_UNIT samples per base unit (dt <= n / 512), so
    2048 <= m <= 4096 whatever n is.
    """
    L = n + 2
    m = 1 << (-(-2 * L * _FFT_SAMPLES_PER_BASE_UNIT // n) - 1).bit_length()
    return L, m


def _fourier_moments(profile: Profile, max_order: int,
                     derivative_shift: int = 0) -> list[float]:
    """[integral tau^(2k) |h^(tau)|^2 dtau] via FFT of the sampled profile.

    Window [-L, L] with L = n + 2 makes the tau-grid Riemann sum exact by
    Poisson summation (the integrand's transform lives in [-2n, 2n]).  The
    samples are spaced per base unit, dt = n / 512 or finer: h(t/n) gets
    smoother as n grows, its spectrum shrinks to |tau| ~ 1/n, and the
    Nyquist frequency pi/dt shrinks with it, so the window length m no
    longer grows with n.  Sampling per unit of t would take 2^16 points
    at n = 40, and the extra high-tau bins hold only rounding noise, which
    the tau^(2k) weight lifts into the high-order moments.
    """
    L, m = _fft_grid(profile.n)
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


def _tau_coefficients(poly: MultiPoly) -> list[float]:
    """[c_0, ..., c_d] as floats, with poly = sum c_k tau^k and d <= 3.

    Read straight off the exponent dict (a zero poly gives [0.0]); raises
    ValueError when a variable other than tau is left, or when the degree
    in tau exceeds MAX_TAU_DEGREE.
    """
    terms = poly.terms
    if any(sum(exp) != exp[_TAU] for exp in terms):
        raise ValueError(f"form polynomial still has free variables "
                         f"{poly.variables_used()}")
    coeffs = [0.0] * (max((exp[_TAU] for exp in terms), default=0) + 1)
    if len(coeffs) > MAX_TAU_DEGREE + 1:
        raise ValueError(
            f"form polynomial must have degree <= {MAX_TAU_DEGREE} in tau")
    for exp, c in terms.items():
        coeffs[exp[_TAU]] = float(c)
    return coeffs


def quadratic_form(profile: Profile, poly: MultiPoly,
                   derivative_shift: int = 0) -> FormValue:
    """integral h . poly(-d^2/dt^2) h dt for the (possibly shifted)
    profile, with poly a polynomial in tau alone, of degree <= 3.

    Computed twice: tau^k -> integral (h^(k))^2 (integration by parts;
    boundary terms vanish by compact support) and tau^k -> Fourier moment.
    Both vectors come from `Profile.form_basis`, so one basis per
    (profile, derivative shift) serves every form on it.  Raises
    ValueError, before any quadrature, when the form reads a derivative
    order the profile does not have continuous (cos4 is only C^3), and
    BackendDisagreementError when the backends differ beyond FORM_REL_TOL
    relative on the form, or beyond ORDER_REL_TOL on any one order of the
    basis (a resolution problem, not a rounding one).
    """
    coeffs = _tau_coefficients(poly)
    top = derivative_shift + len(coeffs) - 1
    if top > _CONTINUOUS_ORDER[profile.kind]:
        raise ValueError(
            f"a degree-{len(coeffs) - 1} form on h^({derivative_shift}) "
            f"reads h^({top}), but the {profile.kind} table is continuous "
            f"only up to order {_CONTINUOUS_ORDER[profile.kind]}: its "
            f"Fourier moment of order {top} does not converge")
    norms, moments = profile.form_basis(derivative_shift)
    value = sum(c * v for c, v in zip(coeffs, norms))
    fourier = sum(c * v for c, v in zip(coeffs, moments))
    scale = max(abs(value), abs(fourier),
                sum(abs(c) * v for c, v in zip(coeffs, norms)), 1e-300)
    rel = abs(value - fourier) / scale
    if rel > FORM_REL_TOL:
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


def rh_quotient(field: SpectralField) -> QuotientReport:
    """Laplacian-to-gradient quotient of the field via the reduced forms."""
    if field.degenerate:
        raise DegenerateModeError(
            "mode nu=1 at gamma = 2 - N/2: P1(0, alpha_1) vanishes; "
            "interpret only through the n-dependence")
    q_poly, p_poly = pf.channel_polys(field.params, field.mode)
    num = quadratic_form(field.profile, q_poly)
    den = quadratic_form(field.profile, p_poly)
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
                        kind: str = "bump") -> MinimizingSequenceResult:
    """Quotients of the dilated fields for each n; gaps decay like n^-2.

    The quotient of the mode-nu_star field converges to that mode's own
    constant C(N, gamma, nu_star) (the global sharp constant when nu_star
    is the argmin); the fitted log-log slope of the gap is reported.
    """
    if params.degenerate and nu_star == 1:
        raise DegenerateModeError("(lam = 0, nu = 1) excluded")
    reports = []
    for n in ns:
        profile = Profile.make(kind, int(n))
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

# the range of the log-spaced tau grid of brute_min_tau_nu
_BRUTE_TAU_MIN, _BRUTE_TAU_MAX = 1e-4, 1e4


@dataclass(frozen=True)
class BruteMinResult:
    min_value: float
    argmin_tau: float
    argmin_nu: int
    c_min: float
    rel_error: float


def brute_min_tau_nu(params: Params, tau_points: int = 400,
                     nu_max: int = 40, rel_tol: float = 1e-10) -> BruteMinResult:
    """Scan Q/P over tau in {0} plus `tau_points` log-spaced values in
    [_BRUTE_TAU_MIN, _BRUTE_TAU_MAX], nu <= nu_max.

    Every mode is evaluated in one pass: the (Q, P) tau-coefficients of
    nu = 0..nu_max, zero-padded to degree MAX_TAU_DEGREE, run through
    one Horner recurrence on a (mode, tau) array, in the operation order
    of numpy's `polyval`, so each value is bit-identical to a per-mode
    `polyval`.  At lam = 0 the (nu = 1, tau = 0) entry is
    masked (P1(0, alpha_1) = 0 exactly: the 0/0 point).  The minimum is
    the first in mode-major order.

    Asserts the global minimum sits at tau = 0 and matches the certified
    C minimum to `rel_tol` relative; a violation raises
    ArgminNotAtZeroError (it would contradict the difference-quotient
    bounds, so it is treated as a hard failure, not a result).
    """
    if nu_max < 0:
        raise ValueError(f"nu_max must be >= 0, got {nu_max}")
    taus = np.concatenate([[0.0], np.exp(np.linspace(
        np.log(_BRUTE_TAU_MIN), np.log(_BRUTE_TAU_MAX), tau_points))])
    # coeffs[side, nu, k]: tau^k coefficient of Q (side 0) or P (side 1)
    coeffs = np.zeros((2, nu_max + 1, MAX_TAU_DEGREE + 1))
    for nu in range(nu_max + 1):
        for side, poly in enumerate(pf.channel_polys(params, nu)):
            c = _tau_coefficients(poly)
            coeffs[side, nu, :len(c)] = c
    vals = coeffs[..., -1, None] + taus * 0
    for k in range(MAX_TAU_DEGREE - 1, -1, -1):
        vals = coeffs[..., k, None] + vals * taus
    valid = np.ones(vals.shape[1:], dtype=bool)
    if params.degenerate and nu_max >= 1:
        valid[1, 0] = False
    ratio = np.divide(vals[0], vals[1], out=np.full(valid.shape, math.inf),
                      where=valid)
    nu, k = np.unravel_index(int(np.argmin(ratio)), ratio.shape)
    best = (float(ratio[nu, k]), float(taus[k]), int(nu))
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


def remainder_check(field: SpectralField) -> RemainderReport:
    """Check gap >= min(1, c0) * remainder - REMAINDER_TOL * scale for the
    field.

    gap is the Laplacian form minus the certified global constant times
    the gradient form; the remainder is the gradient-side form applied to
    the differentiated profile (the derivative realisation of the extra
    tau^2 weight in the remainder term).
    """
    if field.degenerate:
        raise DegenerateModeError("(lam = 0, nu = 1) excluded")
    q_poly, p_poly = pf.channel_polys(field.params, field.mode)
    qf = quadratic_form(field.profile, q_poly)
    pform = quadratic_form(field.profile, p_poly)
    rem = quadratic_form(field.profile, p_poly, derivative_shift=1)
    c_min = float(rellich_hardy_C_min(field.params).value)
    c0 = float(min(Fraction(1), c0_for(field.params)))
    gap = qf.value - c_min * pform.value
    scale = abs(qf.value) + abs(c_min * pform.value) + abs(rem.value)
    bound = c0 * rem.value - REMAINDER_TOL * scale
    return RemainderReport(field.params, field.mode, field.profile.n,
                           gap, rem.value, c0, bound, scale, gap >= bound)
