"""The P/Q polynomial framework behind the mode-wise quotient bounds.

For a curl-free field split into a radial channel and spherical-harmonic
channels, the weighted Laplacian and gradient integrals reduce to 1-D
quadratic forms whose symbols are polynomials in the Fourier variable tau
and the eigenvalue slot a (a = alpha_nu = nu(nu + N - 2) on channel nu):

    Q0/P0: radial channel,     Q1/P1: spherical channels.

The sharp constant per channel is the value of Q/P at tau = 0, and the
difference-quotient bounds that drive the remainder inequality reduce to
polynomial nonnegativity statements about the auxiliary families G, E, F
defined here.  W controls the interleaving of the curl-free constants
C(nu) between the unconstrained A(nu -/+ 1).

Everything is exact: coefficients live in Fraction, symbols in MultiPoly
over (tau, a, lam, N) with shift variables s, m, mu reserved for Taylor
re-expansions.  `_MEMBERS` states the family's names once, each with
its builder: `build_family` fills `PolyFamily` from it, symbolic or with
lam, N substituted by rationals, and certificate files reference its
members as @name.  `channel_polys` is the numeric builder of one
channel's (Q, P) pair: it substitutes (lam, N) into Q0/P0/Q1/P1 only,
once per Params, then alpha_nu, and memoises both steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .constants import Params, alpha
from .poly import MultiPoly

TAU = MultiPoly.var("tau")
A = MultiPoly.var("a")
LAM = MultiPoly.var("lam")
N = MultiPoly.var("N")
S = MultiPoly.var("s")
M = MultiPoly.var("m")

_half = Fraction(1, 2)


class FamilyInvariantError(RuntimeError):
    """The two displayed closed forms of Q1 disagree."""


def alpha_poly(x: MultiPoly | int | Fraction) -> MultiPoly:
    """Eigenvalue polynomial x(x + N - 2), N symbolic."""
    if not isinstance(x, MultiPoly):
        x = MultiPoly.const(x)
    return x * (x + N - 2)


@lru_cache(maxsize=None)
def p0() -> MultiPoly:
    return LAM ** 2 + N - 1 + TAU


@lru_cache(maxsize=None)
def p1() -> MultiPoly:
    return (A ** 2 + (2 * (LAM ** 2 - LAM + TAU) - N) * A
            + ((LAM + 1) ** 2 + TAU) * (LAM ** 2 + N - 1 + TAU))


@lru_cache(maxsize=None)
def q0() -> MultiPoly:
    return (TAU + (LAM - 1) ** 2) * (TAU + (LAM + N - 1) ** 2)


@lru_cache(maxsize=None)
def q1() -> MultiPoly:
    return (TAU + A + (LAM - 1) ** 2) * (
        (TAU + A + (LAM + 1) ** 2) * (TAU + A + (LAM + N - 1) ** 2)
        - (2 * LAM + N) ** 2 * A)


@lru_cache(maxsize=None)
def q1_factored() -> MultiPoly:
    """Second closed form of Q1: cubic-in-tau factorisation.

    Must equal q1() identically; `_check_q1_forms` raises otherwise.
    """
    al1 = alpha_poly(LAM + 1)
    return (TAU + A + (LAM - 1) ** 2) * (
        TAU ** 2 + (2 * (A + al1) + (N - 2) ** 2) * TAU + (A - al1) ** 2)


@lru_cache(maxsize=None)
def g0() -> MultiPoly:
    """Cubic-in-a part of the tau-difference numerator (see qp1 identity)."""
    return ((2 * LAM + N) * A ** 3
            + ((2 * LAM ** 2 - N + 5) * (2 * LAM + N) - 2 * (N - 1)) * A ** 2
            + (2 * LAM ** 5 + (N - 8) * LAM ** 4 - 8 * N * LAM ** 3
               - 2 * (N ** 2 + 2 * N - 2) * LAM ** 2
               - 2 * (6 * N - 7) * LAM - 2 * N ** 2 - N + 4) * A
            + (N - 1) * (2 * LAM + N - 2) * (LAM + 1) ** 4)


@lru_cache(maxsize=None)
def g1() -> MultiPoly:
    """Quadratic-in-a part of the tau-difference numerator."""
    return ((2 * LAM + N) * A ** 2
            + ((2 * LAM + N) * ((LAM - 1) ** 2 - N + 1) - 2 * (N - 1)) * A
            + (N - 1) * (2 * LAM + N - 2) * (LAM + 1) ** 2)


@lru_cache(maxsize=None)
def script_g2() -> MultiPoly:
    """s^2 Taylor coefficient of G0 at a = alpha_1."""
    return ((2 * LAM + N - 2) * ((LAM + 1) ** 2 + LAM ** 2 + N + 3)
            + (N - 1) ** 2 + 9)


@lru_cache(maxsize=None)
def script_g1() -> MultiPoly:
    """s^1 Taylor coefficient of G0 at a = alpha_1."""
    return (LAM ** 4 * (2 * LAM + N - 8)
            + 2 * LAM ** 2 * (2 - 4 * LAM - 4 * N + N ** 2)
            + N ** 2 * (2 * LAM + N))


@lru_cache(maxsize=None)
def p1_at_zero() -> MultiPoly:
    return p1().subs("tau", 0)


@lru_cache(maxsize=None)
def q1_at_zero() -> MultiPoly:
    return q1().subs("tau", 0)


@lru_cache(maxsize=None)
def e1() -> MultiPoly:
    """Linear-in-tau coefficient in the c0 = 1/2 difference bound (N >= 3)."""
    return (2 * (2 * LAM + N - 2) * g1()
            + (2 * (A + LAM ** 2 + LAM) + N) * p1_at_zero())


@lru_cache(maxsize=None)
def e0() -> MultiPoly:
    """Constant-in-tau coefficient in the c0 = 1/2 difference bound (N >= 3)."""
    return 2 * (2 * LAM + N - 2) * g0() + p1_at_zero() ** 2


@lru_cache(maxsize=None)
def e12() -> MultiPoly:
    return (2 * (2 * LAM + N - 2) * (2 * LAM + N) + 2 * (LAM ** 2 + LAM)
            + 3 * N - 2 + 2 * (2 * LAM ** 2 - 2 * LAM + N - 2))


@lru_cache(maxsize=None)
def e11() -> MultiPoly:
    return (2 * (2 * LAM + N - 2) * ((N - 1) * (2 * LAM + N - 2)
                                     + (LAM - 1) ** 2 * (2 * LAM + N))
            + 2 * LAM ** 2 * ((LAM + 1) ** 2 + 3 * N - 3)
            + (2 * (LAM ** 2 + LAM) + 3 * N - 2) * (2 * LAM ** 2 - 2 * LAM + N - 2))


@lru_cache(maxsize=None)
def e10() -> MultiPoly:
    return (4 * (N - 1) * (2 * LAM + N - 2) * (2 * LAM + N - 1)
            + (2 * (LAM ** 2 + LAM) + 3 * N - 2) * ((LAM + 1) ** 2 + 3 * N - 3))


@lru_cache(maxsize=None)
def e03() -> MultiPoly:
    return (2 * (2 * LAM + N - 2) * (2 * LAM + N)
            + 2 * (2 * LAM ** 2 - 2 * LAM + N - 2))


@lru_cache(maxsize=None)
def e02() -> MultiPoly:
    return (2 * (2 * LAM + N - 2) * script_g2()
            + (2 * LAM ** 2 - 2 * LAM + N - 2) ** 2
            + 2 * LAM ** 2 * ((LAM + 1) ** 2 + 3 * N - 3))


@lru_cache(maxsize=None)
def e01() -> MultiPoly:
    return ((2 * LAM + N - 2) * script_g1()
            + LAM ** 2 * ((LAM + 1) ** 2 + 3 * N - 3)
            * (2 * LAM ** 2 - 2 * LAM + N - 2))


@lru_cache(maxsize=None)
def e00() -> MultiPoly:
    return (4 * (N - 1) * (2 * LAM + N - 2) * (2 * LAM + N - 1)
            + ((LAM + 1) ** 2 + 3 * N - 3) ** 2)


@lru_cache(maxsize=None)
def f1() -> MultiPoly:
    """Linear-in-tau coefficient in the c0 = 1/3 bound (N = 2 only)."""
    p1z = p1_at_zero().subs("N", 2)
    return ((A + LAM ** 2 + LAM + 1) * p1z
            + MultiPoly.const(Fraction(3, 2)) * LAM * g1().subs("N", 2))


@lru_cache(maxsize=None)
def f0() -> MultiPoly:
    """Constant-in-tau coefficient in the c0 = 1/3 bound (N = 2 only)."""
    p1z = p1_at_zero().subs("N", 2)
    return p1z ** 2 + 3 * LAM * g0().subs("N", 2)


@lru_cache(maxsize=None)
def w_interleave() -> MultiPoly:
    """Controls the sign pattern of C(nu) - A(nu -/+ 1); a is the
    eigenvalue slot alpha_nu."""
    return (LAM ** 2 * (2 * LAM + N - 4) * (2 * LAM + N)
            + (N - 2) ** 2 - (A + LAM ** 2 - 1) ** 2)


@dataclass(frozen=True)
class PolyFamily:
    """The named family, symbolic (lam, N free) or numeric (substituted)."""

    P0: MultiPoly
    P1: MultiPoly
    Q0: MultiPoly
    Q1: MultiPoly
    G0: MultiPoly
    G1: MultiPoly
    scriptG1: MultiPoly
    scriptG2: MultiPoly
    E1: MultiPoly
    E0: MultiPoly
    E12: MultiPoly
    E11: MultiPoly
    E10: MultiPoly
    E03: MultiPoly
    E02: MultiPoly
    E01: MultiPoly
    E00: MultiPoly
    F1: MultiPoly
    F0: MultiPoly
    W: MultiPoly
    params: Params | None = None


# PolyFamily's fields, in order, each with its cached builder
_MEMBERS = dict(
    P0=p0, P1=p1, Q0=q0, Q1=q1, G0=g0, G1=g1,
    scriptG1=script_g1, scriptG2=script_g2,
    E1=e1, E0=e0, E12=e12, E11=e11, E10=e10,
    E03=e03, E02=e02, E01=e01, E00=e00,
    F1=f1, F0=f0, W=w_interleave,
)


@lru_cache(maxsize=None)
def _check_q1_forms() -> None:
    """Raise FamilyInvariantError unless q1() == q1_factored() exactly.

    Both forms are cached constants, so one passing check per process
    covers every later call; this is re-checked by the certificate suite.
    """
    if q1() != q1_factored():
        raise FamilyInvariantError("Q1 closed forms disagree")


def build_family(params: Params | None = None) -> PolyFamily:
    """Construct the family; numeric mode substitutes rational lam and N.

    Raises FamilyInvariantError when the two displayed closed forms of
    Q1 disagree (exact polynomial identity).
    """
    _check_q1_forms()
    fields = {name: build() for name, build in _MEMBERS.items()}
    if params is not None:
        subs = {"lam": params.lam, "N": Fraction(params.N)}
        fields = {k: v.subs_many(subs) for k, v in fields.items()}
    return PolyFamily(params=params, **fields)


@lru_cache(maxsize=4096)
def _numeric_channels(params: Params) -> tuple[MultiPoly, ...]:
    """(Q0, P0, Q1, P1) with lam, N substituted; Q1, P1 keep the slot a."""
    _check_q1_forms()
    subs = {"lam": params.lam, "N": Fraction(params.N)}
    return tuple(f().subs_many(subs) for f in (q0, p0, q1, p1))


@lru_cache(maxsize=4096)
def channel_polys(params: Params, nu: int) -> tuple[MultiPoly, MultiPoly]:
    """(Q, P) univariate in tau for channel nu at numeric parameters.

    Equal to `build_family(params)`'s (Q0, P0) for nu = 0 and its
    (Q1, P1) at a = alpha_nu otherwise, without building the other 16
    family members.  Memoised; MultiPoly is immutable, so the shared
    result is safe to hand out.
    """
    q0n, p0n, q1n, p1n = _numeric_channels(params)
    if nu == 0:
        return q0n, p0n
    anu = alpha(nu, params.N)
    return q1n.subs("a", anu), p1n.subs("a", anu)
