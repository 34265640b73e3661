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
over (tau, a, lam, N) with shift variables s, m reserved for Taylor
re-expansions.  `_MEMBERS` states the family's names once, each with
its builder.  `build_family` reads it into one symbolic {name:
polynomial} dict; certificate files reference the members as @name.
`channel_polys` is the one numeric builder of a channel's (Q, P) pair:
it substitutes (lam, N) into Q0/P0/Q1/P1 only, once per Params, then
alpha_nu, and memoises both steps.

Q1 has two displayed closed forms, `q1` and `q1_factored`.  The builders
use `q1`; the certificate suite's structural report q1-forms-agree proves
the two equal, so no builder compares them again.
"""

from __future__ import annotations

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

    Equal to q1() identically, by the structural report q1-forms-agree of
    the certificate suite.
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


# the family: each member's name and its cached builder, stated once
_MEMBERS = dict(
    P0=p0, P1=p1, Q0=q0, Q1=q1, G0=g0, G1=g1,
    scriptG1=script_g1, scriptG2=script_g2,
    E1=e1, E0=e0, E12=e12, E11=e11, E10=e10,
    E03=e03, E02=e02, E01=e01, E00=e00,
    F1=f1, F0=f0, W=w_interleave,
)


def build_family() -> dict[str, MultiPoly]:
    """The symbolic family by name."""
    return {name: build() for name, build in _MEMBERS.items()}


@lru_cache(maxsize=4096)
def _numeric_channels(params: Params) -> tuple[MultiPoly, ...]:
    """(Q0, P0, Q1, P1) with lam, N substituted; Q1, P1 keep the slot a."""
    subs = {"lam": params.lam, "N": Fraction(params.N)}
    return tuple(f().subs_many(subs) for f in (q0, p0, q1, p1))


@lru_cache(maxsize=4096)
def channel_polys(params: Params, nu: int) -> tuple[MultiPoly, MultiPoly]:
    """(Q, P) univariate in tau for channel nu at numeric parameters.

    Equal to `build_family()`'s "Q0", "P0" for nu = 0 and its "Q1", "P1"
    at a = alpha_nu otherwise, with (lam, N) substituted, without
    building the other 16 family members.  Memoised; MultiPoly is
    immutable, so the shared result is safe to hand out.
    """
    q0n, p0n, q1n, p1n = _numeric_channels(params)
    if nu == 0:
        return q0n, p0n
    anu = alpha(nu, params.N)
    return q1n.subs("a", anu), p1n.subs("a", anu)
