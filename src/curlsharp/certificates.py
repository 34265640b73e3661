"""Machine verification of the polynomial identities and nonnegativity
certificates behind the curl-free sharp-constant proofs.

Each certificate is a small text file (``certs/*.cert``) holding a
displayed polynomial and, when the claim is a sign claim, a decomposition
into manifestly nonnegative pieces.  The checker

  1. rebuilds the polynomial the display is supposed to equal from the
     defining constructions in `polyfamily` and, for the identities that
     involve A(nu), from the mode bodies of `constants` run on symbols
     (transcription check),
  2. re-sums the decomposition and compares it with the display
     (decomposition identity), and
  3. validates every factor's nonnegativity rule under the declared
     domain hypotheses (sign check),

all in exact rational arithmetic.  A certificate whose target uses the
dimension variable N declares the integer N it covers (``nrange``, 2..12
by default), and that range must lie within its domain: the parser
rejects an ``nrange`` that reaches below a ``domain: N >=`` bound.  Then
a passing symbolic check covers every integer N of the range, since
substituting such an N keeps an identity an identity and keeps shifted
nonnegative coefficients (and even powers of a free N) nonnegative.  The
checker instantiates N one integer at a time only after a symbolic check
has failed, to name the N that breaks.

Certificate file syntax::

    name: e12-square-form
    regime: gt1-nge3
    nrange: 3..12            # integer N covered, within the domain; 'none' if N fixed
    domain: N >= 3, s >= 0   # variable lower bounds (used by nne / coeffs)
    let mu = 2*lam + N - 2   # named alias polynomial
    assume mu                # hypothesis: alias (or variable) is >= 0
    target: <polynomial expression, may reference @Name>
    nonneg: coeffs           # certify target by shifted coefficient expansion
    term: 2 * sq(2*lam + N - 5/4)   # or a sum of tagged product terms
    term: 6 * sq(lam)
    ...
    note: free text

Term factors: a rational constant (must be >= 0), ``sq(expr)`` for a
square, ``dom(name)`` for an assumed-nonnegative alias or variable,
``nne(expr)`` for a subpolynomial whose coefficients are nonnegative
after shifting every bounded variable to its lower bound, and
``uni(expr ; var ; interval)`` for a univariate factor certified by
`nonneg_on_interval`.

``@Name`` in an expression is a `parse_poly` atom for `_at_table`'s
polynomial: the `polyfamily` members plus the slices P1_0, P1_0n2,
P1_0_lam0 and W_s.  `load_corpus` names the file of any parse failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import constants
from . import polyfamily as pf
from .constants import Params, alpha
from .nonneg import IntervalQ, nonneg_on_interval
from .poly import MultiPoly, format_poly, parse_poly

_N_RANGE_DEFAULT = range(2, 13)


class DivisionInvariantError(RuntimeError):
    """A polynomial difference that vanishes at 0 by construction has a
    nonzero constant term, so it cannot be divided exactly by its
    variable: the exact kernel broke an identity."""


# ---------------------------------------------------------------------------
# reference polynomials: what each displayed target must equal
# ---------------------------------------------------------------------------

def _taylor_at_alpha1(poly: MultiPoly, k: int) -> MultiPoly:
    return poly.subs("a", pf.N - 1 + pf.S).coeffs_in("s")[k]


def _case1_scriptg1() -> MultiPoly:
    # lam parameterised as 1 - N*s/2 (covers 1 - N/2 <= lam <= 1)
    return pf.script_g1().subs("lam", 1 - pf.N * pf.S * Fraction(1, 2))


def _case1_coeff(k: int) -> MultiPoly:
    return _case1_scriptg1().taylor("N", 2)[k]


def _case2_bound_at(svar: MultiPoly) -> MultiPoly:
    lam = pf.LAM
    return (svar * (2 * lam + pf.N - 2) * ((lam + 1) ** 2 + lam ** 2)
            + lam ** 4 * (2 * lam + pf.N - 8)
            + 2 * lam ** 2 * (2 - 4 * lam - 4 * pf.N + pf.N ** 2))


def _qp_difference(k: int, q: MultiPoly, p: MultiPoly) -> MultiPoly:
    """k (Q P(0) - Q(0) P) - tau P P(0) for a channel pair (Q, P): the
    numerator of k (Q/P - Q(0)/P(0)) - tau over P P(0), so its sign is
    that of the difference-quotient bound (Q/P - Q(0)/P(0))/tau >= 1/k."""
    pz, qz = p.subs("tau", 0), q.subs("tau", 0)
    return (q * pz - qz * p).scale(k) - pf.TAU * p * pz


def _e1_taylor(k: int) -> MultiPoly:
    return _taylor_at_alpha1(pf.e1(), k)


def _e0_taylor(k: int) -> MultiPoly:
    return _taylor_at_alpha1(pf.e0(), k)


def _e01_series() -> MultiPoly:
    return pf.e01().subs("lam", 1 - pf.N * Fraction(1, 2) - pf.S)


def _f_taylor(poly: MultiPoly, k: int | None = None) -> MultiPoly:
    shifted = poly.subs("a", 1 + pf.S)
    return shifted if k is None else shifted.coeffs_in("s")[k]


def _f0_shift_chain() -> MultiPoly:
    """T(3+s) where T(s) = (F0(1+s) - F0(1)) / s, exactly."""
    f0s = pf.f0().subs("a", 1 + pf.S)
    diff = f0s - f0s.subs("s", 0)
    coeffs = diff.coeffs_in("s")
    if not coeffs[0].is_zero():
        raise DivisionInvariantError(
            f"F0(1+s) - F0(1) has constant term {format_poly(coeffs[0])}")
    t = MultiPoly()
    for j in range(1, len(coeffs)):
        t = t + coeffs[j] * pf.S ** (j - 1)
    return t.subs("s", 3 + pf.S)


def _f0_shift_gap() -> MultiPoly:
    f0s = pf.f0().subs("a", 1 + pf.S)
    return f0s.subs("s", 4 - 1 + pf.S) - (3 + pf.S) * _f0_shift_chain()


_HALF = Fraction(1, 2)


def _gamma_d(q) -> MultiPoly:
    """G = gamma D at D = 2q for gamma = 2 - N/2 - lam."""
    return (4 - pf.N - 2 * pf.LAM) * q


def _a_mode(nu) -> tuple[MultiPoly, MultiPoly]:
    """(numerator, denominator) of rellich_hardy_A's slot form at D = 1."""
    return constants._a_slot(_gamma_d(_HALF), _HALF, pf.N, nu)


def _a_gamma_form(nu) -> MultiPoly:
    """Numerator of rellich_hardy_A's gamma-form at D = 1."""
    return constants._a_gamma(_gamma_d(_HALF), _HALF, pf.N, nu)[0]


def _a1_a0_lhs() -> MultiPoly:
    num1, den1 = _a_mode(1)
    return num1 - _a_mode(0)[0] * den1


def _a_diff_lhs() -> MultiPoly:
    s = pf.S
    num_hi, den_hi = _a_mode(s + 1)
    num_lo, den_lo = _a_mode(s)
    return num_hi * den_lo - num_lo * den_hi


def _a_diff_numerator() -> MultiPoly:
    s = pf.S
    return (pf.alpha_poly(s) * pf.alpha_poly(s + 1)
            + pf.LAM ** 2 * (2 * s * (s + pf.N - 1)
                             - (3 * pf.LAM ** 2 + 4 * (pf.N - 2) * pf.LAM
                                + pf.N ** 2 - 5 * pf.N + 5)))


def _a_diff_numerator_step() -> MultiPoly:
    num = _a_diff_numerator()
    return num.subs("s", pf.S + 1) - num


def _c_minus_a(offset: int) -> MultiPoly:
    """Cross-multiplied C(s) - A(s + offset) at slot a = alpha_s."""
    q1z, p1z = _channel_at_zero("nu>=2")
    num, den = _a_mode(pf.S + offset)
    return q1z * den - num * p1z


def _c1_c0_lhs() -> MultiPoly:
    c1_num, c1_den = _c_branch("nu=1", _HALF)
    c0_num, c0_den = _c_branch("radial", _HALF)
    return c1_num * c0_den - c0_num * c1_den


def _c_lam0_lhs() -> MultiPoly:
    return pf.q1_at_zero().subs("lam", 0) * (pf.A - 1)


def _as_at_difference() -> MultiPoly:
    return pf.alpha_poly(pf.S) - pf.alpha_poly(pf.M)


REFERENCES = {
    "q1-factored-form": pf.q1,
    "qp1-identity": lambda: _qp_difference(1, pf.q1(), pf.p1()),
    "q0p0-identity": lambda: _qp_difference(1, pf.q0(), pf.p0()),
    "p1-zero-display": pf.p1_at_zero,
    "p1-alpha1": lambda: pf.p1_at_zero().subs("a", pf.N - 1),
    "p1-alpha2": lambda: pf.p1_at_zero().subs("a", 2 * pf.N),
    "p1-tau-slope": lambda: pf.p1().diff("tau"),
    "alpha-shift": _as_at_difference,
    # gamma <= 1 regime
    "taylor-g1-c0": lambda: _taylor_at_alpha1(pf.g1(), 0),
    "taylor-g1-c1": lambda: _taylor_at_alpha1(pf.g1(), 1),
    "taylor-g1-c2": lambda: _taylor_at_alpha1(pf.g1(), 2),
    "taylor-g0-c0": lambda: _taylor_at_alpha1(pf.g0(), 0),
    "taylor-g0-c1": lambda: _taylor_at_alpha1(pf.g0(), 1),
    "taylor-g0-c2": lambda: _taylor_at_alpha1(pf.g0(), 2),
    "taylor-g0-c3": lambda: _taylor_at_alpha1(pf.g0(), 3),
    "scriptg2-nonneg": pf.script_g2,
    "g1-case1-npower": _case1_scriptg1,
    "g1-case1-expansion": _case1_scriptg1,
    "g1-case1-c0": lambda: _case1_coeff(0),
    "g1-case1-c1": lambda: _case1_coeff(1),
    "g1-case1-c2": lambda: _case1_coeff(2),
    "g1-case1-c3": lambda: _case1_coeff(3),
    "g1-case1-c4": lambda: _case1_coeff(4),
    "g1-case1-c5": lambda: _case1_coeff(5),
    "g0-case2-bound": lambda: _case2_bound_at(pf.N + 1 + pf.S),
    "g0-case2-gap": lambda: (pf.g0().subs("a", pf.N - 1 + pf.S)
                             - pf.S * _case2_bound_at(pf.S)),
    # gamma > 1, N >= 3 regime
    "qp2-identity": lambda: _qp_difference(2, pf.q1(), pf.p1()),
    "taylor-p1": lambda: pf.p1_at_zero().subs("a", pf.N - 1 + pf.S),
    "e1-taylor-c0": lambda: _e1_taylor(0),
    "e1-taylor-c1": lambda: _e1_taylor(1),
    "e1-taylor-c2": lambda: _e1_taylor(2),
    "e1-taylor-c3": lambda: _e1_taylor(3),
    "e12-square-form": pf.e12,
    "e11-square-form": pf.e11,
    "e10-square-form": pf.e10,
    "e0-taylor-c0": lambda: _e0_taylor(0),
    "e0-taylor-c1": lambda: _e0_taylor(1),
    "e0-taylor-c2": lambda: _e0_taylor(2),
    "e0-taylor-c3": lambda: _e0_taylor(3),
    "e0-taylor-c4": lambda: _e0_taylor(4),
    "e03-square-form": pf.e03,
    "e02-square-form": pf.e02,
    "e00-square-form": pf.e00,
    "e01-series": _e01_series,
    "e01-series-n3": lambda: _e01_series().subs("N", 3),
    "e01-appendix": pf.e01,
    "e01-appendix-n3": lambda: pf.e01().subs("N", 3),
    "e01-appendix-n4": lambda: pf.e01().subs("N", 4),
    "e01-appendix-n5": lambda: pf.e01().subs("N", 5),
    # N = 2 regime
    "p1-n2-form": lambda: pf.p1().subs("N", 2),
    "qp3-identity": lambda: _qp_difference(
        3, pf.q1().subs("N", 2), pf.p1().subs("N", 2)),
    "taylor-p1-n2": lambda: _f_taylor(pf.p1_at_zero().subs("N", 2)),
    "g1-half-n2": lambda: _f_taylor(pf.g1().subs("N", 2)).scale(Fraction(1, 2)),
    "g0-half-n2": lambda: _f_taylor(pf.g0().subs("N", 2)).scale(Fraction(1, 2)),
    "f1-taylor": lambda: _f_taylor(pf.f1()),
    "f1-square-form": lambda: _f_taylor(pf.f1()),
    "f0-taylor": lambda: _f_taylor(pf.f0()),
    "f0-at-alpha1": lambda: _f_taylor(pf.f0(), 0),
    "f0-shifted": _f0_shift_chain,
    "f0-shifted-gap": _f0_shift_gap,
    # section-5 comparison identities
    "a1-a0-identity": _a1_a0_lhs,
    "a-diff-identity": _a_diff_lhs,
    "a-diff-monotone": _a_diff_numerator_step,
    "c-minus-a-prev": lambda: _c_minus_a(-1),
    "c-minus-a-next": lambda: _c_minus_a(+1),
    "c1-c0-identity": _c1_c0_lhs,
    "c-lam0-nu": _c_lam0_lhs,
    "a-rewrite-nu": lambda: _a_gamma_form(pf.S),
    "a-rewrite-0": lambda: _a_gamma_form(0),
}


def _at_table() -> dict[str, MultiPoly]:
    """The @Name polynomials: the family members, read from the cached
    builders so that a Q1 fault fails q1-forms-agree instead of the load,
    plus four slices."""
    p1_0 = pf.p1_at_zero()
    return {**{name: build() for name, build in pf._MEMBERS.items()},
            "P1_0": p1_0,
            "P1_0n2": p1_0.subs("N", 2),
            "P1_0_lam0": p1_0.subs("lam", 0),
            "W_s": pf.w_interleave().subs("a", pf.alpha_poly(pf.S))}


# ---------------------------------------------------------------------------
# certificate model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    kind: str  # const | sq | dom | nne | uni
    poly: MultiPoly
    exp: int = 1
    var: str | None = None
    interval: IntervalQ | None = None
    label: str = ""


@dataclass(frozen=True)
class CertTerm:
    coeff: Fraction
    factors: tuple[Factor, ...]

    def polynomial(self) -> MultiPoly:
        out = MultiPoly.const(self.coeff)
        for f in self.factors:
            base = f.poly * f.poly if f.kind == "sq" else f.poly
            out = out * base ** f.exp
        return out


@dataclass(frozen=True)
class Certificate:
    name: str
    regime: str
    target: MultiPoly
    terms: tuple[CertTerm, ...]
    strategy: str  # terms | coeffs | none
    domain_bounds: dict[str, Fraction]  # var -> lower bound
    assumed: frozenset[str]  # aliases/vars assumed >= 0
    aliases: dict[str, MultiPoly]
    n_values: tuple[int, ...]  # integer N instantiations ((), if N fixed)
    note: str = ""


@dataclass(frozen=True)
class CertReport:
    name: str
    identity_ok: bool
    signs_ok: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.signs_ok


class CertificateError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

def _parse_interval(text: str) -> IntervalQ:
    text = text.strip()
    m = re.fullmatch(r"([\[(])\s*([^,]+)\s*,\s*([^\])]+)\s*([\])])", text)
    if not m:
        raise CertificateError(f"bad interval {text!r}")
    lo_s, hi_s = m.group(2).strip(), m.group(3).strip()
    lo = None if lo_s in ("-oo", "-inf") else Fraction(lo_s)
    hi = None if hi_s in ("oo", "inf") else Fraction(hi_s)
    return IntervalQ(lo, hi, m.group(1) == "[", m.group(4) == "]")


def _split_top_level(text: str, sep: str) -> list[str]:
    # interval notation like (-oo, 0] mixes bracket kinds, so both count
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


_FACTOR_RE = re.compile(r"^(sq|dom|nne|uni)\((.*)\)(?:\^(\d+))?$", re.S)


def _parse_factor(text: str, table, aliases, assumed) -> Factor | Fraction:
    text = text.strip()
    m = _FACTOR_RE.match(text)
    if m is None:
        # bare rational constant; '/' only via p/q literals
        try:
            return Fraction(text.replace(" ", ""))
        except ValueError:
            raise CertificateError(f"cannot parse factor {text!r}") from None
    kind, body, exp = m.group(1), m.group(2), int(m.group(3) or 1)
    if kind == "uni":
        bits = _split_top_level(body, ";")
        if len(bits) != 3:
            raise CertificateError(f"uni(...) needs expr;var;interval: {text!r}")
        poly = parse_poly(bits[0], table)
        var = bits[1].strip()
        interval = _parse_interval(bits[2])
        return Factor("uni", poly, exp, var=var, interval=interval, label=bits[0].strip())
    if kind == "dom":
        name = body.strip()
        if name in aliases:
            poly = aliases[name]
        else:
            poly = MultiPoly.var(name)
        if name not in assumed:
            raise CertificateError(f"dom({name}) used without 'assume {name}'")
        return Factor("dom", poly, exp, label=name)
    poly = parse_poly(body, table)
    return Factor(kind, poly, exp, label=body.strip())


def parse_certificate(text: str, table=None) -> Certificate:
    table = table if table is not None else _at_table()
    fields: dict[str, str] = {}
    aliases: dict[str, MultiPoly] = {}
    assumed: set[str] = set()
    bounds: dict[str, Fraction] = {}
    term_lines: list[str] = []
    notes: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        if line.startswith("let "):
            name, _, expr = line[4:].partition("=")
            aliases[name.strip()] = parse_poly(expr, table)
            continue
        if line.startswith("assume "):
            assumed.add(line[len("assume "):].strip())
            continue
        key, value = key.strip(), value.strip()
        if key == "term":
            term_lines.append(value)
        elif key == "domain":
            for clause in value.split(","):
                var, _, bound = clause.partition(">=")
                if not bound:
                    raise CertificateError(f"bad domain clause {clause!r}")
                bounds[var.strip()] = Fraction(bound.strip())
        elif key == "note":
            notes.append(value)
        elif key in ("name", "regime", "nrange", "target", "nonneg"):
            fields[key] = value
        else:
            raise CertificateError(f"unknown certificate line {line!r}")
    if "name" not in fields or "target" not in fields:
        raise CertificateError("certificate needs name: and target:")
    target = parse_poly(fields["target"], table)
    terms = []
    for tline in term_lines:
        coeff = Fraction(1)
        factors = []
        for chunk in _split_top_level(tline, "*"):
            got = _parse_factor(chunk, table, aliases, assumed)
            if isinstance(got, Fraction):
                coeff *= got
            else:
                factors.append(got)
        terms.append(CertTerm(coeff, tuple(factors)))
    strategy = fields.get("nonneg", "terms" if terms else "none")
    nrange_text = fields.get("nrange", "")
    if nrange_text == "none" or "N" not in target.variables_used() and not nrange_text:
        n_values: tuple[int, ...] = ()
    elif nrange_text:
        lo, _, hi = nrange_text.partition("..")
        n_values = tuple(range(int(lo), int(hi) + 1))
    else:
        n_values = tuple(_N_RANGE_DEFAULT)
    if n_values and "N" in bounds and n_values[0] < bounds["N"]:
        raise CertificateError(
            f"nrange {n_values[0]}..{n_values[-1]} reaches below the domain "
            f"bound N >= {bounds['N']}")
    return Certificate(
        name=fields["name"],
        regime=fields.get("regime", "base"),
        target=target,
        terms=tuple(terms),
        strategy=strategy,
        domain_bounds=bounds,
        assumed=frozenset(assumed),
        aliases=aliases,
        n_values=n_values,
        note=" ".join(notes),
    )


def _corpus_dir() -> Path:
    return Path(resources.files("curlsharp") / "certs")


def load_corpus() -> list[Certificate]:
    table = _at_table()
    certs = []
    for path in sorted(_corpus_dir().glob("*.cert")):
        try:
            cert = parse_certificate(path.read_text(), table)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            raise CertificateError(f"{path.name}: {exc}") from exc
        if cert.name != path.stem:
            raise CertificateError(f"{path.name}: name field says {cert.name!r}")
        certs.append(cert)
    return certs


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _shifted_coeffs_nonneg(poly: MultiPoly, bounds: dict[str, Fraction]) -> bool:
    """True if poly, rewritten with each bounded var v -> lower + v, has
    only nonnegative coefficients, with any unbounded variable appearing
    in even powers only.  Then poly >= 0 whenever each bounded variable
    sits above its lower bound (unbounded variables range over all reals).
    """
    from .poly import VARS

    shifted = poly
    for var, lower in bounds.items():
        shifted = shifted.subs(var, MultiPoly.var(var) + lower)
    free_idx = [i for i, v in enumerate(VARS)
                if v in shifted.variables_used() and v not in bounds]
    for exp, c in shifted.terms.items():
        if c < 0:
            return False
        if any(exp[i] % 2 for i in free_idx):
            return False
    return True


def _check_factor(f: Factor, cert: Certificate) -> tuple[bool, str]:
    if f.kind == "sq":
        return True, ""
    if f.kind == "dom":
        ok = f.label in cert.assumed
        return ok, "" if ok else f"dom({f.label}) not assumed"
    if f.kind == "nne":
        ok = _shifted_coeffs_nonneg(f.poly, cert.domain_bounds)
        return ok, "" if ok else f"nne({f.label}) has a negative shifted coefficient"
    if f.kind == "uni":
        ok, witness = nonneg_on_interval(f.poly, f.interval, var=f.var)
        return ok, "" if ok else f"uni({f.label}) on {f.interval}: {witness}"
    raise AssertionError(f.kind)


def check_certificate(cert: Certificate, reference: MultiPoly) -> CertReport:
    """Check the transcription, the decomposition and every sign, in N
    symbolically.  The per-N instantiations run only when a symbolic
    check failed, and add the N at which each check breaks."""
    problems = []
    identity_ok = True
    if reference != cert.target:
        identity_ok = False
        diff = reference - cert.target
        problems.append(f"display != reference, difference {format_poly(diff)[:200]}")
    if cert.terms:
        total = MultiPoly()
        for t in cert.terms:
            total = total + t.polynomial()
        if total != cert.target:
            identity_ok = False
            diff = total - cert.target
            problems.append(f"terms sum != display, difference {format_poly(diff)[:200]}")
    signs_ok = True
    if cert.strategy == "coeffs":
        if not _shifted_coeffs_nonneg(cert.target, cert.domain_bounds):
            signs_ok = False
            problems.append("target has a negative shifted coefficient")
    for i, t in enumerate(cert.terms):
        if t.coeff < 0:
            signs_ok = False
            problems.append(f"term {i} has negative constant {t.coeff}")
        for f in t.factors:
            ok, msg = _check_factor(f, cert)
            if not ok:
                signs_ok = False
                problems.append(f"term {i}: {msg}")
    # a passing symbolic check covers every N in n_values (module
    # docstring), so instantiate only to name the N a failure breaks at
    for n0 in cert.n_values if problems else ():
        subsN = {"N": Fraction(n0)}
        ref_n = reference.subs_many(subsN)
        tgt_n = cert.target.subs_many(subsN)
        if ref_n != tgt_n:
            identity_ok = False
            problems.append(f"N={n0}: display != reference")
        if cert.strategy == "coeffs":
            bounds_n = {v: b for v, b in cert.domain_bounds.items() if v != "N"}
            if not _shifted_coeffs_nonneg(tgt_n, bounds_n):
                signs_ok = False
                problems.append(f"N={n0}: negative shifted coefficient")
        for i, t in enumerate(cert.terms):
            for f in t.factors:
                if f.kind == "nne":
                    bounds_n = {v: b for v, b in cert.domain_bounds.items()
                                if v != "N"}
                    if not _shifted_coeffs_nonneg(f.poly.subs_many(subsN), bounds_n):
                        signs_ok = False
                        problems.append(f"N={n0} term {i}: nne({f.label})")
                elif f.kind == "uni":
                    ok, witness = nonneg_on_interval(
                        f.poly.subs_many(subsN), f.interval, var=f.var)
                    if not ok:
                        signs_ok = False
                        problems.append(f"N={n0} term {i}: uni({f.label}): {witness}")
    return CertReport(cert.name, identity_ok, signs_ok, "; ".join(problems))


# ---------------------------------------------------------------------------
# structural identities verified directly in code (no display to transcribe)
# ---------------------------------------------------------------------------

def _structural_reports() -> list[CertReport]:
    out = []
    ok = pf.q1() == pf.q1_factored()
    out.append(CertReport("q1-forms-agree", ok, True,
                          "" if ok else "cubic factorisation of Q1 differs"))
    # shifting the expansion point by N+1 moves slot alpha_1 to alpha_2
    g0 = pf.g0()
    lhs = g0.subs("a", 2 * pf.N + pf.S)
    rhs = g0.subs("a", pf.N - 1 + pf.S).subs("s", pf.N + 1 + pf.S)
    ok = lhs == rhs
    out.append(CertReport("g0-alpha2-shift", ok, True,
                          "" if ok else "slot shift alpha_1 + (N+1) != alpha_2"))
    # P1(tau,a) - P1(0,a) = tau^2 + (2(a + lam^2 + lam) + N) tau
    p1 = pf.p1()
    diff = p1 - p1.subs("tau", 0)
    expect = pf.TAU ** 2 + (2 * (pf.A + pf.LAM ** 2 + pf.LAM) + pf.N) * pf.TAU
    ok = diff == expect
    out.append(CertReport("p1-tau-offset", ok, True,
                          "" if ok else "tau-offset of P1 differs"))
    return out


# ---------------------------------------------------------------------------
# suite operations (grouped per proof regime)
# ---------------------------------------------------------------------------

def _run_names(names: list[str]) -> list[CertReport]:
    by_name = {c.name: c for c in load_corpus()}
    reports = []
    for name in names:
        if name not in by_name:
            raise CertificateError(f"certificate file missing: {name}")
        if name not in REFERENCES:
            raise CertificateError(f"no reference builder for: {name}")
        reports.append(check_certificate(by_name[name], REFERENCES[name]()))
    return reports


_BASE = ["q1-factored-form", "qp1-identity", "q0p0-identity", "alpha-shift"]
_P1_POS = ["p1-zero-display", "p1-alpha1", "p1-alpha2", "p1-tau-slope"]
_LE1 = ["taylor-g1-c0", "taylor-g1-c1", "taylor-g1-c2",
        "taylor-g0-c0", "taylor-g0-c1", "taylor-g0-c2", "taylor-g0-c3",
        "scriptg2-nonneg", "g1-case1-npower", "g1-case1-expansion",
        "g1-case1-c0", "g1-case1-c1", "g1-case1-c2", "g1-case1-c3",
        "g1-case1-c4", "g1-case1-c5", "g0-case2-bound", "g0-case2-gap"]
_GT1 = ["qp2-identity", "taylor-p1",
        "e1-taylor-c0", "e1-taylor-c1", "e1-taylor-c2", "e1-taylor-c3",
        "e12-square-form", "e11-square-form", "e10-square-form",
        "e0-taylor-c0", "e0-taylor-c1", "e0-taylor-c2", "e0-taylor-c3",
        "e0-taylor-c4", "e03-square-form", "e02-square-form",
        "e00-square-form", "e01-series", "e01-series-n3",
        "e01-appendix", "e01-appendix-n3", "e01-appendix-n4", "e01-appendix-n5"]
_N2 = ["p1-n2-form", "qp3-identity", "taylor-p1-n2", "g1-half-n2",
       "g0-half-n2", "f1-taylor", "f1-square-form", "f0-taylor",
       "f0-at-alpha1", "f0-shifted", "f0-shifted-gap"]
_S5 = ["a1-a0-identity", "a-diff-identity", "a-diff-monotone",
       "c-minus-a-prev", "c-minus-a-next", "c1-c0-identity",
       "c-lam0-nu", "a-rewrite-nu", "a-rewrite-0"]


def c0_for(p: Params) -> Fraction:
    """Certified remainder-channel constant for the spherical channels."""
    if p.gamma <= 1:
        return Fraction(1)
    return Fraction(1, 2) if p.N >= 3 else Fraction(1, 3)


REGIMES = {
    "base": _BASE + _P1_POS,
    "le1": _LE1,
    "gt1-nge3": _GT1,
    "n2": _N2,
    "section5": _S5,
}


@dataclass
class SuiteResult:
    reports: list[CertReport] = field(default_factory=list)
    structural: list[CertReport] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports + self.structural)

    @property
    def counts(self) -> tuple[int, int]:
        total = len(self.reports) + len(self.structural)
        passed = sum(r.ok for r in self.reports + self.structural)
        return passed, total


def run_suite(regimes: list[str] | None = None) -> SuiteResult:
    names: list[str] = []
    for key in (regimes or list(REGIMES)):
        if key not in REGIMES:
            raise CertificateError(f"unknown regime {key!r}")
        names.extend(REGIMES[key])
    result = SuiteResult(reports=_run_names(names))
    if regimes is None or "base" in regimes:
        result.structural = _structural_reports()
    return result


# ---------------------------------------------------------------------------
# exact links between the quotient framework and the closed-form constants
# ---------------------------------------------------------------------------

def _c_branch(branch: str, q) -> tuple[MultiPoly, MultiPoly]:
    """(numerator, denominator) of a branch of rellich_hardy_C at D = 2q;
    the nu >= 2 branch reads nu as s."""
    G = _gamma_d(q)
    if branch == "radial":
        return constants._c_radial(G, q, pf.N)
    if branch == "nu=1":
        return constants._c_one(G, q, pf.N)
    return constants._c_nu(G, q, pf.N, pf.S)


def _channel_at_zero(branch: str) -> tuple[MultiPoly, MultiPoly]:
    """(Q(0), P(0)) of the channel that rellich_hardy_C's branch covers."""
    if branch == "radial":
        return pf.q0().subs("tau", 0), pf.p0().subs("tau", 0)
    slot = pf.N - 1 if branch == "nu=1" else pf.alpha_poly(pf.S)
    return (pf.q1_at_zero().subs("a", slot),
            pf.p1_at_zero().subs("a", slot))


_LINK_BRANCHES = ("radial", "nu=1", "nu>=2")


def _differ(n1, d1, n2, d2) -> bool:
    """n1/d1 != n2/d2, cross-multiplied; a zero denominator differs, since
    a zero pair would satisfy the cross-multiplied identity vacuously."""
    return d1 * d2 == 0 or n1 * d2 != n2 * d1


def quotient_constant_links() -> list[str]:
    """Identities on the mode bodies with q free (D = 2m); returns failures.
    Q0(0)/P0(0) = C(0) and Q1(0, alpha_nu)/P1(0, alpha_nu) = C(nu) in
    (lam, N, s, m), one per branch of C, hold wherever P(0) and den are
    nonzero (not at lam = 0, nu = 1).  A's two forms agree at nu = 0 and
    nu = s, and C(0) = A(1), in free G = mu, q = m and N."""
    failures = []
    for branch in _LINK_BRANCHES:
        if _differ(*_channel_at_zero(branch), *_c_branch(branch, pf.M)):
            failures.append(f"{branch} link fails: Q(0) * den != P(0) * num")
    G, q, n = MultiPoly.var("mu"), pf.M, pf.N
    for nu, label in ((0, "0"), (pf.S, "s")):
        if _differ(*constants._a_gamma(G, q, n, nu), *constants._a_slot(G, q, n, nu)):
            failures.append(f"A({label}) forms fail: gamma-form != slot form")
    if _differ(*constants._c_radial(G, q, n), *constants._a_gamma(G, q, n, 1)):
        failures.append("C(0) = A(1) fails: radial branch != gamma-form at nu = 1")
    return failures


def interleaving_spot_checks(seed: int = 0, count: int = 200) -> list[str]:
    """(C(nu) - A(nu-1)) (C(nu) - A(nu+1)) <= 0 at random admissible points.

    c-minus-a-prev and c-minus-a-next prove this interleaving for every
    nu >= 1, and their references and the links run the same mode bodies
    as rellich_hardy_A and rellich_hardy_C, so the sample re-checks a
    proven claim.  It stays while the benchmark tracer patches it by name.
    """
    import random

    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        n = rng.randint(2, 10)
        g = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        p = Params(n, g)
        if p.degenerate:
            continue
        nu = rng.randint(1, 8)
        c = constants.rellich_hardy_C(p, nu)
        prod = ((c - constants.rellich_hardy_A(p, nu - 1))
                * (c - constants.rellich_hardy_A(p, nu + 1)))
        if prod > 0:
            failures.append(f"interleaving fails at N={n} gamma={g} nu={nu}")
    return failures


# ---------------------------------------------------------------------------
# numeric guards for the difference-quotient bound (float, vectorised)
# ---------------------------------------------------------------------------

def _tau_coeffs_float(poly: MultiPoly) -> list[float]:
    return [float(c.constant_value()) for c in poly.coeffs_in("tau")]


_GUARD_PER_CASE = 25  # tau samples per (Params, nu) case
_GUARD_SLACK = 1e-12  # float rounding allowed below the channel constant


def _guard_cases(rng, count: int) -> list[tuple[Params, int]]:
    """The (Params, nu) cases of `difference_quotient_guard`, drawn from
    the numpy generator `rng` until they hold `count` tau samples: gamma
    on a quarter grid of [-3, 1] or among six values above 1, N in
    2..10, nu in 1..8, degenerate draws skipped."""
    gammas_le1 = [Fraction(k, 4) for k in range(-12, 5)]  # gamma <= 1
    gammas_gt1 = [Fraction(5, 4), Fraction(3, 2), Fraction(2),
                  Fraction(5, 2), Fraction(3), Fraction(4)]
    cases = []
    while len(cases) * _GUARD_PER_CASE < count:
        regime = rng.integers(0, 2)
        n = int(rng.integers(2, 11))
        g = gammas_gt1[rng.integers(len(gammas_gt1))] if regime else \
            gammas_le1[rng.integers(len(gammas_le1))]
        p = Params(n, g)
        if p.degenerate:
            continue
        nu = int(rng.integers(1, 9))
        cases.append((p, nu))
    return cases


def difference_quotient_guard(seed: int = 0, count: int = 10_000):
    """Sample random admissible (tau, nu, gamma, N) and check the
    difference quotient (Q1/P1)(tau) minus its tau=0 value, divided by
    tau, stays above the certified channel constant minus `_GUARD_SLACK`.

    Returns (min_margin, n_checked, failures).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    failures = []
    min_margin = float("inf")
    checked = 0
    cases = _guard_cases(rng, count)
    q1_sym, p1_sym = pf.q1(), pf.p1()
    for p, nu in cases:
        anu = alpha(nu, p.N)
        subs = {"lam": p.lam, "N": Fraction(p.N), "a": anu}
        q1 = q1_sym.subs_many(subs)
        p1 = p1_sym.subs_many(subs)
        p1z = p1.subs("tau", 0)
        # (Q1(tau) P1(0) - Q1(0) P1(tau)) / tau: exact in tau, so the
        # division by tau loses no precision (no cancellation at small tau)
        diff = q1 * p1z - q1.subs("tau", 0) * p1
        dcoeffs = diff.coeffs_in("tau")
        if not dcoeffs[0].is_zero():
            raise DivisionInvariantError(
                f"difference-quotient numerator at N={p.N} gamma={p.gamma} "
                f"nu={nu} has constant term {format_poly(dcoeffs[0])}")
        dq = np.polynomial.polynomial.Polynomial(
            [float(c.constant_value()) for c in dcoeffs[1:]])
        pp = np.polynomial.polynomial.Polynomial(_tau_coeffs_float(p1))
        p1z_f = float(p1z.constant_value())
        taus = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), _GUARD_PER_CASE))
        vals = dq(taus) / (pp(taus) * p1z_f)
        c0 = float(c0_for(p))
        margin = float(np.min(vals - c0))
        min_margin = min(min_margin, margin)
        checked += _GUARD_PER_CASE
        if margin < -_GUARD_SLACK:
            failures.append(
                f"guard fails at N={p.N} gamma={p.gamma} nu={nu}: margin {margin}")
    return min_margin, checked, failures

