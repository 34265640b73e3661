"""Machine verification of the polynomial identities and nonnegativity
certificates behind the curl-free sharp-constant proofs.

Each certificate is a small text file (``certs/*.cert``) holding a
displayed polynomial and, when the claim is a sign claim, a decomposition
into manifestly nonnegative pieces.  The checker

  1. rebuilds the polynomial the display is supposed to equal from the
     defining constructions in `polyfamily` and, for the identities that
     involve A(nu), from the forms of A in `constants` run on symbols
     (transcription check),
  2. re-sums the decomposition and compares it with the display
     (decomposition identity), and
  3. validates every factor's nonnegativity rule under the declared
     domain hypotheses (sign check),

all in exact rational arithmetic, with the dimension variable N free.
Certificates are data, not code: a failure localises to one transcribed
display (its file) or one defining construction (its reference builder),
never to an opaque recomputation.  A passing symbolic check covers
every N in the file's ``domain:``: substituting any such N keeps an
identity an identity and keeps shifted nonnegative coefficients (and
even powers of a free N) nonnegative, and every ``uni`` factor is free
of N.  When a check fails and the target
uses N, it is instantiated again at each integer N from the domain's
bound (2 if none) to 12, one at a time, to name the N that breaks.

Certificate file syntax::

    domain: N >= 3, s >= 0   # variable lower bounds, one per variable
    let mu = 2*lam + N - 2   # named alias polynomial
    assume mu                # hypothesis: alias (or variable) is >= 0
    target: <polynomial expression, may reference @Name>
    nonneg: coeffs           # certify target by shifted coefficient expansion
    term: 2 * sq(2*lam + N - 5/4)   # or a sum of tagged product terms
    term: 6 * sq(lam)
    ...
    note: free text          # documentation, not checked

A file states only what the checker cannot work out.  Its name is its
file's stem, and the N a failure is named at follow from ``domain:``.
``target:`` and ``nonneg:`` may each appear once, and a variable may be
bounded once.  A repeat is a parse error, and so is a line of a kind not
shown above, a ``let`` or ``assume`` name that no ``dom(...)`` factor
reads, and a ``let`` alias named after a variable of `poly.VARS` (where
``dom`` would read the alias and ``target:`` the variable), so a stale
line cannot sit in a file unchecked.
``nonneg:`` takes only ``coeffs``: a file with ``term:`` lines is
checked by its terms, and any other value is a parse error, so a
misspelt rule cannot drop a sign check.

A file's regime and the builder of its reference polynomial are not
lines of the file but its name's one entry in this module's table of
the corpus, read as `REGIMES` and `REFERENCES`.  A suite parses only
the files its regimes name, but every load lists the whole corpus and
rejects a file that the table does not name, since no suite would check
it.

Term factors: a rational constant (must be >= 0), ``sq(expr)`` for a
square, ``dom(name)`` for an assumed-nonnegative alias or variable,
``nne(expr)`` for a subpolynomial whose coefficients are nonnegative
after shifting every bounded variable to its lower bound, and
``uni(expr ; var ; interval)`` for a univariate factor certified by
`nonneg_on_interval`: ``var`` is one of `poly.VARS` and ``expr`` uses no
other variable, else the file does not parse.

``@Name`` in an expression is a `parse_poly` atom for `_at_table`'s
polynomial: the `polyfamily` members plus the slices P1_0, P1_0n2,
P1_0_lam0 and W_s.  `load_corpus` names the file of any parse failure
among the files it reads, and a named file that does not exist.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import constants
from . import polyfamily as pf
from .constants import Params
from .nonneg import IntervalQ, nonneg_on_interval
from .poly import VARS, MultiPoly, format_poly, parse_poly

_N_MAX = 12  # the largest N a failed check is instantiated at


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


def _qp_difference(k: int, q: MultiPoly, p: MultiPoly,
                   qz: MultiPoly, pz: MultiPoly) -> MultiPoly:
    """k (Q P(0) - Q(0) P) - tau P P(0) for a channel pair (Q, P) and its
    tau = 0 values (Q(0), P(0)): the numerator of k (Q/P - Q(0)/P(0)) - tau
    over P P(0), so its sign is that of the difference-quotient bound
    (Q/P - Q(0)/P(0))/tau >= 1/k."""
    return (q * pz - qz * p).scale(k) - pf.TAU * p * pz


def _channel1() -> tuple[MultiPoly, ...]:
    """(Q1, P1, Q1(0), P1(0)): the nu >= 1 channel and its tau = 0 values."""
    return pf.q1(), pf.p1(), pf.q1_at_zero(), pf.p1_at_zero()


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


def _pair(num, den) -> tuple:
    """The ratio that keeps a mode table's (numerator, denominator)."""
    return num, den


def _a_mode(nu) -> tuple[MultiPoly, MultiPoly]:
    """(numerator, denominator) of rellich_hardy_A's slot form at D = 1."""
    return constants._a_slot(_gamma_d(_HALF), _HALF, pf.N, nu)


def _a_gamma_form(nu) -> MultiPoly:
    """Numerator of rellich_hardy_A's gamma-form at D = 1."""
    return constants._AModes(_gamma_d(_HALF), _HALF, pf.N, _pair)[nu][0]


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


# The corpus by regime, in report order: each file's name and the builder
# of the polynomial its display must equal, stated here once.
_CORPUS = {
    "base": {
        "q1-factored-form": pf.q1,
        "qp1-identity": lambda: _qp_difference(1, *_channel1()),
        "q0p0-identity": lambda: _qp_difference(1, pf.q0(), pf.p0(),
                                                *_channel_at_zero("radial")),
        "alpha-shift": _as_at_difference,
        "p1-zero-display": pf.p1_at_zero,
        "p1-alpha1": lambda: pf.p1_at_zero().subs("a", pf.N - 1),
        "p1-alpha2": lambda: pf.p1_at_zero().subs("a", 2 * pf.N),
        "p1-tau-slope": lambda: pf.p1().diff("tau"),
    },
    "le1": {  # gamma <= 1
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
    },
    "gt1-nge3": {  # gamma > 1, N >= 3
        "qp2-identity": lambda: _qp_difference(2, *_channel1()),
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
    },
    "n2": {  # N = 2
        "p1-n2-form": lambda: pf.p1().subs("N", 2),
        "qp3-identity": lambda: _qp_difference(
            3, *(x.subs("N", 2) for x in _channel1())),
        "taylor-p1-n2": lambda: _f_taylor(pf.p1_at_zero().subs("N", 2)),
        "g1-half-n2": lambda: _f_taylor(pf.g1().subs("N", 2)).scale(Fraction(1, 2)),
        "g0-half-n2": lambda: _f_taylor(pf.g0().subs("N", 2)).scale(Fraction(1, 2)),
        "f1-taylor": lambda: _f_taylor(pf.f1()),
        "f1-square-form": lambda: _f_taylor(pf.f1()),
        "f0-taylor": lambda: _f_taylor(pf.f0()),
        "f0-at-alpha1": lambda: _f_taylor(pf.f0(), 0),
        "f0-shifted": _f0_shift_chain,
        "f0-shifted-gap": _f0_shift_gap,
    },
    "section5": {  # the section-5 comparison identities
        "a1-a0-identity": _a1_a0_lhs,
        "a-diff-identity": _a_diff_lhs,
        "a-diff-monotone": _a_diff_numerator_step,
        "c-minus-a-prev": lambda: _c_minus_a(-1),
        "c-minus-a-next": lambda: _c_minus_a(+1),
        "c1-c0-identity": _c1_c0_lhs,
        "c-lam0-nu": _c_lam0_lhs,
        "a-rewrite-nu": lambda: _a_gamma_form(pf.S),
        "a-rewrite-0": lambda: _a_gamma_form(0),
    },
}

# called through this dict, so a profiler may wrap its entries in place
REFERENCES = {name: build for members in _CORPUS.values()
              for name, build in members.items()}
REGIMES = {regime: tuple(members) for regime, members in _CORPUS.items()}


def _at_table() -> dict[str, MultiPoly]:
    """The @Name polynomials: the family members, read from the cached
    builders so that a Q1 fault fails q1-forms-agree instead of the load,
    plus four slices."""
    p1_0 = pf.p1_at_zero()
    return {**pf.build_family(),
            "P1_0": p1_0,
            "P1_0n2": p1_0.subs("N", 2),
            "P1_0_lam0": p1_0.subs("lam", 0),
            "W_s": pf.w_interleave().subs("a", pf.alpha_poly(pf.S))}


# ---------------------------------------------------------------------------
# certificate model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    kind: str  # sq | dom | nne | uni
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
    target: MultiPoly
    terms: tuple[CertTerm, ...]
    coeffs: bool  # "nonneg: coeffs": check the target's shifted coefficients
    domain_bounds: dict[str, Fraction]  # var -> lower bound
    assumed: frozenset[str]  # aliases/vars assumed >= 0
    n_values: tuple[int, ...]  # integer N a failure is named at (() if N-free)


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
        if var not in VARS or set(poly.variables_used()) - {var}:
            raise CertificateError(
                f"uni(...) needs a polynomial in its variable alone: {text!r}")
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


def parse_certificate(name: str, text: str, table=None) -> Certificate:
    """Parse the text of certificate `name` (its file's stem)."""
    table = table if table is not None else _at_table()
    fields: dict[str, str] = {}
    aliases: dict[str, MultiPoly] = {}
    assumed: set[str] = set()
    bounds: dict[str, Fraction] = {}
    term_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        if line.startswith("let "):
            alias, _, expr = line[4:].partition("=")
            alias = alias.strip()
            if alias in VARS:
                raise CertificateError(f"let {alias}: the name of a variable")
            aliases[alias] = parse_poly(expr, table)
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
                var = var.strip()
                if not bound or var not in VARS:
                    raise CertificateError(f"bad domain clause {clause!r}")
                if var in bounds:
                    raise CertificateError(f"repeated domain bound on {var}")
                bounds[var] = Fraction(bound.strip())
        elif key == "note":
            pass  # documentation for the reader, not checked
        elif key in ("target", "nonneg"):
            if key in fields:
                raise CertificateError(f"repeated {key}: line {line!r}")
            fields[key] = value
        else:
            raise CertificateError(f"unknown certificate line {line!r}")
    if "target" not in fields:
        raise CertificateError("certificate needs target:")
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
    read = {f.label for t in terms for f in t.factors if f.kind == "dom"}
    for kind, names in (("let", aliases), ("assume", assumed)):
        unread = sorted(set(names) - read)
        if unread:
            raise CertificateError(f"{kind} {unread[0]}: read by no dom(...) factor")
    if fields.get("nonneg", "coeffs") != "coeffs":
        raise CertificateError(f"nonneg: {fields['nonneg']!r} is not coeffs")
    if "N" in target.variables_used():
        n_values = tuple(range(max(2, math.ceil(bounds.get("N", 2))), _N_MAX + 1))
    else:
        n_values = ()
    return Certificate(
        name=name,
        target=target,
        terms=tuple(terms),
        coeffs="nonneg" in fields,
        domain_bounds=bounds,
        assumed=frozenset(assumed),
        n_values=n_values,
    )


def _corpus_dir() -> Path:
    return Path(resources.files("curlsharp") / "certs")


def load_corpus(names: list[str] | None = None) -> list[Certificate]:
    """The certificates named by `names`, in that order, each parsed from
    its file ``<name>.cert``, or every file of the corpus, sorted, when
    `names` is None.  No other file is parsed.  The corpus is listed once
    either way, and a ``*.cert`` file that no regime of the table names
    fails every load, so no file sits in the corpus unchecked."""
    corpus = _corpus_dir()
    stems = sorted(path.stem for path in corpus.glob("*.cert"))
    for stem in stems:
        if stem not in REFERENCES:
            raise CertificateError(
                f"{stem}.cert: no regime of the certificate table names it")
    present = set(stems)
    table = _at_table()
    certs = []
    for name in stems if names is None else names:
        if name not in present:
            raise CertificateError(f"certificate file missing: {name}")
        try:
            text = (corpus / f"{name}.cert").read_text()
            certs.append(parse_certificate(name, text, table))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            raise CertificateError(f"{name}.cert: {exc}") from exc
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
    shifted = poly
    for var, lower in bounds.items():
        shifted = shifted.subs(var, MultiPoly.var(var) + lower)
    free_idx = [i for i, v in enumerate(VARS)
                if v in shifted.variables_used() and v not in bounds]
    for exp, c in shifted.terms():
        if c < 0:
            return False
        if any(exp[i] % 2 for i in free_idx):
            return False
    return True


def _problems(cert: Certificate, reference: MultiPoly,
              n: int | None = None) -> list[tuple[bool, str]]:
    """The rules `cert` fails against `reference`, each as (is a sign
    rule, text), with N free or at the integer N = n.  At N = n, N leaves
    the domain bounds and only the rules whose input can hold N run: the
    two identities, ``coeffs`` and ``nne``.  A term's constant, ``dom``
    and ``uni`` (free of N, by the parser) are decided with N free."""
    at_n = {} if n is None else {"N": Fraction(n)}
    bounds = {v: b for v, b in cert.domain_bounds.items() if v not in at_n}
    target = cert.target.subs_many(at_n)
    sums = [("display != reference", reference.subs_many(at_n))]
    if cert.terms:
        total = sum((t.polynomial() for t in cert.terms), MultiPoly())
        sums.append(("terms sum != display", total.subs_many(at_n)))
    problems = [(False, f"{text}, difference {format_poly(poly - target)[:200]}")
                for text, poly in sums if poly != target]
    if cert.coeffs and not _shifted_coeffs_nonneg(target, bounds):
        problems.append((True, "target has a negative shifted coefficient"))
    for i, t in enumerate(cert.terms):
        if n is None and t.coeff < 0:
            problems.append((True, f"term {i} has negative constant {t.coeff}"))
        for f in t.factors:
            if f.kind == "nne":
                if not _shifted_coeffs_nonneg(f.poly.subs_many(at_n), bounds):
                    problems.append((True, f"term {i}: nne({f.label}) has a "
                                           "negative shifted coefficient"))
            elif n is None and f.kind == "dom" and f.label not in cert.assumed:
                problems.append((True, f"term {i}: dom({f.label}) not assumed"))
            elif n is None and f.kind == "uni":
                ok, witness = nonneg_on_interval(f.poly, f.interval, var=f.var)
                if not ok:
                    problems.append(
                        (True, f"term {i}: uni({f.label}) on {f.interval}: {witness}"))
    return problems


def check_certificate(cert: Certificate, reference: MultiPoly) -> CertReport:
    """Check the transcription, the decomposition and every sign with N
    free.  Only when that fails, check again at each N of `n_values`, to
    name the N at which each failure breaks."""
    problems = _problems(cert, reference)
    if problems:
        for n in cert.n_values:
            problems += [(sign, f"N={n}: {text}")
                         for sign, text in _problems(cert, reference, n)]
    return CertReport(cert.name, all(sign for sign, _ in problems),
                      not any(sign for sign, _ in problems),
                      "; ".join(text for _, text in problems))


# ---------------------------------------------------------------------------
# structural identities verified directly in code (no display to transcribe)
# ---------------------------------------------------------------------------

# (name, lhs, rhs, failure text): each report checks lhs() == rhs()
_STRUCTURAL = (
    ("q1-forms-agree", lambda: pf.q1(), lambda: pf.q1_factored(),
     "cubic factorisation of Q1 differs"),
    # shifting the expansion point by N+1 moves slot alpha_1 to alpha_2
    ("g0-alpha2-shift", lambda: pf.g0().subs("a", 2 * pf.N + pf.S),
     lambda: pf.g0().subs("a", pf.N - 1 + pf.S).subs("s", pf.N + 1 + pf.S),
     "slot shift alpha_1 + (N+1) != alpha_2"),
    # P1(tau,a) - P1(0,a) = tau^2 + (2(a + lam^2 + lam) + N) tau
    ("p1-tau-offset", lambda: pf.p1() - pf.p1_at_zero(),
     lambda: pf.TAU ** 2 + (2 * (pf.A + pf.LAM ** 2 + pf.LAM) + pf.N) * pf.TAU,
     "tau-offset of P1 differs"),
)


def _structural_reports() -> list[CertReport]:
    out = []
    for name, lhs, rhs, failure in _STRUCTURAL:
        ok = lhs() == rhs()
        out.append(CertReport(name, ok, True, "" if ok else failure))
    return out


# ---------------------------------------------------------------------------
# suite operations (grouped per proof regime)
# ---------------------------------------------------------------------------

def _run_names(names: list[str]) -> list[CertReport]:
    return [check_certificate(cert, REFERENCES[cert.name]())
            for cert in load_corpus(names)]


def c0_for(p: Params) -> Fraction:
    """Certified remainder-channel constant for the spherical channels."""
    if p.gamma <= 1:
        return Fraction(1)
    return Fraction(1, 2) if p.N >= 3 else Fraction(1, 3)


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
    """Check the corpus files of `regimes` (every regime when None), and
    the structural reports when `base` is among them."""
    regimes = list(REGIMES) if regimes is None else regimes
    if not regimes:
        raise CertificateError("no regime selected")
    names: list[str] = []
    for key in regimes:
        if key not in REGIMES:
            raise CertificateError(f"unknown regime {key!r}")
        names.extend(REGIMES[key])
    result = SuiteResult(reports=_run_names(names))
    if "base" in regimes:
        result.structural = _structural_reports()
    return result


# ---------------------------------------------------------------------------
# exact links between the quotient framework and the closed-form constants
# ---------------------------------------------------------------------------

def _c_branch(branch: str, q) -> tuple[MultiPoly, MultiPoly]:
    """(numerator, denominator) of a branch of rellich_hardy_C at D = 2q;
    the nu >= 2 branch reads nu as s."""
    nu = {"radial": 0, "nu=1": 1}.get(branch, pf.S)
    return constants._CModes(_gamma_d(q), q, pf.N, _pair)[nu]


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


# (N, gamma, nu) of the wrapper check in quotient_constant_links: every
# branch, lam = 0 (N = 3, gamma = 1/2) and denominators not powers of 2
_WRAPPER_POINTS = ((2, Fraction(-7, 3), 0), (3, Fraction(1, 2), 1),
                   (5, Fraction(2, 5), 1), (5, Fraction(2, 5), 2),
                   (8, Fraction(9, 4), 5), (4, Fraction(-1, 6), 3))


def quotient_constant_links() -> list[str]:
    """Identities on the mode tables with q free (D = 2m); returns failures.
    Each is checked once, symbolically, not on a grid, and with q free a
    fault that shows only at q != 1/2 cannot hide.
    Q0(0)/P0(0) = C(0) and Q1(0, alpha_nu)/P1(0, alpha_nu) = C(nu) in
    (lam, N, s, m), one per branch of C, hold wherever P(0) and den are
    nonzero (not at lam = 0, nu = 1).  A's two forms agree at nu = 0 and
    nu = s, and C(0) = A(1), in free G = g, q = m and N.  Last, the
    public rellich_hardy_A and _C, whose tables take gamma's numerator and
    denominator, equal the q = 1/2 pairs in lam at _WRAPPER_POINTS (the
    first point that differs is named)."""
    failures = []
    for branch in _LINK_BRANCHES:
        if _differ(*_channel_at_zero(branch), *_c_branch(branch, pf.M)):
            failures.append(f"{branch} link fails: Q(0) * den != P(0) * num")
    G, q, n = MultiPoly.var("g"), pf.M, pf.N
    a = constants._AModes(G, q, n, _pair)
    for nu, label in ((0, "0"), (pf.S, "s")):
        if _differ(*a[nu], *constants._a_slot(G, q, n, nu)):
            failures.append(f"A({label}) forms fail: gamma-form != slot form")
    if _differ(*constants._CModes(G, q, n, _pair)[0], *a[1]):
        failures.append("C(0) = A(1) fails: radial branch != gamma-form at nu = 1")
    half = MultiPoly.const(_HALF)                 # so every entry has eval
    for label, mode, table in (("A", constants.rellich_hardy_A, constants._AModes),
                               ("C", constants.rellich_hardy_C, constants._CModes)):
        pairs = table(_gamma_d(half), half, pf.N, _pair)
        for dim, g, nu in _WRAPPER_POINTS:
            p = Params(dim, g)
            value = mode(p, nu)
            num, den = (x.eval({"lam": p.lam, "N": dim}) for x in pairs[nu])
            if _differ(num, den, value.numerator, value.denominator):
                failures.append(
                    f"{label} wrapper fails at N={dim} gamma={g} nu={nu}: "
                    f"rellich_hardy_{label} != its q = 1/2 pair at lam")
                break
    return failures


def interleaving_spot_checks(seed: int = 0, count: int = 200) -> list[str]:
    """(C(nu) - A(nu-1)) (C(nu) - A(nu+1)) <= 0 at random admissible points.

    The section-5 certificates of C(nu) - A(nu -+ 1) prove this
    interleaving for every nu >= 1, and their references and the links
    run the same mode tables as rellich_hardy_A and rellich_hardy_C, so
    the sample re-checks a proven claim.  It stays while the benchmark tracer patches it by name.
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
# numeric guard for the difference-quotient bound: the tau-coefficients
# exactly, as integer sums per case, then every case's float samples at once
# ---------------------------------------------------------------------------

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


def _guard_numerator() -> MultiPoly:
    """D(tau) = Q1(tau) P1(0) - Q1(0) P1(tau) with (a, lam, N) free: the
    numerator of Q1/P1 - Q1(0)/P1(0) over P1 P1(0), zero at tau = 0."""
    q1, p1, q1z, p1z = _channel1()
    return q1 * p1z - q1z * p1


_A, _LAM, _N = (VARS.index(v) for v in ("a", "lam", "N"))


def _integer_forms(polys: list[MultiPoly]) -> tuple[tuple, list]:
    """Polynomials in (a, lam, N) as integer monomials: ((I, J, K),
    [(den, [(c, i, j, k), ...]), ...]), each polynomial the sum of
    c a^i lam^j N^k over its den, and I, J, K the top degrees."""
    forms = []
    for poly in polys:
        terms = poly.terms()
        den = math.lcm(*(c.denominator for _, c in terms))
        forms.append((den, [(c.numerator * (den // c.denominator),
                             e[_A], e[_LAM], e[_N]) for e, c in terms]))
    monos = [m for _, mono in forms for m in mono]
    tops = tuple(max((m[v] for m in monos), default=0) for v in (1, 2, 3))
    return tops, forms


def _values_at(integer_forms, lam: Fraction, n: int,
               a: int) -> list[tuple[int, int]]:
    """Each polynomial of `integer_forms` at (a, lam, N) = (a, lam, n) for
    integers a and n, as an unreduced (numerator, denominator) pair: with
    lam = r/d and J the top lam degree, one integer sum over den d^J > 0
    per polynomial."""
    (top_a, top_lam, top_n), forms = integer_forms
    r, d = lam.numerator, lam.denominator
    a_pow = [a ** i for i in range(top_a + 1)]
    n_pow = [n ** k for k in range(top_n + 1)]
    lam_pow = [r ** j * d ** (top_lam - j) for j in range(top_lam + 1)]
    d_top = d ** top_lam
    return [(sum(c * a_pow[i] * lam_pow[j] * n_pow[k] for c, i, j, k in mono),
             den * d_top)
            for den, mono in forms]


def difference_quotient_guard(seed: int = 0, count: int = 10_000):
    """Sample random admissible (tau, nu, gamma, N) and check the
    difference quotient (Q1/P1)(tau) minus its tau=0 value, divided by
    tau, stays above the certified channel constant minus `_GUARD_SLACK`.

    D = `_guard_numerator()` is formed once per call, and its
    tau-coefficients and P1's are evaluated exactly at each case's
    (alpha_nu, lam, N), as integer sums (`_values_at`).  Each sum over
    its denominator becomes a float by one int division, which is
    correctly rounded, so it is float() of the exact value.  D/tau is exact
    in tau, so the division loses no precision at small tau.  A case
    whose D has a nonzero constant term raises DivisionInvariantError.
    The float quotient then runs for all cases in one numpy pass, in the
    operation order of numpy's polyval per case.

    Returns (min_margin, n_checked, failures).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    cases = _guard_cases(rng, count)
    d_coeffs = _guard_numerator().coeffs_in("tau")
    forms = _integer_forms(d_coeffs + _channel1()[1].coeffs_in("tau"))
    rows = []
    for p, nu in cases:
        values = _values_at(forms, p.lam, p.N, nu * (nu + p.N - 2))
        if values[0][0]:
            raise DivisionInvariantError(
                f"difference-quotient numerator at N={p.N} gamma={p.gamma} "
                f"nu={nu} has constant term {Fraction(*values[0])}")
        rows.append([num / den for num, den in values])
    # one column per case; rows: D's tau^0.. coefficients, then P1's
    values = np.array(rows, dtype=float).reshape(len(cases), len(forms[1])).T
    dq, pp = values[1:len(d_coeffs)], values[len(d_coeffs):]
    taus = np.exp(rng.uniform(np.log(1e-3), np.log(1e3),
                              (len(cases), _GUARD_PER_CASE))).T
    polyval = np.polynomial.polynomial.polyval
    vals = polyval(taus, dq, tensor=False) / (polyval(taus, pp, tensor=False) * pp[0])
    c0 = np.array([float(c0_for(p)) for p, _ in cases])
    margins = np.min(vals - c0, axis=0).tolist()
    failures = [f"guard fails at N={p.N} gamma={p.gamma} nu={nu}: margin {margin}"
                for (p, nu), margin in zip(cases, margins) if margin < -_GUARD_SLACK]
    return min(margins, default=float("inf")), len(cases) * _GUARD_PER_CASE, failures
