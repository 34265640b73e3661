"""A second, independent checker of the certificate corpus.

Its rules are the `certificates` module docstring, read as a spec: the
display must equal its reference, the terms must sum to the display,
and each sign rule must hold (a term's constant >= 0, ``sq``, ``dom`` of
an assumed name, ``nne`` and ``nonneg: coeffs`` by shifted coefficients,
``uni`` on its interval).  A stale line does not parse: a repeated
``target:``, ``nonneg:`` or domain bound, a line of an unknown kind, a
``nonneg:`` other than ``coeffs``, a ``let`` or ``assume`` name that no
``dom(...)`` reads, and a ``let`` named after a variable.

It shares no code with the checker it cross-checks.  It has its own
line parser and its own reader of expressions, does its arithmetic in
sympy (a ``uni`` factor is decided by ``solveset``), and imports neither
`parse_certificate` nor `nonneg`.  It reads the reference polynomials
and the @Name table through their `format_poly` text only.
"""

import re
from pathlib import Path

import pytest
import sympy

import curlsharp
from curlsharp import certificates as certs
from curlsharp.poly import VARS, format_poly

CORPUS = Path(curlsharp.__file__).parent / "certs"
GENS = sympy.symbols(VARS)
SYMBOL = dict(zip(VARS, GENS))
_VARIABLES = {v: sympy.Poly(x, *GENS, domain="QQ") for v, x in SYMBOL.items()}
_EXPRESSION = re.compile(r"[\w\s+\-*^()/@]+")
_FACTOR = re.compile(r"(sq|dom|nne|uni)\((.*)\)(?:\^(\d+))?", re.S)
_INTERVAL = re.compile(r"([\[(])([^,]+),([^\])]+)([\])])")


class Rejected(Exception):
    """The text breaks a rule of the certificate format."""


def _poly(text: str, at: dict) -> sympy.Poly:
    """An expression of the corpus (+ - * ^, parentheses, integers, p/q
    literals, the variables and @Name) as a sympy Poly over QQ."""
    if not _EXPRESSION.fullmatch(text):
        raise Rejected(f"not an expression: {text!r}")
    code = re.sub(r"@(\w+)", r"AT_\1", text)
    code = re.sub(r"\b(\d+)\b", r"Integer(\1)", code).replace("^", "**")
    names = {"Integer": sympy.Integer, **_VARIABLES,
             **{f"AT_{k}": v for k, v in at.items()}}
    try:
        value = eval(code, {"__builtins__": {}}, names)
    except (NameError, SyntaxError) as exc:
        raise Rejected(f"{text!r}: {exc}") from None
    return sympy.Poly(value, *GENS, domain="QQ")


def _from_kernel(poly) -> sympy.Poly:
    """A curlsharp polynomial, read through its format_poly text."""
    return _poly(format_poly(poly), {})


def _split(text: str, sep: str) -> list[str]:
    """`text` split at each `sep` outside brackets of either kind."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _shifted_nonneg(poly: sympy.Poly, bounds: dict) -> bool:
    """Every coefficient >= 0 after each bounded v -> lower + v, and every
    unbounded variable in even powers only."""
    shift = {SYMBOL[v]: SYMBOL[v] + lo for v, lo in bounds.items()}
    shifted = sympy.Poly(poly.as_expr().xreplace(shift), *GENS, domain="QQ")
    free = [i for i, v in enumerate(VARS) if v not in bounds]
    return all(c >= 0 and not any(m[i] % 2 for i in free)
               for m, c in shifted.terms())


def _nonneg_on(poly: sympy.Poly, var: str, interval: str) -> bool:
    m = _INTERVAL.fullmatch(interval.strip())
    if m is None:
        raise Rejected(f"bad interval {interval!r}")
    ends = [m.group(2).strip(), m.group(3).strip()]
    lo = -sympy.oo if ends[0] in ("-oo", "-inf") else sympy.Rational(ends[0])
    hi = sympy.oo if ends[1] in ("oo", "inf") else sympy.Rational(ends[1])
    where = sympy.Interval(lo, hi, m.group(1) == "(", m.group(4) == ")")
    x = SYMBOL[var]
    return sympy.solveset(poly.as_expr() < 0, x, where) == sympy.S.EmptySet


def _lines(text: str):
    """(kind, value) of each line that is not blank or a comment."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for kind in ("let", "assume"):
            if line.startswith(kind + " "):
                yield kind, line[len(kind) + 1:]
                break
        else:
            kind, sep, value = line.partition(":")
            if not sep or kind.strip() not in ("domain", "target", "nonneg",
                                                "term", "note"):
                raise Rejected(f"unknown line {line!r}")
            yield kind.strip(), value.strip()


def check(text: str, reference: sympy.Poly, at: dict) -> list[str]:
    """The rules the certificate `text` breaks against `reference`
    (empty when it passes).  Raises Rejected when it does not parse."""
    bounds, lets, assumed, fields, terms = {}, {}, set(), {}, []
    for kind, value in _lines(text):
        if kind == "let":
            alias, _, expr = value.partition("=")
            alias = alias.strip()
            if alias in VARS:
                raise Rejected(f"let {alias}: a variable's name")
            lets[alias] = _poly(expr, at)
        elif kind == "assume":
            assumed.add(value.strip())
        elif kind == "domain":
            for clause in value.split(","):
                var, sep, lo = (x.strip() for x in clause.partition(">="))
                if not sep or var not in VARS or var in bounds:
                    raise Rejected(f"bad domain clause {clause!r}")
                bounds[var] = sympy.Rational(lo)
        elif kind == "term":
            terms.append(value)
        elif kind in ("target", "nonneg"):
            if kind in fields:
                raise Rejected(f"repeated {kind}:")
            fields[kind] = value
    if "target" not in fields or fields.get("nonneg", "coeffs") != "coeffs":
        raise Rejected("no target:, or a nonneg: other than coeffs")
    target = _poly(fields["target"], at)
    broken = [] if target == reference else ["display != reference"]
    total, read = sympy.Poly(0, *GENS, domain="QQ"), set()
    for i, term in enumerate(terms):
        product = sympy.Poly(1, *GENS, domain="QQ")
        for chunk in (c.strip() for c in _split(term, "*")):
            m = _FACTOR.fullmatch(chunk)
            if m is None:
                try:
                    constant = sympy.Rational(chunk.replace(" ", ""))
                except (TypeError, ValueError, sympy.SympifyError):
                    raise Rejected(f"bad factor {chunk!r}") from None
                if constant < 0:
                    broken.append(f"term {i}: negative constant")
                product *= constant
                continue
            kind, body, power = m.group(1), m.group(2), int(m.group(3) or 1)
            if kind == "dom":
                name = body.strip()
                read.add(name)
                if name not in assumed:
                    broken.append(f"term {i}: dom({name}) not assumed")
                if name not in lets and name not in VARS:
                    raise Rejected(f"dom({name}): no such alias or variable")
                poly = lets[name] if name in lets else _VARIABLES[name]
            elif kind == "uni":
                parts = _split(body, ";")
                if len(parts) != 3 or parts[1].strip() not in VARS:
                    raise Rejected(f"bad uni factor {chunk!r}")
                expr, var, interval = parts
                poly = _poly(expr, at)
                if poly.free_symbols - {SYMBOL[var.strip()]}:
                    raise Rejected(f"uni factor not in {var.strip()} alone")
                if not _nonneg_on(poly, var.strip(), interval):
                    broken.append(f"term {i}: uni negative on {interval.strip()}")
            else:
                poly = _poly(body, at)
                if kind == "sq":
                    poly = poly * poly
                elif not _shifted_nonneg(poly, bounds):
                    broken.append(f"term {i}: nne negative shifted coefficient")
            product *= poly ** power
        total += product
    unread = sorted((set(lets) | assumed) - read)
    if unread:
        raise Rejected(f"{unread[0]}: read by no dom(...)")
    if terms and total != target:
        broken.append("terms sum != display")
    if "nonneg" in fields and not _shifted_nonneg(target, bounds):
        broken.append("target: negative shifted coefficient")
    return broken


@pytest.fixture(scope="module")
def at_table():
    return {k: _from_kernel(v) for k, v in certs._at_table().items()}


def test_every_corpus_file_passes_the_independent_checker(at_table):
    files = {p.stem: p.read_text() for p in CORPUS.glob("*.cert")}
    assert sorted(files) == sorted(certs.REFERENCES)
    broken = {name: check(text, _from_kernel(certs.REFERENCES[name]()), at_table)
              for name, text in files.items()}
    assert {k: v for k, v in broken.items() if v} == {}


def _edited(name, old, new):
    text = (CORPUS / f"{name}.cert").read_text()
    assert text.count(old) == 1, (name, old)
    return name, text.replace(old, new)


# planted faults, each in one corpus file, and the rule that names it
@pytest.mark.parametrize("name,text,rule", [
    (*_edited("f1-square-form", "term: 11/6 * dom(s)^2", "term: 13/6 * dom(s)^2"),
     "terms sum != display"),
    (*_edited("f1-square-form", "(-oo, 0]) * dom(s)\n", "(-oo, 1]) * dom(s)\n"),
     "term 4: uni negative on (-oo, 1]"),
    (*_edited("e01-appendix", "domain: N >= 6", "domain: N >= 5"),
     "term 6: nne negative shifted coefficient"),
    (*_edited("e01-appendix", "N^2*(N-1)*(lam+2)^2", "N^2*(N-1)*(lam+3)^2"),
     "display != reference"),
    (*_edited("f1-square-form", "term: dom(s)^3", "term: -1 * dom(s)^3"),
     "term 0: negative constant"),
], ids=["term-coefficient", "uni-interval", "domain-bound", "display", "sign"])
def test_independent_checker_names_a_planted_fault(at_table, name, text, rule):
    broken = check(text, _from_kernel(certs.REFERENCES[name]()), at_table)
    assert rule in broken, broken


@pytest.mark.parametrize("text,problem", [
    ("assume s\ntarget: lam^2\nterm: sq(lam)", "s: read by no dom"),
    ("let mu = 2*lam + N - 2\nassume mu\ntarget: lam^2\nterm: sq(lam)",
     "mu: read by no dom"),
    ("let lam = N - 2\nassume lam\ntarget: N - 2\nterm: dom(lam)",
     "let lam: a variable's name"),
    ("target: lam^2\ntarget: lam^2", "repeated target:"),
    ("domain: N >= 2, N >= 3\ntarget: lam^2", "bad domain clause"),
    ("target: lam^2\nnonneg: terms", "a nonneg: other than coeffs"),
    ("regime: base\ntarget: lam^2", "unknown line"),
], ids=["unread-assume", "unread-let", "let-is-a-variable", "repeated-target",
        "repeated-bound", "nonneg-value", "unknown-line"])
def test_independent_checker_rejects_a_stale_line(text, problem):
    lam2 = _poly("lam^2", {})
    with pytest.raises(Rejected, match=re.escape(problem)):
        check(text, lam2, {})
