"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dict mapping exponent vectors to ``fractions.Fraction``
coefficients.  The variable set is a closed enumeration

    tau, a, lam, N, s, m, mu

(tau: Fourier-side variable, a: spherical-eigenvalue slot, lam: shifted
weight exponent, N: dimension, s/m/mu: shift variables used in Taylor
re-expansions).  Unknown variable names are rejected at construction so a
typo in a certificate file cannot silently create a fresh symbol.

All arithmetic is exact; there is no floating-point fallback in this
module.  Values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Rational = Fraction

VARS = ("tau", "a", "lam", "N", "s", "m", "mu")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)
_ZERO_EXP = (0,) * _NVARS

Scalar = Union[int, Fraction]


class UnknownVariableError(ValueError):
    """A variable name outside the closed enumeration was used."""


def _check_var(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise UnknownVariableError(
            f"unknown variable {name!r}; allowed: {', '.join(VARS)}"
        ) from None


def _coerce(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MultiPoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _coerce(c)
                if c != 0:
                    exp = tuple(exp)
                    if len(exp) != _NVARS or any(e < 0 for e in exp):
                        raise ValueError(f"bad exponent vector {exp}")
                    clean[exp] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def const(cls, c: Scalar) -> "MultiPoly":
        c = _coerce(c)
        return cls({} if c == 0 else {_ZERO_EXP: c})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        i = _check_var(name)
        exp = [0] * _NVARS
        exp[i] = 1
        return cls({tuple(exp): Fraction(1)})

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == _ZERO_EXP for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms[_ZERO_EXP]

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * _NVARS
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for i, v in enumerate(VARS) if used[i])

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable.  Zero poly has degree -1."""
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        i = _check_var(var)
        return max(e[i] for e in self.terms)

    # ---- arithmetic ----

    def __add__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _as_poly(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "MultiPoly":
        c = _coerce(c)
        return MultiPoly({e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ---- substitution / evaluation ----

    def subs(self, var: str, value: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact composition: replace `var` by a polynomial or rational."""
        i = _check_var(var)
        repl = _as_poly(value)
        # group terms by the exponent of `var`
        by_k: dict[int, dict[tuple, Fraction]] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1:]
            by_k.setdefault(k, {})[rest] = by_k.get(k, {}).get(rest, Fraction(0)) + c
        result = MultiPoly()
        power = MultiPoly.const(1)
        for k in range(0, (max(by_k) if by_k else 0) + 1):
            if k > 0:
                power = power * repl
            if k in by_k:
                result = result + MultiPoly(by_k[k]) * power
        return result

    def subs_many(self, values: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        out = self
        for name, value in values.items():
            out = out.subs(name, value)
        return out

    def eval(self, values: Mapping[str, Scalar]) -> Fraction:
        """Full exact evaluation; every used variable must get a value."""
        out = self.subs_many(values)
        return out.constant_value()

    # ---- structure ----

    def coeffs_in(self, var: str) -> list["MultiPoly"]:
        """Coefficients c_0..c_d with self = sum c_k * var^k, c_k free of var."""
        i = _check_var(var)
        d = self.degree(var)
        if d < 0:
            return [MultiPoly()]
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            k = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1:]
            buckets[k][rest] = c
        return [MultiPoly(b) for b in buckets]

    def taylor(self, var: str, center: "MultiPoly | Scalar") -> list["MultiPoly"]:
        """Taylor coefficients at `center`: self = sum c_k * (var - center)^k.

        `center` must be free of `var`; each returned c_k is free of `var`.
        """
        center = _as_poly(center)
        if var in center.variables_used():
            raise ValueError("taylor center must be free of the expansion variable")
        shifted = self.subs(var, MultiPoly.var(var) + center)
        return shifted.coeffs_in(var)

    def diff(self, var: str) -> "MultiPoly":
        i = _check_var(var)
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                e = exp[:i] + (k - 1,) + exp[i + 1:]
                out[e] = out.get(e, Fraction(0)) + c * k
        return MultiPoly(out)

    def to_univariate(self, var: str) -> list[Fraction]:
        """Ascending coefficient list; requires no other variable present."""
        used = self.variables_used()
        if any(v != var for v in used):
            raise ValueError(f"polynomial is not univariate in {var}: uses {used}")
        i = _check_var(var)
        d = self.degree(var)
        coeffs = [Fraction(0)] * (max(d, 0) + 1)
        for exp, c in self.terms.items():
            coeffs[exp[i]] = c
        return coeffs

    # ---- textual form ----

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"


def _as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as MultiPoly")


# ---------------------------------------------------------------------------
# canonical text format: sum of terms  c * var^k * ...
# The parser accepts a superset (parenthesised products/powers, unary minus)
# so displayed certificate expressions can be transcribed verbatim; the
# writer always emits the flat canonical form, which round-trips exactly.
# The atom '@name' is the polynomial `names[name]` handed to parse_poly; it
# binds like a parenthesised atom, so '@G0^2' squares G0.
# ---------------------------------------------------------------------------

def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _term_key(exp: tuple) -> tuple:
    return (-sum(exp), tuple(-e for e in exp))


def format_poly(p: MultiPoly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for exp in sorted(p.terms, key=_term_key):
        c = p.terms[exp]
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(VARS, exp)
            if e
        ]
        mag = abs(c)
        if factors and mag == 1:
            body = " * ".join(factors)
        elif factors:
            body = " * ".join([_fmt_coeff(mag)] + factors)
        else:
            body = _fmt_coeff(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


class PolyParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str, names: Mapping[str, MultiPoly] | None):
        self.names = names
        self.toks: list[str] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()/":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch.isalpha() or ch in "_@":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise PolyParseError(f"unexpected character {ch!r} in polynomial")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of polynomial")
        self.pos += 1
        return tok


def parse_poly(text: str, names: Mapping[str, MultiPoly] | None = None) -> MultiPoly:
    """Parse the textual polynomial format into a MultiPoly (exact).

    An atom ``@name`` stands for ``names[name]``; an unknown name, a bare
    ``@`` or an ``@`` without `names` raises PolyParseError.
    """
    toks = _Tokens(text, names)
    p = _parse_sum(toks)
    if toks.peek() is not None:
        raise PolyParseError(f"trailing tokens starting at {toks.peek()!r}")
    return p


def _parse_sum(toks: _Tokens) -> MultiPoly:
    sign = 1
    while toks.peek() in ("+", "-"):
        if toks.next() == "-":
            sign = -sign
    acc = _parse_product(toks).scale(sign)
    while toks.peek() in ("+", "-"):
        sign = 1
        while toks.peek() in ("+", "-"):
            if toks.next() == "-":
                sign = -sign
        acc = acc + _parse_product(toks).scale(sign)
    return acc


def _parse_product(toks: _Tokens) -> MultiPoly:
    acc = _parse_power(toks)
    while toks.peek() == "*":
        toks.next()
        acc = acc * _parse_power(toks)
    return acc


def _parse_power(toks: _Tokens) -> MultiPoly:
    base = _parse_atom(toks)
    if toks.peek() == "^":
        toks.next()
        tok = toks.next()
        if not tok.isdigit():
            raise PolyParseError(f"exponent must be a nonnegative integer, got {tok!r}")
        return base ** int(tok)
    return base


def _parse_atom(toks: _Tokens) -> MultiPoly:
    tok = toks.next()
    if tok == "(":
        inner = _parse_sum(toks)
        if toks.next() != ")":
            raise PolyParseError("missing closing parenthesis")
        return inner
    if tok == "-":
        return -_parse_atom(toks)
    if tok.isdigit():
        num = int(tok)
        # rational literal p/q: '/' is only legal right after an integer
        if toks.peek() == "/":
            toks.next()
            den = toks.next()
            if not den.isdigit() or int(den) == 0:
                raise PolyParseError(f"bad denominator {den!r}")
            return MultiPoly.const(Fraction(num, int(den)))
        return MultiPoly.const(num)
    if tok in _VAR_INDEX:
        return MultiPoly.var(tok)
    if tok.startswith("@"):
        name = tok[1:]
        if not name:
            raise PolyParseError("'@' must be followed by a name")
        if toks.names is None:
            raise PolyParseError(f"@{name} used without a mapping of names")
        if name not in toks.names:
            raise PolyParseError(f"unknown @reference {name!r}")
        return toks.names[name]
    raise PolyParseError(f"unexpected token {tok!r}")
