"""Exact sparse multivariate polynomials over the rationals.

The variable set is a closed enumeration

    tau, a, lam, N, s, m, g

(tau: Fourier-side variable, a: spherical-eigenvalue slot, lam: shifted
weight exponent, N: dimension, s/m: shift variables used in Taylor
re-expansions; s, m and g are also the free nu, q and G = gamma D of the
mode-table identities in `certificates.quotient_constant_links`).
Unknown variable names are rejected at construction so a typo in a
certificate file cannot silently create a fresh symbol.

A polynomial is an integer polynomial times one rational content, the
layout of FLINT's ``fmpq_mpoly``: a dict from packed exponents to
``int`` numerators, over one positive ``int`` denominator.  The content
is canonical: no numerator is 0, and the gcd of the numerators and the
denominator is 1.  Equal polynomials therefore have equal dicts and
denominators, and ``==`` and ``hash`` compare just those.

An exponent vector is packed into one int, as in Monagan and Pearce,
"Sparse polynomial division using a heap" (J. Symb. Comp. 2011): each
variable owns a field of FIELD_BITS bits, tau the highest, so the
product of two monomials is the sum of their packed ints.  The top bit
of each field is a guard bit, clear in every stored exponent.  A sum
that sets it, an exponent above MAX_EXPONENT, raises
ExponentOverflowError instead of carrying into the next variable; it is
a real exception, so it fires under ``python -O`` too.

`MultiPoly(mapping)` validates its input.  The results the kernel
builds are canonical by construction and skip that validation.
Outside this module the coefficients are read through `terms()`, each
term as (exponent tuple, Fraction), or, for a univariate polynomial,
`to_univariate` (Fractions) and `to_univariate_float`, which divides the
numerators by the denominator without building a Fraction.

All arithmetic is exact; there is no floating-point fallback in this
module.  Values are immutable after construction.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Mapping, Union

Rational = Fraction

VARS = ("tau", "a", "lam", "N", "s", "m", "g")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)

FIELD_BITS = 16  # per variable, the guard bit included
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
_SHIFTS = tuple(FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_GUARDS = sum(1 << (s + FIELD_BITS - 1) for s in _SHIFTS)
# a packed exponent's bytes, big-endian: one unsigned 16-bit field per
# variable, tau first
_FIELDS = struct.Struct(f">{_NVARS}H")

Scalar = Union[int, Fraction]


class UnknownVariableError(ValueError):
    """A variable name outside the closed enumeration was used."""


class ExponentOverflowError(OverflowError):
    """An exponent left its packed field: it exceeds MAX_EXPONENT."""


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


def _pack(exp) -> int:
    exp = tuple(exp)
    if len(exp) != _NVARS or any(e < 0 for e in exp):
        raise ValueError(f"bad exponent vector {exp}")
    if max(exp) > MAX_EXPONENT:
        raise ExponentOverflowError(
            f"exponent vector {exp} has an exponent above {MAX_EXPONENT}")
    return int.from_bytes(_FIELDS.pack(*exp), "big")


def _unpack(key: int) -> tuple:
    return _FIELDS.unpack(key.to_bytes(_FIELDS.size, "big"))


def _fields_checked(num: dict) -> dict:
    """`num`, once no packed exponent of it has a guard bit set."""
    if reduce(or_, num, 0) & _GUARDS:
        raise ExponentOverflowError(
            f"a product has an exponent above {MAX_EXPONENT}")
    return num


def _nonzero(num: dict) -> dict:
    return {e: c for e, c in num.items() if c} if 0 in num.values() else num


class MultiPoly:
    """Immutable sparse polynomial: int numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        coeffs = {}
        if terms:
            for exp, c in terms.items():
                c = _coerce(c)
                if c != 0:
                    coeffs[_pack(exp)] = c
        # each coefficient is in lowest terms, so over their lcm the
        # numerators and the denominator have gcd 1
        den = lcm(*(c.denominator for c in coeffs.values()))
        _set_num(self, {e: c.numerator * (den // c.denominator)
                        for e, c in coeffs.items()})
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # ---- constructors ----

    @classmethod
    def const(cls, c: Scalar) -> "MultiPoly":
        if type(c) is int:
            return _make({0: c} if c else {}, 1)
        c = _coerce(c)
        return _make({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return _make({1 << _SHIFTS[_check_var(name)]: 1}, 1)

    # ---- basic queries ----

    def terms(self) -> list[tuple[tuple, Fraction]]:
        """Each term as (exponent tuple over VARS, Fraction coefficient)."""
        den = self._den
        return [(_unpack(e), Fraction(c, den)) for e, c in self._num.items()]

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        num = self._num
        return not num or (len(num) == 1 and 0 in num)

    def constant_value(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._num[0], self._den)

    def variables_used(self) -> tuple[str, ...]:
        used = reduce(or_, self._num, 0)
        return tuple(v for v, s in zip(VARS, _SHIFTS) if (used >> s) & _FIELD_MASK)

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable.  Zero poly has degree -1."""
        if not self._num:
            return -1
        if var is None:
            return max(sum(_unpack(e)) for e in self._num)
        s = _SHIFTS[_check_var(var)]
        return max((e >> s) & _FIELD_MASK for e in self._num)

    # ---- arithmetic ----

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = _as_poly(other)
        a, da, b, db = self._num, self._den, other._num, other._den
        if da == db:
            if len(b) > len(a):
                a, b = b, a
            den, out, sb = da, dict(a), 1
        else:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            den, out = da * sa, {e: c * sa for e, c in a.items()}
        for e, c in b.items():
            c = c * sb + out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _make({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "MultiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = _as_poly(other)
        a, b = self._num, other._num
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:  # a monomial: no two products share an exponent
            [(e1, c1)] = a.items()
            out = {e1 + e: c1 * c for e, c in b.items()}
        else:
            out = {}
            get = out.get
            pairs = b.items()
            for e1, c1 in a.items():
                for e2, c2 in pairs:
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
            out = _nonzero(out)
        return _reduced(_fields_checked(out), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "MultiPoly":
        c = _coerce(c)
        p = c.numerator
        return _reduced({e: p * v for e, v in self._num.items()} if p else {},
                        self._den * c.denominator)

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
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    # ---- substitution / evaluation ----

    def subs(self, var: str, value: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact composition: replace `var` by a polynomial or rational."""
        s = _SHIFTS[_check_var(var)]
        repl = _as_poly(value)
        # the numerators by the exponent k of `var`, keyed by the rest
        by_k: dict[int, dict[int, int]] = {}
        for e, c in self._num.items():
            k = (e >> s) & _FIELD_MASK
            by_k.setdefault(k, {})[e - (k << s)] = c
        top = max(by_k, default=0)
        if top == 0:
            return self
        den = self._den
        if repl.is_constant():
            # sum_k c_k (r/q)^k = sum_k c_k r^k q^(top-k) / q^top, on ints
            x = repl.constant_value()
            r, q = x.numerator, x.denominator
            out: dict[int, int] = {}
            get = out.get
            for k, rest in by_k.items():
                w = r ** k * q ** (top - k)
                for e, c in rest.items():
                    out[e] = get(e, 0) + c * w
            return _reduced(_nonzero(out), den * q ** top)
        result = _reduced(by_k[top], den)  # Horner in repl
        for k in range(top - 1, -1, -1):
            result = result * repl
            if k in by_k:
                result = result + _reduced(by_k[k], den)
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
        d = self.degree(var)
        if d < 0:
            return [MultiPoly()]
        s = _SHIFTS[_check_var(var)]
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for e, c in self._num.items():
            k = (e >> s) & _FIELD_MASK
            buckets[k][e - (k << s)] = c
        return [_reduced(b, self._den) for b in buckets]

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
        s = _SHIFTS[_check_var(var)]
        out = {}
        for e, c in self._num.items():
            k = (e >> s) & _FIELD_MASK
            if k:
                out[e - (1 << s)] = c * k
        return _reduced(out, self._den)

    def to_univariate(self, var: str) -> list[Fraction]:
        """Ascending coefficient list; requires no other variable present."""
        den = self._den
        return [Fraction(c, den) for c in self._univariate(var)]

    def to_univariate_float(self, var: str) -> list[float]:
        """`to_univariate` as floats: int numerator / denominator, which is
        the correctly rounded value of each exact coefficient."""
        den = self._den
        return [c / den for c in self._univariate(var)]

    def _univariate(self, var: str) -> list[int]:
        """The numerators of var^0, var^1, ..., 0 where absent; raises
        ValueError when another variable is present."""
        s = _SHIFTS[_check_var(var)]
        num = self._num
        if reduce(or_, num, 0) & ~(_FIELD_MASK << s):
            raise ValueError(f"polynomial is not univariate in {var}: "
                             f"uses {self.variables_used()}")
        coeffs = [0] * ((max(num, default=0) >> s) + 1)
        for e, c in num.items():
            coeffs[e >> s] = c
        return coeffs

    # ---- textual form ----

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"


_new = object.__new__
_set_num = MultiPoly._num.__set__
_set_den = MultiPoly._den.__set__


def _make(num: dict, den: int) -> MultiPoly:
    """The polynomial of a canonical (numerators, denominator), unchecked."""
    p = _new(MultiPoly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _reduced(num: dict, den: int) -> MultiPoly:
    """The polynomial num/den for nonzero int numerators and den > 0,
    with their common factor divided out."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _make(num, den)


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
    terms = p.terms()
    if not terms:
        return "0"
    parts = []
    for exp, c in sorted(terms, key=lambda term: _term_key(term[0])):
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


_TOKEN = re.compile(r"\s*(?:([-+*^()/]|\d+|[^\W\d]\w*|@\w*)|(\S))")


class _Tokens:
    def __init__(self, text: str, names: Mapping[str, MultiPoly] | None):
        self.names = names
        found = _TOKEN.findall(text)
        bad = [ch for _, ch in found if ch]
        if bad:
            raise PolyParseError(f"unexpected character {bad[0]!r} in polynomial")
        self.toks = [tok for tok, _ in found] + [None]  # None ends the text
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos]

    def next(self) -> str:
        tok = self.toks[self.pos]
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
    acc = _parse_product(toks)
    if sign < 0:
        acc = -acc
    while toks.peek() in ("+", "-"):
        sign = 1
        while toks.peek() in ("+", "-"):
            if toks.next() == "-":
                sign = -sign
        term = _parse_product(toks)
        acc = acc + term if sign > 0 else acc - term
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
