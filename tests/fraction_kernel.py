"""The exact polynomial kernel as it was before integer numerators: a
dict from exponent tuples to `Fraction` coefficients, with
`curlsharp.poly`'s variables and text format.  `test_poly.py` runs every
operation of `curlsharp.poly.MultiPoly` against it on generated inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from curlsharp.poly import VARS

_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_NVARS = len(VARS)
_ZERO_EXP = (0,) * _NVARS

Scalar = Union[int, Fraction]


def _check_var(name: str) -> int:
    return _VAR_INDEX[name]


def _coerce(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class FractionPoly:
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
        raise AttributeError("FractionPoly is immutable")

    # ---- constructors ----

    @classmethod
    def const(cls, c: Scalar) -> "FractionPoly":
        c = _coerce(c)
        return cls({} if c == 0 else {_ZERO_EXP: c})

    @classmethod
    def var(cls, name: str) -> "FractionPoly":
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

    def __add__(self, other) -> "FractionPoly":
        other = _as_ref(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "FractionPoly":
        return self + (-_as_ref(other))

    def __rsub__(self, other) -> "FractionPoly":
        return _as_ref(other) + (-self)

    def __mul__(self, other) -> "FractionPoly":
        other = _as_ref(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return FractionPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "FractionPoly":
        c = _coerce(c)
        return FractionPoly({e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "FractionPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = FractionPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionPoly.const(other)
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ---- substitution / evaluation ----

    def subs(self, var: str, value: "FractionPoly | Scalar") -> "FractionPoly":
        """Exact composition: replace `var` by a polynomial or rational."""
        i = _check_var(var)
        repl = _as_ref(value)
        # group terms by the exponent of `var`
        by_k: dict[int, dict[tuple, Fraction]] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1:]
            by_k.setdefault(k, {})[rest] = by_k.get(k, {}).get(rest, Fraction(0)) + c
        result = FractionPoly()
        power = FractionPoly.const(1)
        for k in range(0, (max(by_k) if by_k else 0) + 1):
            if k > 0:
                power = power * repl
            if k in by_k:
                result = result + FractionPoly(by_k[k]) * power
        return result

    def subs_many(self, values: Mapping[str, "FractionPoly | Scalar"]) -> "FractionPoly":
        out = self
        for name, value in values.items():
            out = out.subs(name, value)
        return out

    def eval(self, values: Mapping[str, Scalar]) -> Fraction:
        """Full exact evaluation; every used variable must get a value."""
        out = self.subs_many(values)
        return out.constant_value()

    # ---- structure ----

    def coeffs_in(self, var: str) -> list["FractionPoly"]:
        """Coefficients c_0..c_d with self = sum c_k * var^k, c_k free of var."""
        i = _check_var(var)
        d = self.degree(var)
        if d < 0:
            return [FractionPoly()]
        buckets: list[dict] = [dict() for _ in range(d + 1)]
        for exp, c in self.terms.items():
            k = exp[i]
            rest = exp[:i] + (0,) + exp[i + 1:]
            buckets[k][rest] = c
        return [FractionPoly(b) for b in buckets]

    def taylor(self, var: str, center: "FractionPoly | Scalar") -> list["FractionPoly"]:
        """Taylor coefficients at `center`: self = sum c_k * (var - center)^k.

        `center` must be free of `var`; each returned c_k is free of `var`.
        """
        center = _as_ref(center)
        if var in center.variables_used():
            raise ValueError("taylor center must be free of the expansion variable")
        shifted = self.subs(var, FractionPoly.var(var) + center)
        return shifted.coeffs_in(var)

    def diff(self, var: str) -> "FractionPoly":
        i = _check_var(var)
        out = {}
        for exp, c in self.terms.items():
            k = exp[i]
            if k:
                e = exp[:i] + (k - 1,) + exp[i + 1:]
                out[e] = out.get(e, Fraction(0)) + c * k
        return FractionPoly(out)

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
        return f"FractionPoly({format_poly(self)})"


def _as_ref(x) -> FractionPoly:
    if isinstance(x, FractionPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionPoly.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as FractionPoly")


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _term_key(exp: tuple) -> tuple:
    return (-sum(exp), tuple(-e for e in exp))


def format_poly(p: FractionPoly) -> str:
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
