"""Exact Laurent polynomial arithmetic over the integers and rationals.

Polynomials are built from {exponent: coefficient} maps, or decoded from one
Kronecker-packed integer (from_digits), and kept as maps with no zero
coefficients, so map equality is polynomial equality.  Coefficients are
kept as given: integer input stays `int` through every ring operation
and through `evaluate` at t = +-1, and `Fraction` enters only with a real
denominator (a parsed `a/b`, twoloop's halves and thirds).
Everything is immutable and pure; no floating point enters anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class LaurentPoly:
    """A Laurent polynomial in one variable with int or Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Scalar] | None = None):
        """Terms as an {exponent: coefficient} map with `int` exponents;
        zero coefficients are dropped, and no map is the zero polynomial."""
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_digits(cls, value: int, bits: int, lo: int,
                    step: int = 1) -> "LaurentPoly":
        """sum_k c_k t^(lo + step*k), the c_k being value's balanced
        base-2^bits digits, value = sum_k c_k 2^(bits*k) with every c_k in
        [-2^(bits-1), 2^(bits-1)).  The one decoder of a Kronecker-packed
        polynomial: it is exact when the caller has proved that its
        coefficients lie in that range.  Value 0 is the zero polynomial."""
        d: dict[int, int] = {}
        x = 1 << bits
        mask, half = x - 1, x >> 1
        while value:
            c = value & mask
            if c >= half:
                c -= x
            if c:
                d[lo] = c
            value = (value - c) >> bits
            lo += step
        out = cls.__new__(cls)
        out._terms = d
        return out

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[int, Scalar]:
        """The {exponent: coefficient} map as a read-only view: no copy,
        and nothing can write a zero coefficient through it."""
        return MappingProxyType(self._terms)

    def max_exp(self) -> int:
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        other = _coerce(other)
        d = dict(self._terms)
        for e, c in other._terms.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = d
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        return self + (-_coerce(other))

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            out = LaurentPoly.__new__(LaurentPoly)
            out._terms = {e: other * c for e, c in self._terms.items() if other}
            return out
        d: dict[int, Scalar] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                elif e in d:
                    del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not supported")
        r = LaurentPoly.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    # -- calculus and evaluation ------------------------------------------

    def evaluate(self, x: int) -> Scalar:
        """Exact value at t = +-1, a signed sum of the coefficients (an int
        for int ones); every invariant the program reads is taken there."""
        if x == 1:
            return sum(self._terms.values())
        if x == -1:
            return sum(-c if e % 2 else c for e, c in self._terms.items())
        raise ValueError(f"evaluate takes t = 1 or t = -1, not {x!r}")

    def derivative(self) -> "LaurentPoly":
        """The formal derivative."""
        return LaurentPoly({e - 1: e * c for e, c in self._terms.items() if e})

    # -- text form ---------------------------------------------------------

    def render(self) -> str:
        """Terms sorted by descending exponent, exact fractions as num/den."""
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = f"{mag}*t"
            else:
                body = f"{mag}*t^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)(?:\*(?P<var1>t)(?:\^(?P<exp1>-?\d+))?)?"
    r"|(?P<var2>t)(?:\^(?P<exp2>-?\d+))?)$"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the render() grammar (also accepts bare `t` and `c*t`).

    Integer coefficients stay `int`; only an `a/b` one is a Fraction, and
    b = 0 raises ValueError naming the term.
    """
    s = text.strip()
    if not s or s == "0":
        return LaurentPoly()
    # split into signed terms at top level; a '-' after '^' is an exponent sign
    s = re.sub(r"(?<!\^)-", "+-", s)
    terms: dict[int, Scalar] = {}
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        neg = raw.startswith("-")
        if neg:
            raw = raw[1:].strip()
        m = _TERM_RE.match(raw)
        if not m:
            raise ValueError(f"bad Laurent term: {raw!r}")
        if m.group("var2") is not None:
            v, exp, coeff = m.group("var2"), m.group("exp2"), 1
        else:
            text = m.group("coeff")
            try:
                coeff = Fraction(text) if "/" in text else int(text)
            except ZeroDivisionError:
                raise ValueError(
                    f"zero denominator in Laurent term {raw!r}") from None
            v, exp = m.group("var1"), m.group("exp1")
        e = int(exp) if exp is not None else (1 if v is not None else 0)
        if neg:
            coeff = -coeff
        terms[e] = terms.get(e, 0) + coeff
    return LaurentPoly(terms)


def _coerce(x: "LaurentPoly | Scalar") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly({0: x})
