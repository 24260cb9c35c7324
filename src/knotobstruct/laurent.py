"""Exact Laurent polynomial arithmetic over the integers and rationals.

Polynomials are stored as {exponent: coefficient} maps with no zero
coefficients, so map equality is polynomial equality.  Coefficients are
kept as given: integer input stays `int` through every ring operation
and through `evaluate` at t = +-1, and `Fraction` enters only with a real
denominator (a parsed `a/b`, a rational scale factor, another point).
Everything is immutable and pure; no floating point enters anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import NonNormalizable

Scalar = Union[int, Fraction]


class LaurentPoly:
    """A Laurent polynomial in one variable with int or Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[int, Scalar] = {}
        for e, c in items:
            if c:
                e = int(e)
                s = d.get(e, 0) + c
                if s:
                    d[e] = s
                else:
                    del d[e]
        self._terms = d

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: Scalar, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def var(cls) -> "LaurentPoly":
        """The generator t."""
        return cls({1: 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[int, Scalar]:
        return dict(self._terms)

    def coeff(self, exp: int) -> Scalar:
        return self._terms.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def min_exp(self) -> int:
        return min(self._terms)

    def max_exp(self) -> int:
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.monomial(other)
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

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return _coerce(other) - self

    def __mul__(self, other: "LaurentPoly | Scalar") -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
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

    def scale(self, c: Scalar) -> "LaurentPoly":
        if not c:
            return LaurentPoly()
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: c * v for e, v in self._terms.items()}
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e + k: c for e, c in self._terms.items()}
        return out

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers only via shift of monomials")
        r = LaurentPoly.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    # -- calculus and evaluation ------------------------------------------

    def evaluate(self, x: Scalar) -> Scalar:
        """Exact value sum(c_e * x^e), x nonzero; at x = +-1 a plain sum of
        the coefficients (an int for int ones), elsewhere a Fraction."""
        if x == 1:
            return sum(self._terms.values())
        if x == -1:
            return sum(-c if e % 2 else c for e, c in self._terms.items())
        x = Fraction(x)
        if not x:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        return sum((c * x ** e for e, c in self._terms.items()), Fraction(0))

    def derivative(self, order: int = 1) -> "LaurentPoly":
        """Formal derivative applied `order` times."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        p = self
        for _ in range(order):
            p = LaurentPoly({e - 1: e * c for e, c in p._terms.items() if e})
        return p

    def substitute_power(self, k: int) -> "LaurentPoly":
        """The image under t -> t^k (k nonzero; k = -1 inverts the variable)."""
        if k == 0:
            raise ValueError("k must be nonzero")
        return LaurentPoly({e * k: c for e, c in self._terms.items()})

    def is_symmetric(self) -> bool:
        """True iff coeff(e) == coeff(-e) for every exponent."""
        return all(self.coeff(-e) == c for e, c in self._terms.items())

    def alexander_normalize(self) -> "LaurentPoly":
        """The unique associate +-t^k * p with value 1 at t=1 and symmetric coefficients.

        Raises NonNormalizable when no such associate exists (p(1) not a
        unit, or no shift centers the polynomial symmetrically).
        """
        if self.is_zero():
            raise NonNormalizable("zero polynomial")
        u = self.evaluate(1)
        if u not in (1, -1):
            raise NonNormalizable(f"value at t=1 is {u}, not a unit")
        p = self if u == 1 else -self
        span = p.min_exp() + p.max_exp()
        if span % 2:
            raise NonNormalizable("no centering shift exists (odd exponent span)")
        p = p.shift(-span // 2)
        if not p.is_symmetric():
            raise NonNormalizable("no unit multiple is symmetric")
        return p

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

    Integer coefficients stay `int`; only an `a/b` one is a Fraction.
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
            coeff = Fraction(text) if "/" in text else int(text)
            v, exp = m.group("var1"), m.group("exp1")
        e = int(exp) if exp is not None else (1 if v is not None else 0)
        if neg:
            coeff = -coeff
        terms[e] = terms.get(e, 0) + coeff
    return LaurentPoly(terms)


def _coerce(x: "LaurentPoly | Scalar") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.monomial(x)
