"""Seifert-matrix calculus and the genus-one spine model.

A Seifert matrix V of a knot satisfies det(V - V^T) = 1; the Alexander
polynomial is det(V - t V^T) normalized symmetric with value 1 at t = 1.
The genus-one spine carries the framings (n, m), the linking number ell
of the two spine strands, and the explicit sign eps of the off-diagonal
ell +- 1 entry; d = n*m - ell^2 - ell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .diagram import PretzelParams
from .errors import DiagramTooLarge, SingularForm, ValidationError
from .laurent import LaurentPoly

#: Largest accepted Seifert matrix (genus 4): determinants are taken by
#: cofactor expansion, whose cost grows as size!
MAX_SEIFERT_SIZE = 8


class SeifertMatrix:
    """Square integer matrix with det(V - V^T) = 1, checked on construction."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValidationError("Seifert matrix must be square")
        if size > MAX_SEIFERT_SIZE:
            raise DiagramTooLarge(
                f"{size}x{size} Seifert matrix exceeds the "
                f"{MAX_SEIFERT_SIZE}x{MAX_SEIFERT_SIZE} cap"
            )
        self.rows = rows
        det = _det([[a - b for a, b in zip(row, col)]
                    for row, col in zip(rows, self.transpose())])
        if det != 1:
            raise ValidationError(
                f"det(V - V^T) = {det} != 1: not a Seifert matrix of a knot"
            )

    @property
    def size(self) -> int:
        return len(self.rows)

    def transpose(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows)) if self.rows else ()

    def __eq__(self, other):
        return isinstance(other, SeifertMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"SeifertMatrix({list(map(list, self.rows))})"


def _det(m):
    """Determinant by cofactor expansion along the first row.

    Entries are ints or LaurentPolys; zero entries are skipped, and the
    empty matrix has determinant 1.
    """
    if not m:
        return 1
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            term = a * _det([row[:j] + row[j + 1:] for row in m[1:]])
            total = total - term if j % 2 else total + term
    return total


@dataclass(frozen=True)
class GenusOneSpine:
    """Framing/linking data (n, m, ell) of a genus-one spine tangle."""

    n: int
    m: int
    ell: int
    eps: int = 1

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValidationError("eps must be +1 or -1")

    @property
    def d(self) -> int:
        """d = n*m - ell*(ell + eps), recomputed on every access.

        With the standard eps = +1 this is n*m - ell^2 - ell; the eps = -1
        spine is the transpose convention, where the same determinant
        calculation gives n*m - ell^2 + ell.
        """
        return self.n * self.m - self.ell * (self.ell + self.eps)


def seifert_from_spine(s: GenusOneSpine) -> SeifertMatrix:
    """The 2x2 Seifert matrix [[n, ell], [ell + eps, m]]."""
    return SeifertMatrix([[s.n, s.ell], [s.ell + s.eps, s.m]])


def crossing_change(s: GenusOneSpine, sign: int) -> GenusOneSpine:
    """Replace the framing n by n + sign (the cosmetic crossing move)."""
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    return replace(s, n=s.n + sign)


def alexander_from_seifert(V: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial det(V - t V^T)."""
    if V.size == 0:
        return LaurentPoly.one()
    return _det([[LaurentPoly({0: a, 1: -b}) for a, b in zip(row, col)]
                 for row, col in zip(V.rows, V.transpose())]).alexander_normalize()


def alexander_genus_one(s: GenusOneSpine) -> LaurentPoly:
    """d t + (1 - 2d) + d t^-1 with d = s.d."""
    d = s.d
    return LaurentPoly({1: d, 0: 1 - 2 * d, -1: d})


def signature(V: SeifertMatrix) -> int:
    """Signature of V + V^T by exact symmetric congruence diagonalization.

    Rational pivots throughout; a zero diagonal pivot with a nonzero
    off-diagonal partner is cured by adding the partner row and column,
    which keeps the congruence class and never leaves the rationals.
    """
    n = V.size
    vt = V.transpose()
    m = [
        [Fraction(V.rows[i][j] + vt[i][j]) for j in range(n)]
        for i in range(n)
    ]
    pos = neg = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    raise SingularForm("V + V^T is singular")
                for k in range(n):
                    m[i][k] += m[j][k]
                for k in range(n):
                    m[k][i] += m[k][j]
        piv = m[i][i]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            f = m[j][i] / piv
            if f:
                for k in range(i, n):
                    m[j][k] -= f * m[i][k]
                for k in range(i, n):
                    m[k][j] -= f * m[k][i]
    return pos - neg


def knot_determinant(V: SeifertMatrix) -> int:
    """|Delta(-1)|, the order of H_1 of the double branched cover."""
    val = abs(alexander_from_seifert(V).evaluate(-1))
    assert val.denominator == 1
    return int(val)


def pretzel_seifert(params: PretzelParams) -> SeifertMatrix:
    """Genus-one Seifert matrix of P(p,q,r) for odd p, q, r.

    The convention [[(p+q)/2, (q+1)/2], [(q-1)/2, (q+r)/2]] is pinned by
    matching the Alexander polynomial d t + (1-2d) + d t^-1 with
    d = (pq + qr + rp + 1)/4.
    """
    p, q, r = params.as_tuple()
    return SeifertMatrix(
        [[(p + q) // 2, (q + 1) // 2], [(q - 1) // 2, (q + r) // 2]]
    )


def pretzel_alexander_coeff(params: PretzelParams) -> int:
    """The leading coefficient d = (pq+qr+rp+1)/4 of Delta(P(p,q,r))."""
    p, q, r = params.as_tuple()
    num = p * q + q * r + r * p + 1
    assert num % 4 == 0
    return num // 4


def m_forcing_check(bound: int) -> bool:
    """Exhaustively verify that Alexander invariance under a crossing
    change forces m = 0 on spines with n, m, ell in [-bound, bound].

    A crossing change moves n by +-1, so for each (m, ell, eps) the
    Alexander polynomial is computed once for every n in
    [-bound-1, bound+1] and compared with its neighbour at n + 1: these
    are exactly the pairs that both crossing-change directions reach
    from the cube, for both eps signs.
    """
    rng = range(-bound, bound + 1)
    for m, ell, eps in product(rng, rng, (1, -1)):
        prev = None
        for n in range(-bound - 1, bound + 2):
            alex = alexander_from_seifert(
                seifert_from_spine(GenusOneSpine(n, m, ell, eps)))
            if prev is not None and (alex == prev) != (m == 0):
                return False
            prev = alex
    return True
