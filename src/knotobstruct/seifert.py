"""Seifert-matrix calculus and the genus-one spine model.

A Seifert matrix V of a knot satisfies det(V - V^T) = 1; the Alexander
polynomial is t^(-g) det(V - t V^T) for a 2g x 2g matrix, symmetric with
value 1 at t = 1.
The genus-one spine carries the framings (n, m), the linking number ell
of the two spine strands, and the explicit sign eps of the off-diagonal
ell +- 1 entry; d = n*m - ell^2 - ell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from operator import index

from .diagram import PretzelParams, index_fields
from .errors import DiagramTooLarge, ValidationError, digit_estimate, print_limit
from .laurent import LaurentPoly

#: Largest accepted Seifert matrix (genus 8).  Its one determinant is an
#: integer Bareiss elimination: with entries in +-1000 it took 11-12 ms at
#: 16x16 and 0.16-0.19 s at 24x24 (2-core x86-64 VM, Python 3.11).
MAX_SEIFERT_SIZE = 16

#: Largest size^3 * x.bit_length() SeifertMatrix accepts, x = 2^b its
#: Kronecker point; the determinant's cost grows with both.  At 5e6 units
#: dense matrices took 0.18-0.19 s at 16x16 and at most 0.65 s (3x3 and
#: 4x4) over sizes 2-16; a 16x16 with 50-digit entries (11e6 units) took
#: 0.78-0.91 s (2-core x86-64 VM, Python 3.11).
SEIFERT_WORK_CAP = 5_000_000


class SeifertMatrix:
    """Square integer matrix with det(V - V^T) = 1, checked on construction.

    Entries are read with operator.index, so a float or a numeric string
    raises ValidationError rather than being truncated or parsed.  The
    checks run in one order: integer entries, a square shape, the size
    cap, the work cap, then det(V - V^T) = 1.

    One determinant serves both: det(V - t V^T) is det(V - V^T) at t = 1,
    and, transposed, equals t^size det(V - t^-1 V^T), so its t^(-size/2)
    shift is the Alexander polynomial, symmetric with value 1 at t = 1.
    An odd-size V has det(V - V^T) = 0 and fails that check.

    The polynomial P(t) = det(V - t V^T) is read off one integer, P(x) at
    x = 2^b (Kronecker substitution).  On |t| = 1 each entry has modulus
    at most |v_ij| + |v_ji|, so by Hadamard's inequality the product of
    the rows' sums of these bounds every coefficient of P, and x is over
    four times that bound, so LaurentPoly.from_digits reads P off P(x)
    exactly.  A matrix whose size^3 * x.bit_length() is over
    SEIFERT_WORK_CAP raises DiagramTooLarge before the determinant.
    """

    __slots__ = ("rows", "_alexander")

    def __init__(self, rows):
        try:
            rows = tuple([tuple(map(index, row)) for row in rows])
        except TypeError as exc:
            raise ValidationError(
                f"Seifert matrix entries must be integers: {exc}") from None
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise ValidationError("Seifert matrix must be square")
        if size > MAX_SEIFERT_SIZE:
            raise DiagramTooLarge(
                f"{size}x{size} Seifert matrix exceeds the "
                f"{MAX_SEIFERT_SIZE}x{MAX_SEIFERT_SIZE} cap"
            )
        self.rows = rows
        cols = tuple(zip(*rows))
        bound = 1
        for row, col in zip(rows, cols):
            bound *= sum(map(abs, row + col)) or 1
        b = bound.bit_length() + 2
        work = size ** 3 * (b + 1)  # x = 2^b has b + 1 bits
        if work > SEIFERT_WORK_CAP:
            raise DiagramTooLarge(
                f"{size}x{size} Seifert matrix work estimate {work} exceeds "
                f"the cap {SEIFERT_WORK_CAP}"
            )
        alexander = LaurentPoly.from_digits(
            _det([[a - (c << b) for a, c in zip(row, col)]
                  for row, col in zip(rows, cols)]), b, -(size // 2))
        at_one = alexander.evaluate(1)
        if at_one != 1:
            n, limit = digit_estimate(at_one), print_limit()
            shown = f"an integer of about {n} digits" if limit and n > limit else at_one
            raise ValidationError(
                f"det(V - V^T) = {shown} != 1: not a Seifert matrix of a knot"
            )
        self._alexander = alexander

    @property
    def size(self) -> int:
        return len(self.rows)

    def transpose(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.rows))

    def __eq__(self, other):
        return isinstance(other, SeifertMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"SeifertMatrix({list(map(list, self.rows))})"


def _det(m):
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination (Bareiss 1968).

    Step k replaces each trailing entry by (pivot * m[i][j] - m[i][k] *
    m[k][j]) // previous pivot, a division that is exact, so every entry
    stays a minor of m and the last one is det(m).  A zero pivot swaps in
    a lower row, flipping the sign; the empty matrix has determinant 1.
    The elimination works in place: m must be a list of lists the caller
    no longer needs, as SeifertMatrix's fresh Kronecker matrix is.
    """
    n = len(m)
    if not n:
        return 1
    sign = prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        rk = m[k]
        piv = rk[k]
        for ri in m[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (piv * ri[j] - f * rk[j]) // prev
        prev = piv
    return sign * m[-1][-1]


@dataclass(frozen=True)
class GenusOneSpine:
    """Framing/linking data (n, m, ell) of a genus-one spine tangle, all
    integers."""

    n: int
    m: int
    ell: int
    eps: int = 1

    def __post_init__(self):
        # all plain ints, the common case, skip the call: m_forcing_check
        # builds 1782 spines per bound-4 sweep
        if not (type(self.n) is type(self.m) is type(self.ell)
                is type(self.eps) is int):
            index_fields(self, "spine fields")
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
    """Normalized Alexander polynomial t^(-g) det(V - t V^T), kept by V."""
    return V._alexander


def alexander_genus_one(s: GenusOneSpine) -> LaurentPoly:
    """d t + (1 - 2d) + d t^-1 with d = s.d."""
    d = s.d
    return LaurentPoly({1: d, 0: 1 - 2 * d, -1: d})


def signature(V: SeifertMatrix) -> int:
    """Signature of V + V^T by symmetric fraction-free elimination.

    The trailing block is cleared as in `_det`, by (p * m[j][k] - m[j][i] *
    m[i][k]) // previous pivot.  After step i it is d_i times the Schur
    complement of the leading (i+1) x (i+1) block, whose determinant is
    the pivot d_i: a congruence, so the inertia is kept (Sylvester's law),
    and the true pivot d_i / d_(i-1) is positive when d_i has the sign of
    d_(i-1).  det(V + V^T) is odd, as det(V - V^T) = 1 is, so V + V^T and
    every block left by the clearing are nonsingular: a zero pivot m[i][i]
    has a first m[i][j] != 0, and adding s * (row j) and s * (column j)
    on the trailing block makes the pivot 2 s m[i][j] + m[j][j], nonzero
    for s = 1 or for s = -1.
    """
    n = V.size
    m = [[a + b for a, b in zip(row, col)]
         for row, col in zip(V.rows, V.transpose())]
    sig, prev = 0, 1
    for i in range(n):
        if m[i][i] == 0:
            j = next(k for k in range(i + 1, n) if m[i][k])
            s = 1 if 2 * m[i][j] + m[j][j] else -1
            for k in range(i, n):
                m[i][k] += s * m[j][k]
            for k in range(i, n):
                m[k][i] += s * m[k][j]
        ri = m[i]
        piv = ri[i]
        sig += 1 if (piv > 0) == (prev > 0) else -1
        for rj in m[i + 1:]:
            f = rj[i]
            for k in range(i + 1, n):
                rj[k] = (piv * rj[k] - f * ri[k]) // prev
        prev = piv
    return sig


def knot_determinant(V: SeifertMatrix) -> int:
    """|Delta(-1)|, the order of H_1 of the double branched cover."""
    return abs(alexander_from_seifert(V).evaluate(-1))


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
    """The leading coefficient d = (pq+qr+rp+1)/4 of Delta(P(p,q,r)); the
    division is exact, since p, q, r = +-1 (mod 4) give pq+qr+rp+1 = 0."""
    p, q, r = params.as_tuple()
    return (p * q + q * r + r * p + 1) // 4


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
