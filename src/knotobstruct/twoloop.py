"""Reduced 2-loop polynomial of genus-one knots (Ohtsuki's formula).

The formula consumes the spine's linking data (n, m, ell) together with
four opaque integer finite-type invariants of the unframed spine tangle;
those four integers are user-supplied, never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .diagram import index_fields
from .errors import PreconditionViolation
from .laurent import LaurentPoly
from .seifert import GenusOneSpine, alexander_genus_one, crossing_change


@dataclass(frozen=True)
class TangleInvariants:
    """Framing-independent integer invariants of the spine tangle, read
    through operator.index."""

    v2xx: int = 0
    v2yy: int = 0
    v2xy: int = 0
    v3: int = 0

    def __post_init__(self):
        index_fields(self, "tangle invariants")


def _g_poly(d: int) -> LaurentPoly:
    """-2 - ((2d+1)/3)(t + t^-1 - 2)."""
    c = Fraction(2 * d + 1, 3)
    return LaurentPoly({1: -c, 0: -2 + 2 * c, -1: -c})


def reduced_two_loop(s: GenusOneSpine, ti: TangleInvariants) -> LaurentPoly:
    """Reduced 2-loop polynomial of the genus-one knot with spine s.

    F * G(t) - 4 H * Delta(t), where
      F = (n+m)(d - nm/2) - ell(ell + 1/2)(ell + 1) + 12 v3,
      G(t) = -2 - ((2d+1)/3)(t + t^-1 - 2),
      H = m v2xx + n v2yy - (ell + 1/2) v2xy + 3 v3,
      Delta(t) = d t + (1 - 2d) + d t^-1.
    Symmetric under t <-> t^-1 for every input.
    """
    if s.eps == -1:
        # transposing the Seifert matrix gives the eps = +1 spine with
        # ell - 1 and the same knot, where the formula above applies
        s = GenusOneSpine(s.n, s.m, s.ell - 1, 1)
    n, m, ell, d = s.n, s.m, s.ell, s.d
    F = (
        (n + m) * (d - Fraction(n * m, 2))
        - ell * (ell + Fraction(1, 2)) * (ell + 1)
        + 12 * ti.v3
    )
    H = (
        m * ti.v2xx
        + n * ti.v2yy
        - (ell + Fraction(1, 2)) * ti.v2xy
        + 3 * ti.v3
    )
    return _g_poly(d) * F - alexander_genus_one(s) * (4 * H)


def framing_difference(
    s: GenusOneSpine, ti: TangleInvariants, sign: int
) -> LaurentPoly:
    """Theta(K) - Theta(K') across a framing change n -> n + sign, m = 0.

    Equals -sign * (d G(t) - 4 v2yy Delta(t)) in closed form; computed
    here as the literal difference of two reduced 2-loop polynomials.
    """
    if s.m != 0:
        raise PreconditionViolation("framing_difference requires m = 0")
    return reduced_two_loop(s, ti) - reduced_two_loop(crossing_change(s, sign), ti)


def _constraint_residuals(d, v) -> tuple[Fraction, Fraction]:
    """Left-hand sides, at (d, v2yy) = (d, v), of the two coefficient
    equations of the framing-difference polynomial,
      d(-(2d+1)/3 - 4 v2yy) = 0   and   d(4d-4)/3 + 4 v2yy (2d-1) = 0."""
    return (d * (-Fraction(2 * d + 1, 3) - 4 * v),
            Fraction(d * (4 * d - 4), 3) + 4 * v * (2 * d - 1))


def constraint_solutions(bound: int) -> set[tuple[int, int]]:
    """Integer pairs (d, v2yy) in [-bound, bound]^2 killing the
    framing-difference polynomial; over the integers the only solution
    is (0, 0)."""
    rng = range(-bound, bound + 1)
    return {(d, v) for d, v in product(rng, rng)
            if _constraint_residuals(d, v) == (0, 0)}


def constraint_solutions_rational() -> list[tuple[Fraction, Fraction]]:
    """Diagnostic: all rational solutions of the constraint system.

    Branch d = 0 forces v2yy = 0; otherwise the first equation gives
    4 v2yy = -(2d+1)/3, and substituting into the second leaves
    (1 - 4d)/3 = 0, i.e. the non-integral root d = 1/4, v2yy = -1/8.
    Each candidate is returned only if both residuals vanish there.
    """
    d = Fraction(1, 4)
    candidates = [(Fraction(0), Fraction(0)), (d, -(2 * d + 1) / 12)]
    return [c for c in candidates if _constraint_residuals(*c) == (0, 0)]


def theta_difference_identity(s: GenusOneSpine, ti: TangleInvariants) -> Fraction:
    """Theta(-1) - Theta(1) for spines with m = 0 and d = 0.

    Always equals 16 v3 exactly (the v2xy contributions cancel).
    """
    if s.m != 0:
        raise PreconditionViolation("requires m = 0")
    if s.d != 0:
        raise PreconditionViolation("requires d = 0 (ell in {0, -eps})")
    th = reduced_two_loop(s, ti)
    return th.evaluate(-1) - th.evaluate(1)
