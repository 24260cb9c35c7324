"""Kauffman bracket and Jones polynomial.

Two engines: a brute-force state sum over all 2^n smoothings (the trusted
oracle, capped at 20 crossings by default) and a twist-region route that
handles pretzel knots of any size by closing up three twist tangles, each
given in closed form.  Both work in the bracket variable A; the Jones
polynomial comes from the writhe-corrected bracket under t = A^-4.
"""

from __future__ import annotations

from collections import Counter

from .diagram import PDCode, PretzelParams, writhe
from .errors import DiagramTooLarge, NormalizationError
from .laurent import LaurentPoly

#: loop value delta = -A^2 - A^-2
DELTA = LaurentPoly({2: -1, -2: -1})

DEFAULT_BRUTE_CAP = 20


def bracket_brute(
    pd: PDCode, cap: int = DEFAULT_BRUTE_CAP, swap_smoothings: bool = False
) -> LaurentPoly:
    """Kauffman bracket by summation over all 2^n smoothing states.

    The A-smoothing of a crossing (a,b,c,d) joins a-d and b-c, the
    B-smoothing joins a-b and c-d (the pairing that reproduces the
    trefoil oracle's bracket).  `swap_smoothings` deliberately flips the
    pairing; it exists only so the selftest can demonstrate that the
    trefoil oracle catches a broken convention.
    """
    n = pd.n
    if n > cap:
        raise DiagramTooLarge(
            f"{n} crossings exceeds the brute-force cap {cap}; "
            "use the twist-region method for pretzel inputs"
        )
    if n == 0:
        return _delta_power(pd.free_loops - 1)

    m = 2 * n
    a_pairs = []
    b_pairs = []
    for a, b, c, d in pd.crossings:
        a_pairs.append(((a - 1, d - 1), (b - 1, c - 1)))
        b_pairs.append(((a - 1, b - 1), (c - 1, d - 1)))
    if swap_smoothings:
        a_pairs, b_pairs = b_pairs, a_pairs

    # tally states by (#B-smoothings, #loops); the polynomial assembly
    # afterwards touches only the few dozen distinct tallies
    tally: Counter[tuple[int, int]] = Counter()
    base = list(range(m))
    for state in range(1 << n):
        parent = base.copy()
        merges = 0
        bits = state
        for i in range(n):
            for u, v in b_pairs[i] if bits & 1 else a_pairs[i]:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    merges += 1
            bits >>= 1
        tally[(state.bit_count(), m - merges)] += 1

    result = LaurentPoly()
    for (nb, loops), cnt in sorted(tally.items()):
        term = LaurentPoly.monomial(cnt, n - 2 * nb)
        result = result + term * _delta_power(loops - 1 + pd.free_loops)
    return result


def _delta_power(k: int) -> LaurentPoly:
    if k < 0:
        raise ValueError("negative delta power (no loops at all?)")
    return DELTA ** k


class TangleBracket:
    """Bracket of a 2-strand tangle in the basis {0-tangle, infinity-tangle}.

    coef_zero multiplies the two-vertical-strands tangle, coef_infinity
    the cap-cup tangle; the 0-crossing vertical tangle is (1, 0).
    """

    __slots__ = ("coef_zero", "coef_infinity")

    def __init__(self, coef_zero: LaurentPoly, coef_infinity: LaurentPoly):
        self.coef_zero = coef_zero
        self.coef_infinity = coef_infinity

    def __eq__(self, other):
        return (
            isinstance(other, TangleBracket)
            and self.coef_zero == other.coef_zero
            and self.coef_infinity == other.coef_infinity
        )

    def __repr__(self):
        return f"TangleBracket({self.coef_zero!r}, {self.coef_infinity!r})"


def twist_tangle(n_halftwists: int) -> TangleBracket:
    """Bracket coordinates of the vertical 2-tangle with n half-twists.

    One positive half-twist maps (alpha, beta) to
    (A^-1 alpha, A alpha + (A^-1 + A delta) beta) by the skein relation;
    the assignment of A vs A^-1 is the one that closes up to the trefoil
    oracle's bracket for P(1,1,1).  Since A^-1 + A delta = -A^3, this
    step from (1, 0) is solved in closed form by
      alpha_n = A^-n,  beta_n = sum_{j<n} (-1)^j A^(4j+2-n),
    and a negative n is the same with A and A^-1 swapped and |n| twists.
    """
    n = abs(n_halftwists)
    s = 1 if n_halftwists >= 0 else -1  # s = -1 swaps A and A^-1
    return TangleBracket(
        LaurentPoly({-s * n: 1}),
        LaurentPoly({s * (4 * j + 2 - n): (-1) ** j for j in range(n)}),
    )


def bracket_twist(params: PretzelParams) -> LaurentPoly:
    """Kauffman bracket of P(p,q,r) from three twist-region tangles.

    The pretzel closure of three 2-tangles produces 3 loops when all
    three are smoothed vertically, 2 loops with exactly one horizontal
    smoothing or all three, and 1 loop with exactly two.
    """
    tangles = [twist_tangle(v) for v in params.as_tuple()]
    result = LaurentPoly()
    for mask in range(8):
        coefs = LaurentPoly.one()
        horiz = 0
        for i, t in enumerate(tangles):
            if mask >> i & 1:
                horiz += 1
                coefs = coefs * t.coef_infinity
            else:
                coefs = coefs * t.coef_zero
        loops = {0: 3, 1: 2, 2: 1, 3: 2}[horiz]
        result = result + coefs * _delta_power(loops - 1)
    return result


def jones(
    diagram: PDCode | PretzelParams, cap: int = DEFAULT_BRUTE_CAP
) -> LaurentPoly:
    """Jones polynomial V(t) = (-A^3)^(-w) <D> under t = A^-4.

    Pretzel parameters use the closed-form twist route; PD codes the brute
    state sum.  The writhe of P(p,q,r) is p + q + r: with all three
    entries odd, the two strands of every twist region run antiparallel,
    so each of its |v| crossings has the sign of v (P(1,1,1) is the
    writhe +3 trefoil).  No PD code is built for pretzels, which keeps
    this route independent of the pretzel_pd generator the brute route
    is checked on.  Raises NormalizationError if the writhe-corrected
    bracket has an exponent not divisible by 4 (a convention tripwire).
    """
    if isinstance(diagram, PretzelParams):
        w = sum(diagram.as_tuple())
        br = bracket_twist(diagram)
    else:
        w = writhe(diagram)
        br = bracket_brute(diagram, cap=cap)
    f = br.shift(-3 * w)
    if w % 2:
        f = -f
    out = {}
    for e, c in f.terms.items():
        if e % 4:
            raise NormalizationError(
                f"bracket exponent {e} not divisible by 4 after writhe correction"
            )
        out[-e // 4] = c
    return LaurentPoly(out)
