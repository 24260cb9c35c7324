"""Kauffman bracket and Jones polynomial.

Three engines, all in the bracket variable A:
- contraction (bracket_contract), the PD-code engine: crossings are added
  one at a time and the state is a polynomial per matching of the open
  boundary, so the cost follows the boundary's width, capped at
  CONTRACT_WIDTH_CAP edges, not 2^n;
- a brute-force state sum over all 2^n smoothings (bracket_brute), the
  trusted oracle the tests and selftest check the others against, capped
  at BRUTE_CAP = 20 crossings;
- a twist-region route (bracket_twist) that handles pretzel knots of any
  size by closing up three twist tangles, each given in closed form.
The Jones polynomial comes from the writhe-corrected bracket under
t = A^-4.
"""

from __future__ import annotations

from collections import Counter

from .diagram import PDCode, PretzelParams, writhe
from .errors import DiagramTooLarge, NormalizationError
from .laurent import LaurentPoly

#: loop value delta = -A^2 - A^-2
DELTA = LaurentPoly({2: -1, -2: -1})

#: most crossings the brute-force state sum accepts (2^20 states)
BRUTE_CAP = 20

#: widest open boundary (edge labels) bracket_contract accepts; at 14 the
#: closed braid (s1...s6)^m took 0.13 s (m = 8, 48 crossings) to 0.99 s
#: (m = 22, 132 crossings), and width 16 took 0.94 s at 63 crossings
CONTRACT_WIDTH_CAP = 14


def bracket_brute(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket by summation over all 2^n smoothing states.

    The A-smoothing of a crossing (a,b,c,d) joins a-d and b-c, the
    B-smoothing joins a-b and c-d (the pairing that reproduces the
    trefoil oracle's bracket).  Swapping the two everywhere would give
    the mirror's bracket <D>(A^-1), which the trefoil oracle tells apart.
    """
    n = pd.n
    if n > BRUTE_CAP:
        raise DiagramTooLarge(
            f"{n} crossings exceeds the brute-force cap {BRUTE_CAP}; "
            "use the twist-region method for pretzel inputs"
        )
    if n == 0:
        return LaurentPoly.one()  # the crossingless unknot

    m = 2 * n
    a_pairs = []
    b_pairs = []
    for a, b, c, d in pd.crossings:
        a_pairs.append(((a - 1, d - 1), (b - 1, c - 1)))
        b_pairs.append(((a - 1, b - 1), (c - 1, d - 1)))

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
        result = result + term * DELTA ** (loops - 1)
    return result


def contraction_order(pd: PDCode) -> tuple[list[int], int]:
    """Greedy crossing order for bracket_contract and its widest boundary.

    The open boundary is the set of edge labels seen once so far; the next
    crossing is the first one sharing the most labels with it.
    """
    remaining = list(range(pd.n))
    boundary: set[int] = set()
    order = []
    width = 0
    while remaining:
        best = max(remaining,
                   key=lambda i: len(boundary.intersection(pd.crossings[i])))
        remaining.remove(best)
        order.append(best)
        for e in pd.crossings[best]:  # a kink's repeated label goes in and out
            if e in boundary:
                boundary.remove(e)
            else:
                boundary.add(e)
        width = max(width, len(boundary))
    return order, width


#: delta^k as (exponent, coefficient) pairs, for the 0, 1 or 2 loops that
#: adding one crossing can close
_DELTA_POWERS = tuple(tuple((DELTA ** k).terms.items()) for k in range(3))


def bracket_contract(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket by adding one crossing at a time (Bar-Natan's
    divide-and-conquer contraction, for the bracket).

    Crossings come in contraction_order.  The state maps each matching
    of the open boundary edges (which edge each open arc's other end is)
    to the partial state sum with those open arcs, as an {exp: coeff}
    dict; each loop a smoothing closes multiplies by delta.  Smoothings
    pair as in bracket_brute.  Every state sum term closes at least one
    loop at the last crossing, which is counted once less there: the one
    empty matching left then holds <D>.  Raises DiagramTooLarge before any
    state work when the order's boundary is wider than CONTRACT_WIDTH_CAP.
    """
    order, width = contraction_order(pd)
    if width > CONTRACT_WIDTH_CAP:
        raise DiagramTooLarge(
            f"contraction boundary of {width} edges exceeds the width cap "
            f"{CONTRACT_WIDTH_CAP}"
        )
    if not order:
        return LaurentPoly.one()  # the crossingless unknot

    # key: sorted (open edge, the other end of its arc) pairs
    states: dict[tuple[tuple[int, int], ...], dict[int, int]] = {(): {0: 1}}
    last = order[-1]
    for i in order:
        a, b, c, d = pd.crossings[i]
        smoothings = ((1, ((a, d), (b, c))), (-1, ((a, b), (c, d))))
        out: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        for key, poly in states.items():
            for shift, pairs in smoothings:
                partner = dict(key)
                loops = -1 if i == last else 0
                for x, y in pairs:
                    u = partner.pop(x, x)  # far end of the open arc at x
                    if u == y:  # x and y already ends of one arc, or x == y
                        partner.pop(y, None)
                        loops += 1
                    else:
                        v = partner.pop(y, y)
                        partner[u] = v
                        partner[v] = u
                target = out.setdefault(tuple(sorted(partner.items())), {})
                for de, dc in _DELTA_POWERS[loops]:
                    de += shift
                    for e, cf in poly.items():
                        e += de
                        target[e] = target.get(e, 0) + cf * dc
        states = out
    return LaurentPoly(states[()])


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
        result = result + coefs * DELTA ** (loops - 1)
    return result


def jones(diagram: PDCode | PretzelParams) -> LaurentPoly:
    """Jones polynomial V(t) = (-A^3)^(-w) <D> under t = A^-4.

    Pretzel parameters use the closed-form twist route and PD codes
    bracket_contract.  The writhe of P(p,q,r) is p + q + r: with all three
    entries odd, the two strands of every twist region run antiparallel,
    so each of its |v| crossings has the sign of v (P(1,1,1) is the
    writhe +3 trefoil).  No PD code is built for pretzels, which keeps
    this route independent of the pretzel_pd generator the PD engines
    are checked on.  Raises NormalizationError if the writhe-corrected
    bracket has an exponent not divisible by 4 (a convention tripwire).
    """
    if isinstance(diagram, PretzelParams):
        w = sum(diagram.as_tuple())
        br = bracket_twist(diagram)
    else:
        w = writhe(diagram)
        br = bracket_contract(diagram)
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
