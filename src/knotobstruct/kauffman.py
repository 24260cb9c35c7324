"""Kauffman bracket and Jones polynomial.

Three engines, all in the bracket variable A:
- contraction (bracket_contract), the PD-code engine: crossings are added
  one at a time and the state is a polynomial per matching of the open
  boundary, so the cost follows the boundary's width and the crossing
  count, not 2^n; capped at CONTRACT_WIDTH_CAP edges and at
  CONTRACT_WORK_CAP units of estimated work, both checked from the
  crossing order before any state work;
- a brute-force state sum over all 2^n smoothings (bracket_brute), the
  trusted oracle the tests and selftest check the others against, capped
  at BRUTE_CAP = 20 crossings;
- a twist-region route (bracket_twist) for pretzel knots that closes up
  three twist tangles, each given as (1 + A^4) times its coordinates in
  one closed form of two terms per coefficient; the closure adds its few
  dozen sparse terms into one {exponent: coefficient} map and divides
  out (1 + A^4)^3 by three running sums per exponent class mod 4, so the
  route takes O(|p| + |q| + |r|) steps, capped at PRETZEL_TOTAL_CAP.
The Jones polynomial comes from the writhe-corrected bracket under
t = A^-4.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import neg

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

#: largest contraction_order work estimate bracket_contract accepts; time
#: ran at 0.19-0.58 us per unit on closed braids and pretzel diagrams, so
#: (s1...s6)^22 (3.2e6 units, 0.8 s) passes and (s1...s6)^30 (6.3e6 units,
#: 1.2 s) does not
CONTRACT_WORK_CAP = 3_500_000

#: largest |p| + |q| + |r| bracket_twist accepts; at a total of 249,999 a
#: whole cosmetic_verdict took 0.24-0.32 s and obstruct --json 0.42-0.64 s
#: on a 2-core x86-64 VM (Python 3.11.7)
PRETZEL_TOTAL_CAP = 250_000


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
        term = LaurentPoly({n - 2 * nb: cnt})
        result = result + term * DELTA ** (loops - 1)
    return result


def _catalan(k: int) -> int:
    """The number of non-crossing matchings of 2k boundary points."""
    c = 1
    for j in range(k):
        c = c * 2 * (2 * j + 1) // (j + 2)
    return c


def contraction_order(pd: PDCode) -> tuple[list[int], int, int]:
    """Greedy crossing order for bracket_contract, its widest boundary and
    an estimate of its work.

    The open boundary is the set of edge labels seen once so far; the next
    crossing is the first one sharing the most labels with it.  Each label
    sits at two crossing slots, so a label entering the boundary adds one
    to the count of the other crossing holding it, and it leaves only at
    that crossing.  `frontier` keeps these counts for the unordered
    crossings that touch the boundary, at most one per boundary label, so
    a step costs O(width) and the order O(n * width).  After the i-th
    crossing a boundary of w edges has up to Catalan(w/2) matchings, each
    holding a polynomial of O(i) terms, so the work estimate is the sum of
    Catalan(w_i/2) * i over the order.

    It starts at crossing 0.  A validated PDCode is one knot, whose walk
    1, 2, ..., 2n meets every crossing, so until the last one an edge
    joins the ordered crossings to an unordered one, held in `frontier`.
    """
    at: dict[int, list[int]] = {}  # edge label -> crossings holding it
    for i, quad in enumerate(pd.crossings):
        for e in quad:
            at.setdefault(e, []).append(i)
    placed = [False] * pd.n
    frontier = {0: 0}  # unordered crossing -> labels on boundary
    boundary: set[int] = set()
    order = []
    width = work = 0
    for _ in range(pd.n):
        best = max(frontier, key=lambda i: (frontier[i], -i))
        del frontier[best]
        placed[best] = True
        order.append(best)
        for e in pd.crossings[best]:  # a kink's repeated label goes in and out
            if e in boundary:
                boundary.remove(e)
            else:
                boundary.add(e)
        for e in boundary.intersection(pd.crossings[best]):  # labels just in
            for j in at[e]:
                if not placed[j]:
                    frontier[j] = frontier.get(j, 0) + 1
        width = max(width, len(boundary))
        work += _catalan(len(boundary) // 2) * len(order)
    return order, width, work


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
    state work when the order's boundary is wider than CONTRACT_WIDTH_CAP
    or its work estimate is over CONTRACT_WORK_CAP.  The estimate is at
    least n(n+1)/2, which is checked first: it bounds the O(n * width)
    ordering before that runs.
    """
    floor = pd.n * (pd.n + 1) // 2
    if floor > CONTRACT_WORK_CAP:
        raise DiagramTooLarge(
            f"{pd.n} crossings give a contraction work estimate of at least "
            f"{floor}, over the cap {CONTRACT_WORK_CAP}"
        )
    order, width, work = contraction_order(pd)
    if width > CONTRACT_WIDTH_CAP:
        raise DiagramTooLarge(
            f"contraction boundary of {width} edges exceeds the width cap "
            f"{CONTRACT_WIDTH_CAP}"
        )
    if work > CONTRACT_WORK_CAP:
        raise DiagramTooLarge(
            f"contraction work estimate {work} exceeds the cap {CONTRACT_WORK_CAP}"
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


def twist_tangle(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(1 + A^4) times the bracket coordinates (alpha_n, beta_n) of the
    vertical 2-tangle with n half-twists, in the basis {0-tangle,
    infinity-tangle}.

    One positive half-twist maps (alpha, beta) to
    (A^-1 alpha, A alpha + (A^-1 + A delta) beta) by the skein relation;
    the assignment of A vs A^-1 is the one that closes up to the trefoil
    oracle's bracket for P(1,1,1).  Since A^-1 + A delta = -A^3, this
    linear step from (1 + A^4, 0) is solved for every signed n by
      (A^-n + A^(4-n),  A^(2-n) - (-1)^n A^(2+3n)),
    the geometric sum beta_n = sum_{j<n} (-1)^j A^(4j+2-n) cleared of its
    denominator 1 + A^4.  At n = 0 both beta terms are A^2 and cancel, so
    beta_0 is zero, not the one term a two-key map literal would keep.
    """
    return (LaurentPoly({-n: 1, 4 - n: 1}),
            LaurentPoly({2 - n: 1, 2 + 3 * n: 1 if n % 2 else -1} if n else {}))


def _divide_by_one_plus_a4_cubed(poly: LaurentPoly) -> LaurentPoly:
    """The exact quotient poly / (1 + A^4)^3 by running sums.

    Each class of exponents mod 4 is a polynomial in A^4 on its own, laid
    out as a dense list from the lowest exponent.  Per factor 1 + A^4 the
    quotient's coefficients are q_i = p_i - q_(i-1) from the bottom up; on
    the signed coefficients (-1)^i p_i this is the running sum, one
    itertools.accumulate, and the signs carry over to the next factor, so
    they are set once before the three sums and undone once after.  The
    top entry of each sum is the remainder.  O(span) steps; raises
    NormalizationError when a remainder is not zero.
    """
    terms = poly.terms
    if not terms:
        return poly
    lo = min(terms)
    n = (max(terms) - lo) // 4 + 1
    classes: dict[int, list[int]] = {}
    for e, c in terms.items():
        i, r = divmod(e - lo, 4)
        if r not in classes:
            classes[r] = [0] * n
        classes[r][i] = -c if i & 1 else c
    out: dict[int, int] = {}
    for r, q in classes.items():
        for _ in range(3):
            q = list(accumulate(q))
            if q.pop():
                raise NormalizationError("bracket sum not divisible by (1 + A^4)^3")
        q[1::2] = map(neg, q[1::2])
        out |= {e: c for e, c in zip(range(lo + r, lo + 4 * n, 4), q) if c}
    return LaurentPoly(out)


#: delta^(loops - 1) as (exponent, coefficient) pairs, for the pretzel
#: closure's 3, 2, 1 and 2 loops with 0, 1, 2 and 3 horizontal smoothings
_CLOSURE_DELTAS = tuple(_DELTA_POWERS[loops - 1] for loops in (3, 2, 1, 2))


def bracket_twist(params: PretzelParams) -> LaurentPoly:
    """Kauffman bracket of P(p,q,r) from three twist-region tangles.

    The pretzel closure of three 2-tangles produces 3 loops when all
    three are smoothed vertically, 2 loops with exactly one horizontal
    smoothing or all three, and 1 loop with exactly two.  The closure runs
    on twist_tangle's cleared coordinates, two terms each: the first
    tangle's are read as (exponent, coefficient) pairs, the last two
    tangles' are multiplied pairwise into four products of at most four
    terms, and the 8 smoothing masks add every term of coordinate x
    product x delta^(loops - 1) into one {exponent: coefficient} map.  Its
    sum is (1 + A^4)^3 <D>, divided out exactly in O(|p| + |q| + |r|).
    Raises DiagramTooLarge when |p| + |q| + |r| exceeds PRETZEL_TOTAL_CAP.
    """
    total = sum(map(abs, params.as_tuple()))
    if total > PRETZEL_TOTAL_CAP:
        raise DiagramTooLarge(
            f"|p| + |q| + |r| = {total} exceeds the pretzel cap {PRETZEL_TOTAL_CAP}"
        )
    first, second, third = (twist_tangle(v) for v in params.as_tuple())
    heads = [tuple(x.terms.items()) for x in first]
    # tails[b1][b2]: the last two tangles' coordinates for mask bits 1 and 2
    tails = [[tuple((y * z).terms.items()) for z in third] for y in second]
    acc: dict[int, int] = {}
    for mask in range(8):  # bit i set: tangle i smoothed horizontally
        deltas = _CLOSURE_DELTAS[mask.bit_count()]
        tail = tails[mask >> 1 & 1][mask >> 2]
        for e0, c0 in heads[mask & 1]:
            for e1, c1 in tail:
                e1 += e0
                c1 *= c0
                for ed, cd in deltas:
                    e = e1 + ed
                    acc[e] = acc.get(e, 0) + c1 * cd
    return _divide_by_one_plus_a4_cubed(LaurentPoly(acc))


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
    shift = 3 * w
    terms = br.terms
    bad = [e - shift for e in terms if (e - shift) % 4]
    if bad:
        raise NormalizationError(
            f"bracket exponent {bad[0]} not divisible by 4 after writhe correction"
        )
    sign = -1 if w % 2 else 1
    return LaurentPoly({(shift - e) // 4: sign * c for e, c in terms.items()})
