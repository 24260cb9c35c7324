"""Kauffman bracket and Jones polynomial.

Three engines, all in the bracket variable A:
- contraction (bracket_contract), the PD-code engine: twist regions
  (chains of crossings joined by bigons, a lone crossing being a region
  of one) are added one at a time, and the state maps each matching of
  the open boundary to its partial state sum, so the cost follows the
  boundary's width and the crossing count, not 2^n.  The regions come
  from the faces the PDCode keeps (its two-sided faces are the bigons),
  and one pass over its dart table (contraction_plan) gives their order
  and the slot each open edge holds while it is open; a
  matching is the tuple of partner slots, and a region adds its two
  pairings in TL_2, A^s 1 and A^s' W e with W packed in one integer,
  each by editing a copy of the matching in place.  Each sum is one
  integer, its coefficients packed as base-2^(n + 2) digits in steps of
  A^4, exact because the exponents on one matching share a class mod 4
  and, by Thistlethwaite's spanning-tree expansion, no coefficient of
  <D> exceeds 2^n.  Capped at CONTRACT_WIDTH_CAP edges and at
  CONTRACT_WORK_CAP units of estimated work, both checked from the plan
  before any state work;
- a brute-force state sum over all 2^n smoothings (bracket_brute), the
  trusted oracle the tests and selftest check the others against, capped
  at BRUTE_CAP = 20 crossings;
- a twist-region route (bracket_twist) for pretzel knots: a closed form
  in two monomials per twist region gives (1 + A^4)^3 <D> in at most 20
  terms, and three running sums divide (1 + A^4)^3 out, so the route
  takes O(|p| + |q| + |r|) steps, capped at PRETZEL_TOTAL_CAP.
The Jones polynomial comes from the writhe-corrected bracket under
t = A^-4, by one path for both inputs: jones picks bracket_twist and
p + q + r for pretzels, bracket_contract and the writhe for PD codes,
and corrects whichever bracket it gets the same way.  The four values
the obstruction reads, V''(1), V'''(1), V(-1) and V'(-1), come for
pretzels straight from the 20-term numerator (twist_jones_values), with
no division and no V: a fixed number of integer sums at any p, q, r.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
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
#: closed braid (s1...s6)^m took 0.02 s (m = 8, 48 crossings) to 0.11-0.13 s
#: (m = 22, 132 crossings), and T(8,9) at width 16 took 0.09-0.12 s at 63
#: crossings (2-core x86-64 VM, Python 3.11.7)
CONTRACT_WIDTH_CAP = 14

#: largest contraction_plan work estimate bracket_contract accepts; time
#: ran at 0.02-0.06 us per unit on closed braids and pretzel diagrams of up
#: to 255 crossings, so (s1...s6)^22 (3.2e6 units, 0.09 s) passes and
#: (s1...s6)^30 (6.3e6 units, 0.15 s) does not.  A coefficient takes n + 2
#: bits, so past a few hundred crossings a unit costs more: 0.07 us on
#: P(301,301,-301) (903 crossings, 0.8e6 units, 54-57 ms) and 0.08 us on
#: P(1,1,1861) and T(2,1869), whose 3.5e6 units took 0.27-0.30 s and
#: 0.28-0.29 s (2-core x86-64 VM, Python 3.11.7)
CONTRACT_WORK_CAP = 3_500_000

#: largest |p| + |q| + |r| the twist route accepts; at a total of 249,999
#: a whole cosmetic_verdict took 0.23-0.35 s and obstruct --json 0.32-0.50 s
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


@cache
def _catalan(k: int) -> int:
    """The number of non-crossing matchings of 2k boundary points."""
    c = 1
    for j in range(k):
        c = c * 2 * (2 * j + 1) // (j + 2)
    return c


def contraction_plan(pd: PDCode) -> tuple[list[int], int, int, list, int]:
    """Greedy order of twist regions for bracket_contract, its widest
    boundary, an estimate of its work, and the slot moves along the order
    with the number of slots they use: the bigons read off pd.faces, then
    one pass over the dart table pd.partner.

    A twist region is a maximal chain c_1, ..., c_k of crossings in which
    c_t and c_(t+1) bound a bigon, a face of length 2 in pd.faces (an
    orbit of d -> partner[d] - 1, the previous slot of the same crossing),
    and every bigon corner has the same slot parity p; a corner of slots
    (s, s+1) has parity s mod 2.  Two bigons on adjacent corners of a
    crossing would share the edge between them, so the same neighbour, and
    the strand straight through the crossing would close up through that
    neighbour into a loop of its own, which a knot diagram has not: a
    crossing's bigons sit on opposite corners, of one parity.  A bigon
    whose two corners differ in parity (an R2 finger) joins nothing, and a
    crossing in no chain is a region of its own.  The chain may close up
    (T(2,m)); it is then cut at the bigon between its last crossing and
    its first.  A region meets the rest of the diagram at four outer
    darts: c_1's corner away from c_2 and c_k's corner away from c_(k-1),
    the quad's slots (a, b) and (c, d) for a lone crossing.

    The open boundary is the set of edges seen at one end so far; the
    next region is the first one (by its lowest crossing) sharing the
    most edges with it.  An edge enters the boundary at an outer dart
    whose partner is not yet open, which adds one to the count of the
    partner's region, and it leaves only at that region.  The partner's
    region is unordered or the one being placed: an edge of an ordered
    region entered the boundary when that region was placed.  `frontier`
    keeps these counts for the unordered regions that touch the boundary,
    at most one per boundary edge, so a step costs O(width), and finding
    the regions O(n).  After a step of k crossings, with i placed in all,
    a boundary of w edges has up to Catalan(w/2) matchings, each holding a
    polynomial of O(i) terms that the step multiplies by one of k terms,
    so the work estimate is the sum of Catalan(w/2) * i * k over the
    order.  With no bigons every region is one crossing, and this is the
    crossing-by-crossing order and estimate.

    An edge takes a free slot when it enters the boundary and frees it
    when it leaves, so a slot names one edge for as long as the edge is
    open, and every state of a step reads the same slots.  An edge whose
    two ends are outer darts of one region (a kink's, or the cut bigon's)
    takes a slot that it frees at the same step.  Slots freed at a step
    are taken again only at later steps.  A step is ((shift, j, x1, y1,
    x2, y2) for the identity pairing of the outer darts, with j = 1, and
    the same for the cup-cap pairing, with j = +-k; the slots freed there).
    bracket_contract weighs a pairing by A^shift _twist_weight(j, B), see
    there.  The identity pairing follows the strands through the chain,
    and the cup-cap pairing joins the two outer darts at each end; at
    k = 1 they are bracket_brute's A- and B-smoothings.  `order` lists the
    crossings region by region, each in chain order.

    It starts at crossing 0.  A validated PDCode is one knot, whose walk
    1, 2, ..., 2n meets every crossing, so until the last region an edge
    joins the ordered regions to an unordered one, held in `frontier`.
    """
    partner = pd.partner
    n = pd.n
    # link[d] = e when the corner of slots (d, d + 1) bounds a bigon whose
    # corner at another crossing is (e, e + 1), of the same parity
    link = [-1] * len(partner)
    parity = [0] * n
    for face in pd.faces:
        if len(face) == 2:
            d, e = face
            if (d ^ e) > 3 and not (d ^ e) & 1:
                link[d], link[e] = e, d
                parity[d >> 2] = parity[e >> 2] = d & 1
    region_of = [-1] * n
    # per region: its chain, outer darts o1..o4, whether the identity pairs
    # o1 with o3, its two shifts and the cup-cap's signed k
    regions = []
    for i in range(n):
        if region_of[i] >= 0:
            continue
        c = 4 * i + parity[i]  # a corner of the region's parity
        while link[c] >= 0 and link[c] >> 2 != i:  # back to the chain's end
            c = link[c] ^ 2
        first = link[c] if link[c] >= 0 else c
        s = first >> 2
        chain = [s]
        c = first ^ 2
        while link[c] >= 0 and link[c] >> 2 != s:
            c = link[c]
            chain.append(c >> 2)
            c ^= 2
        for j in chain:
            region_of[j] = len(regions)
        k, p = len(chain), first & 1
        flip = 1 if p else 3  # a dart's mate in the through smoothing
        d = first ^ flip
        for _ in range(k - 1):  # follow the strand from first through the chain
            d = partner[d] ^ flip
        regions.append((chain, (first, first ^ (4 - flip), c, c ^ (4 - flip)), d == c,
                        (-k, 2 - k) if p else (k, 2 - 3 * k), k if p or k % 2 else -k))
    slot_at = [-1] * len(partner)  # dart where an edge entered -> its slot
    frontier = {0: 0}  # unordered region -> edges on boundary
    free: list[int] = []
    order, plan = [], []
    size = width = work = w = 0
    for _ in regions:
        most = max(frontier.values())
        best = min([r for r, c in frontier.items() if c == most])
        del frontier[best]
        chain, outer, straight, (id_shift, cc_shift), signed = regions[best]
        order += chain
        slots, freed = [], []
        for dart in outer:
            other = partner[dart]
            s = slot_at[other]
            if s < 0:  # the edge enters the boundary here
                if free:
                    s = free.pop()
                else:
                    s, size = size, size + 1
                slot_at[dart] = s
                w += 1
                j = region_of[other >> 2]
                if j != best:
                    frontier[j] = frontier.get(j, 0) + 1
            else:  # it leaves: its other end is open, or in this region
                freed.append(s)
                w -= 1
            slots.append(s)
        a, b, c, d = slots
        x, y = (c, d) if straight else (d, c)
        plan.append((((id_shift, 1, a, x, b, y), (cc_shift, signed, a, b, c, d)),
                     tuple(freed)))
        free += freed
        width = max(width, w)
        work += _catalan(w // 2) * len(order) * len(chain)
    return order, width, work, plan, size


def _twist_weight(k: int, bits: int) -> int:
    """W_k = sum_(j<k) (-X)^j at X = 2^bits, and -W_-k for k < 0: the
    packed weight of a twist region's cup-cap pairing (bracket_contract).
    Built by doubling, W_2m = W_m + (-X)^m W_m and W_(m+1) = W_m + (-X)^m,
    so in time linear in its size."""
    w = m = 0
    for bit in bin(abs(k))[2:]:
        w += -(w << m * bits) if m & 1 else w << m * bits
        m *= 2
        if bit == "1":
            w += 1 << m * bits
            m += 1
    return w if k > 0 else -w


def bracket_contract(pd: PDCode) -> LaurentPoly:
    """Kauffman bracket by adding one twist region at a time (Bar-Natan's
    divide-and-conquer contraction, for the bracket).

    contraction_plan reads the regions off pd.faces, and their order and
    each open edge's slot off the dart table pd.partner in one pass.  A
    matching of the open boundary is the tuple p with p[s] the slot at the
    other end of the open arc at slot s, and p[s] = s for a free slot.
    One pairing of a region's outer darts copies p, joins its two slot
    pairs (the far ends of the two arcs meet, or they were one arc and a
    loop closes), resets the slots freed there and makes a tuple again.
    Each loop multiplies by delta = -A^-2 (1 + A^4).  Every state sum term
    closes at least one loop at the last step, which is counted once less
    there: the matching with every slot free then holds <D>.  With no
    crossings there are no steps, and the empty matching holds 1, the
    round unknot's <D>.

    A region c_1, ..., c_k is a 2-tangle, so its smoothings sum to x 1 +
    y e in the Temperley-Lieb algebra TL_2 (Kauffman, Topology 26, 1987):
    1 is the identity pairing, e the cup-cap pairing, and e^2 = delta e.
    At each crossing the through smoothing, which opens both bigon
    corners, is 1 and the other smoothing e.  On bigons of odd corners
    (b-c and d-a) the through smoothing joins a-b and c-d, bracket_brute's
    B-smoothing, so a crossing is A^-1 + A e; on even corners (a-b and
    c-d) it is the A-smoothing, A + A^-1 e.  The factors commute, and
    the characters e -> 0 and e -> delta give prod (x + y e) = x^k +
    ((x + delta y)^k - x^k) / delta e.  With x + delta y = -A^3 (odd) or
    -A^-3 (even), W_k = sum_(j<k) (-A^4)^j = (1 - (-A^4)^k) / (1 + A^4)
    and (1 - (-A^4)^-k) / (1 + A^4) = -(-1)^k A^-4k W_k this is
      odd parity:  A^-k 1 + A^(2 - k) W_k e,
      even parity: A^k 1 + (-1)^(k + 1) A^(2 - 3k) W_k e,
    the plan's two shifts with the multiplier _twist_weight(+-k).  At
    k = 1, W_1 = 1, and even parity is the crossing step bracket_brute
    takes: a-d, b-c at A and a-b, c-d at A^-1.

    The state maps each matching to (lo, v): the partial state sum
    sum_k c_k A^(lo + 4k), packed as v = sum_k c_k X^k at X = 2^B,
    B = n + 2.  A pairing with shift s and multiplier W that closes L
    loops maps it to (lo + s - 2L, W v), (.., -(1 + X) W v) or
    (.., (1 + X)^2 W v), and two sums on one matching add once the lower
    lo is taken for both.  LaurentPoly.from_digits decodes the last v
    into <D>.  Two facts make this exact:

    - The exponents on one matching share one class mod 4.  A region
      step is the sum of the states of its k crossings with the inner
      loops closed, so it suffices to show this for states.  Close the
      partial diagram with one fixed smoothing of the crossings still to
      come.  A state with b B-smoothings and L loops so far then has L
      + L' loops in all, where L' depends only on the matching.  On
      closed curves in the plane, changing one smoothing merges two
      loops or splits one, so b + L + L' has one parity over all states
      and b + L one parity on the matching.  The exponent after i
      crossings is i - 2b - 2L, one class mod 4.  A mismatch raises
      NormalizationError, a tripwire like the one in jones.
    - The digits need no carry out.  Checkerboard-colour the connected
      n-crossing diagram; its Tait graph has a vertex per shaded region
      and an edge per crossing, so n edges.  Thistlethwaite's
      spanning-tree expansion (Topology 26, 1987) writes <D> as a sum
      over the spanning trees of that graph of one signed monomial +-A^e
      each, so |c_k| is at most the number of spanning trees, at most
      the 2^n subsets of the n edges: |c_k| <= 2^n < 2^(B - 1).  Partial
      sums need no bound: v is a polynomial in Z[X] evaluated at
      X = 2^B, which integer arithmetic keeps exactly.

    Raises DiagramTooLarge before any state work when the plan's
    boundary is wider than CONTRACT_WIDTH_CAP or its work estimate is
    over CONTRACT_WORK_CAP.  The estimate is at least n(n+1)/2, which is
    checked first: it bounds the O(n * width) planning before that runs.
    """
    n = pd.n
    floor = n * (n + 1) // 2
    if floor > CONTRACT_WORK_CAP:
        raise DiagramTooLarge(
            f"{n} crossings give a contraction work estimate of at least "
            f"{floor}, over the cap {CONTRACT_WORK_CAP}"
        )
    order, width, work, plan, size = contraction_plan(pd)
    if width > CONTRACT_WIDTH_CAP:
        raise DiagramTooLarge(
            f"contraction boundary of {width} edges exceeds the width cap "
            f"{CONTRACT_WIDTH_CAP}"
        )
    if work > CONTRACT_WORK_CAP:
        raise DiagramTooLarge(
            f"contraction work estimate {work} exceeds the cap {CONTRACT_WORK_CAP}"
        )
    bits = n + 2
    free = tuple(range(size))
    states = {free: (0, 1)}
    for step, (pairings, freed) in enumerate(plan, 1):
        start = -1 if step == len(plan) else 0  # the last loop counted once less
        pairings = [(shift, _twist_weight(k, bits), *slots)
                    for shift, k, *slots in pairings]
        out: dict[tuple[int, ...], tuple[int, int]] = {}
        for key, (lo, v) in states.items():
            for shift, mult, x1, y1, x2, y2 in pairings:
                p = list(key)
                loops = start
                u = p[x1]
                if u == y1:
                    loops += 1
                else:
                    w = p[y1]
                    p[u] = w
                    p[w] = u
                u = p[x2]
                if u == y2:
                    loops += 1
                else:
                    w = p[y2]
                    p[u] = w
                    p[w] = u
                for s in freed:
                    p[s] = s
                k = tuple(p)
                e = lo + shift - 2 * loops
                t = v if mult == 1 else v * mult
                if loops == 1:
                    t = -t - (t << bits)
                elif loops:
                    t = t + (t << bits + 1) + (t << 2 * bits)
                old = out.get(k)
                if old is None:
                    out[k] = (e, t)
                    continue
                lo2, v2 = old
                d = e - lo2
                if d & 3:
                    raise NormalizationError(
                        f"bracket exponents {e} and {lo2} on one matching "
                        "differ outside a class mod 4")
                if d > 0:
                    out[k] = (lo2, v2 + (t << (d >> 2) * bits))
                else:
                    out[k] = (e, t + (v2 << (-d >> 2) * bits))
        states = out
    e, v = states[free]
    return LaurentPoly.from_digits(v, bits, e, 4)


def twist_tangle(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The monomials u = A^-n and v = -(-1)^n A^3n of the vertical 2-tangle
    with n half-twists, as (exponent, coefficient) pairs ((-n, 1), (3n,
    -(-1)^n)): its bracket coordinates in the basis {0-tangle,
    infinity-tangle} are alpha_n = u and beta_n = A^2 (u + v) / (1 + A^4).

    By the skein relation one positive half-twist maps (alpha, beta) to
    (A^-1 alpha, A alpha + (A^-1 + A delta) beta) = (A^-1 alpha,
    A alpha - A^3 beta), with A and A^-1 assigned so that P(1,1,1) closes
    up to the trefoil oracle's bracket.  From (1, 0) this gives the two
    monomials for every signed n: beta_n is the geometric sum
    sum_{j<n} (-1)^j A^(4j+2-n), zero at n = 0, where v = -u.
    """
    return (-n, 1), (3 * n, 1 if n % 2 else -1)


def _divide_by_one_plus_a4_cubed(p: list[int]) -> list[int]:
    """The exact quotient q of p = (1 + x)^3 q, both dense coefficient
    lists from the constant term up (x = A^4 in bracket_twist).

    Per factor 1 + x, q_i = p_i - q_(i-1) from the bottom up: on the signed
    coefficients (-1)^i p_i a running sum (itertools.accumulate), whose
    top entry is the remainder.  The signs carry over from factor to
    factor, so they are set once before the three sums and undone once
    after.  O(len(p)) steps for p of length 3 or more, or with a nonzero
    last entry; raises NormalizationError when a remainder is not zero.
    """
    q = p.copy()
    q[1::2] = map(neg, q[1::2])
    for _ in range(3):
        q = list(accumulate(q))
        if q.pop():
            raise NormalizationError("bracket sum not divisible by (1 + A^4)^3")
    q[1::2] = map(neg, q[1::2])
    return q


#: the pretzel closure's weights, with F = 1 + A^4: W0 = A^-4 F^5 - 3 F^3
#: + 2 A^4 F and W3 = A^4 F as (exponent, coefficient) pairs, and
#: W1 = F (1 + A^4 + A^8), which multiplies a sum of three monomials
_W0 = ((-4, 1), (0, 2), (4, 3), (8, 3), (12, 2), (16, 1))
_W1 = LaurentPoly({0: 1, 4: 2, 8: 2, 12: 1})
_W3 = ((4, 1), (8, 1))


def _twist_numerator(params: PretzelParams) -> list[tuple[int, int]]:
    """(1 + A^4)^3 <P(p,q,r)> as at most 20 (exponent, coefficient) pairs,
    every exponent in the class -(p + q + r) mod 4; see bracket_twist."""
    pqr = params.as_tuple()
    total = sum(map(abs, pqr))
    if total > PRETZEL_TOTAL_CAP:
        raise DiagramTooLarge(
            f"|p| + |q| + |r| = {total} exceeds the pretzel cap {PRETZEL_TOTAL_CAP}"
        )
    # (e_i, a_i) and (f_i, b_i): the terms of tangle i's u and v
    ((e1, a1), (f1, b1)), ((e2, a2), (f2, b2)), ((e3, a3), (f3, b3)) = map(
        twist_tangle, pqr)
    mixed: dict[int, int] = {}  # two of these meet when two entries are equal
    for e, c in ((f1 + e2 + e3, b1 * a2 * a3), (e1 + f2 + e3, a1 * b2 * a3),
                 (e1 + e2 + f3, a1 * a2 * b3)):
        mixed[e] = mixed.get(e, 0) + c
    eu, cu, ev, cv = e1 + e2 + e3, a1 * a2 * a3, f1 + f2 + f3, b1 * b2 * b3
    numer = ([(e + eu, c * cu) for e, c in _W0]
             + [(e, -c) for e, c in (_W1 * LaurentPoly(mixed)).terms.items()]
             + [(e + ev, -c * cv) for e, c in _W3])
    s = sum(pqr)
    if any((e + s) % 4 for e, _ in numer):
        raise NormalizationError(f"closure exponent outside the class -{s} mod 4")
    return numer


def _exact_quotient(n: int, d: int) -> int:
    """n / d, raising NormalizationError unless d divides n."""
    q, rem = divmod(n, d)
    if rem:
        raise NormalizationError(f"{n} is not divisible by {d}")
    return q


def twist_jones_values(params: PretzelParams) -> tuple[int, int, int, int]:
    """(V''(1), V'''(1), V(-1), V'(-1)) of P(p,q,r) read off the twist
    route's numerator N = (1 + A^4)^3 <P>, with no V built: a fixed number
    of integer sums over its at most 20 terms, whatever p, q and r are.

    Under t = A^-4 the writhe-corrected numerator is R = (1 + t)^3 V, the
    terms (-1)^w c t^(3 + (3w - e)/4) of N's c A^e, w = p + q + r.  At
    t = -1, R = sum_k R^(k)(-1) (1 + t)^k / k!, so (1 + t)^3 divides R
    exactly when R, R' and R'' vanish there, and then V(-1) = R'''(-1)/6
    and V'(-1) = R''''(-1)/24.  At t = 1, V = R g with g = (1 + t)^-3,
    whose derivatives there are 2, -3, 6 and -15 over 16, so by Leibniz
    16 V''(1) = 6 R - 6 R' + 2 R'' and 16 V'''(1) = -15 R + 18 R' - 9 R''
    + 2 R''', all at 1.  Raises what _twist_numerator raises, and
    NormalizationError when (1 + t)^3 does not divide R or a division
    leaves a remainder.
    """
    w = sum(params.as_tuple())
    sign = -1 if w % 2 else 1
    # over R's terms c0 t^k, with c_j = c0 k(k-1)...(k-j+1): p_j sums c_j,
    # which is R^(j)(1), and n_j sums c_j (-1)^(k-j), which is R^(j)(-1)
    p0 = p1 = p2 = p3 = n0 = n1 = n2 = n3 = n4 = 0
    for e, c in _twist_numerator(params):
        k = 3 + (3 * w - e) // 4
        c0 = sign * c
        c1 = c0 * k
        c2 = c1 * (k - 1)
        c3 = c2 * (k - 2)
        c4 = c3 * (k - 3)
        p0, p1, p2, p3 = p0 + c0, p1 + c1, p2 + c2, p3 + c3
        if k % 2:
            n0, n1, n2, n3, n4 = n0 - c0, n1 + c1, n2 - c2, n3 + c3, n4 - c4
        else:
            n0, n1, n2, n3, n4 = n0 + c0, n1 - c1, n2 + c2, n3 - c3, n4 + c4
    if n0 or n1 or n2:
        raise NormalizationError("bracket sum not divisible by (1 + A^4)^3")
    return (_exact_quotient(6 * p0 - 6 * p1 + 2 * p2, 16),
            _exact_quotient(-15 * p0 + 18 * p1 - 9 * p2 + 2 * p3, 16),
            _exact_quotient(n3, 6), _exact_quotient(n4, 24))


def bracket_twist(params: PretzelParams) -> LaurentPoly:
    """Kauffman bracket of P(p,q,r) from three twist-region tangles.

    The closure of three 2-tangles has 3 loops when all three are smoothed
    vertically, 2 with exactly one or all three smoothed horizontally, and
    1 with exactly two.  On twist_tangle's coordinates (u, A^2 (u + v) / F),
    F = 1 + A^4, its 8 smoothings sum to
      F^3 <D> = W0 u1 u2 u3 - W1 (v1 u2 u3 + u1 v2 u3 + u1 u2 v3) - W3 v1 v2 v3
    (the weights _W0, _W1 and _W3; the terms with two v's cancel): at most
    20 terms, all in the exponent class -(p + q + r) mod 4.  Laid out as
    a dense list at A^lo, A^(lo + 4), ..., it loses F^3 to three running
    sums, O(|p| + |q| + |r|) steps.  Raises DiagramTooLarge when
    |p| + |q| + |r| exceeds PRETZEL_TOTAL_CAP, and NormalizationError when
    a term falls outside the class or the division leaves a remainder.
    """
    numer = _twist_numerator(params)
    lo = min(numer)[0]
    dense = [0] * ((max(numer)[0] - lo) // 4 + 1)
    for e, c in numer:
        dense[(e - lo) // 4] += c
    q = _divide_by_one_plus_a4_cubed(dense)
    return LaurentPoly(dict(zip(range(lo, lo + 4 * len(q), 4), q)))


def jones(diagram: PDCode | PretzelParams) -> LaurentPoly:
    """Jones polynomial V(t) = (-A^3)^(-w) <D> under t = A^-4.

    Pretzel parameters take the twist route (bracket_twist) with writhe
    p + q + r: with all three entries odd, the two strands of every twist
    region run antiparallel, so each of its |v| crossings has the sign of
    v (P(1,1,1) is the writhe +3 trefoil).  No PD code is built for
    pretzels, which keeps this route independent of the pretzel_pd
    generator the PD engines are checked on.  PD codes take
    bracket_contract and their writhe.  Both brackets go through the one
    writhe correction below, which raises NormalizationError if a
    corrected exponent is not divisible by 4 (a convention tripwire).
    """
    if isinstance(diagram, PretzelParams):
        w, bracket = sum(diagram.as_tuple()), bracket_twist(diagram)
    else:
        w, bracket = writhe(diagram), bracket_contract(diagram)
    shift = 3 * w
    terms = bracket.terms
    bad = [e - shift for e in terms if (e - shift) % 4]
    if bad:
        raise NormalizationError(
            f"bracket exponent {bad[0]} not divisible by 4 after writhe correction"
        )
    sign = -1 if w % 2 else 1
    return LaurentPoly({(shift - e) // 4: sign * c for e, c in terms.items()})
