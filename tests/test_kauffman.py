import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from knotobstruct import kauffman
from knotobstruct.diagram import PretzelParams, mirror, parse_pd, pretzel_pd
from knotobstruct.errors import DiagramTooLarge, NormalizationError, ValidationError
from knotobstruct.kauffman import (
    BRUTE_CAP,
    CONTRACT_WORK_CAP,
    DELTA,
    _W0,
    _W1,
    _W3,
    _catalan,
    _divide_by_one_plus_a4_cubed,
    _exact_quotient,
    bracket_brute,
    bracket_contract,
    bracket_twist,
    contraction_plan,
    jones,
    twist_jones_values,
    twist_tangle,
)
from knotobstruct.laurent import LaurentPoly
from knotobstruct.obstruction import jones_values, obstruction_value, w3
from knotobstruct.selftest import TREFOIL_BRACKET, TREFOIL_JONES, TREFOIL_PD, pretzels
from helpers import braid_closure_pd, faces, inverted, whitehead_double
from test_moves import CURLS, FINGERS, curl, finger, fingered, moved

TREFOIL = parse_pd(TREFOIL_PD)
F = LaurentPoly({0: 1, 4: 1})  # 1 + A^4
FIG8 = parse_pd("X(4,2,5,1); X(8,6,1,5); X(6,3,7,4); X(2,7,3,8)")
#: the four one-crossing curls
KINKS = [parse_pd(t) for t in ("X(1,1,2,2)", "X(1,2,2,1)", "X(2,1,1,2)", "X(2,2,1,1)")]


class TestBracketBrute:
    def test_unknot(self):
        assert bracket_brute(parse_pd("")) == LaurentPoly.one()

    def test_trefoil(self):
        assert bracket_brute(TREFOIL) == TREFOIL_BRACKET

    def test_kink_is_unit(self):
        assert bracket_brute(parse_pd("X(1,1,2,2)")) == LaurentPoly({-3: -1})
        assert bracket_brute(parse_pd("X(1,2,2,1)")) == LaurentPoly({3: -1})

    def test_cap(self):
        pd = pretzel_pd(PretzelParams(9, 9, 3))
        assert pd.n == 21
        with pytest.raises(DiagramTooLarge):
            bracket_brute(pd)

    def test_mirror_tripwire(self):
        # swapping every A- and B-smoothing gives the mirror's bracket
        # <D>(A^-1), which the chiral trefoil's oracle bracket tells apart
        pretzels = [pretzel_pd(PretzelParams(*t)) for t in [(3, 5, -1), (3, -5, 7)]]
        for pd in [TREFOIL, FIG8, parse_pd("X(1,1,2,2)")] + pretzels:
            assert bracket_brute(mirror(pd)) == inverted(bracket_brute(pd))
        assert bracket_brute(mirror(TREFOIL)) != TREFOIL_BRACKET


class TestBracketContract:
    def test_small_diagrams_match_brute(self):
        for pd in [parse_pd(""), TREFOIL, mirror(TREFOIL), FIG8] + KINKS:
            assert bracket_contract(pd) == bracket_brute(pd), pd

    def test_trefoil_oracle(self):
        assert bracket_contract(TREFOIL) == TREFOIL_BRACKET

    def test_exponent_class_mismatch_raises(self, monkeypatch):
        # one pairing a power of A off puts a step's two pairings in
        # different classes mod 4, and they meet at the end: the cup-cap
        # pairing of a region step (the trefoil is one cyclic region, the
        # figure-eight two regions of two), and the A-smoothing of every
        # lone crossing of the bigon-free closed braid (s1 s2)^4
        braid = braid_closure_pd(3, [1, 2] * 4)
        planner = kauffman.contraction_plan
        assert len(planner(TREFOIL)[3]) == 1 and len(planner(FIG8)[3]) == 2
        assert len(planner(braid)[3]) == braid.n

        def shifted(pairing):
            def plan(pd):
                order, width, work, steps, size = planner(pd)
                steps = [(tuple((shift + (i == pairing), *rest)
                                for i, (shift, *rest) in enumerate(pairings)), freed)
                         for pairings, freed in steps]
                return order, width, work, steps, size
            return plan

        for pairing, pds in ((1, (TREFOIL, FIG8)), (0, (braid, KINKS[0]))):
            monkeypatch.setattr(kauffman, "contraction_plan", shifted(pairing))
            for pd in pds:
                with pytest.raises(NormalizationError, match="class mod 4"):
                    bracket_contract(pd)

    def test_large_pretzel_matches_twist_route(self):
        # 255 crossings, far past the brute-force cap; each column is one
        # twist region, so the greedy order keeps the open boundary at four
        # edges
        params = PretzelParams(101, 103, -51)
        pd = pretzel_pd(params)
        _, width, work, steps, _ = contraction_plan(pd)
        assert width == 4 and len(steps) == 3 and work < CONTRACT_WORK_CAP
        assert bracket_contract(pd) == bracket_twist(params)


def closes_to_a_knot(strands, word):
    """Whether the braid word's permutation is one cycle on all strands."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    x, length = perm[0], 1
    while x:
        x, length = perm[x], length + 1
    return length == strands


def mixed_braid_knots(seed, count):
    """`count` seeded random knots closed from mixed-sign braid words on 2
    to 6 strands, of at most 13 letters: runs s_i s_(i+1) ... s_j with
    random signs, which open wider boundaries than single letters do."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        strands = rng.randint(2, 6)
        length = rng.randint(strands - 1, 13)
        word = []
        while len(word) < length:
            i = rng.randint(1, strands - 1)
            word += [rng.choice((1, -1)) * g
                     for g in range(i, rng.randint(i, strands - 1) + 1)]
        if closes_to_a_knot(strands, word[:length]):
            out.append(braid_closure_pd(strands, word[:length]))
    return out


class TestMixedBraids:
    def test_contract_matches_brute(self):
        # each knot, its mirror and a random curl on it: 90 diagrams of
        # at most 14 crossings, boundary widths 0 to 10
        rng = random.Random(3)
        widths = set()
        for pd in mixed_braid_knots(3, 30):
            curled = curl(pd, rng.randint(1, 2 * pd.n), rng.choice(sorted(CURLS)))
            for diagram in (pd, mirror(pd), curled):
                assert diagram.n <= BRUTE_CAP
                widths.add(contraction_plan(diagram)[1])
                assert bracket_contract(diagram) == bracket_brute(diagram), diagram
        assert {8, 10} <= widths


def greedy_order(pd):
    """contraction_plan's (order, width, work) crossing by crossing, as
    first written, the reference it must match where no bigon makes a
    twist region: a max over every remaining crossing at each step,
    O(n^2)."""
    remaining = list(range(pd.n))
    boundary = set()
    order = []
    width = work = 0
    while remaining:
        best = max(remaining,
                   key=lambda i: len(boundary.intersection(pd.crossings[i])))
        remaining.remove(best)
        order.append(best)
        for e in pd.crossings[best]:
            if e in boundary:
                boundary.remove(e)
            else:
                boundary.add(e)
        width = max(width, len(boundary))
        work += _catalan(len(boundary) // 2) * len(order)
    return order, width, work


def closed_braids():
    """Closures of torus-pattern braid words (s1...s(k-1))^m with gcd(k, m)
    = 1, so one component, and seeded random crossing signs."""
    rng = random.Random(5)
    out = []
    for k in range(2, 9):
        for m in range(1, 12):
            if math.gcd(k, m) == 1:
                word = [rng.choice((1, -1)) * g for _ in range(m) for g in range(1, k)]
                out.append(braid_closure_pd(k, word))
    return out


BRAIDS = closed_braids()


def bigons(pd):
    """Every bigon of pd as (i, s, j, t, same parity): a face of two
    corners, (i, s) and (j, t), at two crossings."""
    return [(i, s, j, t, s % 2 == t % 2)
            for face in faces(pd) if len(face) == 2
            for (i, s), (j, t) in [face] if i != j]


def twist_regions(pd):
    """The crossings' partition into twist regions, listed by their lowest
    crossing: the parts joined by the bigons whose two corners have one
    slot parity."""
    part = list(range(pd.n))

    def root(i):
        while part[i] != i:
            i = part[i]
        return i

    for i, _, j, _, same in bigons(pd):
        if same:
            part[root(j)] = root(i)
    regions = {}
    for i in range(pd.n):
        regions.setdefault(root(i), []).append(i)
    return sorted(regions.values())


def region_greedy(pd):
    """contraction_plan's (regions in order, width, work) by the greedy of
    greedy_order over twist_regions(pd): the next region is the first one
    sharing the most labels with the boundary, and a region of k crossings
    placed with i crossings in all adds Catalan(w/2) * i * k."""
    regions = twist_regions(pd)
    labels = [{e for i in region for e in pd.crossings[i]} for region in regions]
    remaining = list(range(len(regions)))
    boundary = set()
    order = []
    width = work = placed = 0
    while remaining:
        best = max(remaining, key=lambda r: len(boundary & labels[r]))
        remaining.remove(best)
        order.append(regions[best])
        for i in regions[best]:
            for e in pd.crossings[i]:
                if e in boundary:
                    boundary.remove(e)
                else:
                    boundary.add(e)
        placed += len(regions[best])
        width = max(width, len(boundary))
        work += _catalan(len(boundary) // 2) * placed * len(regions[best])
    return order, width, work


def assert_plan_matches_regions(pd):
    """contraction_plan places region_greedy's regions in its order, at its
    width and work, one step per region."""
    order, width, work, steps, _ = contraction_plan(pd)
    regions, ref_width, ref_work = region_greedy(pd)
    assert (width, work, len(steps)) == (ref_width, ref_work, len(regions)), pd
    assert sorted(order) == list(range(pd.n)), pd
    placed = iter(order)
    assert [set(itertools.islice(placed, len(r))) for r in regions] == [
        set(r) for r in regions], pd


#: closed braids with no face of fewer than three sides, so no bigon
#: (every twist region a lone crossing); with the four curls, BIGON_FREE
BIGON_FREE_BRAIDS = [pd for pd in BRAIDS if min(map(len, faces(pd))) >= 3]
BIGON_FREE = BIGON_FREE_BRAIDS + KINKS


class TestContractionOrder:
    def test_matches_reference_greedy(self):
        # with no bigons the regions are the crossings, and the order,
        # width and work are greedy_order's; with them, region_greedy's
        assert len(BIGON_FREE_BRAIDS) >= 30
        for pd in BIGON_FREE + [parse_pd("")]:
            assert contraction_plan(pd)[:3] == greedy_order(pd), pd
        pds = [pretzel_pd(params) for params in pretzels(13)]
        for pd in pds + [mirror(pd) for pd in pds] + BRAIDS + KINKS + [parse_pd("")]:
            assert_plan_matches_regions(pd)

    @given(moved([pretzel_pd(params) for params in pretzels(7)] + BRAIDS[:20], 4))
    def test_relabelled_and_curled_match_reference(self, case):
        _, pd, _ = case
        assert_plan_matches_regions(pd)

    @given(moved(BIGON_FREE_BRAIDS, 4))
    def test_curled_bigon_free_match_greedy_order(self, case):
        # a curl adds a monogon and makes no face smaller, so only a curl
        # on a curl's loop makes a bigon
        _, pd, _ = case
        assume(not bigons(pd))
        assert contraction_plan(pd)[:3] == greedy_order(pd)

    @given(fingered([pretzel_pd(params) for params in pretzels(7)]
                    + [TREFOIL, FIG8] + BRAIDS[:20] + KINKS, 2))
    def test_fingered_match_reference(self, case):
        # an R2 finger adds two crossings joined by two edges; the knot is
        # still one walk, so the frontier is never empty mid-way
        _, pd = case
        assert_plan_matches_regions(pd)


class TestTwistRegions:
    """bracket_contract against the brute-force state sum on each kind of
    twist region contraction_plan finds, and its region counts."""

    def test_pretzel_regions_of_both_parities(self):
        # every sign pattern of entries of size 3 to 7, at most 13
        # crossings: three regions, with bigons on odd corners (positive
        # entries) and on even ones (negative entries)
        parities = set()
        for sizes in [(3, 3, 3), (3, 3, 5), (3, 5, 5), (3, 3, 7), (5, 3, 3)]:
            for signs in itertools.product((1, -1), repeat=3):
                pd = pretzel_pd(PretzelParams(*(v * s for v, s in zip(sizes, signs))))
                steps = contraction_plan(pd)[3]
                assert len(steps) == 3
                parities |= {pairings[0][0] < 0 for pairings, _ in steps}
                assert bracket_contract(pd) == bracket_brute(pd), pd
        assert parities == {True, False}

    @pytest.mark.parametrize("m", range(1, 16, 2))
    def test_cyclic_region(self, m):
        # T(2, m) and its mirror are one region, closed up; so are P(1,1,1)
        # and the trefoil
        for pd in (braid_closure_pd(2, [1] * m), braid_closure_pd(2, [-1] * m)):
            # one step, its cup-cap pairing weighted by W_m
            assert [pairings[1][1] for pairings, _ in contraction_plan(pd)[3]] == [m]
            assert bracket_contract(pd) == bracket_brute(pd), pd
        for pd in (pretzel_pd(PretzelParams(1, 1, 1)), pretzel_pd(
                PretzelParams(-1, -1, -1)), TREFOIL, mirror(TREFOIL)):
            assert len(contraction_plan(pd)[3]) == 1
            assert bracket_contract(pd) == bracket_brute(pd), pd

    def test_regions_beside_curls(self):
        # every curl on every edge: a curl on a bigon's edge splits its
        # region, and one on an outer edge sits beside it
        for pd in (pretzel_pd(PretzelParams(3, -3, 5)), braid_closure_pd(2, [1] * 7)):
            for edge in range(1, 2 * pd.n + 1):
                for kind in CURLS:
                    curled = curl(pd, edge, kind)
                    assert_plan_matches_regions(curled)
                    assert bracket_contract(curled) == bracket_brute(curled), curled

    def test_fingers_stay_separate_steps(self):
        # an R2 finger's bigon has corners of both parities: its two
        # crossings (the last two) stay in different regions
        for base in (TREFOIL, FIG8, pretzel_pd(PretzelParams(3, -3, 3))):
            for ci in range(base.n):
                for slot in range(4):
                    quad = base.crossings[ci]
                    if quad[slot] == quad[(slot + 1) % 4]:
                        continue
                    for kind in FINGERS:
                        pd = finger(base, ci, slot, kind)
                        x1, x2 = pd.n - 2, pd.n - 1
                        assert any({i, j} == {x1, x2} and not same
                                   for i, _, j, _, same in bigons(pd))
                        assert not any({x1, x2} <= set(r) for r in twist_regions(pd))
                        assert_plan_matches_regions(pd)
                        assert bracket_contract(pd) == bracket_brute(pd), pd

    def test_bigons_never_on_adjacent_corners(self):
        # two bigons on adjacent corners of a crossing share their middle
        # edge, so one neighbour, and the strand straight through the
        # crossing closes up through it: a link, which PDCode refuses.
        # The Hopf link's diagram has a bigon on every corner.
        with pytest.raises(ValidationError, match="one oriented knot"):
            parse_pd("X(1,3,2,4); X(3,1,4,2)")
        pds = [pretzel_pd(params) for params in pretzels(9)]
        for pd in pds + BRAIDS + [finger(TREFOIL, 0, s, k) for s in range(4)
                                  for k in FINGERS]:
            corners = {}
            for i, s, j, t, _ in bigons(pd):
                corners.setdefault(i, []).append(s)
                corners.setdefault(j, []).append(t)
            assert all(len(c) <= 2 and (len(c) < 2 or (c[0] - c[1]) % 4 == 2)
                       for c in corners.values()), pd

    def test_region_counts(self):
        # three for a pretzel whose entries are all of size 3 or more, one
        # for T(2, m), and one per crossing on a bigon-free braid
        for params in pretzels(15):
            if min(map(abs, params.as_tuple())) >= 3:
                assert len(contraction_plan(pretzel_pd(params))[3]) == 3, params
        for m in range(3, 40, 2):
            assert len(contraction_plan(braid_closure_pd(2, [1] * m))[3]) == 1
        for pd in BIGON_FREE:
            assert len(contraction_plan(pd)[3]) == pd.n


#: the Whitehead doubles' companions and their mirrors (name + "*"): the
#: braid sigma1^3 sigma2 sigma1^-1 sigma2 closes to 5_2, and P(-3,5,7)
#: has Delta = 1
COMPANIONS = {
    "3_1": TREFOIL,
    "4_1": FIG8,
    "5_2": braid_closure_pd(3, [1, 1, 1, 2, -1, 2]),
    "T(2,5)": braid_closure_pd(2, [1] * 5),
    "T(2,7)": braid_closure_pd(2, [1] * 7),
    "T(2,11)": braid_closure_pd(2, [1] * 11),
    "T(3,4)": braid_closure_pd(3, [1, 2] * 4),
    "P(-3,5,7)": pretzel_pd(PretzelParams(-3, 5, 7)),
}
COMPANIONS.update({name + "*": mirror(pd) for name, pd in COMPANIONS.items()})


class TestWhiteheadDoubles:
    """Twisted Whitehead doubles (whitehead_double), diagrams of 14 to 86
    crossings that no pretzel or braid gives: a clasp beside twist
    regions whose bigons have both slot parities."""

    @pytest.mark.parametrize("clasp", [1, -1])
    @pytest.mark.parametrize("name", sorted(COMPANIONS))
    def test_determinant_ob_and_plan(self, name, clasp):
        # the double with clasp c has Delta = 1 + c tau (t - 2 + t^-1), so
        # |V(-1)| = |Delta(-1)| = |4 tau - c|, and the untwisted double
        # (tau = 0, Delta = 1) has Ob = 0 and w3 = 2 c a2(K), where
        # a2 = -V_K''(1)/6: observed on these companions, not derived
        knot = COMPANIONS[name]
        w = sum(knot.signs)
        a2 = Fraction(-jones_values(jones(knot))[0], 6)
        parities = set()
        for tau in range(-3, 4):
            pd = whitehead_double(knot, clasp, tau)  # PDCode validates it
            assert pd.n == 4 * knot.n + 2 + 2 * abs(w + tau)
            v = jones(pd)
            assert abs(jones_values(v)[2]) == abs(4 * tau - clasp), tau
            if tau == 0:
                assert obstruction_value(v)[2] == 0
                assert w3(v) == 2 * clasp * a2
            assert_plan_matches_regions(pd)
            parities |= {s % 2 for _, s, _, _, same in bigons(pd) if same}
        if name.startswith("3_1"):  # both parities at either clasp
            assert parities == {0, 1}

    def test_smallest_doubles_match_brute(self):
        # w + tau = 0 leaves no twist crossings: the trefoil's doubles at
        # tau = -w have 14 crossings, small enough for the state sum
        for knot in (TREFOIL, mirror(TREFOIL)):
            for clasp in (1, -1):
                pd = whitehead_double(knot, clasp, -sum(knot.signs))
                assert pd.n == 14
                assert bracket_contract(pd) == bracket_brute(pd), pd


def tangle_polys(n):
    """twist_tangle(n)'s (exponent, coefficient) pairs as the monomials
    (u, v)."""
    return tuple(LaurentPoly({e: c}) for e, c in twist_tangle(n))


class TestTwistTangle:
    # twist_tangle gives the monomials (u, v) as (exponent, coefficient)
    # pairs; the tangle's coordinates are alpha = u and
    # beta = A^2 (u + v) / (1 + A^4)
    A2 = LaurentPoly({2: 1})

    def test_base_case(self):
        # alpha_0 = 1 and beta_0 = 0: v = -u
        assert twist_tangle(0) == ((0, 1), (0, -1))
        assert tangle_polys(0) == (LaurentPoly.one(), LaurentPoly({0: -1}))

    def test_single_crossing(self):
        u, v = tangle_polys(1)
        assert u == LaurentPoly({-1: 1})
        assert self.A2 * (u + v) == F * LaurentPoly({1: 1})  # beta_1 = A

    def test_inverse_cancels(self):
        t = tangle_polys(3)
        # undoing three positive twists restores the 0-tangle
        assert t != tangle_polys(0)
        assert tangle_polys(-3)[0] * t[0] == tangle_polys(0)[0]
        assert tangle_polys(-3)[1] * t[1] == -tangle_polys(0)[1]

    def test_skein_step(self):
        # one positive half-twist: (alpha, beta) ->
        # (A^-1 alpha, A alpha + (A^-1 + A delta) beta); on beta's cleared
        # form A^2 (u + v) the step reads alike, with alpha's (1 + A^4)
        a, a_inv = LaurentPoly({1: 1}), LaurentPoly({-1: 1})
        for n in range(-40, 41):
            u, v = tangle_polys(n)
            u1, v1 = tangle_polys(n + 1)
            assert u1 == a_inv * u, n
            assert self.A2 * (u1 + v1) == (
                a * F * u + (a_inv + a * DELTA) * self.A2 * (u + v)), n

    @pytest.mark.parametrize("n", [249_999, -249_999])
    def test_two_int_terms_at_the_cap(self, n):
        # one (exponent, coefficient) pair per monomial, all four ints
        (eu, cu), (ev, cv) = twist_tangle(n)
        assert all(type(x) is int for x in (eu, cu, ev, cv))


#: loops of the pretzel closure with 0, 1, 2 and 3 horizontal smoothings
CLOSURE_LOOPS = (3, 2, 1, 2)


def cleared_tangle(n):
    """(1 + A^4) times the coordinates (alpha_n, beta_n), each of two terms
    (beta_0's two A^2 terms cancel)."""
    return (LaurentPoly({-n: 1, 4 - n: 1}),
            LaurentPoly({2 - n: 1, 2 + 3 * n: 1 if n % 2 else -1} if n else {}))


def eight_mask_numerator(params):
    """(1 + A^4)^3 <P(p,q,r)>: over the 8 smoothing masks (bit i set: tangle
    i smoothed horizontally), the product of the cleared coordinates times
    delta^(loops - 1)."""
    tangles = [cleared_tangle(v) for v in params.as_tuple()]
    total = LaurentPoly()
    for mask in range(8):
        term = DELTA ** (CLOSURE_LOOPS[mask.bit_count()] - 1)
        for i, coords in enumerate(tangles):
            term = term * coords[mask >> i & 1]
        total = total + term
    return total


def closure_weight(k):
    """The 8-mask closure's coefficient of a monomial with v from the first
    k tangles and u from the rest: the cleared coordinates are u F and
    A^2 (u + v), so every mask that smooths those k tangles horizontally
    adds F^(3 - h) A^(2h) delta^(loops - 1), h its horizontal count."""
    total = LaurentPoly()
    for mask in range(8):
        if mask & (1 << k) - 1 == (1 << k) - 1:
            h = mask.bit_count()
            total = total + (F ** (3 - h) * LaurentPoly({2 * h: 1})
                             * DELTA ** (CLOSURE_LOOPS[h] - 1))
    return total


def jones_from_bracket(bracket, w):
    """V = (-A^3)^(-w) <D> under t = A^-4."""
    return LaurentPoly({(3 * w - e) // 4: (-1) ** w * c for e, c in bracket.terms.items()})


class TestClosedForm:
    def test_weights_from_delta(self):
        a4 = LaurentPoly({4: 1})
        w0, w1, w2, w3 = (closure_weight(k) for k in range(4))
        assert w2 == LaurentPoly()  # the terms with two v's cancel
        assert w0 == LaurentPoly({-4: 1}) * F ** 5 - 3 * F ** 3 + 2 * a4 * F
        assert -w1 == F * LaurentPoly({0: 1, 4: 1, 8: 1})
        assert -w3 == a4 * F
        assert (LaurentPoly(dict(_W0)), _W1, LaurentPoly(dict(_W3))) == (w0, -w1, -w3)

    def test_matches_eight_mask_closure(self):
        # all 4096 odd triples in [-15, 15]^3: the closed form's numerator,
        # (1 + A^4)^3 times its quotient, against the 8 masks
        cube = F ** 3
        odd = range(-15, 16, 2)
        for pqr in itertools.product(odd, repeat=3):
            params = PretzelParams(*pqr)
            numer = eight_mask_numerator(params)
            assert len(numer.terms) <= 20
            assert all((e + sum(pqr)) % 4 == 0 for e in numer.terms)
            bracket = bracket_twist(params)
            assert bracket * cube == numer, pqr
            assert jones(params) == jones_from_bracket(bracket, sum(pqr)), pqr
            assert jones_values(params) == jones_values(jones(params)), pqr

    def test_values_in_closed_form_on_every_odd_triple(self):
        # On one class of odd (p, q, r) mod 8 the numerator's exponents are
        # linear in p, q and r, its coefficients and every sign fixed, so
        # the reader's sums are polynomials of degree <= 4 there.  Equal to
        # these forms on a 5x5x5 grid of each of the 64 classes, they are
        # equal to them on every odd triple.
        grid = range(-16, 17, 8)
        for cls in itertools.product(range(1, 8, 2), repeat=3):
            for shift in itertools.product(grid, repeat=3):
                p, q, r = (c + s for c, s in zip(cls, shift))
                e1, e2, e3 = p + q + r, p * q + q * r + r * p, p * q * r
                w = e1 * e2 + e3 + 2 * e1
                assert twist_jones_values(PretzelParams(p, q, r)) == (
                    Fraction(-3 * (e2 + 1), 2), Fraction(-9 * (w - 2 * e2 - 2), 4),
                    -e2, Fraction(w, 2)), (p, q, r)

    @given(st.tuples(*[st.integers(-100, 100).map(lambda v: 2 * v + 1)] * 3))
    def test_mirror_inverts_variable(self, pqr):
        p, q, r = pqr
        assert jones(PretzelParams(-p, -q, -r)) == inverted(
            jones(PretzelParams(p, q, r)))

    def test_exponent_outside_the_class_raises(self, monkeypatch):
        # a v one power of A off puts the closure out of its class mod 4
        monkeypatch.setattr(kauffman, "twist_tangle", lambda n: (
            (-n, 1), (3 * n + 1, 1 if n % 2 else -1)))
        for compute in (bracket_twist, jones, jones_values):
            with pytest.raises(NormalizationError, match="class"):
                compute(PretzelParams(3, 5, -3))

    def test_numerator_off_the_cube_raises(self, monkeypatch):
        # a W3 one unit off adds a lone monomial to (1 + A^4)^3 <P>, which
        # (1 + A^4)^3 then no longer divides: the dense quotient and the
        # numerator reader both stop
        monkeypatch.setattr(kauffman, "_W3", ((4, 1), (8, 2)))
        for compute in (bracket_twist, jones, jones_values):
            with pytest.raises(NormalizationError,
                               match=r"not divisible by \(1 \+ A\^4\)\^3"):
                compute(PretzelParams(3, 5, -3))

    @pytest.mark.parametrize("d", [6, 24, 16])
    def test_reader_divisions_are_exact(self, d):
        assert _exact_quotient(-5 * d, d) == -5
        for n in (1, -1, d + 1, -d - 1):
            with pytest.raises(NormalizationError, match=f"not divisible by {d}$"):
                _exact_quotient(n, d)

    def test_reader_does_not_floor(self, monkeypatch):
        # the numerator of V = -t/2 at w = 1 passes the divisibility check,
        # but R'''(-1) = 3 is no multiple of 6: floor division would give
        # V(-1) = 0
        half = Fraction(1, 2)
        monkeypatch.setattr(kauffman, "_twist_numerator", lambda params: [
            (-1, half), (3, 3 * half), (7, 3 * half), (11, half)])
        with pytest.raises(NormalizationError, match="not divisible by 6"):
            twist_jones_values(PretzelParams(1, 1, -1))


class TestBracketTwist:
    def test_trefoil_assembly(self):
        assert bracket_twist(PretzelParams(1, 1, 1)) == bracket_brute(
            pretzel_pd(PretzelParams(1, 1, 1))
        )
        assert bracket_twist(PretzelParams(1, 1, 1)) == TREFOIL_BRACKET

    def test_unknot_pretzel_is_unit(self):
        br = bracket_twist(PretzelParams(1, 1, -1))
        terms = br.terms
        assert len(terms) == 1
        (e, c), = terms.items()
        assert e % 3 == 0 and c in (1, -1)

    def test_large_pretzel_fast(self):
        br = bracket_twist(PretzelParams(9, 11, -5))
        assert br

    @given(st.tuples(*[st.integers(-20, 20).map(lambda v: 2 * v + 1)] * 3))
    def test_matches_contraction(self, pqr):
        # entries odd with |v| <= 41; pretzel_pd contracts at width 4 or less
        params = PretzelParams(*pqr)
        assert bracket_twist(params) == bracket_contract(pretzel_pd(params))

    @pytest.mark.parametrize("signs", range(8))
    def test_matches_brute_up_to_total_11(self, signs):
        # every odd triple with |p| + |q| + |r| <= 11, entries +-1 included
        odd = range(1, 10, 2)
        for pqr in itertools.product(odd, repeat=3):
            if sum(pqr) <= 11:
                params = PretzelParams(*(-v if signs >> i & 1 else v
                                         for i, v in enumerate(pqr)))
                assert bracket_twist(params) == bracket_brute(pretzel_pd(params)), params


def times_cube(q):
    """The coefficients of (1 + x)^3 q(x), dense lists from the constant term."""
    p = [0] * (len(q) + 3)
    for i, c in enumerate(q):
        for j, b in enumerate((1, 3, 3, 1)):
            p[i + j] += b * c
    return p


def synthetic_division(p):
    """The step-by-step quotient p / (1 + x)^3: per factor,
    q_i = p_i - q_(i-1) from the bottom up, and the top entry left over is
    the remainder."""
    q = list(p)
    for _ in range(3):
        for i in range(1, len(q)):
            q[i] -= q[i - 1]
        if q.pop():
            raise NormalizationError("remainder")
    return q


COEFFS = st.lists(st.integers(-99, 99), max_size=30)


class TestDivideByOnePlusA4Cubed:
    @given(COEFFS)
    def test_exact_quotient(self, q):
        p = times_cube(q)
        assert _divide_by_one_plus_a4_cubed(p) == q
        assert p == times_cube(q)  # the input list is left as it was

    @given(COEFFS)
    def test_matches_synthetic_division_on_multiples(self, q):
        p = times_cube(q)
        assert _divide_by_one_plus_a4_cubed(p) == synthetic_division(p) == q

    @given(COEFFS, st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any))
    def test_non_multiples_raise(self, q, rest):
        # rest is nonzero of degree at most 2, so no multiple of (1 + x)^3
        poly = times_cube(q)
        for i, c in enumerate(rest):
            poly[i] += c
        for divide in (synthetic_division, _divide_by_one_plus_a4_cubed):
            with pytest.raises(NormalizationError):
                divide(poly)

    @pytest.mark.parametrize("poly", [
        [1],
        [1, 2, 1],           # (1 + x)^2
        [1, 3, 3, 1, 1],     # (1 + x)^3 + x^4
        [1, 3, 3, 2],        # (1 + x)^3 + x^3
        [1, 5, 6, 4, 1],     # (1 + x)^4 + x
    ])
    def test_remainder_raises(self, poly):
        with pytest.raises(NormalizationError):
            _divide_by_one_plus_a4_cubed(poly)


class TestJones:
    def test_unknot(self):
        assert jones(parse_pd("")) == LaurentPoly.one()

    def test_trefoil(self):
        assert jones(TREFOIL) == TREFOIL_JONES

    def test_figure_eight(self):
        assert jones(FIG8) == LaurentPoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})

    def test_kinks_normalize_away(self):
        assert jones(parse_pd("X(1,1,2,2)")) == LaurentPoly.one()
        assert jones(parse_pd("X(1,2,2,1)")) == LaurentPoly.one()

    def test_mirror_inverts_variable(self):
        for pd in [TREFOIL, FIG8, pretzel_pd(PretzelParams(3, 5, -1))]:
            assert jones(mirror(pd)) == inverted(jones(pd))

    def test_value_one_at_one(self):
        diagrams = [
            parse_pd(""),
            TREFOIL,
            FIG8,
            parse_pd("X(1,1,2,2)"),
            pretzel_pd(PretzelParams(3, -5, 7)),
        ]
        for pd in diagrams:
            assert jones(pd).evaluate(1) == 1
        assert jones(PretzelParams(9, 11, -5)).evaluate(1) == 1

    def test_pd_route_past_brute_cap(self):
        # the 35-crossing family member k = 3 through contraction
        params = PretzelParams(13, 15, -7)
        assert jones(pretzel_pd(params)) == jones(params)

    def test_pretzel_params_route_matches_pd_route(self):
        for p, q, r in [(1, 1, 1), (-1, -1, -1), (3, 5, -1)]:
            params = PretzelParams(p, q, r)
            assert jones(params) == jones(pretzel_pd(params))

    def test_pretzels_take_the_one_writhe_correction(self, monkeypatch):
        # jones corrects whatever bracket_twist returns, as it corrects
        # bracket_contract's: a stand-in bracket comes out as its own V
        params = PretzelParams(3, 5, -3)  # w = 5, exponents in -5 mod 4
        fixed = LaurentPoly({-1: -1, 3: 2, 7: 5})
        monkeypatch.setattr(kauffman, "bracket_twist", lambda p: fixed)
        assert jones(params) == jones_from_bracket(fixed, 5)
        assert jones(params) != jones_from_bracket(bracket_twist(params), 5)
        monkeypatch.setattr(kauffman, "bracket_twist", lambda p: LaurentPoly({2: 1}))
        with pytest.raises(NormalizationError, match="after writhe correction"):
            jones(params)


def torus_jones(k, m):
    """Jones' formula for the torus knot T(k, m):
    t^((k-1)(m-1)/2) (1 - t^(k+1) - t^(m+1) + t^(k+m)) / (1 - t^2).

    The division is long division from the constant term up: N = (1 - t^2)
    Q gives q_e = n_e + q_(e-2), and the two coefficients past Q's degree
    k + m - 2 must leave no remainder."""
    num = [0] * (k + m + 1)
    for e, c in ((0, 1), (k + 1, -1), (m + 1, -1), (k + m, 1)):
        num[e] += c
    quot = []
    for e in range(k + m + 1):
        quot.append(num[e] + (quot[e - 2] if e >= 2 else 0))
    assert quot[-2:] == [0, 0], (k, m)
    shift = (k - 1) * (m - 1) // 2
    return LaurentPoly({e + shift: c for e, c in enumerate(quot)})


class TestTorusKnots:
    """The contraction engine against Jones' formula on the closed
    positive braids (s1...s(k-1))^m, widths up to 14, where no brute
    state sum reaches."""

    @pytest.mark.parametrize("k, m", [(k, m) for k in range(2, 8)
                                      for m in range(k + 1, 13)
                                      if math.gcd(k, m) == 1])
    def test_jones_formula(self, k, m):
        pd = braid_closure_pd(k, list(range(1, k)) * m)
        expected = torus_jones(k, m)
        assert jones(pd) == expected
        assert jones(mirror(pd)) == inverted(expected)
