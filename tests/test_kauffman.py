import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from knotobstruct.diagram import PretzelParams, mirror, parse_pd, pretzel_pd
from knotobstruct.errors import DiagramTooLarge, NormalizationError
from knotobstruct.kauffman import (
    CONTRACT_WORK_CAP,
    DELTA,
    _catalan,
    _divide_by_one_plus_a4_cubed,
    bracket_brute,
    bracket_contract,
    bracket_twist,
    contraction_order,
    jones,
    twist_tangle,
)
from knotobstruct.laurent import LaurentPoly
from knotobstruct.selftest import TREFOIL_BRACKET, TREFOIL_JONES, TREFOIL_PD, pretzels
from test_cli import braid_closure_pd
from test_moves import fingered, moved

TREFOIL = parse_pd(TREFOIL_PD)
CUBE = LaurentPoly({0: 1, 4: 3, 8: 3, 12: 1})  # (1 + A^4)^3
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
            assert bracket_brute(mirror(pd)) == bracket_brute(pd).substitute_power(-1)
        assert bracket_brute(mirror(TREFOIL)) != TREFOIL_BRACKET


class TestBracketContract:
    def test_small_diagrams_match_brute(self):
        for pd in [parse_pd(""), TREFOIL, mirror(TREFOIL), FIG8] + KINKS:
            assert bracket_contract(pd) == bracket_brute(pd), pd

    def test_trefoil_oracle(self):
        assert bracket_contract(TREFOIL) == TREFOIL_BRACKET

    def test_large_pretzel_matches_twist_route(self):
        # 255 crossings, far past the brute-force cap; the greedy order
        # keeps a pretzel's open boundary at six edges
        params = PretzelParams(101, 103, -51)
        pd = pretzel_pd(params)
        _, width, work = contraction_order(pd)
        assert width == 6 and work < CONTRACT_WORK_CAP
        assert bracket_contract(pd) == bracket_twist(params)


def greedy_order(pd):
    """contraction_order as first written, the reference it must match: a
    max over every remaining crossing at each step, O(n^2)."""
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


class TestContractionOrder:
    def test_matches_reference_greedy(self):
        # gate 4's pretzel corpus, its mirrors, closed braids and curls
        pds = [pretzel_pd(params) for params in pretzels(13)]
        for pd in pds + [mirror(pd) for pd in pds] + BRAIDS + KINKS + [parse_pd("")]:
            assert contraction_order(pd) == greedy_order(pd), pd

    @given(moved([pretzel_pd(params) for params in pretzels(7)] + BRAIDS[:20], 4))
    def test_relabelled_and_curled_match_reference(self, case):
        _, pd, _ = case
        assert contraction_order(pd) == greedy_order(pd)

    @given(fingered([pretzel_pd(params) for params in pretzels(7)]
                    + [TREFOIL, FIG8] + BRAIDS[:20] + KINKS, 2))
    def test_fingered_match_reference(self, case):
        # an R2 finger adds two crossings joined by two edges; the knot is
        # still one walk, so the frontier is never empty mid-way
        _, pd = case
        assert contraction_order(pd) == greedy_order(pd)


class TestTwistTangle:
    # twist_tangle gives (1 + A^4) times the coordinates (alpha, beta)
    ONE_PLUS_A4 = LaurentPoly({0: 1, 4: 1})

    def test_base_case(self):
        assert twist_tangle(0) == (self.ONE_PLUS_A4, LaurentPoly())

    def test_single_crossing(self):
        alpha, beta = twist_tangle(1)
        assert alpha == self.ONE_PLUS_A4 * LaurentPoly({-1: 1})
        assert beta == self.ONE_PLUS_A4 * LaurentPoly({1: 1})

    def test_inverse_cancels(self):
        t = twist_tangle(3)
        # undoing three positive twists restores the 0-tangle
        assert t != twist_tangle(0)
        assert twist_tangle(-3)[0] * t[0] == self.ONE_PLUS_A4 ** 2

    def test_skein_step(self):
        # one positive half-twist: (alpha, beta) ->
        # (A^-1 alpha, A alpha + (A^-1 + A delta) beta), linear, so it
        # steps the cleared coordinates alike
        a, a_inv = LaurentPoly({1: 1}), LaurentPoly({-1: 1})
        for n in range(-40, 41):
            alpha, beta = twist_tangle(n)
            stepped = (a_inv * alpha, a * alpha + (a_inv + a * DELTA) * beta)
            assert stepped == twist_tangle(n + 1), n

    @pytest.mark.parametrize("n", [249_999, -249_999])
    def test_two_int_terms_at_the_cap(self, n):
        for coef in twist_tangle(n):
            assert len(coef.terms) <= 2
            assert all(type(c) is int for c in coef.terms.values())


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
        # entries odd with |v| <= 41; pretzel_pd contracts at width 6
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


def synthetic_division(poly: LaurentPoly) -> LaurentPoly:
    """The step-by-step quotient poly / (1 + A^4)^3: per exponent class mod
    4 and per factor, q_i = p_i - q_(i-1) from the bottom up, and the top
    entry left over is the remainder."""
    terms = poly.terms
    out = {}
    for r in {e % 4 for e in terms}:
        exps = [e for e in terms if e % 4 == r]
        lo = min(exps)
        q = [terms.get(e, 0) for e in range(lo, max(exps) + 1, 4)]
        for _ in range(3):
            for i in range(1, len(q)):
                q[i] -= q[i - 1]
            if q.pop():
                raise NormalizationError("remainder")
        out.update((lo + 4 * i, c) for i, c in enumerate(q) if c)
    return LaurentPoly(out)


#: polynomials over several exponent classes and negative exponents
SPREAD = st.dictionaries(st.integers(-60, 60), st.integers(-99, 99), max_size=12
                         ).map(LaurentPoly)


class TestDivideByOnePlusA4Cubed:
    @given(st.dictionaries(st.integers(-30, 30), st.integers(-9, 9), max_size=8))
    def test_exact_quotient(self, terms):
        p = LaurentPoly(terms)
        assert _divide_by_one_plus_a4_cubed(p * CUBE) == p

    @given(SPREAD)
    def test_matches_synthetic_division_on_multiples(self, p):
        assert _divide_by_one_plus_a4_cubed(p * CUBE) == synthetic_division(p * CUBE) == p

    @given(SPREAD, st.integers(-60, 60),
           st.dictionaries(st.integers(0, 11), st.integers(-9, 9).filter(bool),
                           min_size=1, max_size=6))
    def test_non_multiples_raise(self, p, shift, rest):
        # rest has degree at most 2 in A^4 in every class, so is no multiple
        poly = p * CUBE + LaurentPoly({e + shift: c for e, c in rest.items()})
        for divide in (synthetic_division, _divide_by_one_plus_a4_cubed):
            with pytest.raises(NormalizationError):
                divide(poly)

    @pytest.mark.parametrize("poly", [
        LaurentPoly.one(),
        LaurentPoly({0: 1, 4: 2, 8: 1}),     # (1 + A^4)^2
        CUBE + LaurentPoly({16: 1}),
        CUBE + LaurentPoly({1: 1}),          # one exponent class divides
        CUBE * LaurentPoly({0: 1, 4: 1, 5: 1}) + LaurentPoly({5: 1}),
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
            assert jones(mirror(pd)) == jones(pd).substitute_power(-1)

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
