import pytest
from hypothesis import given, strategies as st

from knotobstruct.diagram import PretzelParams, mirror, parse_pd, pretzel_pd
from knotobstruct.errors import DiagramTooLarge, NormalizationError
from knotobstruct.kauffman import (
    CONTRACT_WORK_CAP,
    DELTA,
    TangleBracket,
    _divide_by_one_plus_a4_cubed,
    bracket_brute,
    bracket_contract,
    bracket_twist,
    contraction_order,
    jones,
    twist_tangle,
)
from knotobstruct.laurent import LaurentPoly
from knotobstruct.selftest import TREFOIL_BRACKET, TREFOIL_JONES, TREFOIL_PD

TREFOIL = parse_pd(TREFOIL_PD)
CUBE = LaurentPoly({0: 1, 4: 3, 8: 3, 12: 1})  # (1 + A^4)^3
FIG8 = parse_pd("X(4,2,5,1); X(8,6,1,5); X(6,3,7,4); X(2,7,3,8)")


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
        kinks = [parse_pd(t) for t in ("X(1,1,2,2)", "X(1,2,2,1)", "X(2,1,1,2)",
                                        "X(2,2,1,1)")]
        for pd in [parse_pd(""), TREFOIL, mirror(TREFOIL), FIG8] + kinks:
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


class TestTwistTangle:
    def test_base_case(self):
        assert twist_tangle(0) == TangleBracket(LaurentPoly.one(), LaurentPoly.zero())

    def test_single_crossing(self):
        t = twist_tangle(1)
        assert t.coef_zero == LaurentPoly({-1: 1})
        assert t.coef_infinity == LaurentPoly({1: 1})

    def test_inverse_cancels(self):
        t = twist_tangle(3)
        # undoing three positive twists restores the 0-tangle
        back = twist_tangle(0)
        assert (t.coef_zero, t.coef_infinity) != (back.coef_zero, back.coef_infinity)
        assert twist_tangle(-3).coef_zero * t.coef_zero == LaurentPoly.one()

    def test_skein_step(self):
        # one positive half-twist: (alpha, beta) ->
        # (A^-1 alpha, A alpha + (A^-1 + A delta) beta)
        a, a_inv = LaurentPoly({1: 1}), LaurentPoly({-1: 1})
        for n in range(-40, 41):
            t = twist_tangle(n)
            stepped = TangleBracket(
                a_inv * t.coef_zero,
                a * t.coef_zero + (a_inv + a * DELTA) * t.coef_infinity,
            )
            assert stepped == twist_tangle(n + 1), n


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
        assert not br.is_zero()

    @given(st.tuples(*[st.integers(-20, 20).map(lambda v: 2 * v + 1)] * 3))
    def test_matches_contraction(self, pqr):
        # entries odd with |v| <= 41; pretzel_pd contracts at width 6
        params = PretzelParams(*pqr)
        assert bracket_twist(params) == bracket_contract(pretzel_pd(params))


class TestDivideByOnePlusA4Cubed:
    @given(st.dictionaries(st.integers(-30, 30), st.integers(-9, 9), max_size=8))
    def test_exact_quotient(self, terms):
        p = LaurentPoly(terms)
        assert _divide_by_one_plus_a4_cubed(p * CUBE) == p

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
