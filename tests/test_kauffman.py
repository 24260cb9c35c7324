from itertools import product

import pytest

from knotobstruct.diagram import PretzelParams, mirror, parse_pd, pretzel_pd
from knotobstruct.errors import DiagramTooLarge
from knotobstruct.kauffman import (
    DELTA,
    TangleBracket,
    bracket_brute,
    bracket_twist,
    jones,
    twist_tangle,
)
from knotobstruct.laurent import LaurentPoly
from knotobstruct.seifert import alexander_from_seifert, pretzel_seifert

TREFOIL = parse_pd("X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)")
FIG8 = parse_pd("X(4,2,5,1); X(8,6,1,5); X(6,3,7,4); X(2,7,3,8)")
TREFOIL_BRACKET = LaurentPoly({5: -1, -3: -1, -7: 1})
TREFOIL_JONES = LaurentPoly({4: -1, 3: 1, 1: 1})


class TestBracketBrute:
    def test_unknot(self):
        assert bracket_brute(parse_pd("")) == LaurentPoly.one()

    def test_trefoil(self):
        assert bracket_brute(TREFOIL) == TREFOIL_BRACKET

    def test_kink_is_unit(self):
        assert bracket_brute(parse_pd("X(1,1,2,2)")) == LaurentPoly({-3: -1})
        assert bracket_brute(parse_pd("X(1,2,2,1)")) == LaurentPoly({3: -1})

    def test_cap(self):
        with pytest.raises(DiagramTooLarge):
            bracket_brute(pretzel_pd(PretzelParams(5, 5, -3)), cap=10)

    def test_swap_smoothings_tripwire(self):
        assert bracket_brute(TREFOIL, swap_smoothings=True) != TREFOIL_BRACKET


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

    def test_oracle_equivalence_small(self):
        odd = [v for v in range(-7, 8) if v % 2]
        for p, q, r in product(odd, odd, odd):
            if abs(p) + abs(q) + abs(r) > 9:
                continue
            params = PretzelParams(p, q, r)
            assert bracket_twist(params) == bracket_brute(pretzel_pd(params))

    def test_large_pretzel_fast(self):
        br = bracket_twist(PretzelParams(9, 11, -5))
        assert not br.is_zero()


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

    def test_determinant_consistency(self):
        for p, q, r in [(1, 1, 1), (3, 5, -1), (3, -5, 7), (5, 7, -3)]:
            params = PretzelParams(p, q, r)
            v = jones(params)
            delta = alexander_from_seifert(pretzel_seifert(params))
            assert abs(v.evaluate(-1)) == abs(delta.evaluate(-1))

    def test_pretzel_params_route_matches_pd_route(self):
        for p, q, r in [(1, 1, 1), (-1, -1, -1), (3, 5, -1)]:
            params = PretzelParams(p, q, r)
            assert jones(params) == jones(pretzel_pd(params))
