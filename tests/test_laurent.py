from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotobstruct.diagram import PretzelParams, parse_pd
from knotobstruct.errors import NonNormalizable
from knotobstruct.kauffman import jones
from knotobstruct.laurent import LaurentPoly, parse_laurent
from knotobstruct.seifert import GenusOneSpine, SeifertMatrix, alexander_from_seifert
from knotobstruct.twoloop import TangleInvariants, reduced_two_loop

T = LaurentPoly.var()
TINV = LaurentPoly({-1: 1})


def poly(d):
    return LaurentPoly(d)


coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys = st.dictionaries(st.integers(-6, 6), coeffs, max_size=6).map(LaurentPoly)


class TestRingOps:
    def test_product_expansion(self):
        assert (T - 1) * (TINV - 1) == poly({0: 2, 1: -1, -1: -1})

    def test_additive_inverse(self):
        p = poly({3: Fraction(2, 5), -1: 4})
        assert (p + (-p)).is_zero()
        assert p - p == LaurentPoly.zero()

    def test_monomial_shift(self):
        p = poly({1: 1, 0: -1, -1: 1})
        assert p.shift(2) == poly({3: 1, 2: -1, 1: 1})

    def test_scalar_and_int_mixing(self):
        p = T + 1
        assert 2 * p == poly({1: 2, 0: 2})
        assert p.scale(Fraction(1, 2)) == poly({1: Fraction(1, 2), 0: Fraction(1, 2)})

    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative()
        assert lhs == a.derivative() * b + a * b.derivative()


class TestEvaluate:
    def test_basic(self):
        p = poly({1: 1, 0: -1, -1: 1})
        assert p.evaluate(-1) == -3
        assert LaurentPoly.one().evaluate(Fraction(7, 3)) == 1

    def test_trefoil_jones_at_minus_one(self):
        v = poly({4: -1, 3: 1, 1: 1})
        assert v.evaluate(-1) == -3

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly({-1: 1}).evaluate(0)

    @given(polys, polys, st.fractions(min_value=-5, max_value=5, max_denominator=4))
    def test_ring_homomorphism(self, a, b, x):
        if x == 0:
            x = Fraction(1)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


class TestDerivative:
    def test_powers(self):
        assert poly({3: 1}).derivative() == poly({2: 3})
        assert poly({-1: 1}).derivative() == poly({-2: -1})

    def test_trefoil_third_derivative(self):
        v = poly({4: -1, 3: 1, 1: 1})
        assert v.derivative(3).evaluate(1) == -18

    def test_order_zero(self):
        p = poly({2: 1, -2: 1})
        assert p.derivative(0) == p


class TestSymmetry:
    def test_examples(self):
        assert poly({1: 1, 0: -1, -1: 1}).is_symmetric()
        assert not poly({2: 1, -1: 1}).is_symmetric()

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=5))
    def test_genus_one_shape(self, d):
        assert poly({1: d, 0: 1 - 2 * d, -1: d}).is_symmetric()


class TestAlexanderNormalize:
    def test_trefoil(self):
        assert poly({2: 1, 1: -1, 0: 1}).alexander_normalize() == poly(
            {1: 1, 0: -1, -1: 1}
        )

    def test_constant(self):
        assert LaurentPoly.one().alexander_normalize() == LaurentPoly.one()

    def test_figure_eight(self):
        assert poly({3: -1, 2: 3, 1: -1}).alexander_normalize() == poly(
            {1: -1, 0: 3, -1: -1}
        )

    def test_value_zero_rejected(self):
        with pytest.raises(NonNormalizable):
            (T - 1).alexander_normalize()

    def test_nonunit_rejected(self):
        with pytest.raises(NonNormalizable):
            poly({0: 2}).alexander_normalize()

    @given(polys)
    def test_normalized_properties(self, p):
        try:
            q = p.alexander_normalize()
        except NonNormalizable:
            return
        assert q.evaluate(1) == 1
        assert q.is_symmetric()


class TestTextForm:
    def test_render_example(self):
        p = poly({2: Fraction(-1, 12), 0: 1})
        assert p.render() == "-1/12*t^2 + 1"

    def test_render_zero(self):
        assert LaurentPoly.zero().render() == "0"

    @given(polys)
    def test_parse_render_roundtrip(self, p):
        assert parse_laurent(p.render()) == p

    def test_parse_negative_exponent(self):
        assert parse_laurent("1*t^1 - 1 + 1*t^-1") == poly({1: 1, 0: -1, -1: 1})

    def test_parse_bare_variable(self):
        assert parse_laurent("t") == T
        assert parse_laurent("-t^2 + 2") == poly({2: -1, 0: 2})

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_laurent("t + spam")


def _coeff_types(p):
    return {type(c) for c in p.terms.values()}


class TestCoefficientTypes:
    """Integers stay integers; Fraction enters only with a real denominator."""

    def test_integer_invariants_are_int(self):
        trefoil = parse_pd("X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)")
        for p in (
            jones(trefoil),
            jones(PretzelParams(5, 7, -3)),
            alexander_from_seifert(SeifertMatrix([[-1, 1], [0, -1]])),
            alexander_from_seifert(SeifertMatrix([[1, 1, 0, 0], [0, 1, 0, 0],
                                                  [0, 0, -1, 1], [0, 0, 0, -1]])),
        ):
            assert _coeff_types(p) == {int}

    def test_real_denominators_stay_fraction(self):
        assert _coeff_types(parse_laurent("1/2*t")) == {Fraction}
        theta = reduced_two_loop(GenusOneSpine(0, 0, 0), TangleInvariants(v3=1))
        assert _coeff_types(theta) == {Fraction}
