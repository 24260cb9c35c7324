from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from knotobstruct.diagram import PretzelParams, parse_pd
from knotobstruct.kauffman import jones
from knotobstruct.laurent import LaurentPoly, parse_laurent
from knotobstruct.seifert import GenusOneSpine, SeifertMatrix, alexander_from_seifert
from knotobstruct.twoloop import TangleInvariants, reduced_two_loop

T = LaurentPoly({1: 1})
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
        assert not p + (-p)
        assert p - p == LaurentPoly()

    def test_scalar_and_int_mixing(self):
        p = T + 1
        assert 2 * p == poly({1: 2, 0: 2})
        assert p * Fraction(1, 2) == poly({1: Fraction(1, 2), 0: Fraction(1, 2)})
        assert not p * 0

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


class TestEquality:
    """A polynomial equals only polynomials, so equal values hash alike."""

    def test_not_equal_to_scalar(self):
        assert LaurentPoly.one() != 1
        assert LaurentPoly() != 0

    def test_equal_polynomials_share_a_set_slot(self):
        assert len({LaurentPoly({0: 1}), LaurentPoly.one()}) == 1
        assert len({1, LaurentPoly.one()}) == 2

    @given(st.dictionaries(st.integers(-6, 6), st.integers(-2, 2) | coeffs, max_size=8))
    def test_dict_drops_zeros(self, terms):
        # the map's zero coefficients go, so an all-zero map is LaurentPoly()
        p = LaurentPoly(terms)
        assert p.terms == {e: c for e, c in terms.items() if c}
        assert (p == LaurentPoly()) == (not any(terms.values()))
        assert not LaurentPoly() and LaurentPoly().terms == {}

    def test_terms_is_a_read_only_view(self):
        # no copy is made, and no zero coefficient can be written through it
        p = LaurentPoly({1: 2, -1: 3})
        with pytest.raises(TypeError):
            p.terms[0] = 0
        with pytest.raises(TypeError):
            del p.terms[1]
        assert p == LaurentPoly({1: 2, -1: 3}) and p.terms == {1: 2, -1: 3}


class TestEvaluate:
    def test_basic(self):
        p = poly({1: 1, 0: -1, -1: 1})
        assert p.evaluate(-1) == -3
        assert p.evaluate(1) == 1

    def test_trefoil_jones_at_minus_one(self):
        v = poly({4: -1, 3: 1, 1: 1})
        assert v.evaluate(-1) == -3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            poly({-1: 1}).evaluate(0)

    @pytest.mark.parametrize("x", [2, Fraction(7, 3)])
    def test_other_points_rejected(self, x):
        with pytest.raises(ValueError, match="t = 1 or t = -1"):
            poly({-1: 1}).evaluate(x)

    @given(polys, polys, st.sampled_from([1, -1]))
    def test_ring_homomorphism(self, a, b, x):
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


class TestDerivative:
    def test_powers(self):
        assert poly({3: 1}).derivative() == poly({2: 3})
        assert poly({-1: 1}).derivative() == poly({-2: -1})

    def test_trefoil_third_derivative(self):
        v = poly({4: -1, 3: 1, 1: 1})
        assert v.derivative().derivative().derivative().evaluate(1) == -18


@st.composite
def packed(draw):
    """(bits, digits): every digit has |c| < 2^(bits - 1)."""
    bits = draw(st.integers(2, 40))
    half = 1 << bits - 1
    return bits, draw(st.lists(st.integers(1 - half, half - 1), max_size=8))


class TestFromDigits:
    """from_digits reads back the digits packed as sum_k c_k 2^(bits*k)."""

    @given(packed(), st.integers(-50, 50), st.sampled_from([1, 4]))
    @example((2, []), 0, 1)  # value 0 is the zero polynomial
    @example((5, [3, 0, -15]), -7, 4)  # a negative top digit
    def test_round_trip(self, case, lo, step):
        bits, digits = case
        value = sum(c << bits * k for k, c in enumerate(digits))
        got = LaurentPoly.from_digits(value, bits, lo, step)
        assert got == LaurentPoly({lo + step * k: c for k, c in enumerate(digits)})
        assert all(type(c) is int for c in got.terms.values())


class TestTextForm:
    def test_render_example(self):
        p = poly({2: Fraction(-1, 12), 0: 1})
        assert p.render() == "-1/12*t^2 + 1"

    def test_render_zero(self):
        assert LaurentPoly().render() == "0"

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

    def test_parse_zero_denominator_names_the_term(self):
        with pytest.raises(ValueError, match=r"^zero denominator in Laurent term '3/0\*t\^2'$"):
            parse_laurent("t - 3/0*t^2")


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

    def test_parsed_integer_text_is_int(self):
        assert _coeff_types(parse_laurent("-1*t^4 + 1*t^3 + t - 2")) == {int}
        mixed = parse_laurent("1/2*t^2 + 3*t")
        assert type(mixed.terms[2]) is Fraction and type(mixed.terms[1]) is int

    def test_real_denominators_stay_fraction(self):
        assert _coeff_types(parse_laurent("1/2*t")) == {Fraction}
        theta = reduced_two_loop(GenusOneSpine(0, 0, 0), TangleInvariants(v3=1))
        assert _coeff_types(theta) == {Fraction}
