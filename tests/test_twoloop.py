import random
from fractions import Fraction

import pytest

from knotobstruct.errors import PreconditionViolation, ValidationError
from knotobstruct.laurent import LaurentPoly
from knotobstruct.seifert import GenusOneSpine
from knotobstruct.twoloop import (
    TangleInvariants,
    constraint_solutions,
    constraint_solutions_rational,
    framing_difference,
    reduced_two_loop,
    theta_difference_identity,
)
from knotobstruct.selftest import suite_sixteen_v3
from helpers import inverted


def framing_difference_closed_form(s, ti, sign):
    """-sign * (d G(t) - 4 v2yy Delta(t)) for a spine with m = 0, with
    G(t) = -2 - ((2d+1)/3)(t + t^-1 - 2) and Delta(t) = d t + (1 - 2d)
    + d t^-1 written out: the oracle framing_difference must match."""
    d = s.d
    c = Fraction(2 * d + 1, 3)
    g = LaurentPoly({1: -c, 0: -2 + 2 * c, -1: -c})
    delta = LaurentPoly({1: d, 0: 1 - 2 * d, -1: d})
    return (g * d - delta * (4 * ti.v2yy)) * -sign


class TestReducedTwoLoop:
    def test_all_zero(self):
        assert not reduced_two_loop(GenusOneSpine(0, 0, 0), TangleInvariants())

    def test_pure_v3(self):
        th = reduced_two_loop(GenusOneSpine(0, 0, 0), TangleInvariants(v3=1))
        assert th == LaurentPoly({1: -4, 0: -28, -1: -4})

    def test_pure_v2xy_at_ell_minus_one(self):
        th = reduced_two_loop(GenusOneSpine(0, 0, -1), TangleInvariants(v2xy=1))
        assert th == LaurentPoly({0: -2})

    @pytest.mark.parametrize("fields", [(0.5, 1, 1, 1), (1, 1, 1, 2.0),
                                        ("1", 1, 1, 1), (0, 0, "3", 0)])
    def test_non_integer_invariants_refused(self, fields):
        # 0.5 used to end reduced_two_loop in a bare AttributeError
        with pytest.raises(ValidationError,
                           match="tangle invariants must be integers"):
            TangleInvariants(*fields)

    def test_symmetric_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            s = GenusOneSpine(
                rng.randint(-10, 10),
                rng.randint(-10, 10),
                rng.randint(-10, 10),
                rng.choice([1, -1]),
            )
            ti = TangleInvariants(*(rng.randint(-10, 10) for _ in range(4)))
            th = reduced_two_loop(s, ti)
            assert th == inverted(th)


class TestFramingDifference:
    def test_vanishes_at_d_zero(self):
        for ell in (0, -1):
            for n in (-3, 0, 5):
                for sign in (1, -1):
                    s = GenusOneSpine(n, 0, ell)
                    diff = framing_difference(s, TangleInvariants(v2xx=4, v2xy=7), sign)
                    assert not diff

    def test_closed_form_example(self):
        s = GenusOneSpine(1, 0, -2)
        diff = framing_difference(s, TangleInvariants(), -1)
        assert s.d == -2
        assert diff == LaurentPoly({1: -2, 0: 8, -1: -2})

    def test_pure_v2yy(self):
        diff = framing_difference(
            GenusOneSpine(0, 0, 0), TangleInvariants(v2yy=1), 1
        )
        assert diff == LaurentPoly({0: 4})

    def test_precondition(self):
        with pytest.raises(PreconditionViolation):
            framing_difference(GenusOneSpine(0, 1, 0), TangleInvariants(), 1)

    def test_matches_closed_form_randomized(self):
        rng = random.Random(23)
        for _ in range(300):
            s = GenusOneSpine(
                rng.randint(-10, 10), 0, rng.randint(-10, 10), rng.choice([1, -1])
            )
            ti = TangleInvariants(*(rng.randint(-10, 10) for _ in range(4)))
            sign = rng.choice([1, -1])
            assert framing_difference(s, ti, sign) == framing_difference_closed_form(
                s, ti, sign
            )


class TestConstraints:
    @pytest.mark.parametrize("bound", [1, 5, 50])
    def test_only_trivial_solution(self, bound):
        assert constraint_solutions(bound) == {(0, 0)}

    def test_rational_relaxation_reports_quarter_root(self):
        sols = constraint_solutions_rational()
        assert (Fraction(0), Fraction(0)) in sols
        assert (Fraction(1, 4), Fraction(-1, 8)) in sols
        assert all(d.denominator != 1 for d, _ in sols if d != 0)


class TestThetaDifference:
    def test_sixteen_for_unit_v3(self):
        assert theta_difference_identity(
            GenusOneSpine(5, 0, 0), TangleInvariants(v3=1)
        ) == 16

    def test_v2xy_cancels(self):
        assert theta_difference_identity(
            GenusOneSpine(-3, 0, -1), TangleInvariants(7, 0, 13, -2)
        ) == -32

    def test_zero(self):
        assert theta_difference_identity(GenusOneSpine(0, 0, 0), TangleInvariants()) == 0

    def test_preconditions(self):
        with pytest.raises(PreconditionViolation):
            theta_difference_identity(GenusOneSpine(0, 1, 0), TangleInvariants())
        with pytest.raises(PreconditionViolation):
            theta_difference_identity(GenusOneSpine(1, 1, 0), TangleInvariants())

    def test_randomized_identity(self):
        assert suite_sixteen_v3(300, seed=5) is None
