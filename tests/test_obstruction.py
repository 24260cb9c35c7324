import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotobstruct.diagram import PretzelParams, parse_pd
from knotobstruct.errors import InconsistentInput
from knotobstruct.kauffman import jones
from knotobstruct.laurent import LaurentPoly
from knotobstruct.obstruction import (
    cosmetic_verdict,
    jones_values,
    mullins_lambda_w,
    obstruction_value,
    pretzel_family,
    w3,
)
from knotobstruct.seifert import GenusOneSpine, SeifertMatrix, pretzel_alexander_coeff

UNKNOT_V = LaurentPoly.one()
TREFOIL_V = LaurentPoly({4: -1, 3: 1, 1: 1})


class TestJonesValues:
    @given(st.dictionaries(
        st.integers(-12, 12),
        st.integers(-50, 50) | st.fractions(-10, 10, max_denominator=7),
        max_size=8,
    ).map(LaurentPoly))
    def test_matches_derivative_route(self, v):
        # the derivative/evaluate route is kept here as the oracle
        assert jones_values(v) == (
            v.derivative(2).evaluate(1),
            v.derivative(3).evaluate(1),
            v.evaluate(-1),
            v.derivative().evaluate(-1),
        )

    def test_integer_coefficients_stay_int(self):
        v2, v3, vm1, dvm1 = jones_values(jones(PretzelParams(5, 7, -3)))
        assert all(type(x) is int for x in (v2, v3, vm1, dvm1))
        assert (vm1, dvm1) == (1, -48)


class TestW3:
    def test_unknot(self):
        assert w3(UNKNOT_V) == 0

    def test_trefoil(self):
        assert w3(TREFOIL_V) == -1

    def test_trivial_family_k1(self):
        assert w3(jones(PretzelParams(5, 7, -3))) == 6


class TestMullins:
    def test_unknot(self):
        assert mullins_lambda_w(UNKNOT_V, 0) == 0

    def test_trefoil(self):
        assert mullins_lambda_w(TREFOIL_V, -2) == Fraction(-1, 18)

    def test_trivial_family_k1(self):
        assert mullins_lambda_w(jones(PretzelParams(5, 7, -3)), 0) == 8


class TestObstructionValue:
    def test_unknot(self):
        assert obstruction_value(UNKNOT_V) == (0, 0, 0)

    def test_trefoil(self):
        assert obstruction_value(TREFOIL_V) == (-2, 2, 4)

    def test_trivial_family_k1(self):
        assert obstruction_value(jones(PretzelParams(5, 7, -3))) == (12, 4, -8)


class TestPretzelFamily:
    def test_k1(self):
        params, ob, predicted = pretzel_family(1)
        assert params == PretzelParams(5, 7, -3)
        assert ob == -8 and predicted

    def test_k2(self):
        params, ob, predicted = pretzel_family(2)
        assert params == PretzelParams(9, 11, -5)
        assert ob == -40 and predicted

    def test_k3(self):
        params, ob, predicted = pretzel_family(3)
        assert params == PretzelParams(13, 15, -7)
        assert ob == -112 and not predicted

    def test_mod4_pattern(self):
        for k in range(1, 101):
            assert pretzel_family(k)[2] == (k % 4 in (1, 2))

    def test_family_alexander_trivial(self):
        for k in range(1, 21):
            params, _, _ = pretzel_family(k)
            assert pretzel_alexander_coeff(params) == 0


class TestCosmeticVerdict:
    def test_trefoil_pretzel(self):
        report = cosmetic_verdict(pretzel=PretzelParams(1, 1, 1))
        assert report.verdict == "HoldsNontrivialAlexander"
        assert report.sigma == 2
        assert report.determinant == 3

    def test_k1_family(self):
        report = cosmetic_verdict(pretzel=PretzelParams(5, 7, -3))
        assert report.verdict == "HoldsMod16"
        assert report.ob == -8
        assert report.ob_mod16_nonzero

    def test_k3_family_inconclusive(self):
        report = cosmetic_verdict(pretzel=PretzelParams(13, 15, -7))
        assert report.verdict == "Inconclusive"
        assert report.ob == -112
        assert not report.ob_mod16_nonzero

    def test_pd_plus_seifert_route(self):
        pd = parse_pd("X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)")
        report = cosmetic_verdict(pd=pd, seifert=SeifertMatrix([[-1, 1], [0, -1]]))
        assert report.verdict == "HoldsNontrivialAlexander"
        assert report.jones == TREFOIL_V
        assert report.w3 == -1
        assert report.lambda_w == Fraction(-1, 18)

    def test_unknot_pd(self):
        report = cosmetic_verdict(pd=parse_pd(""))
        assert report.alexander == LaurentPoly.one()
        assert report.ob == 0
        assert report.verdict == "Inconclusive"

    def test_spine_with_jones(self):
        report = cosmetic_verdict(
            spine=GenusOneSpine(-1, -1, 0), jones_poly=TREFOIL_V
        )
        assert report.verdict == "HoldsNontrivialAlexander"
        assert report.determinant == 3

    def test_seifert_only(self):
        report = cosmetic_verdict(seifert=SeifertMatrix([[6, 4], [3, 2]]))
        assert report.alexander == LaurentPoly.one()
        assert report.jones is None
        assert report.verdict == "Inconclusive"

    def test_strict_mode_catches_mismatch(self, monkeypatch):
        pd = parse_pd("X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)")
        fig8_matrix = SeifertMatrix([[1, 1], [0, -1]])
        monkeypatch.delenv("KNOTOBSTRUCT_STRICT", raising=False)
        report = cosmetic_verdict(pd=pd, seifert=fig8_matrix)
        assert any("disagrees" in n for n in report.notes)
        monkeypatch.setenv("KNOTOBSTRUCT_STRICT", "1")
        with pytest.raises(InconsistentInput):
            cosmetic_verdict(pd=pd, seifert=fig8_matrix)

    def test_random_nontrivial_alexander(self):
        rng = random.Random(17)
        done = 0
        while done < 60:
            p, q, r = (2 * rng.randint(-10, 9) + 1 for _ in range(3))
            params = PretzelParams(p, q, r)
            if pretzel_alexander_coeff(params) == 0:
                continue
            report = cosmetic_verdict(pretzel=params)
            assert report.verdict == "HoldsNontrivialAlexander"
            done += 1

    def test_mod16_flag_semantics(self):
        assert cosmetic_verdict(pretzel=PretzelParams(5, 7, -3)).ob_mod16_nonzero
        rep = cosmetic_verdict(pretzel=PretzelParams(13, 15, -7))
        assert rep.ob == -112 and int(rep.ob) % 16 == 0


class TestReportJson:
    def test_roundtrip_exact(self):
        report = cosmetic_verdict(pretzel=PretzelParams(5, 7, -3))
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["verdict"] == "HoldsMod16"
        assert Fraction(doc["ob"]) == report.ob
        assert Fraction(doc["w3"]) == report.w3
        jones_back = LaurentPoly(
            {int(e): Fraction(c) for e, c in doc["jones"].items()}
        )
        assert jones_back == report.jones
        alex_back = LaurentPoly(
            {int(e): Fraction(c) for e, c in doc["alexander"].items()}
        )
        assert alex_back == report.alexander

    def test_field_names(self):
        doc = cosmetic_verdict(pretzel=PretzelParams(1, 1, 1)).to_json_dict()
        assert set(doc) == {
            "alexander",
            "jones",
            "determinant",
            "sigma",
            "w3",
            "lambda_w",
            "theta_at_1",
            "theta_at_minus1",
            "ob",
            "ob_mod16_nonzero",
            "verdict",
            "notes",
        }
