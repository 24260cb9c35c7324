import json
import random
import sys
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotobstruct.diagram import PretzelParams, parse_pd
from knotobstruct.errors import (DiagramTooLarge, InconsistentInput, PreconditionViolation,
                                 ValidationError, digit_estimate)
from knotobstruct.kauffman import jones
from knotobstruct.laurent import LaurentPoly, parse_laurent
from knotobstruct.obstruction import (
    ObstructionReport,
    _lambda_w,
    _thetas,
    cosmetic_verdict,
    json_text,
    jones_values,
    mullins_lambda_w,
    obstruction_value,
    pretzel_family,
    require_printable,
    w3,
)
from knotobstruct.seifert import GenusOneSpine, SeifertMatrix, pretzel_alexander_coeff
from helpers import needs_digit_limit

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
            v.derivative().derivative().evaluate(1),
            v.derivative().derivative().derivative().evaluate(1),
            v.evaluate(-1),
            v.derivative().evaluate(-1),
        )

    def test_integer_coefficients_stay_int(self):
        v2, v3, vm1, dvm1 = jones_values(jones(PretzelParams(5, 7, -3)))
        assert all(type(x) is int for x in (v2, v3, vm1, dvm1))
        assert (vm1, dvm1) == (1, -48)
        assert jones_values(PretzelParams(5, 7, -3)) == (v2, v3, vm1, dvm1)

    @given(st.tuples(*[st.integers(-5000, 4999).map(lambda v: 2 * v + 1)] * 3))
    def test_pretzel_reader_matches_the_built_polynomial(self, pqr):
        # odd triples in [-10^4, 10^4]^3 and their mirrors: the values read
        # off the twist route's numerator against V expanded and summed
        for params in (PretzelParams(*pqr), PretzelParams(*(-v for v in pqr))):
            got = jones_values(params)
            assert got == jones_values(jones(params)), params
            assert all(type(x) is int for x in got)

    def test_pretzel_reader_near_the_cap(self):
        params = PretzelParams(99999, 100001, -49999)
        assert jones_values(params) == jones_values(jones(params))


class TestW3:
    def test_unknot(self):
        assert w3(UNKNOT_V) == 0

    def test_trefoil(self):
        assert w3(TREFOIL_V) == -1

    def test_trivial_family_k1(self):
        assert w3(jones(PretzelParams(5, 7, -3))) == 6 == w3(PretzelParams(5, 7, -3))


class TestMullins:
    def test_unknot(self):
        assert mullins_lambda_w(UNKNOT_V, 0) == 0

    def test_trefoil(self):
        assert mullins_lambda_w(TREFOIL_V, -2) == Fraction(-1, 18)

    def test_trivial_family_k1(self):
        assert mullins_lambda_w(jones(PretzelParams(5, 7, -3)), 0) == 8
        assert mullins_lambda_w(PretzelParams(5, 7, -3), 0) == 8


class TestObstructionValue:
    def test_unknot(self):
        assert obstruction_value(UNKNOT_V) == (0, 0, 0)

    def test_trefoil(self):
        assert obstruction_value(TREFOIL_V) == (-2, 2, 4)

    def test_trivial_family_k1(self):
        assert obstruction_value(jones(PretzelParams(5, 7, -3))) == (12, 4, -8)
        assert obstruction_value(PretzelParams(5, 7, -3)) == (12, 4, -8)


#: the multi-step Fraction formulas, kept as the oracle for the closed forms
def reference_w3(v2, v3):
    return Fraction(1, 36) * v3 + Fraction(1, 12) * v2


def reference_thetas(v2, v3, vm1, dvm1):
    theta1 = 2 * reference_w3(v2, v3)
    theta_m1 = -Fraction(1, 12) * dvm1 * vm1
    return theta1, theta_m1, theta_m1 - theta1


def reference_lambda_w(vm1, dvm1, sigma):
    return Fraction(-dvm1, 6 * vm1) + Fraction(sigma, 4)


values = st.integers(-10**6, 10**6) | st.fractions(-10**3, 10**3, max_denominator=50)


class TestClosedForms:
    @given(values, values, values.filter(bool), values)
    def test_match_multi_step_formulas(self, v2, v3, vm1, dvm1):
        got = _thetas(v2, v3, vm1, dvm1)
        assert got == (reference_w3(v2, v3), *reference_thetas(v2, v3, vm1, dvm1))
        assert all(type(x) is Fraction for x in got)

    @given(values.filter(bool), values, st.integers(-32, 32))
    def test_lambda_w_matches(self, vm1, dvm1, sigma):
        got = _lambda_w(vm1, dvm1, sigma)
        assert type(got) is Fraction and got == reference_lambda_w(vm1, dvm1, sigma)


class TestRequirePrintable:
    def test_digit_estimate_is_exact_or_one_over(self):
        for k in range(1, 400):
            for n in (10 ** k - 1, 10 ** k, -(10 ** k) - 1):
                assert digit_estimate(n) - len(str(abs(n))) in (0, 1), n
        assert digit_estimate(0) == 1

    def test_no_limit_accepts_all(self, monkeypatch):
        # before Python 3.10.7 there is neither the limit nor its getter
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        require_printable(10 ** 5000, LaurentPoly({0: -(10 ** 5000)}))

    @needs_digit_limit
    def test_matches_int_to_text_at_the_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for k in range(630, 650):
                for n in (10 ** k - 1, 10 ** k, -(10 ** k), Fraction(1, 10 ** k)):
                    try:
                        require_printable(n)
                    except DiagramTooLarge:
                        assert k >= 639  # refused: over the limit, or at its edge
                    else:
                        str(n)  # accepted: the text form exists
            require_printable(LaurentPoly({0: 10 ** 600}), None, 3)
            with pytest.raises(DiagramTooLarge, match="640-digit limit"):
                require_printable(1, LaurentPoly({1: 1, 0: 10 ** 641}))
        finally:
            sys.set_int_max_str_digits(limit)

    @needs_digit_limit
    def test_long_seifert_report_raises(self):
        big = 10 ** 4000 - 1
        with pytest.raises(DiagramTooLarge, match="8001 digits"):
            cosmetic_verdict(seifert=SeifertMatrix([[big, 1], [0, big]]))

    @needs_digit_limit
    def test_long_inconsistent_pair_raises_printably(self):
        # det has 8000 digits; the message would have printed it
        big = 10 ** 4000 - 1
        with pytest.raises(DiagramTooLarge):
            cosmetic_verdict(seifert=SeifertMatrix([[big, 1], [0, big]]),
                             jones_poly=UNKNOT_V)


class TestNonIntegerInputs:
    """Every source is exact: an entry or parameter that is no integer is
    refused, not truncated (int(-1.7) is -1, the trefoil's entry) nor
    parsed (int("-1") is -1)."""

    @pytest.mark.parametrize("source", [
        lambda: dict(seifert=SeifertMatrix([[-1.7, 1], [0, -1]])),
        lambda: dict(seifert=SeifertMatrix([["-1", "1"], ["0", "-1"]])),
        lambda: dict(spine=GenusOneSpine(1.5, 0, 0)),
        lambda: dict(pretzel=PretzelParams(1.0, 1, 1)),
    ], ids=["float_entry", "string_entry", "float_spine", "float_pretzel"])
    def test_refused(self, source):
        with pytest.raises(ValidationError, match="must be integers"):
            cosmetic_verdict(**source())


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

    @pytest.mark.parametrize("text", [
        "1*t^1",                      # V'(1) = 1
        "1/2*t^2 + 1/2",              # V(1) = 1, V'(1) = 1, not integral
        "2",                          # V(1) = 2
        "1/2*t^2 - 1*t^1 + 3/2",      # V(1) = 1 and V'(1) = 0, not integral
    ])
    def test_supplied_jones_of_no_knot_raises(self, text):
        with pytest.raises(PreconditionViolation, match="no knot's Jones"):
            cosmetic_verdict(seifert=SeifertMatrix([[0, 1], [0, 0]]),
                             jones_poly=parse_laurent(text))

    def test_seifert_only(self):
        report = cosmetic_verdict(seifert=SeifertMatrix([[6, 4], [3, 2]]))
        assert report.alexander == LaurentPoly.one()
        assert report.jones is None
        assert report.verdict == "Inconclusive"

    def test_inconsistent_pair_raises(self):
        # the trefoil's diagram with the figure-eight's matrix
        pd = parse_pd("X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)")
        fig8_matrix = SeifertMatrix([[1, 1], [0, -1]])
        with pytest.raises(InconsistentInput, match=r"\|V\(-1\)\| = 3 disagrees "
                                                    r"with \|Delta\(-1\)\| = 5"):
            cosmetic_verdict(pd=pd, seifert=fig8_matrix)

    def test_genus_two_alexander_raises(self):
        # trefoil # trefoil: Delta = (t - 1 + t^-1)^2 has a t^2 term
        matrix = SeifertMatrix([[-1, 1, 0, 0], [0, -1, 0, 0],
                                [0, 0, -1, 1], [0, 0, 0, -1]])
        with pytest.raises(PreconditionViolation, match="not a genus-one knot"):
            cosmetic_verdict(seifert=matrix)

    def test_larger_matrix_of_genus_one_alexander_accepted(self):
        # the trefoil's block beside [[0, 1], [0, 0]], whose Delta is 1
        matrix = SeifertMatrix([[-1, 1, 0, 0], [0, -1, 0, 0],
                                [0, 0, 0, 1], [0, 0, 0, 0]])
        report = cosmetic_verdict(seifert=matrix, jones_poly=TREFOIL_V)
        assert report.alexander == LaurentPoly({1: 1, 0: -1, -1: 1})
        assert report.sigma == -2
        assert report.verdict == "HoldsNontrivialAlexander"

    @pytest.mark.parametrize("kwargs", [
        {"pretzel": PretzelParams(1, 1, 1), "jones_poly": TREFOIL_V},
        {"pd": parse_pd(""), "jones_poly": UNKNOT_V},
        {"spine": GenusOneSpine(-1, -1, 0), "pd": parse_pd("")},
        {"spine": GenusOneSpine(-1, -1, 0),
         "seifert": SeifertMatrix([[-1, 1], [0, -1]])},
    ])
    def test_ignored_argument_raises(self, kwargs):
        # each of these used to drop one of its arguments without a word
        with pytest.raises(PreconditionViolation):
            cosmetic_verdict(**kwargs)

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


def json_form(value):
    """A report value as plain dicts, lists and strings, the form that the
    text writer's output must equal json.dumps(..., indent=2) of."""
    if isinstance(value, ObstructionReport):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: json_form(v) for k, v in value.items()}
    if isinstance(value, list):
        return [json_form(v) for v in value]
    if isinstance(value, LaurentPoly):
        return {str(e): str(c) for e, c in sorted(value.terms.items())}
    if isinstance(value, Fraction):
        return str(value)
    return value


# non-ASCII (astral included), quotes, backslashes and control characters
texts = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé\u2028✓😀') | st.characters())
rationals = st.fractions(max_denominator=10**6)
polys = st.dictionaries(st.integers(-40, 40), st.integers() | rationals,
                        max_size=6).map(LaurentPoly)  # {} is the zero polynomial
reports = st.builds(
    ObstructionReport,
    **{name: st.none() | polys for name in ("alexander", "jones")},
    **{name: st.none() | st.integers() for name in ("determinant", "sigma")},
    **{name: st.none() | rationals
       for name in ("w3", "lambda_w", "theta_at_1", "theta_at_minus1", "ob")},
    ob_mod16_nonzero=st.none() | st.booleans(),
    verdict=texts,
    notes=st.lists(texts, max_size=3),
)
batch_rows = (st.fixed_dictionaries({"label": texts, "report": reports})
              | st.fixed_dictionaries({"label": texts, "error": texts,
                                       "line": st.integers(2, 10**6)}))
report_documents = st.one_of(
    reports,
    st.tuples(polys, reports).map(lambda tr: {"theta": tr[0], **vars(tr[1])}),
    st.fixed_dictionaries({
        "results": st.lists(batch_rows, max_size=4),  # [] included
        "summary": st.dictionaries(texts, st.integers(0, 10**4), max_size=3),
    }),
)


class TestReportJson:
    @given(report_documents)
    def test_text_is_json_dumps_of_the_json_form(self, doc):
        assert json_text(doc) == json.dumps(json_form(doc), indent=2)

    def test_pretzel_scan_rows_and_empties(self):
        rows = [{"k": 1, "p": 5, "q": 7, "r": -3, "alexander_trivial": True,
                 "ob_closed_form": "-8", "verdict_mod16": True}, {}, [], None]
        assert json_text(rows) == json.dumps(rows, indent=2)
        assert json_text({"results": [], "summary": {}}) == (
            '{\n  "results": [],\n  "summary": {}\n}')

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            json_text({1, 2})

    def test_roundtrip_exact(self):
        report = cosmetic_verdict(pretzel=PretzelParams(5, 7, -3))
        doc = json.loads(json_text(report))
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
        doc = json.loads(json_text(cosmetic_verdict(pretzel=PretzelParams(1, 1, 1))))
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
