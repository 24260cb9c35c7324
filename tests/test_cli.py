import json
import os
import threading
import time

import pytest
from click.testing import CliRunner

from knotobstruct import cli, kauffman, obstruction, selftest
from knotobstruct.cli import main
from knotobstruct.diagram import PretzelParams, parse_pd, pretzel_pd, render_pd
from knotobstruct.errors import DiagramTooLarge
from knotobstruct.kauffman import (CONTRACT_WIDTH_CAP, CONTRACT_WORK_CAP,
                                   PRETZEL_TOTAL_CAP, bracket_contract,
                                   contraction_plan, jones)
from knotobstruct.laurent import LaurentPoly
from knotobstruct.obstruction import json_text, obstruction_value, pretzel_family
from knotobstruct.seifert import pretzel_alexander_coeff
from helpers import braid_closure_pd, needs_digit_limit

TREFOIL_PD = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"
#: trefoil # trefoil, whose Delta = (t - 1 + t^-1)^2 rules out genus one
GENUS_TWO = "-1,1,0,0;0,-1,0,0;0,0,-1,1;0,0,0,-1"


#: a 2x2 Seifert matrix with 4000-digit diagonal entries: it passes every
#: input guard, and Delta's coefficients have 8000 digits
LONG_SEIFERT_2X2 = f"{10 ** 4000 - 1},1;0,{10 ** 4000 - 1}"
#: no Seifert matrix of a knot: det(V - V^T) = (10^4000 - 1)^2 has 8000
#: digits, too many to print
LONG_INVALID_2X2 = f"1,{10 ** 4000 - 1};0,1"


def invoke(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


class TestInvariants:
    def test_pretzel_table(self):
        result = invoke("invariants", "--pretzel", "1,1,1")
        assert result.exit_code == 0
        assert "HoldsNontrivialAlexander" in result.output
        assert "-1*t^4 + 1*t^3 + 1*t" in result.output

    def test_pretzel_json(self):
        result = invoke("invariants", "--pretzel", "5,7,-3", "--json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] == "HoldsMod16"
        assert doc["ob"] == "-8"
        assert doc["determinant"] == 1

    def test_pd_source(self):
        result = invoke("invariants", "--pd", TREFOIL_PD, "--json")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["jones"] == {"4": "-1", "3": "1", "1": "1"}

    def test_spine_with_tinv_prints_theta(self):
        result = invoke(
            "invariants", "--spine", "0,0,0", "--tinv", "0,0,0,1"
        )
        assert result.exit_code == 0
        assert "theta" in result.output
        assert "-4*t - 28 - 4*t^-1" in result.output

    def test_spine_with_tinv_json_carries_theta(self):
        result = invoke(
            "invariants", "--spine", "0,0,0", "--tinv", "0,0,0,1", "--json"
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["theta"] == {"-1": "-4", "0": "-28", "1": "-4"}
        assert doc["verdict"] == "Inconclusive"

    def test_theta_leads_the_json_report(self):
        # the exact bytes: theta first, then the report's fields in order
        result = invoke(
            "invariants", "--spine", "1,1,1", "--tinv", "1,2,3,4", "--json"
        )
        assert result.exit_code == 0
        assert result.output == """{
  "theta": {
    "-1": "56",
    "0": "-238",
    "1": "56"
  },
  "alexander": {
    "-1": "-1",
    "0": "3",
    "1": "-1"
  },
  "jones": null,
  "determinant": 5,
  "sigma": 0,
  "w3": null,
  "lambda_w": null,
  "theta_at_1": null,
  "theta_at_minus1": null,
  "ob": null,
  "ob_mod16_nonzero": null,
  "verdict": "HoldsNontrivialAlexander",
  "notes": []
}
"""

    def test_requires_exactly_one_source(self):
        for args in [(), ("--pretzel", "1,1,1", "--spine", "0,0,0")]:
            result = invoke("invariants", *args)
            assert result.exit_code == 2
            assert result.stderr == ("error: give one input source (--pretzel | --pd | "
                                     "--seifert | --spine), or --pd with --seifert\n")

    def test_pd_plus_seifert_pair(self):
        result = invoke("invariants", "--pd", TREFOIL_PD, "--seifert", "-1,1;0,-1")
        assert result.exit_code == 0
        assert "HoldsNontrivialAlexander" in result.output

    @pytest.mark.parametrize("args, message", [
        (("obstruct", "--pd", TREFOIL_PD, "--seifert", "1,1;0,-1"),
         "|V(-1)| = 3 disagrees with |Delta(-1)| = 5"),
        (("obstruct", "--pretzel", "1,1,1", "--jones", "-1*t^4 + 1*t^3 + 1*t^1"),
         "--jones goes with --seifert or --spine"),
        (("obstruct", "--seifert", GENUS_TWO), "not a genus-one knot"),
        (("obstruct", "--pd", "X(1,3,2,4); X(2,4,3,1)"), "not planar"),
        (("obstruct", "--seifert", "0,1;0,0", "--jones", "t"),
         "is no knot's Jones polynomial"),
        (("obstruct", "--spine", "0,0,0", "--jones", "1/2*t^2+1/2"),
         "is no knot's Jones polynomial"),
        *[(("invariants", "--seifert", text), f"--seifert {text!r}")
          for text in ("-1,,1;0,-1", "-1,1,;0,-1", ",-1,1;0,-1", "-1,1;;0,-1", ";")],
        (("obstruct", "--seifert", "-1,1;0,-1", "--jones", "1/0*t"),
         "--jones '1/0*t': zero denominator in Laurent term '1/0*t'"),
    ])
    def test_bad_input_exits_2_with_one_error_line(self, args, message):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert message in result.stderr

    def test_bad_pretzel_exits_2(self):
        result = invoke("invariants", "--pretzel", "2,3,5")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("invariants", "--pretzel", "5,x,-3"),
            ("invariants", "--pretzel", "1,1"),
            ("invariants", "--seifert", "1,x;0,1"),
            ("invariants", "--spine", "1,2"),
            ("invariants", "--spine", "0,0,0", "--tinv", "1,2,3"),
            ("obstruct", "--seifert", "-1,1;0,-1", "--jones", "t^^2"),
            ("obstruct", "--seifert", "-1,1;0,-1", "--jones", "1/0*t"),
            ("invariants", "--pd", "X(1,2,3)"),
            ("obstruct", "--seifert", "-1,1;0,-1", "--jones", "0"),
        ],
    )
    def test_malformed_option_values_exit_2(self, args):
        result = invoke(*args)
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @staticmethod
    def _upper_ones(size):
        # upper-triangular ones: V - V^T has Pfaffian 1 at even size, so
        # det(V - V^T) = 1 and Delta = t^g - t^(g-1) + ... + t^-g
        return ";".join(",".join("1" if j >= i else "0" for j in range(size))
                        for i in range(size))

    def test_oversized_seifert_exits_2_at_once(self):
        start = time.perf_counter()
        result = invoke("invariants", "--seifert", self._upper_ones(18))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "18x18 Seifert matrix exceeds the 16x16 cap" in result.stderr

    @pytest.mark.parametrize("size, digits", [(8, 4000), (16, 300)])
    def test_long_seifert_entries_exit_2_at_once(self, size, digits):
        # a determinant of such a matrix took 24 s and more
        text = ";".join([",".join([str(10 ** digits - 1)] * size)] * size)
        start = time.perf_counter()
        result = invoke("invariants", "--seifert", text)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert f"{size}x{size} Seifert matrix work estimate" in result.stderr

    @needs_digit_limit
    @pytest.mark.parametrize("command", ["invariants", "obstruct"])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_unprintable_report_exits_2(self, command, flags):
        # Delta's 8000-digit coefficients are past int-to-text's limit
        result = invoke(command, "--seifert", LONG_SEIFERT_2X2, *flags)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "digit limit for printing integers" in result.stderr

    @needs_digit_limit
    def test_long_invalid_seifert_gives_its_digit_count(self):
        result = invoke("invariants", "--seifert", LONG_INVALID_2X2)
        assert result.exit_code == 2
        assert result.stderr == ("error: det(V - V^T) = an integer of about 8001 "
                                 "digits != 1: not a Seifert matrix of a knot\n")

    @needs_digit_limit
    def test_unprintable_tinv_theta_exits_2(self):
        # d = nm has 3999 digits, so Delta prints; Theta's (n + m) nm / 2
        # terms do not
        n = str(10 ** 1999)
        result = invoke("invariants", "--spine", f"{n},{n},0", "--tinv", "0,0,0,1")
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "digit limit for printing integers" in result.stderr
        assert invoke("invariants", "--spine", f"{n},{n},0").exit_code == 0

    @pytest.mark.parametrize("text", ["", " "])
    def test_blank_seifert_is_the_unknot(self, text):
        result = invoke("invariants", "--seifert", text, "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["alexander"] == {"0": "1"}

    def test_genus_five_seifert_exits_2_quickly(self):
        # a dense 10x10 under the cap: a cofactor expansion of it took 59 s
        start = time.perf_counter()
        result = invoke("invariants", "--seifert", self._upper_ones(10))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "has degree 5: not a genus-one knot" in result.stderr

    def test_overwide_pd_exits_2_at_once(self):
        # the torus knot T(8,9) as a closed 8-braid: 63 crossings whose
        # greedy contraction order opens 16 boundary edges
        pd = braid_closure_pd(8, list(range(1, 8)) * 9)
        assert contraction_plan(pd)[1] > CONTRACT_WIDTH_CAP
        start = time.perf_counter()
        with pytest.raises(DiagramTooLarge):
            bracket_contract(pd)
        result = invoke("obstruct", "--pd", render_pd(pd))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"exceeds the width cap {CONTRACT_WIDTH_CAP}" in result.stderr

    def test_long_braid_exits_2_at_once(self):
        # (s1...s6)^43: 258 crossings inside the width cap, whose work
        # estimate is about four times the cap (it ran 3 s with no cap)
        pd = braid_closure_pd(7, list(range(1, 7)) * 43)
        _, width, work, _, _ = contraction_plan(pd)
        assert width <= CONTRACT_WIDTH_CAP and work > CONTRACT_WORK_CAP
        start = time.perf_counter()
        with pytest.raises(DiagramTooLarge):
            bracket_contract(pd)
        result = invoke("obstruct", "--pd", render_pd(pd))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"exceeds the cap {CONTRACT_WORK_CAP}" in result.stderr

    def test_many_crossings_exit_2_before_ordering(self):
        # 3003 crossings: the O(n^2) greedy order alone took 1.6 s
        pd = pretzel_pd(PretzelParams(1001, 1001, -1001))
        text = render_pd(pd)
        start = time.perf_counter()
        result = invoke("obstruct", "--pd", text)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "3003 crossings give a contraction work estimate" in result.stderr

    def test_ordering_below_the_floor_is_fast(self):
        # 2643 crossings, just under the n(n+1)/2 floor: the O(n * width)
        # order runs, and its work estimate is refused (the O(n^2) greedy
        # took 1.7 s to get there)
        text = render_pd(pretzel_pd(PretzelParams(881, 881, -881)))
        start = time.perf_counter()
        result = invoke("obstruct", "--pd", text)
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert f"exceeds the cap {CONTRACT_WORK_CAP}" in result.stderr

    # just over the cap, and a total of 600003 that would run for seconds
    @pytest.mark.parametrize("text", [f"{PRETZEL_TOTAL_CAP - 1},1,-1",
                                      "200001,200001,-200001"])
    def test_over_cap_pretzel_exits_2_at_once(self, text):
        start = time.perf_counter()
        result = invoke("obstruct", "--pretzel", text)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"exceeds the pretzel cap {PRETZEL_TOTAL_CAP}" in result.stderr

    def test_half_turned_trefoil_exits_2(self):
        # two quads listed from their outgoing under-strand: the code once
        # passed validation and got the Jones polynomial of another knot
        result = invoke("obstruct", "--pd", "X(2,5,1,4); X(4,1,3,6); X(5,2,6,3)")
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "incoming under-strand" in result.stderr

    def test_pretzel_scan_caps_leave_the_family_room(self):
        # Jones rows fit the twist route's cap up to k = 222, far above the
        # benchmark's family scan (k <= 24)
        totals = [sum(map(abs, pretzel_family(k)[0].as_tuple())) for k in range(1, 224)]
        assert sum(totals[:222]) <= PRETZEL_TOTAL_CAP < sum(totals)

    @pytest.mark.parametrize("args, message", [
        (("--k-max", str(cli.PRETZEL_SCAN_ROW_CAP + 1)),
         f"{cli.PRETZEL_SCAN_ROW_CAP + 1} rows exceed the pretzel-scan cap"),
        (("--k-max", "100000000"), "100000000 rows exceed the pretzel-scan cap"),
        (("--k-max", "223", "--jones-upto", "223"), "sum to 250875, over the pretzel cap"),
        # row counts past sys.maxsize, which len() of a range cannot take
        (("--k-max", str(10 ** 23)), f"{10 ** 23} rows exceed the pretzel-scan cap"),
        (("--k-min", "5", "--k-max", str(10 ** 23), "--jones-upto", "3"),
         f"{10 ** 23 - 4} rows exceed the pretzel-scan cap"),
    ])
    def test_over_cap_pretzel_scan_exits_2_at_once(self, args, message):
        start = time.perf_counter()
        result = invoke("pretzel-scan", *args)
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert message in result.stderr

    def test_tinv_without_spine_exits_2(self):
        result = invoke("invariants", "--pretzel", "1,1,1", "--tinv", "0,0,0,1")
        assert result.exit_code == 2
        assert result.stderr == "error: --tinv needs --spine\n"


class TestObstruct:
    def test_trefoil_verdict(self):
        result = invoke("obstruct", "--pretzel", "1,1,1")
        assert result.exit_code == 0
        assert "HoldsNontrivialAlexander" in result.output

    def test_k1_verdict(self):
        result = invoke("obstruct", "--pretzel", "5,7,-3")
        assert result.exit_code == 0
        assert "HoldsMod16" in result.output

    def test_k3_inconclusive(self):
        result = invoke("obstruct", "--pretzel", "13,15,-7")
        assert result.exit_code == 0
        assert "Inconclusive" in result.output

    def test_pd_plus_seifert_pair_allowed(self):
        result = invoke(
            "obstruct", "--pd", TREFOIL_PD, "--seifert", "-1,1;0,-1", "--json"
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["verdict"] == "HoldsNontrivialAlexander"
        assert doc["lambda_w"] == "-1/18"

    @pytest.mark.parametrize(
        "source", [("--pretzel", "1,1,1"), ("--pd", TREFOIL_PD)]
    )
    def test_jones_with_own_jones_source_exits_2(self, source):
        result = invoke("obstruct", *source, "--jones", "-1*t^4 + 1*t^3 + 1*t^1")
        assert result.exit_code == 2
        assert result.stderr == (
            "error: --jones goes with --seifert or --spine; "
            "--pretzel and --pd compute their own Jones polynomial\n"
        )

    def test_pd_past_brute_cap(self):
        params = PretzelParams(13, 15, -7)
        result = invoke("obstruct", "--pd", render_pd(pretzel_pd(params)), "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["jones"] == json.loads(json_text(jones(params)))

    def test_large_pretzel_under_one_second(self):
        # the family member k = 2500: 20005 crossings
        params, ob, _ = pretzel_family(2500)
        assert params == PretzelParams(10001, 10003, -5001)
        start = time.perf_counter()
        result = invoke("obstruct", "--pretzel", "10001,10003,-5001", "--json")
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["ob"] == str(ob)
        assert doc["alexander"] == {"0": "1"}

    def test_pd_parser_looked_up_at_call_time(self, monkeypatch):
        # a wrapper bound to cli.parse_pd after import must see the call
        seen = []
        monkeypatch.setattr(cli, "parse_pd",
                            lambda text: seen.append(text) or parse_pd(text))
        assert invoke("obstruct", "--pd", TREFOIL_PD).exit_code == 0
        assert seen == [TREFOIL_PD]

    def test_explicit_jones(self):
        result = invoke(
            "obstruct",
            "--seifert", "-1,1;0,-1",
            "--jones", "-1*t^4 + 1*t^3 + 1*t^1",
            "--json",
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["ob"] == "4"


class TestPretzelScan:
    def test_default_range_verdicts(self):
        result = invoke("pretzel-scan", "--k-min", "1", "--k-max", "8", "--json")
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [r["k"] for r in rows] == list(range(1, 9))
        obstructed = {r["k"] for r in rows if r["verdict_mod16"]}
        assert obstructed == {1, 2, 5, 6}
        assert all(r["alexander_trivial"] for r in rows)

    def test_jones_route_agrees(self):
        result = invoke(
            "pretzel-scan", "--k-min", "1", "--k-max", "1", "--jones-upto", "1",
            "--json",
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert rows[0]["routes_agree"] is True
        assert rows[0]["ob_jones_route"] == rows[0]["ob_closed_form"] == "-8"

    def test_jones_rows_match_the_built_polynomial(self):
        # the scan reads Ob off the twist route's numerator; here every row
        # is rebuilt from V itself
        result = invoke("pretzel-scan", "--k-max", "60", "--jones-upto", "60", "--json")
        assert result.exit_code == 0
        expected = []
        for k in range(1, 61):
            params, ob, predicted = pretzel_family(k)
            ob_jones = obstruction_value(jones(params))[2]
            expected.append({
                "k": k, "p": params.p, "q": params.q, "r": params.r,
                "alexander_trivial": pretzel_alexander_coeff(params) == 0,
                "ob_closed_form": str(ob), "verdict_mod16": predicted,
                "ob_jones_route": str(ob_jones), "routes_agree": ob_jones == ob,
            })
        assert json.loads(result.output) == expected

    def test_scan_builds_no_jones_polynomial(self, monkeypatch):
        # neither V nor the dense division by (1 + A^4)^3 is reached: the
        # scan must not go back to expanding V
        def refuse(*args):
            raise AssertionError("the scan expanded a Jones polynomial")

        for module in (kauffman, obstruction):
            monkeypatch.setattr(module, "jones", refuse)
        monkeypatch.setattr(kauffman, "_divide_by_one_plus_a4_cubed", refuse)
        result = invoke("pretzel-scan", "--k-max", "8", "--jones-upto", "8", "--json")
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)
        assert len(rows) == 8 and all(row["routes_agree"] for row in rows)

    def test_text_output(self):
        result = invoke("pretzel-scan", "--k-max", "2")
        assert result.exit_code == 0
        assert "P(5,7,-3)" in result.output
        assert "mod16_obstructs=True" in result.output

    def test_bad_range(self):
        result = invoke("pretzel-scan", "--k-min", "3", "--k-max", "1")
        assert result.exit_code == 2
        assert result.stderr == "error: need 1 <= k-min <= k-max\n"


class TestBatch:
    def test_mixed_csv(self, tmp_path):
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text(
            "kind,label,payload\n"
            "pretzel,trefoil,1,1,1\n"
            "pretzel,k1,5,7,-3\n"
            f'pd,trefoil_pd,"{TREFOIL_PD}"\n'
            "pretzel,bad,2,4,6\n"
            "mystery,huh,1\n"
        )
        out_path = tmp_path / "out.json"
        result = invoke("batch", "--input", str(csv_path), "--output", str(out_path))
        assert result.exit_code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["results"]) == 5
        by_label = {r["label"]: r for r in doc["results"]}
        assert by_label["trefoil"]["report"]["verdict"] == "HoldsNontrivialAlexander"
        assert by_label["k1"]["report"]["verdict"] == "HoldsMod16"
        # a bare PD has no Seifert matrix, hence no Alexander route
        assert by_label["trefoil_pd"]["report"]["verdict"] == "Inconclusive"
        assert "error" in by_label["bad"]
        assert "error" in by_label["huh"]
        assert doc["summary"]["error"] == 2
        assert doc["summary"]["HoldsNontrivialAlexander"] == 1
        assert doc["summary"]["Inconclusive"] == 1
        assert "summary:" in result.output

    def test_non_integer_entries_are_error_rows(self, tmp_path):
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text(
            "kind,label,payload\n"
            "pretzel,bad_pretzel,5,x,-3\n"
            'seifert,bad_seifert,"1,x;0,1"\n'
            'seifert,trefoil,"-1,1;0,-1"\n'
        )
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        by_label = {r["label"]: r for r in doc["results"]}
        assert "'x'" in by_label["bad_pretzel"]["error"]
        assert "'x'" in by_label["bad_seifert"]["error"]
        assert by_label["trefoil"]["report"]["determinant"] == 3
        assert doc["summary"] == {"error": 2, "HoldsNontrivialAlexander": 1}

    @needs_digit_limit
    def test_unprintable_row_is_an_error_row(self, tmp_path):
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text(
            "kind,label,payload\n"
            f'seifert,long,"{LONG_SEIFERT_2X2}"\n'
            'seifert,trefoil,"-1,1;0,-1"\n'
        )
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 0
        by_label = {r["label"]: r for r in json.loads(result.stdout)["results"]}
        assert "digit limit for printing integers" in by_label["long"]["error"]
        assert by_label["trefoil"]["report"]["alexander"] == {"-1": "1", "0": "-1",
                                                             "1": "1"}

    @needs_digit_limit
    def test_long_invalid_matrix_is_an_error_row(self, tmp_path):
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text(
            "kind,label,payload\n"
            f'seifert,long,"{LONG_INVALID_2X2}"\n'
            'seifert,trefoil,"-1,1;0,-1"\n'
        )
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        by_label = {r["label"]: r for r in doc["results"]}
        assert by_label["long"]["error"] == (
            "det(V - V^T) = an integer of about 8001 digits != 1: "
            "not a Seifert matrix of a knot")
        assert by_label["trefoil"]["report"]["determinant"] == 3
        assert doc["summary"] == {"error": 1, "HoldsNontrivialAlexander": 1}

    def test_genus_two_matrix_is_an_error_row(self, tmp_path):
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text(f'kind,label,payload\nseifert,sum,"{GENUS_TWO}"\n')
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 0
        (row,) = json.loads(result.stdout)["results"]
        assert "not a genus-one knot" in row["error"] and row["line"] == 2

    def test_empty_csv(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("kind,label\n")
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 0
        doc = json.loads(result.output.split("summary:")[0])
        assert doc == {"results": [], "summary": {}}

    def test_bad_header(self, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("name,stuff\npretzel,x,1,1,1\n")
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 2
        assert result.stderr == "error: CSV header must start with: kind,label\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = 'kind,label,payload\npretzel,trefoil,1,1,1\nseifert,t,"-1,1;0,-1"\n'
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = invoke("batch", "--input", str(plain))
        got = invoke("batch", "--input", str(marked))
        assert want.exit_code == got.exit_code == 0
        assert got.stdout == want.stdout and got.stderr == want.stderr
        assert json.loads(got.stdout)["summary"] == {"HoldsNontrivialAlexander": 2}

    @pytest.mark.parametrize("content", [
        b"kind,label\npretzel,\xff,1,1,1\n",
        b"kind,label\npd,big," + b"X" * 131073 + b"\n",
        None,
    ], ids=["not-utf8", "field-over-csv-limit", "directory"])
    def test_unreadable_input_exits_2(self, tmp_path, content):
        path = tmp_path / "in.csv"
        path.mkdir() if content is None else path.write_bytes(content)
        result = invoke("batch", "--input", str(path))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: --input ") and result.stderr.count("\n") == 1

    def test_shorter_rerun_leaves_no_stale_tail(self, tmp_path):
        # the second run overwrites the first report in place, then trims
        long_csv, short_csv = tmp_path / "long.csv", tmp_path / "short.csv"
        long_csv.write_text("kind,label\n" + "pretzel,k1,5,7,-3\n" * 20)
        short_csv.write_text("kind,label\npretzel,trefoil,1,1,1\n")
        out_path = tmp_path / "out.json"
        assert invoke("batch", "--input", str(long_csv),
                      "--output", str(out_path)).exit_code == 0
        long_size = out_path.stat().st_size
        result = invoke("batch", "--input", str(short_csv), "--output", str(out_path))
        want = invoke("batch", "--input", str(short_csv))
        assert result.exit_code == want.exit_code == 0
        assert out_path.read_bytes() == want.stdout.encode()
        assert out_path.stat().st_size < long_size

    def test_output_may_be_the_input(self, tmp_path):
        # the CSV is read in full before the report is written over it
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text("kind,label\npretzel,trefoil,1,1,1\n" * 3)
        want = invoke("batch", "--input", str(csv_path))
        result = invoke("batch", "--input", str(csv_path), "--output", str(csv_path))
        assert result.exit_code == want.exit_code == 0
        assert csv_path.read_bytes() == want.stdout.encode()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_output_gets_the_whole_document(self, tmp_path):
        # a FIFO cannot be trimmed; the reader still gets every byte
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text("kind,label\n" + "pretzel,k1,5,7,-3\n" * 40)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        result = invoke("batch", "--input", str(csv_path), "--output", str(fifo))
        reader.join(timeout=30)
        want = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 0 and not reader.is_alive()
        assert got == [want.stdout.encode()]

    @pytest.mark.skipif(os.devnull != "/dev/null", reason="no /dev/null")
    def test_device_output_exits_0(self, tmp_path):
        # ftruncate fails on a character device, so none is attempted
        csv_path = tmp_path / "knots.csv"
        csv_path.write_text("kind,label\npretzel,trefoil,1,1,1\n")
        result = invoke("batch", "--input", str(csv_path), "--output", os.devnull)
        assert result.exit_code == 0 and result.stdout == ""

    @pytest.mark.parametrize("target", ["directory", "missing/out.json"])
    def test_unwritable_output_exits_2(self, tmp_path, target):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text("kind,label\npretzel,trefoil,1,1,1\n")
        (tmp_path / "directory").mkdir()
        result = invoke("batch", "--input", str(csv_path),
                        "--output", str(tmp_path / target))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: --output ") and result.stderr.count("\n") == 1


class TestSelftest:
    def test_all_suites_pass(self):
        result = invoke("selftest")
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "pass" in result.output

    def test_single_suite(self):
        result = invoke("selftest", "--suite", "trefoil")
        assert result.exit_code == 0
        assert "trefoil" in result.output

    def test_failure_names_the_input(self, monkeypatch):
        monkeypatch.setattr(selftest, "bracket_twist", lambda params: LaurentPoly.one())
        result = invoke("selftest", "--suite", "bracket")
        assert result.exit_code == 1
        assert "FAIL  bracket_twist != bracket_brute at PretzelParams(" in result.output

    @pytest.mark.parametrize("engine, named", [
        ("bracket_contract", "bracket_contract != bracket_brute"),
        ("bracket_brute", "bracket_brute != bracket_contract"),
    ])
    def test_failure_names_the_engine(self, monkeypatch, engine, named):
        monkeypatch.setattr(selftest, engine, lambda pd: LaurentPoly.one())
        result = invoke("selftest", "--suite", "bracket")
        assert result.exit_code == 1
        assert f"FAIL  {named} at PretzelParams(" in result.output
