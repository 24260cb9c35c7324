import json
import time

import pytest
from click.testing import CliRunner

from knotobstruct.cli import main

TREFOIL_PD = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"


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

    def test_requires_exactly_one_source(self):
        assert invoke("invariants").exit_code == 2
        assert (
            invoke("invariants", "--pretzel", "1,1,1", "--spine", "0,0,0").exit_code
            == 2
        )

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

    def test_oversized_seifert_exits_2_at_once(self):
        # dense 10x10 upper-triangular ones: det(V - V^T) = 1, and a
        # cofactor expansion of it would take 10! terms
        text = ";".join(
            ",".join("1" if j >= i else "0" for j in range(10)) for i in range(10)
        )
        start = time.perf_counter()
        result = invoke("invariants", "--seifert", text)
        assert time.perf_counter() - start < 2.0
        assert result.exit_code == 2
        assert "10x10 Seifert matrix exceeds the 8x8 cap" in result.stderr

    def test_tinv_without_spine_exits_2(self):
        result = invoke("invariants", "--pretzel", "1,1,1", "--tinv", "0,0,0,1")
        assert result.exit_code == 2
        assert "--tinv needs --spine" in result.output


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
        assert "--jones goes with --seifert or --spine" in result.output

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

    def test_text_output(self):
        result = invoke("pretzel-scan", "--k-max", "2")
        assert result.exit_code == 0
        assert "P(5,7,-3)" in result.output
        assert "mod16_obstructs=True" in result.output

    def test_bad_range(self):
        assert invoke("pretzel-scan", "--k-min", "3", "--k-max", "1").exit_code != 0


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
        assert invoke("batch", "--input", str(csv_path)).exit_code != 0


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

    def test_flip_smoothing_fails(self):
        result = invoke("selftest", "--suite", "trefoil", "--flip-smoothing")
        assert result.exit_code != 0
        assert "FAIL" in result.output
