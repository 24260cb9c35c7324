import json
import time

import pytest
from click.testing import CliRunner

from knotobstruct import cli, selftest
from knotobstruct.cli import main
from knotobstruct.diagram import PDCode, PretzelParams, parse_pd, pretzel_pd, render_pd
from knotobstruct.errors import DiagramTooLarge
from knotobstruct.kauffman import (CONTRACT_WIDTH_CAP, CONTRACT_WORK_CAP,
                                   PRETZEL_TOTAL_CAP, bracket_contract,
                                   contraction_order, jones)
from knotobstruct.laurent import LaurentPoly
from knotobstruct.obstruction import json_value, pretzel_family

TREFOIL_PD = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"


def invoke(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def braid_closure_pd(strands, word):
    """PD code of the closure of a braid word; +i is sigma_i, -i its inverse.

    Strands run downward; a crossing's incoming edges are its top-left and
    top-right ones, and the over-strand of sigma_i runs top-left to
    bottom-right.
    """
    top = list(range(strands))
    cur = list(top)
    raw = []  # (top-left, top-right, bottom-left, bottom-right, positive)
    for g in word:
        i = abs(g) - 1
        bl = strands + 2 * len(raw)
        br = bl + 1
        raw.append([cur[i], cur[i + 1], bl, br, g > 0])
        cur[i], cur[i + 1] = bl, br
    close = {cur[p]: top[p] for p in range(strands)}
    for x in raw:
        x[2:4] = [close.get(e, e) for e in x[2:4]]
    after = {}  # edge -> next edge along the knot
    for tl, tr, bl, br, _ in raw:
        after[tl], after[tr] = br, bl
    label = {raw[0][0]: 1}
    e = after[raw[0][0]]
    while e not in label:
        label[e] = len(label) + 1
        e = after[e]
    quads = []
    for tl, tr, bl, br, positive in raw:
        tl, tr, bl, br = label[tl], label[tr], label[bl], label[br]
        quads.append((tr, tl, bl, br) if positive else (tl, bl, br, tr))
    return PDCode(tuple(quads))


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

    def test_overwide_pd_exits_2_at_once(self):
        # the torus knot T(8,9) as a closed 8-braid: 63 crossings whose
        # greedy contraction order opens 16 boundary edges
        pd = braid_closure_pd(8, list(range(1, 8)) * 9)
        assert contraction_order(pd)[1] > CONTRACT_WIDTH_CAP
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
        _, width, work = contraction_order(pd)
        assert width <= CONTRACT_WIDTH_CAP and work > CONTRACT_WORK_CAP
        start = time.perf_counter()
        with pytest.raises(DiagramTooLarge):
            bracket_contract(pd)
        result = invoke("obstruct", "--pd", render_pd(pd))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"exceeds the cap {CONTRACT_WORK_CAP}" in result.stderr

    def test_many_crossings_exit_2_before_ordering(self):
        # 3003 crossings at width 6: the greedy order alone took 1.6 s
        pd = pretzel_pd(PretzelParams(1001, 1001, -1001))
        text = render_pd(pd)
        start = time.perf_counter()
        result = invoke("obstruct", "--pd", text)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "3003 crossings give a contraction work estimate" in result.stderr

    # just over the cap, and a total of 600003 that would run for seconds
    @pytest.mark.parametrize("text", [f"{PRETZEL_TOTAL_CAP - 1},1,-1",
                                      "200001,200001,-200001"])
    def test_over_cap_pretzel_exits_2_at_once(self, text):
        start = time.perf_counter()
        result = invoke("obstruct", "--pretzel", text)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"exceeds the pretzel cap {PRETZEL_TOTAL_CAP}" in result.stderr

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

    def test_pd_past_brute_cap(self):
        params = PretzelParams(13, 15, -7)
        result = invoke("obstruct", "--pd", render_pd(pretzel_pd(params)), "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["jones"] == json_value(jones(params))

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
        result = invoke("batch", "--input", str(csv_path))
        assert result.exit_code == 2
        assert result.stderr == "error: CSV header must start with: kind,label\n"

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
