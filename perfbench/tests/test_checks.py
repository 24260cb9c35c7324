"""The benchmark's checks accept the program's real output and reject
corrupted copies of it.

Run with:  python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402

import knotobstruct  # noqa: E402
from knotobstruct import cli  # noqa: E402
from knotobstruct.diagram import PretzelParams, parse_pd  # noqa: E402
from knotobstruct.kauffman import jones  # noqa: E402
from knotobstruct.seifert import (GenusOneSpine, alexander_from_seifert,  # noqa: E402
                                  seifert_from_spine)


def run_batch(corp, tmp_path) -> dict:
    corpus.write(corp, tmp_path)
    path = tmp_path / "input.csv"
    out = tmp_path / "out.json"
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main.main(args=["batch", "--input", str(path), "--output", str(out)],
                      standalone_mode=False)
    return json.loads(out.read_text())


def twist_route(meta) -> dict:
    return {b: dict(jones(PretzelParams(*pqr)).terms)
            for b, pqr in meta["bases"].items()}


@pytest.fixture(scope="module")
def pd_case(tmp_path_factory):
    corp = corpus.pd_batch(seed=5, bases=((1, 1, 3), (3, 1, 3), (1, 5, -1)))
    doc = run_batch(corp, tmp_path_factory.mktemp("pd"))
    return corp.meta, doc, twist_route(corp.meta)


@pytest.fixture(scope="module")
def verdict_case(tmp_path_factory):
    corp = corpus.verdict_batch(seed=5, abs_values=(1, 3, 5), family_k=2,
                                spines=30)
    return corp.meta, run_batch(corp, tmp_path_factory.mktemp("verdict"))


@pytest.fixture(scope="module")
def family_case():
    corp = corpus.family_scan(seed=0, k_max=4)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main.main(args=["pretzel-scan", "--k-max", "4", "--jones-upto", "4",
                            "--json"], standalone_mode=False)
    return corp.meta, json.loads(buf.getvalue())


def _report(doc, label):
    return next(r["report"] for r in doc["results"] if r["label"] == label)


def _chiral_base(meta, doc):
    """A base whose Jones polynomial is not its own mirror image."""
    for base in meta["bases"]:
        jp = checks.poly(_report(doc, f"{base}.plain")["jones"])
        if jp != checks.invert(jp):
            return base
    raise AssertionError("corpus has no chiral base")


# -- the program's own output passes -------------------------------------


def test_pd_batch_output_passes(pd_case):
    meta, doc, twist = pd_case
    assert checks.check_pd_batch(meta, doc, twist) == []
    crossings = sorted(info["crossings"] for info in meta["rows"].values())
    assert crossings == [5, 5, 5, 6, 7, 7, 7, 7, 7, 7, 8, 8]


def test_verdict_batch_output_passes(verdict_case):
    meta, doc = verdict_case
    assert checks.check_verdict_batch(meta, doc) == []
    verdicts = {r["report"]["verdict"] for r in doc["results"]}
    assert checks.NONTRIVIAL in verdicts and checks.INCONCLUSIVE in verdicts


def test_family_scan_output_passes(family_case):
    meta, rows = family_case
    assert checks.check_family_scan(meta, rows) == []


def test_spine_sweep_output_passes():
    corp = corpus.spine_sweep(seed=2, bound=2, sample=10)
    sample = [{str(e): str(c) for e, c in alexander_from_seifert(
        seifert_from_spine(GenusOneSpine(*s))).terms.items()}
        for s in corp.meta["sample"]]
    assert checks.check_spine_sweep(corp.meta, True, sample) == []
    sample[3] = {"0": "1"} if sample[3] != {"0": "1"} else {"1": "1"}
    assert checks.check_spine_sweep(corp.meta, True, sample)
    assert checks.check_spine_sweep(corp.meta, False, sample[:0])


# -- corrupted outputs are rejected --------------------------------------


def test_flipped_jones_coefficient_rejected(pd_case, verdict_case):
    meta, doc, twist = pd_case
    bad = copy.deepcopy(doc)
    rep = _report(bad, "b0.plain")
    e = next(iter(rep["jones"]))
    rep["jones"][e] = str(-Fraction(rep["jones"][e]))
    assert checks.check_pd_batch(meta, bad, twist)

    vmeta, vdoc = verdict_case
    bad = copy.deepcopy(vdoc)
    rep = _report(bad, "p3")
    e = max(rep["jones"], key=int)
    rep["jones"][e] = str(-Fraction(rep["jones"][e]))
    assert checks.check_verdict_batch(vmeta, bad)


def test_mirror_jones_not_inverted_rejected(pd_case, verdict_case):
    meta, doc, twist = pd_case
    base = _chiral_base(meta, doc)
    bad = copy.deepcopy(doc)
    _report(bad, f"{base}.mirror")["jones"] = _report(bad, f"{base}.plain")["jones"]
    problems = checks.check_pd_batch(meta, bad, twist)
    assert any(f"{base}.mirror" in p for p in problems)

    vmeta, vdoc = verdict_case
    label = next(lab for lab, info in vmeta["rows"].items()
                 if info.get("source") and
                 checks.poly(_report(vdoc, lab)["jones"])
                 != checks.invert(checks.poly(_report(vdoc, lab)["jones"])))
    bad = copy.deepcopy(vdoc)
    _report(bad, f"{label}.mirror")["jones"] = _report(bad, label)["jones"]
    assert any("mirror Jones" in p for p in checks.check_verdict_batch(vmeta, bad))


def test_ob_off_by_16_rejected(family_case, verdict_case):
    meta, rows = family_case
    for key in ("ob_jones_route", "ob_closed_form"):
        bad = copy.deepcopy(rows)
        bad[2][key] = str(Fraction(bad[2][key]) + 16)
        assert checks.check_family_scan(meta, bad)

    vmeta, vdoc = verdict_case
    bad = copy.deepcopy(vdoc)
    rep = _report(bad, "fam1")
    rep["ob"] = str(Fraction(rep["ob"]) + 16)
    assert checks.check_verdict_batch(vmeta, bad)


def test_alexander_coefficient_changed_rejected(verdict_case):
    meta, doc = verdict_case
    for label in ("p2", "s4"):
        bad = copy.deepcopy(doc)
        rep = _report(bad, label)
        rep["alexander"]["0"] = str(Fraction(rep["alexander"]["0"]) + 2)
        assert checks.check_verdict_batch(meta, bad)


def test_verdict_swapped_rejected(verdict_case):
    meta, doc = verdict_case
    swap = {checks.NONTRIVIAL: checks.INCONCLUSIVE,
            checks.INCONCLUSIVE: checks.NONTRIVIAL,
            checks.MOD16: checks.INCONCLUSIVE}
    for label in ("p0", "s0", "fam1", "fam1.mirror"):
        bad = copy.deepcopy(doc)
        rep = _report(bad, label)
        rep["verdict"] = swap[rep["verdict"]]
        assert checks.check_verdict_batch(meta, bad), label


def test_missing_and_error_rows_reported(verdict_case):
    meta, doc = verdict_case
    bad = copy.deepcopy(doc)
    bad["results"][0] = {"label": bad["results"][0]["label"], "error": "x"}
    del bad["results"][1]
    reports, errors = checks.batch_results(bad)
    assert len(errors) == 1
    assert any("missing" in p for p in checks.check_verdict_batch(meta, bad))


# -- corpus and spans -----------------------------------------------------


def test_corpus_depends_only_on_seed():
    a, b = corpus.verdict_batch(7), corpus.verdict_batch(7)
    assert a.csv_text == b.csv_text
    assert a.csv_text != corpus.verdict_batch(8).csv_text
    counts = [sorted(i["crossings"] for i in corpus.pd_batch(s).meta["rows"].values())
              for s in (1, 2)]
    assert counts[0] == counts[1]


def test_chunks_cover_a_round_once(tmp_path):
    for name, gen in corpus.GENERATORS.items():
        corp = gen(4)
        jobs = corpus.write(corp, tmp_path / name)
        assert sum(j["items"] for j in jobs) == corp.items
    ks = [(c["k_min"], c["k_max"]) for c in corpus.family_scan(0).chunks]
    assert ks[0][0] == 1 and ks[-1][1] == corpus.FAMILY_K
    assert all(a[1] + 1 == b[0] for a, b in zip(ks, ks[1:]))
    rows = corpus.pd_batch(4).csv_text.splitlines()[1:]
    assert len(rows) == len(set(rows)) == corpus.pd_batch(4).items


def test_transformed_diagrams_are_valid():
    meta = corpus.pd_batch(3, bases=((3, 3, 3),))
    for row in meta.csv_text.splitlines()[1:]:
        pd_text = row.split(",", 2)[2].strip('"')
        assert parse_pd(pd_text).n in (9, 10)


def test_tracer_counts_and_restores():
    originals = (knotobstruct.obstruction.jones, knotobstruct.kauffman.jones,
                 knotobstruct.LaurentPoly.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert knotobstruct.obstruction.jones is not originals[0]
        tracer.call(lambda: knotobstruct.obstruction.cosmetic_verdict(
            pretzel=PretzelParams(3, 5, -3)), "cli.command")
    finally:
        tracer.uninstall()
    assert (knotobstruct.obstruction.jones, knotobstruct.kauffman.jones,
            knotobstruct.LaurentPoly.__mul__) == originals
    m = tracer.metrics(rounds=1)
    assert set(m) <= set(METRICS)
    assert m["kauffman.twist_tangle.calls"] == 3
    assert m["kauffman.twist_tangle.halftwists"] == 11
    assert m["obstruction.cosmetic_verdict.calls"] == 1
    assert m["kauffman.bracket_brute.calls"] == 0
    assert m["laurent.mul.calls"] > 0 and m["laurent.init.calls"] > 0
    selfs = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert abs(sum(selfs.values()) - total) < 1e-6
