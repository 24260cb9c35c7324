"""Fuzzing of the text readers.

Text drawn over the PD, Laurent and matrix alphabet goes into each input
kind's parser, whatever parses goes on into the computation, and random
rows go through the batch CSV reader: only KnotObstructError may escape,
which the CLI turns into exit code 2.  Rendering and parsing again must
give back the same PD code and the same polynomial.
"""

import os
import tempfile
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st
from test_moves import DIAGRAMS

from knotobstruct import cli
from knotobstruct.diagram import parse_pd, render_pd
from knotobstruct.errors import KnotObstructError
from knotobstruct.laurent import LaurentPoly, parse_laurent
from knotobstruct.obstruction import cosmetic_verdict
from knotobstruct.seifert import GenusOneSpine, SeifertMatrix
from knotobstruct.twoloop import reduced_two_loop

#: pieces of the PD, Laurent and matrix text forms, and some that fit none
TOKENS = ["X(", "(", ")", ",", ";", " ", "-", "+", "*", "t", "^", "/", "x",
          "0", "1", "2", "3", "5", "7", "12", "99999", "1,1,1", "5,7,-3",
          "X(1,4,2,5)", "X(1,1,2,2)", "-1,1;0,-1", "t^2", "\n", '"']
#: rows of small integers, which the pretzel, spine, tinv and Seifert forms
#: read; small X(a,b,c,d) lists, a few of them knots; rendered polynomials
ROWS = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(
    lambda row: ",".join(map(str, row)))
GRIDS = st.lists(ROWS, min_size=1, max_size=4).map(";".join)
QUADS = st.lists(st.tuples(*[st.integers(0, 6)] * 4), max_size=3).map(
    lambda quads: "; ".join("X({},{},{},{})".format(*q) for q in quads))
POLYS = st.dictionaries(st.integers(-8, 8), st.integers(-3, 3), max_size=5).map(
    lambda terms: LaurentPoly(terms).render())
TEXT = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=16).map("".join),
                 ROWS, GRIDS, QUADS, POLYS)

_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _compute(kind: str, value) -> None:
    """Run what a command runs on one parsed input."""
    if kind == "jones":
        cosmetic_verdict(seifert=SeifertMatrix([[-1, 1], [0, -1]]), jones_poly=value)
    elif kind == "tinv":
        reduced_two_loop(GenusOneSpine(1, 1, 0), value)
    else:
        cosmetic_verdict(**{kind: value})


@pytest.mark.parametrize("kind", sorted(cli._PARSERS))
@_SETTINGS
@given(text=TEXT)
def test_parse_and_compute_raise_only_package_errors(kind, text):
    try:
        _compute(kind, cli._parse_input(kind, text))
    except KnotObstructError:
        pass


ROW_KINDS = st.sampled_from(["pretzel", "pd", "seifert", "spine", "", "x"])


@_SETTINGS
@given(st.lists(st.tuples(ROW_KINDS, TEXT, TEXT), max_size=6),
       st.sampled_from(["kind,label,payload\n", "kind,label\n", "", "label,kind\n"]))
def test_batch_reader_raises_only_package_errors(rows, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "".join(f"{k},{label},{payload}\n"
                                      for k, label, payload in rows))
        result = CliRunner().invoke(cli.main, ["batch", "--input", path])
    assert result.exit_code in (0, 2), result.exception
    assert result.exception is None or isinstance(result.exception, SystemExit)


@_SETTINGS
@given(DIAGRAMS)
def test_pd_roundtrip(pd):
    assert parse_pd(render_pd(pd)) == pd


COEFFS = st.one_of(st.integers(-10**6, 10**6),
                   st.fractions(max_denominator=1000).filter(lambda c: c.denominator > 1))


@_SETTINGS
@given(st.dictionaries(st.integers(-50, 50), COEFFS, max_size=8))
def test_laurent_roundtrip(terms):
    poly = LaurentPoly(terms)
    back = parse_laurent(poly.render())
    assert back == poly
    # integers stay int, and only a real denominator is a Fraction
    assert all(isinstance(c, Fraction) == isinstance(poly.terms[e], Fraction)
               for e, c in back.terms.items())
