import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from helpers import faces
from test_moves import DIAGRAMS

from knotobstruct.diagram import (
    PDCode,
    PretzelParams,
    mirror,
    parse_pd,
    pretzel_pd,
    render_pd,
    validate_pd,
    writhe,
)
from knotobstruct.errors import PDSyntaxError, ValidationError
from knotobstruct.kauffman import jones
from knotobstruct.laurent import LaurentPoly
from knotobstruct.selftest import pretzels

TREFOIL = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"


class TestParse:
    def test_trefoil(self):
        pd = parse_pd(TREFOIL)
        assert pd.n == 3
        assert pd.free_loops == 0
        assert pd.crossings[0] == (1, 4, 2, 5)

    def test_empty_is_unknot(self):
        pd = parse_pd("")
        assert pd.n == 0 and pd.free_loops == 1

    def test_kink_is_valid(self):
        pd = parse_pd("X(1,1,2,2)")
        assert pd.n == 1

    def test_malformed_token(self):
        with pytest.raises(PDSyntaxError):
            parse_pd("X(1,2,3)")
        with pytest.raises(PDSyntaxError):
            parse_pd("Y(1,2,3,4)")

    def test_bad_multiplicity(self):
        with pytest.raises(ValidationError):
            parse_pd("X(1,1,1,2)")

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_pd("X(1,4,2,7); X(3,6,4,1); X(5,2,6,3)")

    def test_two_component_link_rejected(self):
        # Hopf-link style labeling: locally consistent, but not one knot
        with pytest.raises(ValidationError):
            parse_pd("X(1,3,2,4); X(3,1,4,2)")

    def test_roundtrip(self):
        pd = parse_pd(TREFOIL)
        assert parse_pd(render_pd(pd)) == pd
        for params in [(1, 1, 1), (3, -5, 7), (5, 7, -3)]:
            pd = pretzel_pd(PretzelParams(*params))
            assert parse_pd(render_pd(pd)) == pd


class TestValidator:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DIAGRAMS, st.data())
    def test_half_turned_quad_rejected(self, pd, data):
        # X(c,d,a,b) starts at the outgoing under-strand: a must follow c,
        # which needs a = a + 2 (mod 2n), so n = 1
        i = data.draw(st.integers(0, pd.n - 1))
        a, b, c, d = pd.crossings[i]
        quads = pd.crossings[:i] + ((c, d, a, b),) + pd.crossings[i + 1:]
        with pytest.raises(ValidationError, match="incoming under-strand"):
            PDCode(quads)

    def test_repeated_label_off_a_curl_rejected(self):
        # two labels of P(-7,-3,-1) swapped: X(14,14,15,5) starts at its
        # under-strand but its over-strand 14 -> 5 has no direction
        quads = [list(q) for q in pretzel_pd(PretzelParams(-7, -3, -1)).crossings]
        quads[4][1], quads[5][1] = quads[5][1], quads[4][1]
        assert quads[4] == [14, 14, 15, 5]
        with pytest.raises(ValidationError, match=r"unreadable at X\(14, 14, 15, 5\)"):
            PDCode(tuple(map(tuple, quads)))

    def test_virtual_trefoil_rejected(self):
        # every crossing keeps the local rules, but the code has 2 faces
        # where a planar diagram with 2 crossings has 4
        with pytest.raises(ValidationError, match="has 2 faces, not the 4"):
            parse_pd("X(1,3,2,4); X(2,4,3,1)")

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DIAGRAMS)
    def test_moved_diagrams_pass_the_face_count(self, pd):
        # R1 curls, R2 fingers and relabellings keep a diagram planar
        validate_pd(pd)
        validate_pd(mirror(pd))

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DIAGRAMS)
    def test_dart_table_pairs_equal_labels(self, pd):
        # curled, relabelled and fingered diagrams and their mirrors: the
        # partner table is an involution with no fixed point, and a dart's
        # partner carries its label
        for diagram in (pd, mirror(pd)):
            flat = [e for quad in diagram.crossings for e in quad]
            partner = diagram.partner
            assert partner == validate_pd(diagram)[0]
            assert len(partner) == len(flat) == 4 * diagram.n
            for dart, other in enumerate(partner):
                assert other != dart and partner[other] == dart
                assert flat[other] == flat[dart]

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(DIAGRAMS)
    def test_kept_faces_and_signs(self, pd):
        # curled, relabelled and fingered diagrams and their mirrors: the
        # kept faces are the label-based face walk's, n + 2 of them, the
        # writhe sums the kept signs, and the mirror negates each one
        for diagram in (pd, mirror(pd)):
            walked = sorted(sorted(4 * i + s for i, s in face) for face in faces(diagram))
            assert sorted(map(sorted, diagram.faces)) == walked
            assert len(diagram.faces) == diagram.n + 2
            assert writhe(diagram) == sum(diagram.signs)
        assert mirror(pd).signs == tuple(-sign for sign in pd.signs)

    def test_derived_fields_stay_out_of_eq_hash_and_repr(self):
        assert [f.name for f in dataclasses.fields(PDCode)
                if f.compare or f.repr or f.init] == ["crossings"]
        pd = parse_pd(TREFOIL)
        assert repr(pd) == f"PDCode(crossings={pd.crossings!r})"
        assert (pd.signs, len(pd.faces)) == ((1, 1, 1), 5)

    @pytest.mark.parametrize("quads", [
        ((0, 1, 1, 2),), ((-1, 2, 2, 1),), ((1, 2, 2),), ((1, 2, 2, 1, 1),),
        ((1, 1.5, 2, 2),), ((1, "x", 2, 2),),
    ], ids=["zero", "negative", "short", "long", "float", "str"])
    def test_label_multiset_rejected(self, quads):
        # each way out of the one pass that pairs the darts; a label that
        # is no integer is refused like any other bad label
        with pytest.raises(ValidationError, match="1..2, each appearing exactly twice"):
            PDCode(quads)

    @pytest.mark.parametrize("text, sign", [("X(1,1,2,2)", -1), ("X(1,2,2,1)", 1),
                                            ("X(2,1,1,2)", 1), ("X(2,2,1,1)", -1)])
    def test_one_crossing_curls(self, text, sign):
        assert writhe(parse_pd(text)) == sign


class TestPDCodeType:
    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError):
            PDCode(((1, 1, 1, 2),))

    def test_no_crossings_is_unknot(self):
        pd = PDCode(())
        assert pd == parse_pd("") and pd.free_loops == 1
        assert jones(pd) == LaurentPoly.one()


class TestPretzelParams:
    def test_oddness_enforced(self):
        with pytest.raises(ValidationError):
            PretzelParams(2, 1, 1)

    @pytest.mark.parametrize("params", [(1.0, 1, 1), (1, 3, 5.0), ("1", 1, 1)])
    def test_non_integers_refused(self, params):
        # 1.0 % 2 is 1.0, so the oddness check alone would pass it
        with pytest.raises(ValidationError, match="must be integers"):
            PretzelParams(*params)

    def test_integer_like_fields_read_as_int(self):
        class Three:
            def __index__(self):
                return 3

        params = PretzelParams(True, Three(), -5)
        assert type(params.p) is int and type(params.q) is int
        assert params == PretzelParams(1, 3, -5)

    def test_crossing_count(self):
        assert pretzel_pd(PretzelParams(5, 7, -3)).n == 15
        assert pretzel_pd(PretzelParams(1, 1, 1)).n == 3

    def test_labels_are_pinned(self):
        # the benchmark's PD rows are these labels; pretzels(13) is gate 4's corpus
        assert render_pd(pretzel_pd(PretzelParams(1, 1, 1))) == (
            "X(1,4,2,5); X(5,2,6,3); X(3,6,4,1)")
        text = "\n".join(render_pd(pretzel_pd(params)) for params in pretzels(13))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0f0324155b133de35be1cdc86081c8b9d28db172ff9e7d8095fa25e6bf926f7c")


class TestWrithe:
    def test_unknot(self):
        assert writhe(parse_pd("")) == 0

    def test_trefoil(self):
        assert writhe(parse_pd(TREFOIL)) == 3

    def test_mirror_trefoil_pretzel(self):
        assert writhe(pretzel_pd(PretzelParams(-1, -1, -1))) == -3

    def test_pretzel_writhe_is_parameter_sum(self):
        # the twist route of jones() relies on this; same corpus as gate 4
        for params in pretzels(13):
            assert writhe(pretzel_pd(params)) == sum(params.as_tuple())

    def test_mirror_negates(self):
        for text in [TREFOIL, "X(1,1,2,2)"]:
            pd = parse_pd(text)
            assert writhe(mirror(pd)) == -writhe(pd)
        for params in [(1, 1, 1), (3, 5, -1), (-3, 1, 5)]:
            pd = pretzel_pd(PretzelParams(*params))
            assert writhe(mirror(pd)) == -writhe(pd)


class TestPretzelRotation:
    def test_rotations_share_jones(self):
        for p, q, r in [(1, 1, 1), (3, -1, 5), (5, 7, -3)]:
            js = {
                jones(pretzel_pd(PretzelParams(*rot)))
                for rot in [(p, q, r), (q, r, p), (r, p, q)]
            }
            assert len(js) == 1
