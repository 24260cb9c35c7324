import random

import pytest

from knotobstruct.diagram import PretzelParams
from knotobstruct.errors import DiagramTooLarge, ValidationError
from knotobstruct.laurent import LaurentPoly
from knotobstruct.seifert import (
    MAX_SEIFERT_SIZE,
    GenusOneSpine,
    SeifertMatrix,
    alexander_from_seifert,
    alexander_genus_one,
    crossing_change,
    knot_determinant,
    m_forcing_check,
    pretzel_alexander_coeff,
    pretzel_seifert,
    seifert_from_spine,
    signature,
)

TREFOIL_V = SeifertMatrix([[-1, 1], [0, -1]])
FIG8_V = SeifertMatrix([[1, 1], [0, -1]])
TREFOIL_DELTA = LaurentPoly({1: 1, 0: -1, -1: 1})


def trefoil_sum(k):
    """Block-diagonal Seifert matrix of the connected sum of k trefoils."""
    return SeifertMatrix(
        [[TREFOIL_V.rows[i % 2][j % 2] if i // 2 == j // 2 else 0
          for j in range(2 * k)] for i in range(2 * k)]
    )


class TestSeifertMatrix:
    def test_valid_construction(self):
        assert TREFOIL_V.size == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            SeifertMatrix([[1, 0], [0, 1]])  # det(V - V^T) = 0
        with pytest.raises(ValidationError):
            SeifertMatrix([[1, 2], [3]])

    def test_size_cap(self):
        assert trefoil_sum(MAX_SEIFERT_SIZE // 2).size == MAX_SEIFERT_SIZE
        with pytest.raises(DiagramTooLarge):
            trefoil_sum(MAX_SEIFERT_SIZE // 2 + 1)

    def test_empty_matrix_is_unknot(self):
        v = SeifertMatrix([])
        assert alexander_from_seifert(v) == LaurentPoly.one()
        assert signature(v) == 0
        assert knot_determinant(v) == 1


class TestAlexander:
    def test_trefoil(self):
        assert alexander_from_seifert(TREFOIL_V) == TREFOIL_DELTA

    def test_figure_eight(self):
        assert alexander_from_seifert(FIG8_V) == LaurentPoly({1: -1, 0: 3, -1: -1})

    def test_genus_two_matrix(self):
        # connected sums of two and of three trefoils via block Seifert matrices
        assert trefoil_sum(2) == SeifertMatrix(
            [
                [-1, 1, 0, 0],
                [0, -1, 0, 0],
                [0, 0, -1, 1],
                [0, 0, 0, -1],
            ]
        )
        for k in (2, 3):
            assert alexander_from_seifert(trefoil_sum(k)) == TREFOIL_DELTA ** k


class TestSpine:
    def test_seifert_from_spine(self):
        s = GenusOneSpine(-1, -1, 0, 1)
        assert seifert_from_spine(s) == SeifertMatrix([[-1, 0], [1, -1]])
        assert alexander_from_seifert(seifert_from_spine(s)) == TREFOIL_DELTA
        assert s.d == 1

    def test_degenerate_spine(self):
        s = GenusOneSpine(0, 0, 0, 1)
        assert seifert_from_spine(s) == SeifertMatrix([[0, 0], [1, 0]])
        assert alexander_genus_one(s) == LaurentPoly.one()

    def test_negative_d(self):
        s = GenusOneSpine(1, -1, 0, 1)
        assert seifert_from_spine(s) == SeifertMatrix([[1, 0], [1, -1]])
        assert alexander_from_seifert(seifert_from_spine(s)) == LaurentPoly(
            {1: -1, 0: 3, -1: -1}
        )
        assert s.d == -1

    def test_ell_minus_one_gives_trivial(self):
        assert alexander_genus_one(GenusOneSpine(0, 0, -1)) == LaurentPoly.one()

    def test_crossing_change(self):
        assert crossing_change(GenusOneSpine(0, 0, 0), 1) == GenusOneSpine(1, 0, 0)
        s = crossing_change(GenusOneSpine(-1, -1, 0), -1)
        assert s == GenusOneSpine(-2, -1, 0)
        assert s.d == 2
        s = crossing_change(GenusOneSpine(5, 0, -1), 1)
        assert s.d == 0  # m = 0 makes d framing-invariant

    def test_closed_form_matches_matrix_route(self):
        for n in range(-4, 5):
            for m in range(-4, 5):
                for ell in range(-4, 5):
                    for eps in (1, -1):
                        s = GenusOneSpine(n, m, ell, eps)
                        assert alexander_genus_one(s) == alexander_from_seifert(
                            seifert_from_spine(s)
                        )


class TestSignature:
    def test_trefoil(self):
        assert signature(TREFOIL_V) == -2

    def test_pretzel_5_7_m3(self):
        assert signature(SeifertMatrix([[6, 4], [3, 2]])) == 0

    def test_positive_definite(self):
        assert signature(SeifertMatrix([[1, 1], [0, 1]])) == 2

    def test_basis_change_invariance(self):
        rng = random.Random(7)
        for _ in range(50):
            n, m, ell = (rng.randint(-5, 5) for _ in range(3))
            v = seifert_from_spine(GenusOneSpine(n, m, ell, rng.choice([1, -1])))
            sig = signature(v)
            # random unimodular P from integer shears and swaps
            p = [[1, 0], [0, 1]]
            for _ in range(6):
                k = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    p = [[p[0][0] + k * p[1][0], p[0][1] + k * p[1][1]], p[1]]
                else:
                    p = [p[0], [p[1][0] + k * p[0][0], p[1][1] + k * p[0][1]]]
            rows = v.rows
            pv = [
                [
                    sum(p[i][a] * rows[a][b] * p[j][b] for a in range(2) for b in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]
            det_p = p[0][0] * p[1][1] - p[0][1] * p[1][0]
            assert det_p in (1, -1)
            if det_p == -1:
                continue  # P^T V P is Seifert only for det +1 under our check
            assert signature(SeifertMatrix(pv)) == sig


class TestPretzelSeifert:
    def test_trefoil(self):
        v = pretzel_seifert(PretzelParams(1, 1, 1))
        assert v == SeifertMatrix([[1, 1], [0, 1]])
        assert alexander_from_seifert(v) == TREFOIL_DELTA

    def test_trivial_family_member(self):
        v = pretzel_seifert(PretzelParams(5, 7, -3))
        assert v == SeifertMatrix([[6, 4], [3, 2]])
        assert alexander_from_seifert(v) == LaurentPoly.one()
        assert knot_determinant(v) == 1

    def test_d_two(self):
        params = PretzelParams(3, 5, -1)
        assert pretzel_alexander_coeff(params) == 2
        assert alexander_from_seifert(pretzel_seifert(params)) == LaurentPoly(
            {1: 2, 0: -3, -1: 2}
        )

    def test_d_form_random_triples(self):
        rng = random.Random(3)
        for _ in range(100):
            p, q, r = (2 * rng.randint(-8, 7) + 1 for _ in range(3))
            params = PretzelParams(p, q, r)
            d = pretzel_alexander_coeff(params)
            assert alexander_from_seifert(pretzel_seifert(params)) == LaurentPoly(
                {1: d, 0: 1 - 2 * d, -1: d}
            )


class TestDeterminant:
    def test_trefoil(self):
        assert knot_determinant(TREFOIL_V) == 3

    def test_figure_eight(self):
        assert knot_determinant(FIG8_V) == 5


class TestMForcing:
    def test_small_ranges(self):
        assert m_forcing_check(1)
        assert m_forcing_check(3)

    def test_witness_with_nonzero_m(self):
        s = GenusOneSpine(0, 1, 0)
        before = alexander_from_seifert(seifert_from_spine(s))
        after = alexander_from_seifert(seifert_from_spine(crossing_change(s, 1)))
        assert before == LaurentPoly.one()  # d = 0
        assert after == LaurentPoly({1: 1, 0: -1, -1: 1})  # d' = 1
        assert before != after
