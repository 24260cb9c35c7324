import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotobstruct.diagram import PretzelParams
from knotobstruct.errors import DiagramTooLarge, ValidationError
from knotobstruct.laurent import LaurentPoly
from knotobstruct.seifert import (
    MAX_SEIFERT_SIZE,
    SEIFERT_WORK_CAP,
    GenusOneSpine,
    SeifertMatrix,
    _det,
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
from helpers import inverted, needs_digit_limit

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
        with pytest.raises(ValidationError, match=r"det\(V - V\^T\) = 4 != 1"):
            SeifertMatrix([[0, 2], [0, 0]])
        with pytest.raises(ValidationError):
            SeifertMatrix([[1, 2], [3]])

    @needs_digit_limit
    def test_invalid_message_counts_unprintable_digits(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # det(V - V^T) = x^2: 600 digits print, 1200 are counted
            with pytest.raises(ValidationError, match=rf"= {10 ** 600} != 1"):
                SeifertMatrix([[1, 10 ** 300], [0, 1]])
            with pytest.raises(ValidationError, match="= an integer of about 1201 "
                               r"digits != 1: not a Seifert matrix of a knot"):
                SeifertMatrix([[1, 10 ** 600], [0, 1]])
        finally:
            sys.set_int_max_str_digits(limit)

    @given(st.sampled_from([1, 3, 5]).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_odd_size_rejected(self, rows):
        # V - V^T is skew, so det(V - V^T) = 0 at odd size: the t^(-size/2)
        # shift to Delta is only ever taken at even size
        with pytest.raises(ValidationError, match=r"det\(V - V\^T\) = 0 != 1"):
            SeifertMatrix(rows)

    def test_size_cap(self):
        v = trefoil_sum(8)
        assert v.size == MAX_SEIFERT_SIZE
        assert alexander_from_seifert(v) == TREFOIL_DELTA ** 8
        assert signature(v) == -16
        assert knot_determinant(v) == 3 ** 8
        with pytest.raises(DiagramTooLarge,
                           match="18x18 Seifert matrix exceeds the 16x16 cap"):
            trefoil_sum(9)

    def test_entry_size_cap(self):
        # a dense symmetric matrix plus the upper ones of a 2x2 block
        # diagonal, so det(V - V^T) = 1 at every even size
        rng = random.Random(5)
        rows = [[0] * 16 for _ in range(16)]
        for i in range(16):
            for j in range(i, 16):
                rows[i][j] = rows[j][i] = rng.randint(-1000, 1000)
        for k in range(0, 16, 2):
            rows[k][k + 1] += 1
        assert alexander_from_seifert(SeifertMatrix(rows)).evaluate(1) == 1
        big = 10 ** 3999
        s = GenusOneSpine(big + 1, -big, big + 3)
        assert alexander_from_seifert(seifert_from_spine(s)) == alexander_genus_one(s)
        for size, digits in ((8, 4000), (16, 300)):
            with pytest.raises(DiagramTooLarge, match=(
                    rf"{size}x{size} Seifert matrix work estimate \d+ exceeds "
                    rf"the cap {SEIFERT_WORK_CAP}")):
                SeifertMatrix([[10 ** digits - 1] * size] * size)

    def test_refusal_order(self):
        # shape, then the size cap, then the work cap, then det(V - V^T):
        # each input below also breaks every rule checked after the one
        # it is refused by
        big = 10 ** 3999  # 4000 digits
        for rows, error, message in (
                ([[big] * (i + 1) for i in range(17)], ValidationError,
                 "Seifert matrix must be square"),
                ([[big] * 17] * 17, DiagramTooLarge,
                 "17x17 Seifert matrix exceeds the 16x16 cap"),
                ([[big] * 8] * 8, DiagramTooLarge,
                 "8x8 Seifert matrix work estimate 54431232 exceeds the cap 5000000")):
            with pytest.raises(error) as caught:
                SeifertMatrix(rows)
            assert str(caught.value) == message

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

    @pytest.mark.parametrize("fields", [(1.5, 0, 0), (1, 0.0, 0), (1, 0, 0, 1.0),
                                        ("1", 0, 0), (0, 0, "-1")])
    def test_non_integers_refused(self, fields):
        # 1.5 used to flow into d and give Delta a float coefficient
        with pytest.raises(ValidationError, match="spine fields must be integers"):
            GenusOneSpine(*fields)

    def test_integer_like_fields_read_as_int(self):
        s = GenusOneSpine(True, 0, 0)
        assert type(s.n) is int and s == GenusOneSpine(1, 0, 0)

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


@st.composite
def seifert_matrices(draw):
    """P^T W P for W = [[A, I + C], [C^T, D]] (g x g blocks, A and D
    symmetric, so W - W^T is the standard symplectic form) and an
    integer shear product P.  Half the draws take A = C = 0, where
    det(W - t W^T) = +-t^g and so Delta = 1."""
    g = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    square = st.lists(st.lists(entry, min_size=g, max_size=g), min_size=g, max_size=g)
    a, c, d = draw(square), draw(square), draw(square)
    trivial = draw(st.booleans())
    if trivial:
        a = c = [[0] * g for _ in range(g)]
    w = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        for j in range(g):
            w[i][j] = a[min(i, j)][max(i, j)]
            w[g + i][g + j] = d[min(i, j)][max(i, j)]
            w[i][g + j] = c[i][j] + (i == j)
            w[g + i][j] = c[j][i]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, 2 * g - 1),
                                           st.integers(0, 2 * g - 1), entry),
                                 max_size=4)):
        if i != j:  # add k (row j, column j) to row i, column i
            for row in w:
                row[i] += k * row[j]
            w[i] = [x + k * y for x, y in zip(w[i], w[j])]
    return SeifertMatrix(w), trivial


class TestSeifertFacts:
    """The facts signature and cosmetic_verdict rely on, on random
    Seifert matrices up to 6x6."""

    @given(seifert_matrices())
    def test_symmetrized_form_has_odd_determinant(self, case):
        v, _ = case
        assert _det([[a + b for a, b in zip(row, col)]
                     for row, col in zip(v.rows, v.transpose())]) % 2 == 1

    @given(seifert_matrices())
    def test_alexander_is_normalized(self, case):
        v, _ = case
        delta = alexander_from_seifert(v)
        assert delta.evaluate(1) == 1
        assert delta == inverted(delta)

    @given(seifert_matrices())
    def test_trivial_alexander_has_zero_signature(self, case):
        v, trivial = case
        if trivial:
            assert alexander_from_seifert(v) == LaurentPoly.one()
        if alexander_from_seifert(v) == LaurentPoly.one():
            assert signature(v) == 0


def _symbolic_det_cases():
    """Square matrices of sizes 0-16 for the symbolic determinant oracle:
    Seifert matrices P^T W P (entries up to 3, or up to 10^6), the same
    with a row and column scaled by 3 (det(V - V^T) = 9), diagonal ones
    with entries of +-10^6 and a zero row, and random integer squares."""
    rng = random.Random(5)

    def seifert(g, bound):
        n = 2 * g
        w = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                w[i][j] = w[j][i] = rng.randint(-bound, bound)
        for i in range(g):
            w[i][g + i] += 1
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            for row in w:
                row[i] += k * row[j]
            w[i] = [x + k * y for x, y in zip(w[i], w[j])]
        return w

    cases = []
    for g in (0, 1, 2, 3, 4, 6, 8):
        cases.append(seifert(g, 3))
        cases.append(seifert(g, 10 ** 6))
        if g:
            scaled = seifert(g, 3)
            for row in scaled:
                row[0] *= 3
            scaled[0] = [3 * x for x in scaled[0]]
            cases.append(scaled)
    for size in (1, 2, 5, 8, 16):
        diagonal = [[rng.choice([-1, 1]) * 10 ** 6 if i == j else 0
                     for j in range(size)] for i in range(size)]
        cases.append(diagonal)
        zero_row = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        zero_row[rng.randrange(size)] = [0] * size
        cases.append(zero_row)
        cases.append([[rng.choice([0, 0, 1, -1, 3]) for _ in range(size)]
                      for _ in range(size)])
    return cases


class TestSympyOracle:
    """sympy checks _det and signature on sizes 0-16, Delta and the
    refusal message against its symbolic det(V - t V^T) on sizes 0-16, and
    Delta at integer points on random Seifert matrices up to 6x6."""

    @settings(deadline=None)  # the first call imports sympy
    @given(seifert_matrices())
    def test_alexander_at_integer_points(self, case):
        # det(V - k V^T) = k^g Delta(k), with sympy's integer determinant
        sympy = pytest.importorskip("sympy")
        v, _ = case
        g = v.size // 2
        delta = alexander_from_seifert(v).terms
        for k in (-2, -1, 2, 3):
            m = sympy.Matrix(v.rows) - k * sympy.Matrix(v.transpose())
            value = sum(c * Fraction(k) ** e for e, c in delta.items())
            assert m.det() == k ** g * value, (v, k)

    @pytest.mark.parametrize("rows", _symbolic_det_cases())
    def test_alexander_against_symbolic_det(self, rows):
        # sympy's determinant over Z[t]; Delta is its t^(-size/2) shift
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        t = sympy.Symbol("t")
        size = len(rows)
        m = sympy.Matrix(size, size, [x for row in rows for x in row])
        dm = DomainMatrix.from_Matrix(m - t * m.T)
        poly = sympy.Poly(dm.domain.to_sympy(dm.det()), t)
        at_one = poly.eval(1)
        if at_one != 1:
            with pytest.raises(ValidationError,
                               match=rf"det\(V - V\^T\) = {at_one} != 1: not a Seifert"):
                SeifertMatrix(rows)
        else:
            expected = {e - size // 2: int(c)
                        for (e,), c in poly.terms() if c}
            assert alexander_from_seifert(SeifertMatrix(rows)).terms == expected

    def test_det(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(13)
        for size in [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16] * 5:
            m = [[rng.choice([0, 0, 1, -1, 3]) for _ in range(size)] for _ in range(size)]
            # _det eliminates in place, so it gets a copy of m
            assert _det([row[:] for row in m]) == sympy.Matrix(
                size, size, sum(m, [])).det(), m

    def test_signature(self):
        # a knot's Seifert matrix has even size; here V - V^T is the
        # standard symplectic form and V + V^T a random symmetric matrix
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1)
        for size in [4, 6, 8, 12, 16] * 12:
            rows = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    rows[i][j] = rows[j][i] = rng.choice([0, 0, 1, -1, 2])
                if i % 2 == 0:
                    rows[i][i + 1] += 1
            form = sympy.Matrix(rows) + sympy.Matrix(rows).T
            signs = [1 if e.is_positive else -1 for e in sympy.real_roots(form.charpoly())]
            assert signature(SeifertMatrix(rows)) == sum(signs), rows


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
