"""Acceptance gate: one test per release criterion.

Every check is exact (rational arithmetic, bit-exact comparisons) and each
test prints a single ``ACCEPT <n> pass/FAIL`` line with its runtime, so the
gate can be audited from the pytest output alone.  Runtime ceilings are part
of the criteria and are asserted.  Gates 1 and 4-7 run the `selftest`
suites at the gate's bounds; a suite returns None or names the input it
failed on, which the failed assertion shows.
"""

import random
import time

from knotobstruct.diagram import PretzelParams, mirror, parse_pd, pretzel_pd
from knotobstruct.kauffman import jones
from knotobstruct.laurent import LaurentPoly
from knotobstruct.obstruction import cosmetic_verdict, obstruction_value, w3
from knotobstruct.seifert import (
    SeifertMatrix,
    alexander_from_seifert,
    knot_determinant,
    pretzel_alexander_coeff,
    pretzel_seifert,
    signature,
)
from knotobstruct.selftest import (
    suite_bracket,
    suite_constraints,
    suite_family,
    suite_m_forcing,
    suite_sixteen_v3,
)
from helpers import inverted

TREFOIL_PD = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"
FIG8_PD = "X(4,2,5,1); X(8,6,1,5); X(6,3,7,4); X(2,7,3,8)"


class _Gate:
    """Context manager: time a criterion, print its pass/FAIL line."""

    def __init__(self, number, label, limit_s):
        self.number = number
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit_s
        print(
            f"ACCEPT {self.number:>2} {'pass' if ok else 'FAIL'}"
            f"  {self.label}  ({elapsed:.3f}s < {self.limit_s}s)"
        )
        if exc_type is None and elapsed >= self.limit_s:
            raise AssertionError(
                f"criterion {self.number} exceeded {self.limit_s}s ({elapsed:.3f}s)"
            )
        return False


def test_criterion_1_pretzel_family_sweep():
    with _Gate(1, "pretzel family sweep k=1..8", 1.0):
        assert suite_family(8) is None


def test_criterion_2_jones_route_k1():
    params = PretzelParams(5, 7, -3)
    pd = pretzel_pd(params)
    assert pd.n == 15
    with _Gate(2, "contracted PD bracket at k=1 (15 crossings)", 10.0):
        v_pd = jones(pd)
    with _Gate(2, "twist-method bracket at k=1", 0.1):
        v_twist = jones(params)
    assert v_pd == v_twist
    assert v_twist.evaluate(-1) == 1
    assert v_twist.derivative().evaluate(-1) == -48
    assert w3(v_twist) == 6
    assert obstruction_value(v_twist) == (12, 4, -8)


def test_criterion_3_jones_route_k2():
    with _Gate(3, "twist-method Jones route at k=2", 1.0):
        v = jones(PretzelParams(9, 11, -5))
        assert w3(v) == 30
        assert v.derivative().evaluate(-1) * v.evaluate(-1) == -240
        assert obstruction_value(v) == (60, 20, -40)


def test_criterion_4_bracket_oracle_equivalence():
    with _Gate(4, "twist == contract == brute bracket, |p|+|q|+|r| <= 13", 60.0):
        assert suite_bracket(13) is None


def test_criterion_5_m_forcing():
    with _Gate(5, "Alexander invariance forces m = 0, bound 10", 5.0):
        assert suite_m_forcing(10) is None


def test_criterion_6_constraint_system():
    with _Gate(6, "constraint system over [-50,50]^2", 1.0):
        assert suite_constraints(50) is None


def test_criterion_7_sixteen_v3_identity():
    with _Gate(7, "Theta(-1) - Theta(1) = 16 v3, 1000 random spines", 1.0):
        assert suite_sixteen_v3(1000, seed=7) is None


def test_criterion_8_known_knot_regression():
    with _Gate(8, "unknot/trefoil/figure-eight regression", 10.0):
        assert jones(parse_pd("")) == LaurentPoly.one()
        assert alexander_from_seifert(SeifertMatrix([])) == LaurentPoly.one()
        assert w3(LaurentPoly.one()) == 0

        trefoil_v = jones(parse_pd(TREFOIL_PD))
        assert trefoil_v == LaurentPoly({4: -1, 3: 1, 1: 1})
        assert w3(trefoil_v) == -1
        trefoil_matrix = SeifertMatrix([[-1, 1], [0, -1]])
        assert signature(trefoil_matrix) == -2
        assert alexander_from_seifert(trefoil_matrix) == LaurentPoly(
            {1: 1, 0: -1, -1: 1}
        )

        fig8_v = jones(parse_pd(FIG8_PD))
        assert fig8_v == LaurentPoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})
        assert alexander_from_seifert(SeifertMatrix([[1, 1], [0, -1]])) == LaurentPoly(
            {1: -1, 0: 3, -1: -1}
        )

        mirror_v = jones(mirror(parse_pd(TREFOIL_PD)))
        assert mirror_v == inverted(trefoil_v)
        assert mirror_v != trefoil_v


def test_criterion_9_determinant_consistency():
    with _Gate(9, "|V(-1)| == |Delta(-1)| across both routes", 10.0):
        corpus = [
            PretzelParams(1, 1, 1),
            PretzelParams(3, 5, -1),
            PretzelParams(5, 7, -3),
            PretzelParams(-3, -3, -3),
            PretzelParams(3, -5, 7),
            PretzelParams(9, 11, -5),
        ]
        for params in corpus:
            v = jones(params)
            delta = alexander_from_seifert(pretzel_seifert(params))
            assert abs(v.evaluate(-1)) == abs(delta.evaluate(-1))
            assert knot_determinant(pretzel_seifert(params)) == abs(delta.evaluate(-1))


def test_criterion_10_main_theorem_branch():
    with _Gate(10, "100 random nontrivial-Alexander pretzels", 10.0):
        rng = random.Random(10)
        done = 0
        while done < 100:
            p, q, r = (2 * rng.randint(-12, 11) + 1 for _ in range(3))
            if pretzel_alexander_coeff(PretzelParams(p, q, r)) == 0:
                continue
            report = cosmetic_verdict(pretzel=PretzelParams(p, q, r))
            assert report.verdict == "HoldsNontrivialAlexander"
            done += 1
