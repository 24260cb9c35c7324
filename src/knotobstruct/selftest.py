"""Embedded oracle suites, runnable from the CLI without pytest.

Each takes its bound as an argument (the acceptance gates pass larger ones)
and returns None when it passes, else a text naming the input it failed on.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .diagram import PretzelParams, mirror, parse_pd, pretzel_pd
from .kauffman import bracket_brute, bracket_contract, bracket_twist, jones
from .laurent import LaurentPoly
from .obstruction import VERDICT_MOD16, cosmetic_verdict, pretzel_family
from .seifert import GenusOneSpine, m_forcing_check, pretzel_alexander_coeff
from .twoloop import (TangleInvariants, constraint_solutions,
                      constraint_solutions_rational, theta_difference_identity)

TREFOIL_PD = "X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)"
TREFOIL_BRACKET = LaurentPoly({5: -1, -3: -1, -7: 1})
TREFOIL_MIRROR_BRACKET = LaurentPoly({-5: -1, 3: -1, 7: 1})
TREFOIL_JONES = LaurentPoly({4: -1, 3: 1, 1: 1})


def suite_trefoil() -> str | None:
    """Bracket/sign convention tripwire against the trefoil oracle.

    Swapping the A- and B-smoothings everywhere gives the mirror's bracket
    <D>(A^-1), which the chiral trefoil's oracle bracket tells apart.
    """
    pd = parse_pd(TREFOIL_PD)
    for name, got, want in [
        ("bracket", bracket_brute(pd), TREFOIL_BRACKET),
        ("mirror bracket", bracket_brute(mirror(pd)), TREFOIL_MIRROR_BRACKET),
        ("contracted bracket", bracket_contract(pd), TREFOIL_BRACKET),
        ("contracted mirror bracket", bracket_contract(mirror(pd)),
         TREFOIL_MIRROR_BRACKET),
        ("Jones polynomial", jones(pd), TREFOIL_JONES),
    ]:
        if got != want:
            return f"trefoil {name} {got.render()} != {want.render()}"
    return None


def pretzels(max_total: int):
    """Every P(p,q,r) with |p| + |q| + |r| <= max_total."""
    odd = [v for v in range(-max_total, max_total + 1) if v % 2]
    for p, q, r in product(odd, odd, odd):
        if abs(p) + abs(q) + abs(r) <= max_total:
            yield PretzelParams(p, q, r)


def suite_bracket(max_total: int = 9) -> str | None:
    """The twist route, contraction of pretzel_pd and the brute-force state
    sum give one bracket; a failure names the engine out of line."""
    for params in pretzels(max_total):
        pd = pretzel_pd(params)
        got = {"bracket_twist": bracket_twist(params),
               "bracket_contract": bracket_contract(pd),
               "bracket_brute": bracket_brute(pd)}
        values = list(got.values())
        if len(set(values)) == 3:
            return f"{', '.join(got)} all differ at {params}"
        odd = [name for name, v in got.items() if values.count(v) == 1]
        if odd:
            agree = [name for name, v in got.items() if v != got[odd[0]]]
            return f"{odd[0]} != {agree[-1]} at {params}"
    return None


def suite_m_forcing(bound: int = 5) -> str | None:
    """Alexander invariance under a crossing change forces m = 0."""
    return None if m_forcing_check(bound) else f"m_forcing_check({bound}) failed"


def suite_constraints(bound: int = 50) -> str | None:
    """(0, 0) is the only integer solution in [-bound, bound]^2; the
    rational relaxation has the non-integral root (1/4, -1/8)."""
    found = constraint_solutions(bound)
    if found != {(0, 0)}:
        return f"integer solutions {sorted(found)} over [-{bound}, {bound}]^2"
    if (Fraction(1, 4), Fraction(-1, 8)) not in constraint_solutions_rational():
        return "rational root (1/4, -1/8) missing"
    return None


def suite_sixteen_v3(trials: int = 200, seed: int = 0) -> str | None:
    """Theta(-1) - Theta(1) = 16 v3 on random d = 0 spines, both eps signs."""
    rng = random.Random(seed)
    for _ in range(trials):
        eps = rng.choice([1, -1])
        ell = rng.choice([0, -eps])
        s = GenusOneSpine(rng.randint(-20, 20), 0, ell, eps)
        ti = TangleInvariants(*(rng.randint(-20, 20) for _ in range(4)))
        if theta_difference_identity(s, ti) != 16 * ti.v3:
            return f"Theta(-1) - Theta(1) != 16 v3 at {s}, {ti}"
    return None


def suite_family(k_max: int = 8) -> str | None:
    """The trivial-Alexander family P(4k+1, 4k+3, -(2k+1)), k <= k_max:
    Delta = 1 by the closed form and the matrix route, the closed-form Ob
    and the k = 1, 2 (mod 4) prediction, which the verdict and its
    Jones-route Ob must match."""
    for k in range(1, k_max + 1):
        params, ob, predicted = pretzel_family(k)
        obstructs = k % 4 in (1, 2)
        report = cosmetic_verdict(pretzel=params)
        checks = {
            "parameters": params == PretzelParams(4 * k + 1, 4 * k + 3, -(2 * k + 1)),
            "closed-form Alexander": pretzel_alexander_coeff(params) == 0,
            "matrix Alexander": report.alexander == LaurentPoly.one(),
            "closed-form Ob": ob == Fraction(-16 * k * (k + 1) * (2 * k + 1), 12),
            "prediction": predicted == obstructs,
            "verdict": (report.verdict == VERDICT_MOD16) == obstructs,
            "Jones-route Ob": report.ob == ob,
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            return f"k = {k}, {params}: {', '.join(failed)}"
    return None


SUITES = {
    "trefoil": suite_trefoil,
    "bracket": suite_bracket,
    "m-forcing": suite_m_forcing,
    "constraints": suite_constraints,
    "sixteen-v3": suite_sixteen_v3,
    "family": suite_family,
}
