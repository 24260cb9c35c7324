"""Metamorphic tests for the diagram layer.

Cyclic edge relabelling and Reidemeister-1 curls change a PD code but not
its knot, so the Jones polynomial must not move; a curl changes the writhe
by exactly its own sign; the mirror inverts the variable.  The two PD
bracket engines must agree on every diagram the brute force can take.
The moves are written here from the PD convention alone, not with the
package's diagram helpers.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from knotobstruct.diagram import PDCode, mirror, parse_pd, pretzel_pd, writhe
from knotobstruct.kauffman import BRUTE_CAP, bracket_brute, bracket_contract, jones
from knotobstruct.selftest import TREFOIL_PD, pretzels

TREFOIL = parse_pd(TREFOIL_PD)
FIG8 = parse_pd("X(4,2,5,1); X(8,6,1,5); X(6,3,7,4); X(2,7,3,8)")


def relabel(pd: PDCode, shift: int) -> PDCode:
    """Start the edge numbering `shift` edges further along the knot."""
    m = 2 * pd.n
    return PDCode(tuple(tuple((x - 1 + shift) % m + 1 for x in q)
                        for q in pd.crossings))


#: the four curls on edge e: (sign, crossing on the labels e, e+1, e+2).
#: The strand runs e, then e+1 around the loop, then e+2; X(a,b,c,d) is
#: listed from the incoming under-edge a, and the crossing is positive
#: when the over-strand runs b -> d.
CURLS = {
    "pos_under": (1, lambda e: (e, e + 1, e + 1, e + 2)),
    "neg_under": (-1, lambda e: (e, e + 2, e + 1, e + 1)),
    "pos_over": (1, lambda e: (e + 1, e, e + 2, e + 1)),
    "neg_over": (-1, lambda e: (e + 1, e + 1, e + 2, e)),
}


def _enters(quad, slot: int, edge: int, m: int) -> bool:
    """Whether `edge` enters its crossing at `slot`: the under-strand
    enters at slot 0, and an over-strand slot is entered when the edge
    leaving opposite it comes next along the knot."""
    if slot in (0, 2):
        return slot == 0
    return quad[slot ^ 2] == edge % m + 1


def curl(pd: PDCode, edge: int, kind: str) -> PDCode:
    """Put a curl on `edge`: the labels after it move up by two, and the
    end of `edge` at the crossing it enters becomes edge + 2."""
    m = 2 * pd.n
    quads = [[x + 2 if x > edge else x for x in q] for q in pd.crossings]
    ci, slot = next((ci, slot) for ci, q in enumerate(pd.crossings)
                    for slot, x in enumerate(q)
                    if x == edge and _enters(q, slot, edge, m))
    quads[ci][slot] = edge + 2
    return PDCode(tuple(map(tuple, quads)) + (CURLS[kind][1](edge),))


def moved(bases, max_moves: int):
    """(base, the base after 1..max_moves relabellings and curls, the
    writhe the curls add)."""

    @st.composite
    def build(draw):
        base = draw(st.sampled_from(bases))
        pd, dw = base, 0
        for _ in range(draw(st.integers(1, max_moves))):
            if draw(st.booleans()):
                pd = relabel(pd, draw(st.integers(1, 2 * pd.n - 1)))
            else:
                kind = draw(st.sampled_from(sorted(CURLS)))
                pd = curl(pd, draw(st.integers(1, 2 * pd.n)), kind)
                dw += CURLS[kind][0]
        return base, pd, dw

    return build()


#: the trefoil, the figure-eight and gate 4's pretzels (|p|+|q|+|r| <= 13)
BASES = [TREFOIL, FIG8] + [pretzel_pd(p) for p in pretzels(13)]
#: the brute-force comparison keeps to bases of at most 9 crossings
SMALL_BASES = [TREFOIL, FIG8] + [pretzel_pd(p) for p in pretzels(9)]

_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(moved(SMALL_BASES, 3))
def test_contract_matches_brute(case):
    _, pd, _ = case
    assert pd.n <= BRUTE_CAP
    assert bracket_contract(pd) == bracket_brute(pd)


@_SETTINGS
@given(moved(BASES, 4))
def test_jones_invariant_under_moves(case):
    base, pd, _ = case
    assert jones(pd) == jones(base)


@_SETTINGS
@given(moved(BASES, 4))
def test_mirror_inverts_variable(case):
    _, pd, _ = case
    assert jones(mirror(pd)) == jones(pd).substitute_power(-1)


@_SETTINGS
@given(moved(BASES, 4))
def test_writhe_moves_by_curl_signs(case):
    base, pd, dw = case
    assert writhe(pd) - writhe(base) == dw
