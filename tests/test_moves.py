"""Metamorphic tests for the diagram layer.

Cyclic edge relabelling, Reidemeister-1 curls and Reidemeister-2 fingers
change a PD code but not its knot, so the Jones polynomial must not move;
a curl changes the writhe by exactly its own sign and a finger not at all;
the mirror inverts the variable.  The two PD bracket engines must agree on
every diagram the brute force can take.  The moves are written here from
the PD convention alone, not with the package's diagram helpers.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from knotobstruct.diagram import PDCode, mirror, parse_pd, pretzel_pd, writhe
from knotobstruct.kauffman import BRUTE_CAP, bracket_brute, bracket_contract, jones
from knotobstruct.selftest import TREFOIL_PD, pretzels
from helpers import inverted

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


def _relabel_ends(pd: PDCode, edges) -> list[list[int]]:
    """The crossings with three labels in place of each of `edges`: the
    labels after each move up by two, and the end of each at the crossing
    it enters becomes its last piece."""
    m = 2 * pd.n
    quads = [[x + 2 * sum(x > e for e in edges) for x in q] for q in pd.crossings]
    for edge in edges:
        ci, slot = next((ci, slot) for ci, q in enumerate(pd.crossings)
                        for slot, x in enumerate(q)
                        if x == edge and _enters(q, slot, edge, m))
        quads[ci][slot] += 2
    return quads


def curl(pd: PDCode, edge: int, kind: str) -> PDCode:
    """Put a curl on `edge`, on the labels edge, edge + 1, edge + 2."""
    quads = _relabel_ends(pd, (edge,))
    return PDCode(tuple(map(tuple, quads)) + (CURLS[kind][1](edge),))


def _from_arms(arms: list[int], under: int, m: int) -> tuple[int, ...]:
    """X(a,b,c,d) of a crossing whose arms carry `arms` counterclockwise
    and whose strand through arms `under` and `under` + 2 passes under:
    listed from the under-arm whose opposite arm carries the next edge."""
    start = under if arms[under + 2] == arms[under] % m + 1 else under + 2
    return tuple(arms[start:] + arms[:start])


#: the pushed strand of an R2 finger passes over or under the other
FINGERS = ("over", "under")


def finger(pd: PDCode, ci: int, slot: int, kind: str) -> PDCode:
    """Push the edge f at slot + 1 of crossing ci in a finger across the
    edge e at `slot`, through the face between them (an R2 move).

    Drawn with crossing ci at the origin, e's arm points east and f's
    north.  The finger runs east from f, down across e at x1, back up
    across e at x2 > x1, and west to f again, so e is cut into W, M, E
    (west to east) and f into T1 (at ci, down to x1), B (under e) and T2
    (down to x2).  Arms go counterclockwise from east: (M, T1, W, B) at
    x1 and (E, T2, M, B) at x2.  Whichever way each edge runs, its
    middle piece is first + 1 and its two ends first and first + 2.
    """
    quad = pd.crossings[ci]
    e, f = quad[slot], quad[(slot + 1) % 4]
    quads = _relabel_ends(pd, (e, f))
    m = 2 * pd.n + 4
    w, t1 = quads[ci][slot], quads[ci][(slot + 1) % 4]
    first_e, first_f = e + 2 * (e > f), f + 2 * (f > e)
    east, t2 = 2 * first_e + 2 - w, 2 * first_f + 2 - t1
    mid, bottom = first_e + 1, first_f + 1
    under = 0 if kind == "over" else 1
    return PDCode(tuple(map(tuple, quads)) + (
        _from_arms([mid, t1, w, bottom], under, m),
        _from_arms([east, t2, mid, bottom], under, m),
    ))


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


def fingered(bases, max_fingers: int):
    """(base, the base after 1..max_fingers relabellings each followed by
    an R2 finger at a drawn crossing, slot pair and kind)."""

    @st.composite
    def build(draw):
        base = draw(st.sampled_from(bases))
        pd = base
        for _ in range(draw(st.integers(1, max_fingers))):
            pd = relabel(pd, draw(st.integers(0, 2 * pd.n - 1)))
            ci = draw(st.integers(0, pd.n - 1))
            q = pd.crossings[ci]
            slot = draw(st.sampled_from(
                [s for s in range(4) if q[s] != q[(s + 1) % 4]]))
            pd = finger(pd, ci, slot, draw(st.sampled_from(FINGERS)))
        return base, pd

    return build()


#: the trefoil, the figure-eight and gate 4's pretzels (|p|+|q|+|r| <= 13)
BASES = [TREFOIL, FIG8] + [pretzel_pd(p) for p in pretzels(13)]
#: the brute-force comparison keeps to bases of at most 9 crossings
SMALL_BASES = [TREFOIL, FIG8] + [pretzel_pd(p) for p in pretzels(9)]
#: the bases as they are, after curls and relabellings, and after fingers
DIAGRAMS = st.one_of(st.sampled_from(BASES), moved(BASES, 4).map(lambda c: c[1]),
                     fingered(BASES, 2).map(lambda c: c[1]))

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
    assert jones(mirror(pd)) == inverted(jones(pd))


@_SETTINGS
@given(moved(BASES, 4))
def test_writhe_moves_by_curl_signs(case):
    base, pd, dw = case
    assert writhe(pd) - writhe(base) == dw


@_SETTINGS
@given(fingered(SMALL_BASES, 1))
def test_contract_matches_brute_after_finger(case):
    _, pd = case
    assert pd.n <= BRUTE_CAP
    assert bracket_contract(pd) == bracket_brute(pd)


@_SETTINGS
@given(fingered(BASES, 2))
def test_jones_invariant_under_fingers(case):
    base, pd = case
    assert jones(pd) == jones(base)


@_SETTINGS
@given(fingered(BASES, 2))
def test_fingers_keep_writhe(case):
    base, pd = case
    assert writhe(pd) == writhe(base)
