"""Knot diagram representations.

PD codes follow the usual planar-diagram convention: each crossing is a
quadruple (a, b, c, d) of edge labels listed counterclockwise starting
from the incoming under-strand edge, with labels 1..2n increasing
cyclically along the knot's orientation.  The crossing-sign convention is
pinned by the trefoil oracle in the test suite (the PD
"X(1,4,2,5); X(3,6,4,1); X(5,2,6,3)" has writhe +3 and Jones polynomial
-t^4 + t^3 + t).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import PDSyntaxError, ValidationError

Quad = tuple[int, int, int, int]


@dataclass(frozen=True)
class PDCode:
    """Crossing list of a knot diagram; no crossings is the round unknot.

    Construction validates (see validate_pd), so every PDCode is a
    single oriented knot diagram.
    """

    crossings: tuple[Quad, ...]

    def __post_init__(self):
        validate_pd(self)

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def free_loops(self) -> int:  # crossing-free circles: 1 for the round unknot
        return 0 if self.crossings else 1


@dataclass(frozen=True)
class PretzelParams:
    """Parameters of the pretzel knot P(p, q, r); all three must be odd."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        for v in (self.p, self.q, self.r):
            if v % 2 == 0:
                raise ValidationError(f"pretzel parameters must be odd, got {self!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


_X_RE = re.compile(r"^X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$")


def parse_pd(text: str) -> PDCode:
    """Parse `X(a,b,c,d)` items separated by `;` into a (validated) PDCode.

    An empty string parses to the crossingless unknot.
    """
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    quads = []
    for chunk in chunks:
        m = _X_RE.match(chunk)
        if not m:
            raise PDSyntaxError(f"malformed PD token: {chunk!r}")
        quads.append(tuple(int(g) for g in m.groups()))
    return PDCode(tuple(quads))


def render_pd(pd: PDCode) -> str:
    return "; ".join("X({},{},{},{})".format(*q) for q in pd.crossings)


def validate_pd(pd: PDCode) -> None:
    """Check label multiplicities and reconstruct the knot's orientation.

    Raises ValidationError for bad label sets or diagrams whose labels
    do not trace out a single oriented component.
    """
    n = pd.n
    counts: dict[int, int] = {}
    for quad in pd.crossings:
        for e in quad:
            counts[e] = counts.get(e, 0) + 1
    if set(counts) != set(range(1, 2 * n + 1)) or any(v != 2 for v in counts.values()):
        raise ValidationError(
            f"edge labels must be 1..{2*n}, each appearing exactly twice"
        )
    if n:
        _traverse(pd)


def _occurrences(pd: PDCode) -> dict[int, list[tuple[int, int]]]:
    """edge label -> list of (crossing index, slot index) occurrences."""
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, quad in enumerate(pd.crossings):
        for si, e in enumerate(quad):
            occ.setdefault(e, []).append((ci, si))
    return occ


# Strands pass straight through a crossing: slots 0<->2 (under), 1<->3 (over).
_THROUGH = {0: 2, 1: 3, 2: 0, 3: 1}


def _traverse(pd: PDCode) -> None:
    """Walk the knot from edge 1 and check the cyclic successor rule.

    The walk enters each crossing twice (once per strand); failure to
    close up after 2n steps with labels increasing by 1 means the code
    does not describe a single oriented knot component.
    """
    n = pd.n
    occ = _occurrences(pd)

    def succ(e: int) -> int:
        return e % (2 * n) + 1

    last_err = None
    for head in occ[1]:
        seen = set()
        pos = head  # (crossing, slot) where the current edge terminates
        edge = 1
        ok = True
        for _ in range(2 * n):
            if pos in seen:
                ok = False
                last_err = "revisited a crossing slot (multiple components?)"
                break
            seen.add(pos)
            ci, si = pos
            out_slot = _THROUGH[si]
            out_edge = pd.crossings[ci][out_slot]
            if out_edge != succ(edge):
                ok = False
                last_err = (
                    f"edge {edge} exits crossing {ci} as {out_edge}, "
                    f"expected {succ(edge)}"
                )
                break
            edge = out_edge
            a, b = occ[edge]
            pos = b if a == (ci, out_slot) else a
        if ok and pos == head and len(seen) == 2 * n:
            return
        if ok:
            last_err = "traversal did not close up over all crossings"
    raise ValidationError(f"cannot orient PD code: {last_err}")


def crossing_sign(quad: Quad, n: int) -> int:
    """Sign of one crossing from its edge labels.

    For a Reidemeister-1 kink (a repeated label in the quadruple) the
    sign follows the degenerate smoothing pair; otherwise the over-strand
    direction is read off the cyclic successor rule.  Jointly pinned with
    the bracket's smoothing convention by the trefoil oracle.
    """
    a, b, c, d = quad
    if b == c or a == d:
        return 1
    if a == b or c == d:
        return -1
    if d == b % (2 * n) + 1:
        return 1
    if b == d % (2 * n) + 1:
        return -1
    raise ValidationError(f"over-strand direction unreadable at X{quad}")


def writhe(pd: PDCode) -> int:
    """Sum of crossing signs of an oriented PD code."""
    n = pd.n
    return sum(crossing_sign(q, n) for q in pd.crossings)


def mirror(pd: PDCode) -> PDCode:
    """Swap over and under strands at every crossing."""
    n = pd.n
    out = []
    for quad in pd.crossings:
        a, b, c, d = quad
        if crossing_sign(quad, n) > 0:
            out.append((b, c, d, a))  # incoming over-strand edge is b
        else:
            out.append((d, a, b, c))
    return PDCode(tuple(out))


# ---------------------------------------------------------------------------
# Pretzel diagram generation
#
# Three vertical twist regions side by side, joined by arcs across the top
# and the bottom (the rightmost region wraps around to the leftmost).  In
# a region with positive parameter the strand entering at the top left
# passes *under* at each crossing; this handedness choice makes P(1,1,1)
# reproduce the writhe +3 trefoil above and is frozen by the acceptance
# tests.
# ---------------------------------------------------------------------------

_SLOTS = ("NW", "NE", "SE", "SW")
_STRAIGHT = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
# counterclockwise slot cycle around a crossing
_CCW = {"NW": "SW", "SW": "SE", "SE": "NE", "NE": "NW"}


def pretzel_pd(params: PretzelParams) -> PDCode:
    """PD code of the pretzel knot P(p,q,r) with |p|+|q|+|r| crossings."""
    p, q, r = params.as_tuple()
    sizes = [abs(p), abs(q), abs(r)]
    signs = [1 if v > 0 else -1 for v in (p, q, r)]

    # crossing ids per region, top to bottom
    ids: list[list[int]] = []
    k = 0
    for sz in sizes:
        ids.append(list(range(k, k + sz)))
        k += sz
    total = k

    # arcs between crossing slots: each (crossing, slot) has one partner
    conn: dict[tuple[int, str], tuple[int, str]] = {}

    def join(x, y):
        conn[x] = y
        conn[y] = x

    for i in range(3):
        col = ids[i]
        for j in range(len(col) - 1):
            join((col[j], "SW"), (col[j + 1], "NW"))
            join((col[j], "SE"), (col[j + 1], "NE"))
    for i in range(3):
        nxt = (i + 1) % 3
        join((ids[i][0], "NE"), (ids[nxt][0], "NW"))        # top arcs
        join((ids[i][-1], "SE"), (ids[nxt][-1], "SW"))      # bottom arcs

    # orient the knot: walk, entering crossings and passing straight through
    start = (ids[0][0], "NW")
    entries: list[tuple[int, str]] = []
    pos = start
    while True:
        entries.append(pos)
        ci, slot = pos
        pos = conn[(ci, _STRAIGHT[slot])]
        if pos == start:
            break
    if len(entries) != 2 * total:
        raise ValidationError(
            f"pretzel P{params.as_tuple()} is not a knot "
            f"(traversal closed after {len(entries)} of {2*total} passes)"
        )

    # label edges 1..2n along the orientation; edge k enters at entries[k-1]
    label: dict[tuple[int, str], int] = {}
    for step, (ci, slot) in enumerate(entries):
        lab = step + 1
        label[(ci, slot)] = lab
        prev_ci, prev_slot = entries[step - 1]
        label[(prev_ci, _STRAIGHT[prev_slot])] = lab

    entry_slots: dict[int, list[str]] = {}
    for ci, slot in entries:
        entry_slots.setdefault(ci, []).append(slot)

    quads = []
    for i in range(3):
        # positive half-twists: the NW-SE diagonal is the under-strand
        under = {"NW", "SE"} if signs[i] > 0 else {"NE", "SW"}
        for ci in ids[i]:
            under_in = next(s for s in entry_slots[ci] if s in under)
            s0 = under_in
            s1 = _CCW[s0]
            s2 = _STRAIGHT[s0]
            s3 = _CCW[s2]
            quads.append(tuple(label[(ci, s)] for s in (s0, s1, s2, s3)))

    return PDCode(tuple(quads))
