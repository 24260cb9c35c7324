"""Helpers shared by the test modules; not collected as tests itself."""

import itertools
import sys

import pytest

from knotobstruct.diagram import PDCode
from knotobstruct.laurent import LaurentPoly

#: int-to-text conversion has a digit limit from Python 3.10.7 on
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python has no int-to-text digit limit")


def inverted(p):
    """p with its variable inverted: the mirror's bracket or Jones
    polynomial, and a symmetric polynomial itself."""
    return LaurentPoly({-e: c for e, c in p.terms.items()})


def braid_closure_pd(strands, word):
    """PD code of the closure of a braid word; +i is sigma_i, -i its inverse.

    Strands run downward; a crossing's incoming edges are its top-left and
    top-right ones, and the over-strand of sigma_i runs top-left to
    bottom-right.
    """
    top = list(range(strands))
    cur = list(top)
    raw = []  # (top-left, top-right, bottom-left, bottom-right, positive)
    for g in word:
        i = abs(g) - 1
        bl = strands + 2 * len(raw)
        br = bl + 1
        raw.append([cur[i], cur[i + 1], bl, br, g > 0])
        cur[i], cur[i + 1] = bl, br
    close = {cur[p]: top[p] for p in range(strands)}
    for x in raw:
        x[2:4] = [close.get(e, e) for e in x[2:4]]
    after = {}  # edge -> next edge along the knot
    for tl, tr, bl, br, _ in raw:
        after[tl], after[tr] = br, bl
    label = {raw[0][0]: 1}
    e = after[raw[0][0]]
    while e not in label:
        label[e] = len(label) + 1
        e = after[e]
    quads = []
    for tl, tr, bl, br, positive in raw:
        tl, tr, bl, br = label[tl], label[tr], label[bl], label[br]
        quads.append((tr, tl, bl, br) if positive else (tl, bl, br, tr))
    return PDCode(tuple(quads))


def faces(pd):
    """The faces of pd as lists of corners (i, s), the corner of slots
    (s, s + 1) at crossing i, found from the labels alone by the face
    walk: along an edge to its other end, then one slot back."""
    ends = {}
    for i, quad in enumerate(pd.crossings):
        for s, label in enumerate(quad):
            ends.setdefault(label, []).append((i, s))
    out, seen = [], set()
    for corner in itertools.product(range(pd.n), range(4)):
        face = []
        while corner not in seen:
            seen.add(corner)
            face.append(corner)
            i, s = corner
            j, t = next(end for end in ends[pd.crossings[i][s]] if end != (i, s))
            corner = (j, (t - 1) % 4)
        if face:
            out.append(face)
    return out


def whitehead_double(knot, clasp, twists):
    """PD code of the Whitehead double of `knot` (a PDCode of two or more
    crossings) with a clasp of sign `clasp` (+1 or -1) whose companion
    torus is framed by -twists: the t-twisted double D+-(K, t) at
    t = -twists, so twists = 0 is the untwisted double.

    The double is written as a signed Gauss code and read back into a PD
    code.  Two copies of the knot run beside it, L on its left and R on
    its right, and the double walks L forward, then R backward, so the two
    copies are antiparallel.  At each crossing of the knot, of sign e,
    each copy of the under-strand passes under both copies of the
    over-strand, and the crossing of copies P and Q has sign e o(P) o(Q),
    with o(L) = 1 and o(R) = -1.  Edge 1 of the knot, running east with L
    to the north, holds the rest, from west to east:
    - the clasp: L's end turns south into R's end, and R's start turns
      north into L's start, the second turn hooking the first.  Its two
      crossings have the sign `clasp`;
    - w + twists full twists of the two copies, where w is the knot's
      writhe: two crossings each, positive when w + twists > 0.  With the
      copies antiparallel, the blackboard copies link w times, and each
      positive full twist takes one away.

    The walk passes crossing events in order, and edge j enters event j,
    so the under-pass at event j is (j, ., j + 1, .), and the crossing's
    sign places the over-pass's edges at b and d.  PDCode then checks that
    the result is one planar knot diagram.
    """
    m = 2 * knot.n
    knot_sign, visits = {}, {}  # visits[p]: (crossing, passes over) at step p
    for i, (a, b, c, d) in enumerate(knot.crossings):
        e = 1 if d == b % m + 1 else -1
        knot_sign[i] = e
        visits[a] = (i, False)
        visits[b if e > 0 else d] = (i, True)
    full = sum(knot_sign.values()) + twists
    t = 1 if full > 0 else -1
    orient = {"L": 1, "R": -1}
    order = {1: "LR", -1: "RL"}  # the copies of the other strand, as met
    events = []  # (crossing, passes over) along the double
    signs = {}

    def run(copy, steps):
        # one copy along the knot's steps; at each it meets both copies of
        # the other strand: L's first when it runs forward under a positive
        # crossing, and the order flips with the sign, the direction and
        # under for over
        o = orient[copy]
        for p in steps:
            i, over = visits[p]
            e = knot_sign[i]
            for other in order[-e * o if over else e * o]:
                key = (i, other, copy) if over else (i, copy, other)
                signs[key] = e * orient[key[1]] * orient[key[2]]
                events.append((key, over))

    for k in range(abs(full)):  # L's start, eastward through the twists
        events += [(("T", k, 1), t > 0), (("T", k, 2), t < 0)]
        signs[("T", k, 1)] = signs[("T", k, 2)] = t
    run("L", range(1, m + 1))
    events += [(("C", 1), clasp < 0), (("C", 2), clasp > 0)]  # L's end turns
    signs[("C", 1)] = signs[("C", 2)] = clasp
    run("R", range(m, 0, -1))
    for k in reversed(range(abs(full))):  # R's start, westward
        events += [(("T", k, 2), t > 0), (("T", k, 1), t < 0)]
    events += [(("C", 2), clasp < 0), (("C", 1), clasp > 0)]  # the hooking turn
    size = len(events)
    ends = {}  # crossing -> [edge into its under-pass, edge into its over-pass]
    for j, (key, over) in enumerate(events, 1):
        ends.setdefault(key, [0, 0])[over] = j
    return PDCode(tuple(
        (u, o, u % size + 1, o % size + 1) if signs[key] > 0
        else (u, o % size + 1, u % size + 1, o)
        for key, (u, o) in ends.items()))
