"""Helpers shared by the test modules; not collected as tests itself."""

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
