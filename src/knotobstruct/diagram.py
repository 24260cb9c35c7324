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
from dataclasses import dataclass, field
from operator import index

from .errors import PDSyntaxError, ValidationError

Quad = tuple[int, int, int, int]


@dataclass(frozen=True)
class PDCode:
    """Crossing list of a knot diagram; no crossings is the round unknot.

    Construction validates (see validate_pd), so every PDCode is a
    single oriented knot diagram, and keeps what validate_pd reads on the
    way: the dart table, partner[4i + s] the other dart carrying the label
    at slot s of crossing i (slots 0..3 are the quad's a, b, c, d), so
    dart d's edge runs from crossing d >> 2 to crossing partner[d] >> 2;
    signs[i], crossing i's sign; and the faces, each the tuple of darts of
    one orbit of d -> partner[d] - 1 (the previous slot of the same
    crossing), its corners in walk order, so its length is its number of
    sides.  All three are derived from the crossings, so they take no part
    in equality, hashing or repr.
    """

    crossings: tuple[Quad, ...]
    partner: tuple[int, ...] = field(init=False, repr=False, compare=False)
    signs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    faces: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in zip(("partner", "signs", "faces"), validate_pd(self)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def free_loops(self) -> int:  # crossing-free circles: 1 for the round unknot
        return 0 if self.crossings else 1


def index_fields(obj, what: str) -> None:
    """Read every field of the frozen dataclass obj through operator.index,
    as SeifertMatrix reads its entries, so a bool or an __index__ integer
    is stored as a plain int, and a float or a numeric string raises
    ValidationError (naming `what`) rather than flowing on."""
    for name, v in vars(obj).items():
        if type(v) is not int:
            try:
                object.__setattr__(obj, name, index(v))
            except TypeError:
                raise ValidationError(f"{what} must be integers, got {obj!r}") from None


@dataclass(frozen=True)
class PretzelParams:
    """Parameters of the pretzel knot P(p, q, r); all three must be odd
    integers."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        index_fields(self, "pretzel parameters")
        if not self.p % 2 or not self.q % 2 or not self.r % 2:
            raise ValidationError(f"pretzel parameters must be odd, got {self!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)


_X_RE = re.compile(r"^X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$")


def parse_pd(text: str) -> PDCode:
    """Parse `X(a,b,c,d)` items separated by `;` into a (validated) PDCode.

    An empty string parses to the crossingless unknot.
    """
    quads = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            m = _X_RE.match(chunk)
            if not m:
                raise PDSyntaxError(f"malformed PD token: {chunk!r}")
            quads.append(tuple(map(int, m.groups())))
    return PDCode(tuple(quads))


def render_pd(pd: PDCode) -> str:
    return "; ".join("X({},{},{},{})".format(*q) for q in pd.crossings)


def _pair_darts(flat: list[int], m: int) -> list[int] | None:
    """Each dart's partner, the other dart with its label, or None unless
    the 2m darts carry the labels 1..m, each exactly twice.

    With 2m darts, no label outside 1..m and none three times, every label
    is used exactly twice, so one pass checks the multiset.
    """
    if len(flat) != 2 * m:
        return None
    partner = [-1] * (2 * m)
    first = [-1] * (m + 1)  # label -> its first dart; -2 once paired
    for dart, e in enumerate(flat):
        if not 0 < e <= m:
            return None
        other = first[e]
        if other == -1:
            first[e] = dart
        elif other == -2:
            return None
        else:
            partner[dart], partner[other], first[e] = other, dart, -2
    return partner


def validate_pd(pd: PDCode) -> tuple[tuple[int, ...], tuple[int, ...],
                                     tuple[tuple[int, ...], ...]]:
    """Check every crossing against the PD convention, one at a time, and
    return (partner, signs, faces): the dart table, partner[4i + s] the
    other dart carrying the label at slot s of quad i, where slots s = 0,
    1, 2, 3 are the quad's a, b, c, d (quad i's own counterclockwise
    order, not pretzel_pd's compass slots); each crossing's sign; and the
    faces as tuples of darts.  This is the one place that reads signs
    and faces off the labels; PDCode keeps all three.

    The labels are 1..2n, each used twice, which the one pass that pairs
    the darts (_pair_darts) checks.  Each quad (a, b, c, d) starts at its
    incoming under-strand, so c follows a.  Its sign is +1 when the
    over-strand runs b -> d (d follows b) and -1 when it runs d -> b; at
    n = 1 both read true, and the curl's repeated label decides (+1 when
    b = c), and a direction that neither reads raises ValidationError.
    The sign is jointly pinned with the bracket's smoothing convention by
    the trefoil oracle.  Every label enters exactly one crossing, at a or
    at the over-strand's incoming slot.  Together these force the walk
    1 -> 2 -> ... -> 2n -> 1, so a link or a half-turned quad raises
    ValidationError.  Last, the faces are the orbits of "follow the edge
    to the partner dart, then turn to the previous slot" on the darts; by
    Euler's formula the connected diagram is planar exactly when n >= 1
    crossings give n + 2 faces, so a virtual knot's code raises
    ValidationError too.
    """
    n = pd.n
    m = 2 * n
    flat = [e for quad in pd.crossings for e in quad]  # label at dart 4i + s
    try:
        partner = _pair_darts(flat, m)
    except TypeError:  # a label that is no integer
        partner = None
    if partner is None:
        raise ValidationError(
            f"edge labels must be 1..{m}, each appearing exactly twice"
        )
    entered = set()
    signs = []
    for quad in pd.crossings:
        a, b, c, d = quad
        if c != a % m + 1:
            raise ValidationError(
                f"X{quad} must start at its incoming under-strand: "
                f"{c} does not follow {a}"
            )
        if n == 1:
            sign = 1 if b == c else -1
        elif d == b % m + 1:
            sign = 1
        elif b == d % m + 1:
            sign = -1
        else:
            raise ValidationError(f"over-strand direction unreadable at X{quad}")
        signs.append(sign)
        entered.update((a, b if sign > 0 else d))
    if len(entered) != m:
        raise ValidationError("the edge labels do not trace out one oriented knot")
    # a dart's turn: to its partner, then the previous slot
    turn = [p - 1 if p % 4 else p + 3 for p in partner]
    faces = []
    for dart in range(4 * n):
        if turn[dart] >= 0:
            face = []
            while turn[dart] >= 0:  # walk the face, marking its darts -1
                face.append(dart)
                turn[dart], dart = -1, turn[dart]
            faces.append(tuple(face))
    if n and len(faces) != n + 2:
        raise ValidationError(
            f"the code has {len(faces)} faces, not the {n + 2} of a planar "
            f"diagram with {n} crossings: it is not planar (a virtual knot)"
        )
    return tuple(partner), tuple(signs), tuple(faces)


def writhe(pd: PDCode) -> int:
    """Sum of crossing signs of an oriented PD code (PDCode.signs)."""
    return sum(pd.signs)


def mirror(pd: PDCode) -> PDCode:
    """Swap over and under strands at every crossing: a positive crossing's
    incoming over-strand edge is b, a negative one's d."""
    return PDCode(tuple((b, c, d, a) if sign > 0 else (d, a, b, c)
                        for (a, b, c, d), sign in zip(pd.crossings, pd.signs)))


# ---------------------------------------------------------------------------
# Pretzel diagram generation
#
# Three vertical twist regions side by side, joined by arcs across the top
# and the bottom (the rightmost region wraps around to the leftmost).
# Crossings are numbered down each region in turn, and dart 4c + s is slot
# s of crossing c, the slots NW, SW, SE, NE taken counterclockwise: s ^ 2
# is the slot straight across and (s + 1) % 4 the next one counterclockwise.
# In a region with positive parameter the strand entering at the top left
# passes *under* at each crossing (NW-SE is the under-diagonal; SW-NE for a
# negative parameter); this handedness choice makes P(1,1,1) reproduce the
# writhe +3 trefoil above and is frozen by the acceptance tests.
# ---------------------------------------------------------------------------


def pretzel_pd(params: PretzelParams) -> PDCode:
    """PD code of the pretzel knot P(p,q,r) with |p|+|q|+|r| crossings."""
    cols = params.as_tuple()
    top = [0, abs(cols[0]), abs(cols[0]) + abs(cols[1])]  # first crossing per region
    n = top[2] + abs(cols[2])
    bottom = [top[1] - 1, top[2] - 1, n - 1]
    conn = [0] * (4 * n)  # the dart at the other end of each dart's arc
    for i in range(3):  # region i's top and bottom arcs run to region j
        j = (i + 1) % 3
        arcs = [(4 * top[i] + 3, 4 * top[j]), (4 * bottom[i] + 2, 4 * bottom[j] + 1)]
        for c in range(top[i], bottom[i]):  # SW to the NW below, SE to the NE below
            arcs += [(4 * c + 1, 4 * c + 4), (4 * c + 2, 4 * c + 7)]
        for x, y in arcs:
            conn[x], conn[y] = y, x
    # orient from NW of crossing 0, passing straight through each crossing;
    # edge lab enters at one dart and leaves straight across as edge lab + 1
    label, entered = [0] * (4 * n), [False] * (4 * n)
    dart = 0
    for lab in range(1, 2 * n + 1):
        label[dart], label[dart ^ 2], entered[dart] = lab, lab % (2 * n) + 1, True
        dart = conn[dart ^ 2]
    quads = []
    for i, v in enumerate(cols):
        under = 0 if v > 0 else 1
        for c in range(top[i], bottom[i] + 1):  # start at the under-strand's entry
            s = under if entered[4 * c + under] else under ^ 2
            quads.append(tuple(label[4 * c + (s + t) % 4] for t in range(4)))
    return PDCode(tuple(quads))
