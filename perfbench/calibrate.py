"""A fixed slice of pure-Python work that measures the machine's speed now.

On a shared host the same CPU-bound round can take 30% longer from one
minute to the next, and CPU time drifts as much as wall time does, so raw
timings of two runs are not comparable.  The benchmark therefore times
this block next to every timed span and reports times scaled to a machine
on which the block takes NOMINAL_S.  The block does the kinds of work the
program does (list walking as in the state sum, dict accumulation and
small Fraction arithmetic as in the Laurent layer) and uses no program
code, so a change to the program leaves it alone.
"""

from fractions import Fraction
from time import perf_counter

#: seconds the block takes on an unloaded core of the reference machine
#: (2-core x86-64 VM, Python 3.11.7); only a scale, any value works
NOMINAL_S = 0.02
_REPEAT = 3


def _block() -> int:
    acc: dict[int, Fraction] = {}
    parent = list(range(64))
    for i in range(2000):
        u, v = i * 7 % 64, i * 13 % 64
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u != v:
            parent[u] = v
        if i % 64 == 63:
            parent = list(range(64))
        k = i % 32
        acc[k] = acc.get(k, 0) + Fraction(i % 11 + 1, i % 7 + 1)
    return len(acc)


def block_s() -> float:
    """Seconds the calibration block takes right now."""
    t0 = perf_counter()
    for _ in range(_REPEAT):
        _block()
    return perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two block timings, at nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)
