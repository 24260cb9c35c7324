"""Seeded inputs for the four benchmark workloads.

Each generator returns a ``Corpus``: a list of chunks, each one call into
the program (a batch CSV, a pretzel-scan k range, or an m_forcing_check
bound), and ``meta``, the benchmark's own record of what every row is,
which the checks in ``checks.py`` compare the program's output against.
One pass over all chunks is a round.  Chunks take a few tenths of a
second each, so that the machine-speed calibration timed between them
(calibrate.py) sees the same machine as the chunk.  The same seed always
gives the same corpus.

The work per round is fixed by the workload, not by the seed: the seed
picks signs, orders, edge shifts and sample points, while the crossing
counts of ``pd_batch`` and the absolute values of ``verdict_batch`` are
the same for every seed.  That keeps throughput comparable across seeds.

Regenerate a corpus on disk with::

    python3 perfbench/corpus.py --workload verdict_batch --seed 3 --out-dir /tmp/c
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

WORKLOADS = ("pd_batch", "family_scan", "verdict_batch", "spine_sweep")

#: base pretzels of one pd_batch round, with 11, 13, 13 and 15 crossings
#: (the last is the family member k = 1); each base gives four rows
#: (plain, mirror, relabelled, and kinked with one more crossing), so a
#: round spans 11 to 16 crossings.  The seed permutes each base's entries
#: and picks its chirality: the state sum's cost depends on the diagram,
#: and fixing the twist regions keeps a round's work the same for every
#: seed.
PD_BASES = ((3, 5, -3), (3, 3, 7), (5, -3, 5), (5, 7, -3))
#: chunks of pd_batch hold rows worth at most this many states together
PD_CHUNK_STATES = 1 << 15
#: family members k = 1..FAMILY_K in one family_scan round, all through
#: the Jones route, in k ranges worth at most FAMILY_K^3 each
FAMILY_K = 24
#: odd absolute values of verdict_batch pretzel entries
VERDICT_ABS = tuple(range(1, 16, 2))
#: family members (and their mirrors) mixed into verdict_batch
VERDICT_FAMILY_K = 4
VERDICT_SPINES = 240
VERDICT_SPINE_RANGE = 9
VERDICT_CHUNK_ROWS = 61
#: m_forcing_check(SPINE_BOUND) is one spine_sweep round
SPINE_BOUND = 4
SPINE_SAMPLE = 64


@dataclass
class Corpus:
    """A round of one workload: chunks, each {"items": n, ...} plus either
    "rows" (batch CSV rows) or the arguments of the call."""

    workload: str
    seed: int
    chunks: list[dict]
    meta: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        return sum(c["items"] for c in self.chunks)

    @property
    def csv_text(self) -> str | None:
        """All batch rows of a round as one CSV."""
        if "rows" not in self.chunks[0]:
            return None
        return _csv([row for c in self.chunks for row in c["rows"]])


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _chunks(rows: list, costs: list[int], budget: int) -> list[dict]:
    """Consecutive runs of rows whose costs add up to at most `budget`
    (a row dearer than that gets a chunk of its own)."""
    out: list[dict] = []
    total = budget + 1
    for row, cost in zip(rows, costs):
        if total + cost > budget:
            out.append({"rows": [], "items": 0})
            total = 0
        out[-1]["rows"].append(row)
        out[-1]["items"] += 1
        total += cost
    return out


def _csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "label", "payload"])
    writer.writerows(rows)
    return buf.getvalue()


# -- PD transforms, written here so that inputs do not come from the program


def render_pd(quads) -> str:
    return "; ".join("X({},{},{},{})".format(*q) for q in quads)


def mirror_pd(quads) -> list[tuple[int, ...]]:
    """Swap over and under at every crossing of a kink-free PD code.

    The over-strand of X(a,b,c,d) runs b -> d when d follows b along the
    knot; the mirrored crossing starts from the incoming over-strand edge.
    """
    m = 2 * len(quads)
    out = []
    for a, b, c, d in quads:
        if d == b % m + 1:
            out.append((b, c, d, a))
        else:
            out.append((d, a, b, c))
    return out


def relabel_pd(quads, shift: int) -> list[tuple[int, ...]]:
    """Start the edge numbering `shift` edges further along the knot."""
    m = 2 * len(quads)
    return [tuple((x - 1 + shift) % m + 1 for x in q) for q in quads]


#: the four Reidemeister-1 curls on edge e, as (crossing, new labels)
_KINKS = {
    "pos_under": lambda e: (e, e + 1, e + 1, e + 2),
    "neg_under": lambda e: (e, e + 2, e + 1, e + 1),
    "pos_over": lambda e: (e + 1, e, e + 2, e + 1),
    "neg_over": lambda e: (e + 1, e + 1, e + 2, e),
}


def kink_pd(quads, edge: int, kind: str) -> list[tuple[int, ...]]:
    """Add a Reidemeister-1 curl on `edge`; later labels move up by two.

    The end of `edge` where it enters its next crossing becomes edge+2.
    """
    m = 2 * len(quads)
    out = [[x + 2 if x > edge else x for x in q] for q in quads]
    for new, old in zip(out, quads):
        hit = False
        for slot, x in enumerate(old):
            if x != edge:
                continue
            if slot == 0:
                head = True
            elif slot == 2:
                head = False
            else:
                head = old[(slot + 2) % 4] == edge % m + 1
            if head:
                new[slot] = edge + 2
                hit = True
                break
        if hit:
            break
    out.append(list(_KINKS[kind](edge)))
    return [tuple(q) for q in out]


def _signed(rng: random.Random, triple) -> tuple[int, int, int]:
    """The entries in a seeded order, each with a seeded sign."""
    t = list(triple)
    rng.shuffle(t)
    return tuple(v * rng.choice((1, -1)) for v in t)


def _permuted(rng: random.Random, triple) -> tuple[int, int, int]:
    """The entries in a seeded order, all with one seeded sign."""
    t = list(triple)
    rng.shuffle(t)
    sign = rng.choice((1, -1))
    return tuple(sign * v for v in t)


def pd_batch(seed: int, bases=PD_BASES) -> Corpus:
    """Pretzel diagrams, their mirrors, relabellings and R1-kinked copies.

    The base diagrams come from the program's `pretzel_pd`; every other
    row is made from them here.
    """
    from knotobstruct.diagram import PretzelParams, pretzel_pd

    rng = _rng("pd_batch", seed)
    rows, costs, meta = [], [], {"bases": {}, "rows": {}}
    for i, pqr in enumerate(bases):
        p, q, r = _permuted(rng, pqr)
        quads = pretzel_pd(PretzelParams(p, q, r)).crossings
        n = len(quads)
        base = f"b{i}"
        meta["bases"][base] = [p, q, r]
        shift = rng.randrange(1, 2 * n)
        edge = rng.randrange(1, 2 * n + 1)
        kind = rng.choice(sorted(_KINKS))
        variants = {
            "plain": quads,
            "mirror": mirror_pd(quads),
            f"shift{shift}": relabel_pd(quads, shift),
            f"kink-{kind}-{edge}": kink_pd(quads, edge, kind),
        }
        for name, v in variants.items():
            label = f"{base}.{name}"
            rows.append(["pd", label, render_pd(v)])
            costs.append(1 << len(v))
            meta["rows"][label] = {
                "base": base,
                "mirror": name == "mirror",
                "crossings": len(v),
            }
    return Corpus("pd_batch", seed, _chunks(rows, costs, PD_CHUNK_STATES),
                  meta=meta)


def family_scan(seed: int, k_max: int = FAMILY_K) -> Corpus:
    """The paper's family P(4k+1, 4k+3, -(2k+1)), k = 1..k_max.

    The family is fixed by the paper, so the seed does not change it.
    """
    ks = list(range(1, k_max + 1))
    chunks = [{"k_min": c["rows"][0], "k_max": c["rows"][-1],
               "items": c["items"]}
              for c in _chunks(ks, [k ** 3 for k in ks], k_max ** 3)]
    return Corpus("family_scan", seed, chunks, meta={"k_max": k_max})


def verdict_batch(
    seed: int,
    abs_values=VERDICT_ABS,
    family_k: int = VERDICT_FAMILY_K,
    spines: int = VERDICT_SPINES,
    chunk_rows: int = VERDICT_CHUNK_ROWS,
) -> Corpus:
    """Small pretzels with mirrors, family members, and 2x2 spine rows.

    Every multiset of three values from `abs_values` appears once per
    round, with seeded signs and order, followed by its mirror.
    """
    rng = _rng("verdict_batch", seed)
    rows, meta = [], {"rows": {}}

    def pretzel_pair(tag: str, pqr, family: int | None):
        mirrored = tuple(-v for v in pqr)
        for label, params, partner in (
            (tag, pqr, f"{tag}.mirror"),
            (f"{tag}.mirror", mirrored, tag),
        ):
            rows.append(["pretzel", label, *map(str, params)])
            meta["rows"][label] = {
                "kind": "pretzel",
                "pqr": list(params),
                "partner": partner,
                "source": label == tag,
                "family_k": family,
            }

    for i, triple in enumerate(combinations_with_replacement(abs_values, 3)):
        pretzel_pair(f"p{i}", _signed(rng, triple), None)
    for k in range(1, family_k + 1):
        pretzel_pair(f"fam{k}", (4 * k + 1, 4 * k + 3, -(2 * k + 1)), k)
    b = VERDICT_SPINE_RANGE
    for i in range(spines):
        n, m, ell = (rng.randint(-b, b) for _ in range(3))
        eps = rng.choice((1, -1))
        label = f"s{i}"
        rows.append(["seifert", label, f"{n},{ell};{ell + eps},{m}"])
        meta["rows"][label] = {"kind": "spine", "spine": [n, m, ell, eps]}
    rng.shuffle(rows)
    return Corpus("verdict_batch", seed,
                  _chunks(rows, [1] * len(rows), chunk_rows), meta=meta)


def spine_sweep(seed: int, bound: int = SPINE_BOUND,
                sample: int = SPINE_SAMPLE) -> Corpus:
    """m_forcing_check over the spine cube [-bound, bound]^3 x {+1, -1}.

    The cube is fixed; the seed picks the spines whose Alexander
    polynomials are checked after the timed rounds, half inside the cube
    and half with entries up to 1000.
    """
    rng = _rng("spine_sweep", seed)
    points = []
    for i in range(sample):
        b = bound if i % 2 == 0 else 1000
        points.append([rng.randint(-b, b) for _ in range(3)]
                      + [rng.choice((1, -1))])
    chunk = {"bound": bound, "items": 2 * (2 * bound + 1) ** 3}
    return Corpus("spine_sweep", seed, [chunk],
                  meta={"bound": bound, "sample": points})


GENERATORS = {
    "pd_batch": pd_batch,
    "family_scan": family_scan,
    "verdict_batch": verdict_batch,
    "spine_sweep": spine_sweep,
}


def write(corpus: Corpus, out_dir: Path) -> list[dict]:
    """Write meta.json, input.csv and one CSV per batch chunk.

    Returns the chunks as the worker runs them: batch rows replaced by
    the path of the chunk's CSV.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"workload": corpus.workload, "seed": corpus.seed,
           "items": corpus.items, "meta": corpus.meta}
    (out_dir / "meta.json").write_text(json.dumps(doc, indent=1) + "\n")
    if corpus.csv_text is None:
        return corpus.chunks
    (out_dir / "input.csv").write_text(corpus.csv_text)
    jobs = []
    for i, chunk in enumerate(corpus.chunks):
        path = out_dir / f"chunk{i:02d}.csv"
        path.write_text(_csv(chunk["rows"]))
        jobs.append({"input": str(path), "items": chunk["items"]})
    return jobs


def main() -> None:
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    corpus = GENERATORS[args.workload](args.seed)
    write(corpus, args.out_dir)
    print(f"{args.workload} seed {args.seed}: {corpus.items} items in "
          f"{len(corpus.chunks)} chunks written to {args.out_dir}")


if __name__ == "__main__":
    main()
