"""Timing spans around the program's layers, installed from outside.

`Tracer.install()` replaces the public functions and methods listed in
SPANS with wrappers that record one span per call: a name, a start and
end time, and the index of the span that was open when the call began.
Functions are replaced at every binding in the package's modules, since
`obstruction` and `cli` import `jones` and friends by name.  The program's
files are not changed.  Spans stay in memory (in compact arrays) until
`write()` at the end of the run.

A span's self time is its duration minus the durations of its direct
child spans.  Work outside every span of a call into the program is the
self time of the call's root span, `cli.command` for the CLI workloads.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path
from time import perf_counter

#: (module, attribute or Class.method, span name)
SPANS = (
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul"),
    ("laurent", "LaurentPoly.evaluate", "laurent.evaluate"),
    ("laurent", "LaurentPoly.derivative", "laurent.derivative"),
    ("diagram", "parse_pd", "diagram.parse_pd"),
    ("diagram", "validate_pd", "diagram.validate_pd"),
    ("diagram", "pretzel_pd", "diagram.pretzel_pd"),
    ("diagram", "writhe", "diagram.writhe"),
    ("kauffman", "bracket_brute", "kauffman.bracket_brute"),
    ("kauffman", "twist_tangle", "kauffman.twist_tangle"),
    ("kauffman", "bracket_twist", "kauffman.bracket_twist"),
    ("kauffman", "jones", "kauffman.jones"),
    ("seifert", "SeifertMatrix.__init__", "seifert.SeifertMatrix"),
    ("seifert", "alexander_from_seifert", "seifert.alexander_from_seifert"),
    ("seifert", "signature", "seifert.signature"),
    ("seifert", "knot_determinant", "seifert.knot_determinant"),
    ("seifert", "m_forcing_check", "seifert.m_forcing_check"),
    ("obstruction", "cosmetic_verdict", "obstruction.cosmetic_verdict"),
    ("obstruction", "obstruction_value", "obstruction.obstruction_value"),
    ("obstruction", "w3", "obstruction.w3"),
    ("obstruction", "mullins_lambda_w", "obstruction.mullins_lambda_w"),
)
#: calls counted without a span: no metric needs their self time
COUNTED = (("laurent", "LaurentPoly.__init__", "laurent.init"),)

#: per-layer metrics and their units, in report order
METRICS = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_products": "count",
    "laurent.init.calls": "count",
    "laurent.evaluate.self_s": "s",
    "laurent.derivative.self_s": "s",
    "diagram.parse_pd.self_s": "s",
    "diagram.validate_pd.calls": "count",
    "diagram.validate_pd.self_s": "s",
    "diagram.validate_pd.per_diagram": "ratio",
    "diagram.pretzel_pd.calls": "count",
    "diagram.writhe.self_s": "s",
    "kauffman.bracket_brute.calls": "count",
    "kauffman.bracket_brute.self_s": "s",
    "kauffman.bracket_brute.states": "count",
    "kauffman.bracket_brute.states_per_s": "1/s",
    "kauffman.twist_tangle.calls": "count",
    "kauffman.twist_tangle.self_s": "s",
    "kauffman.twist_tangle.halftwists": "count",
    "kauffman.bracket_twist.self_s": "s",
    "kauffman.jones.self_s": "s",
    "seifert.SeifertMatrix.calls": "count",
    "seifert.SeifertMatrix.self_s": "s",
    "seifert.alexander_from_seifert.calls": "count",
    "seifert.alexander_from_seifert.self_s": "s",
    "seifert.alexander_from_seifert.per_matrix": "ratio",
    "seifert.signature.self_s": "s",
    "seifert.knot_determinant.self_s": "s",
    "seifert.m_forcing_check.self_s": "s",
    "obstruction.cosmetic_verdict.calls": "count",
    "obstruction.cosmetic_verdict.self_s": "s",
    "obstruction.obstruction_value.self_s": "s",
    "obstruction.w3.self_s": "s",
    "obstruction.mullins_lambda_w.self_s": "s",
    "cli.command.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.spans": "count",
    "trace.items_per_s": "items/s",
    "trace.untraced_items_per_s": "items/s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module, dotted: str):
    owner, _, attr = dotted.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


class Tracer:
    """Span recorder plus the per-call counts the layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: Counter[str] = Counter()
        self.distinct: dict[str, set] = {"diagram.validate_pd": set(),
                                         "seifert.alexander_from_seifert": set()}
        self.calls: list[tuple[int, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_ = self._open

        @wraps(fn)
        def span(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()

        return span

    def _counter(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _hooks(self, laurent_poly):
        counts, distinct = self.counts, self.distinct

        def mul(args):
            a, b = args
            other = len(b._terms) if isinstance(b, laurent_poly) else 1
            counts["laurent.mul.term_products"] += len(a._terms) * other

        def brute(args):
            counts["kauffman.bracket_brute.states"] += 1 << args[0].n

        def twist(args):
            counts["kauffman.twist_tangle.halftwists"] += abs(args[0])

        def validate(args):
            distinct["diagram.validate_pd"].add(
                (args[0].crossings, args[0].free_loops))

        def alexander(args):
            distinct["seifert.alexander_from_seifert"].add(args[0].rows)

        return {"laurent.mul": mul, "kauffman.bracket_brute": brute,
                "kauffman.twist_tangle": twist,
                "diagram.validate_pd": validate,
                "seifert.alexander_from_seifert": alexander}

    def install(self) -> None:
        """Wrap every target at every binding in the package's modules."""
        pkg = sys.modules["knotobstruct"]
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "knotobstruct"
                                      or n.startswith("knotobstruct."))]
        hooks = self._hooks(pkg.LaurentPoly)
        for modname, dotted, name in SPANS + COUNTED:
            owner, attr = _resolve(sys.modules[f"knotobstruct.{modname}"],
                                   dotted)
            orig = vars(owner)[attr]
            if (modname, dotted, name) in COUNTED:
                new = self._counter(name, orig)
            else:
                new = self.wrap(name, orig, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, new)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, new)

    def _patch(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def call(self, fn, root: str | None):
        """Make one call into the program, under a root span unless fn
        opens its own, and note the range of spans it recorded."""
        first = len(self.start)
        if root is not None:
            fn = self.wrap(root, fn)
        out = fn()
        self.calls.append((first, len(self.start)))
        return out

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (end[i] - start[i]) - child[i]
        return out

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics; counts are exact since rounds repeat."""
        calls = Counter(self.names[i] for i in self.name_id)
        calls.update(self.counts)
        selfs = self.self_times()
        out: dict[str, float] = {}
        for key in METRICS:
            layer, _, stat = key.rpartition(".")
            if stat == "calls":
                out[key] = calls.get(layer, 0) / rounds
            elif stat == "self_s":
                out[key] = selfs.get(layer, 0.0) / rounds
        for key in ("laurent.mul.term_products", "kauffman.bracket_brute.states",
                    "kauffman.twist_tangle.halftwists"):
            out[key] = self.counts.get(key, 0) / rounds
        brute_s = out["kauffman.bracket_brute.self_s"]
        out["kauffman.bracket_brute.states_per_s"] = (
            out["kauffman.bracket_brute.states"] / brute_s if brute_s else 0.0)
        for layer, key in (("diagram.validate_pd", "per_diagram"),
                           ("seifert.alexander_from_seifert", "per_matrix")):
            seen = len(self.distinct[layer])
            out[f"{layer}.{key}"] = (
                calls.get(layer, 0) / rounds / seen if seen else 0.0)
        out["trace.spans"] = len(self.start) / rounds
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Span arrays to <path>.spans, their layout and totals to <path>."""
        spans = path.with_suffix(".spans")
        with open(spans, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        doc = {
            "spans_file": spans.name,
            "layout": [["name_id", "H"], ["parent", "i"], ["start", "d"],
                       ["end", "d"]],
            "count": len(self.start),
            "names": self.names,
            "calls": self.calls,
            "counts": dict(self.counts),
            **extra,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")
