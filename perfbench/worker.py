"""One workload in one process: import the program, run rounds, report.

Started by run.py as ``python worker.py <src dir> <job.json>``.  The
first thing it does is import `knotobstruct` and `knotobstruct.cli`; the
moment that finishes is the end of the program's set-up.  It then runs
whole rounds of the workload, one after the other on one thread, until
the job's seconds are used up, and writes result.json beside the job.  A
round is one pass over the job's chunks, each one call into the program;
the calibration block (calibrate.py) is timed before the first chunk and
after every chunk.  The last round's outputs go to files that run.py
checks afterwards.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import knotobstruct  # noqa: E402
import knotobstruct.cli  # noqa: E402

READY = time.monotonic()

import calibrate  # noqa: E402

READY_CAL = calibrate.block_s()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402


def _chunk_fn(workload: str, chunk: dict, out: Path):
    """A function making one call into the program; it returns the call's
    output as bytes."""
    main = knotobstruct.cli.main
    if workload in ("pd_batch", "verdict_batch"):
        argv = ["batch", "--input", chunk["input"], "--output", str(out)]

        def run():
            with contextlib.redirect_stderr(io.StringIO()):
                main.main(args=argv, standalone_mode=False)
            return out.read_bytes()

        return run
    if workload == "family_scan":
        argv = ["pretzel-scan", "--k-min", str(chunk["k_min"]),
                "--k-max", str(chunk["k_max"]),
                "--jones-upto", str(chunk["k_max"]), "--json"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main.main(args=argv, standalone_mode=False)
            return buf.getvalue().encode()

        return run
    if workload == "spine_sweep":
        seifert = knotobstruct.seifert
        bound = chunk["bound"]

        def run():
            return json.dumps(seifert.m_forcing_check(bound)).encode()

        return run
    raise SystemExit(f"unknown workload {workload!r}")


class Rounds:
    """Round times, raw and scaled to nominal machine speed, and outputs."""

    def __init__(self, fns, items: int):
        self.fns = fns
        self.items = items
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.chunk_s: list[list[float]] = []
        self.digests: list[set[str]] = [set() for _ in fns]
        self.outputs: list[bytes] = [b""] * len(fns)

    def run(self, seconds: float, tracer: Tracer | None = None,
            root: str | None = None) -> int:
        """Whole rounds until `seconds` have passed; returns their number."""
        done = 0
        t_end = time.perf_counter() + seconds
        cal = calibrate.block_s()
        while not done or time.perf_counter() < t_end:
            raw, scaled = [], []
            for i, fn in enumerate(self.fns):
                t0 = time.perf_counter()
                out = fn() if tracer is None else tracer.call(fn, root)
                dt = time.perf_counter() - t0
                after = calibrate.block_s()
                raw.append(dt)
                scaled.append(calibrate.scale(dt, cal, after))
                cal = after
                self.outputs[i] = out
                self.digests[i].add(hashlib.sha256(out).hexdigest())
            self.raw.append(sum(raw))
            self.scaled.append(sum(scaled))
            self.chunk_s.append(scaled)
            done += 1
        return done

    def items_per_s(self, last: int | None = None) -> float:
        """Items of a round over its scaled time, taking for each chunk its
        median over the rounds (the last `last` ones), so that a burst of
        load during one chunk does not count."""
        rounds = self.chunk_s if last is None else self.chunk_s[-last:]
        return self.items / sum(map(statistics.median, zip(*rounds)))


def main() -> None:
    job_path = Path(sys.argv[2])
    job = json.loads(job_path.read_text())
    out_dir = job_path.parent
    workload = job["workload"]
    fns = [_chunk_fn(workload, c, out_dir / f"output{i:02d}.json")
           for i, c in enumerate(job["chunks"])]
    rounds = Rounds(fns, sum(c["items"] for c in job["chunks"]))
    result = {"ready": READY, "ready_cal": READY_CAL,
              "module": knotobstruct.__file__}

    if job["trace"]:
        # a third of the time untraced, for the overhead, the rest traced;
        # m_forcing_check is its own root span, CLI calls get cli.command
        rounds.run(job["seconds"] / 3)
        untraced = rounds.items_per_s()
        root = None if workload == "spine_sweep" else "cli.command"
        tracer = Tracer()
        tracer.install()
        try:
            traced = rounds.run(job["seconds"] * 2 / 3, tracer, root)
        finally:
            tracer.uninstall()
        layer = tracer.metrics(traced)
        layer["cli.output_bytes"] = (
            0 if workload == "spine_sweep" else sum(map(len, rounds.outputs)))
        layer["trace.items_per_s"] = rounds.items_per_s(last=traced)
        layer["trace.untraced_items_per_s"] = untraced
        layer["trace.overhead_ratio"] = untraced / layer["trace.items_per_s"]
        tracer.write(out_dir / "trace.json",
                     {"workload": workload, "seed": job["seed"],
                      "metrics": layer})
        result.update(traced_rounds=traced, layer=layer)
    else:
        rounds.run(job["seconds"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        peak_rss_mb=usage.ru_maxrss / 1024,
        raw_round_s=rounds.raw,
        round_s=rounds.scaled,
        items_per_s=rounds.items_per_s(),
        distinct_outputs=max(len(d) for d in rounds.digests),
    )
    for i, out in enumerate(rounds.outputs):
        (out_dir / f"last{i:02d}.bin").write_bytes(out)
    if workload == "spine_sweep":
        result["sample"] = _spine_sample(job["meta"]["sample"])
    (out_dir / "result.json").write_text(json.dumps(result) + "\n")


def _spine_sample(points: list[list[int]]) -> list[dict]:
    """The program's Alexander polynomials of the sample spines."""
    from knotobstruct.seifert import (GenusOneSpine, alexander_from_seifert,
                                      seifert_from_spine)
    out = []
    for n, m, ell, eps in points:
        alex = alexander_from_seifert(
            seifert_from_spine(GenusOneSpine(n, m, ell, eps)))
        out.append({str(e): str(c) for e, c in sorted(alex.terms.items())})
    return out


if __name__ == "__main__":
    main()
