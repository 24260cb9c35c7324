"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload pd_batch --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout that holds the program's source
under src/.  The steps:

1. make the workload's inputs from --seed (corpus.py);
2. start worker.py in a fresh interpreter, which imports the program,
   then runs whole rounds of the workload for --seconds on one thread,
   each call starting when the last one ended, and scales every call's
   time to nominal machine speed (calibrate.py);
3. check the last round's output against the benchmark's own
   computations (checks.py), and that every round gave the same bytes;
4. print the metrics.  With --trace 0 they are setup_s, items_per_s and
   peak_rss_mb; with --trace 1 the worker wraps the program's layers in
   spans (spans.py) and the metrics are the per-layer ones.

Inputs, outputs, the worker's log and the trace are kept under
.perfbench_out/<workload>-seed<n>-trace<t>/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import calibrate
import checks
import corpus
from spans import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_worker(run_dir: Path) -> tuple[dict, float, float]:
    """Start the worker on run_dir/job.json.

    Returns its result, and the raw and the speed-scaled time from the
    worker's start until it had imported the program.
    """
    with open(run_dir / "worker.log", "w") as log:
        cal = calibrate.block_s()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-E", "-s", str(HERE / "worker.py"), str(SRC),
                 str(run_dir / "job.json")],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = (run_dir / "worker.log").read_text()[-2000:]
        fail(f"worker exited with {proc.returncode}:\n{tail}")
    result = json.loads((run_dir / "result.json").read_text())
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        fail(f"worker imported {result['module']}, not the program under src/")
    setup_s = result["ready"] - spawned
    return result, setup_s, calibrate.scale(setup_s, cal, result["ready_cal"])


def check(corp: corpus.Corpus, outputs: list[bytes], result: dict
          ) -> tuple[list[str], int]:
    """Problems found in a round's outputs, and its failed items."""
    docs = [json.loads(out) for out in outputs]
    meta = corp.meta
    if corp.workload == "family_scan":
        return checks.check_family_scan(meta, [r for d in docs for r in d]), 0
    if corp.workload == "spine_sweep":
        held = all(d is True for d in docs)
        return checks.check_spine_sweep(meta, held, result["sample"]), 0
    doc = {"results": [r for d in docs for r in d["results"]]}
    if corp.workload == "pd_batch":
        from knotobstruct.diagram import PretzelParams
        from knotobstruct.kauffman import jones

        twist = {base: dict(jones(PretzelParams(*pqr)).terms)
                 for base, pqr in meta["bases"].items()}
        problems = checks.check_pd_batch(meta, doc, twist)
    else:
        problems = checks.check_verdict_batch(meta, doc)
    return problems, len(checks.batch_results(doc)[1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "knotobstruct" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'knotobstruct'}")
    sys.path.insert(0, str(SRC))
    # importing here also leaves byte code behind, so that every worker
    # starts from the same warm __pycache__
    import knotobstruct.cli  # noqa: F401

    corp = corpus.GENERATORS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    job = {"workload": corp.workload, "seed": corp.seed,
           "chunks": corpus.write(corp, run_dir), "meta": corp.meta,
           "seconds": args.seconds, "trace": args.trace}
    (run_dir / "job.json").write_text(json.dumps(job) + "\n")

    result, raw_setup_s, setup_s = run_worker(run_dir)
    outputs = [(run_dir / f"last{i:02d}.bin").read_bytes()
               for i in range(len(corp.chunks))]
    problems, failed_per_round = check(corp, outputs, result)
    if result["distinct_outputs"] != 1:
        problems.append(f"{result['distinct_outputs']} different outputs "
                        "across rounds")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    rounds = len(result["round_s"])
    if args.trace:
        metrics = {k: {"value": result["layer"][k], "unit": unit}
                   for k, unit in METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": result["items_per_s"], "unit": "items/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {rounds} "
          f"rounds of {corp.items} items, median round "
          f"{statistics.median(result['round_s']):.4f} s scaled, "
          f"{statistics.median(result.get('raw_round_s', [0])):.4f} s raw; "
          f"set-up {raw_setup_s:.4f} s raw; {len(problems)} check failures")
    print(json.dumps({
        "correct": not problems,
        "attempted": corp.items * rounds,
        "failed": failed_per_round * rounds,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
