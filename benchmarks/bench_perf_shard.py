"""Worker-count scaling benchmark: pooled compiled vs in-process compiled.

Extends ``BENCH_engine.json`` (the perf trajectory started by the
compiled-vs-interpreted benchmark - existing workload records are
preserved, never replaced) with an ``e10_shard_scaling`` entry: an
E10-style workload (a DAG of 10-transistor AND-OR cells, full
cell-fault universe) under a *huge* random pattern sequence, fault
simulation on the compiled engine with ``jobs`` = 1, 2 and 4, against
the single-process compiled engine as the baseline.  ``jobs=1`` runs
in-process - the same call as the baseline - and ``jobs > 1`` forks
that many workers.

Both sides stream :data:`~repro.simulate.sharded.DEFAULT_WINDOW`-wide
big-int windows that stay cache-resident and converge per window (every
engine streams its own window in every mode).  The records already in
``BENCH_engine.json`` were measured against a *whole-set* in-process
pass, which dragged megabyte-wide big-ints through every cone, so their
speedups also include the streaming win; a fresh record isolates the
**sharding** effect - on multi-core hosts the shards genuinely run in
parallel (the recorded ``cpu_count`` qualifies how much of that this
host could express).

Every timed configuration is checked bit-identical to the baseline
before a speedup is recorded.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_shard.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import (  # noqa: E402
    BENCH_PATH,
    entries_pass,
    results_identical,
    update_record,
)
from bench_perf_engine import library_runtime_network  # noqa: E402
from repro.simulate import PatternSet, fault_simulate  # noqa: E402
from repro.simulate.sharded import DEFAULT_WINDOW  # noqa: E402

WORKLOAD_NAME = "e10_shard_scaling"
MIN_REQUIRED_SPEEDUP = 1.0
JOB_COUNTS = (1, 2, 4)



def run_scaling(
    size: int = 10,
    n_gates: int = 48,
    pattern_count: int = 1 << 22,
    job_counts=JOB_COUNTS,
) -> Dict:
    network = library_runtime_network(size, n_gates=n_gates)
    faults = network.enumerate_faults()
    patterns = PatternSet.random(network.inputs, pattern_count, seed=size)

    start = time.perf_counter()
    baseline = fault_simulate(network, patterns, faults, engine="compiled")
    compiled_seconds = time.perf_counter() - start
    print(
        f"{WORKLOAD_NAME}: {len(faults)} faults x {pattern_count} patterns, "
        f"in-process compiled {compiled_seconds:.2f}s"
    )

    identical = True
    shards: List[Dict] = []
    for jobs in job_counts:
        start = time.perf_counter()
        result = fault_simulate(
            network, patterns, faults, engine="compiled", jobs=jobs
        )
        seconds = time.perf_counter() - start
        identical = identical and results_identical(result, baseline)
        speedup = round(compiled_seconds / seconds, 2)
        shards.append({"jobs": jobs, "seconds": round(seconds, 4), "speedup": speedup})
        print(
            f"  compiled jobs={jobs}: {seconds:.2f}s -> {speedup}x "
            f"(identical={identical})"
        )

    at_max_jobs = shards[-1]["speedup"]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "fault simulation of an E10-style AND-OR cell DAG under a huge "
            "random pattern sequence: compiled engine over a jobs-wide worker "
            "pool with streaming pattern windows vs the single-process "
            "compiled engine, which streams the same windows"
        ),
        "params": {
            "cell_transistors": size,
            "gates": n_gates,
            "faults": len(faults),
            "patterns": pattern_count,
            "window": DEFAULT_WINDOW,
            "cpu_count": os.cpu_count(),
        },
        "compiled_seconds": round(compiled_seconds, 4),
        "sharded": shards,
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "speedup": at_max_jobs,
        "identical_results": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-sized smoke run (correctness + plumbing only); "
        "does not touch BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        # Sized just past MIN_POOL_WORK so the smoke run exercises the
        # real worker pool, not only the in-process fallback.
        entry = run_scaling(
            size=8, n_gates=12, pattern_count=1 << 19, job_counts=(1, 2)
        )
        if not entry["identical_results"]:
            print("FAIL: pooled results diverged from the in-process engine")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_scaling()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
