"""Vector (numpy lane-array) engine benchmark vs in-process compiled.

Extends ``BENCH_engine.json`` (the perf trajectory started by the
compiled-vs-interpreted benchmark - existing workload records are
preserved, never replaced) with an ``e10_vector`` entry: the E10-style
workload (a DAG of 10-transistor AND-OR cells, full cell-fault
universe) under a *huge* random pattern sequence, fault-simulated by
the ``vector`` engine (the compiled stem-observability pass on uint64
lane rows) against the single-process ``compiled`` engine (the same
pass on big-ints) as the baseline.  Both stream
:data:`~repro.simulate.sharded.DEFAULT_WINDOW`-wide windows, so the
entry measures the word form alone: numpy's per-call overhead against
the big-int digit loops.  The entry keeps its 2x gate from the days
of a batched lane pass; every point since the compiled engine moved
to stem passes misses it, which the record shows as history.

Every timed configuration is checked bit-identical to the baseline
before a speedup is recorded, and both engines are timed best-of-N to
suppress host noise.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_vector.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import (  # noqa: E402
    BENCH_PATH,
    best_of,
    entries_pass,
    git_commit,
    results_identical,
    update_record,
)
from bench_perf_engine import library_runtime_network  # noqa: E402
from repro.simulate import PatternSet, fault_simulate  # noqa: E402
from repro.simulate.sharded import DEFAULT_WINDOW  # noqa: E402

WORKLOAD_NAME = "e10_vector"
MIN_REQUIRED_SPEEDUP = 2.0



def run_vector(
    size: int = 10,
    n_gates: int = 48,
    pattern_count: int = 1 << 23,
    repetitions: int = 2,
) -> Dict:
    network = library_runtime_network(size, n_gates=n_gates)
    faults = network.enumerate_faults()
    patterns = PatternSet.random(network.inputs, pattern_count, seed=size)
    print(
        f"{WORKLOAD_NAME}: {len(faults)} faults x {pattern_count} patterns "
        f"(best of {repetitions} runs per engine)"
    )

    baseline, compiled_seconds = best_of(
        lambda: fault_simulate(network, patterns, faults, engine="compiled"),
        repetitions,
    )
    print(f"  compiled in-process: {compiled_seconds:.2f}s")

    vector, vector_seconds = best_of(
        lambda: fault_simulate(network, patterns, faults, engine="vector"),
        repetitions,
    )
    identical = results_identical(vector, baseline)
    speedup = round(compiled_seconds / vector_seconds, 2)
    print(
        f"  vector: {vector_seconds:.2f}s -> {speedup}x (identical={identical})"
    )

    return {
        "name": WORKLOAD_NAME,
        "description": (
            "fault simulation of the E10-style AND-OR cell DAG under a huge "
            "random pattern sequence: the stem-observability pass on numpy "
            "uint64 lane rows vs the same pass on big-ints (single-process "
            "compiled engine), both streaming the default window"
        ),
        "params": {
            "cell_transistors": size,
            "gates": n_gates,
            "faults": len(faults),
            "patterns": pattern_count,
            "window": DEFAULT_WINDOW,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
            "host": platform.node(),
        },
        "commit": git_commit(),
        "compiled_seconds": round(compiled_seconds, 4),
        "vector_seconds": round(vector_seconds, 4),
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "speedup": speedup,
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
        entry = run_vector(
            size=8, n_gates=12, pattern_count=1 << 18, repetitions=1
        )
        if not entry["identical_results"]:
            print("FAIL: vector results diverged from the compiled engine")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_vector()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
