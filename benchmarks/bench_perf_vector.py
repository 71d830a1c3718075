"""Vector (numpy lane-array) engine benchmark vs in-process compiled.

Extends ``BENCH_engine.json`` (the perf trajectory started by the
compiled-vs-interpreted benchmark - existing workload records are
preserved, never replaced) with an ``e10_vector`` entry: the E10-style
workload (a DAG of 10-transistor AND-OR cells, full cell-fault
universe) under a *huge* random pattern sequence, fault-simulated by
the ``vector`` engine (uint64 lane arrays, site-batched
cache-chunked cone passes, streaming windows) against the
single-process ``compiled`` engine as the baseline (a whole-set pass
when the existing record was made; it now streams 256 Ki-pattern
big-int windows, so a fresh record compares lanes against windowed
big-ints).

Why the lane engine wins at this scale: a whole-set big-int pass
drags each net's megabytes-wide word through DRAM once per cone gate
per fault, while the vector engine streams windows whose chunked
``[batch, chunk]`` cone passes stay cache-resident, batches every
fault of an injection site through its cone in one numpy call per
gate, and counts detections with ``np.bitwise_count`` instead of
materialising whole-set big-ints.

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
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import BENCH_PATH, best_of, results_identical, update_record  # noqa: E402
from bench_perf_engine import library_runtime_network  # noqa: E402
from repro.simulate import PatternSet, fault_simulate  # noqa: E402
from repro.simulate.vector import VECTOR_CHUNK, VECTOR_WINDOW  # noqa: E402

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
            "random pattern sequence: numpy uint64 lane-array engine "
            "(site-batched cache-chunked cone passes, streaming windows, "
            "lane-native detection counts) vs the single-process "
            "compiled big-int engine"
        ),
        "params": {
            "cell_transistors": size,
            "gates": n_gates,
            "faults": len(faults),
            "patterns": pattern_count,
            "window": VECTOR_WINDOW,
            "chunk_words": VECTOR_CHUNK,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
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
    ok = entry["identical_results"] and entry["speedup"] >= MIN_REQUIRED_SPEEDUP
    return 0 if ok and record.get("all_pass", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
