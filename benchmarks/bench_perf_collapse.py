"""Structural-collapse benchmark: representative-only simulation vs full.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e10_collapse`` entry:
``fault_simulate(..., collapse="on")`` - one simulated representative
per difference-equivalence class, outcomes scattered back bit for bit
(:mod:`repro.faults.structural`) - against ``collapse="off"`` (the full
fault universe, the historical behaviour) on the E10 library workload:
a random DAG of the paper's size-10 AND-OR cells carrying its complete
fault universe (cell classes plus net stuck-ats).

Three measurements ride on the one workload:

* **full-run pair** (headline ``speedup``) - the plain ``fault_simulate``
  both ways on the compiled engine: the collapsed run simulates
  ``classes/faults`` of the universe (the recorded ``collapse_ratio``)
  and skips the provably-undetectable null class entirely;
* **vector pair** - the same flows on the vector lane engine, where
  batching already amortises per-fault cost and the multiplier is
  correspondingly smaller (recorded, not the headline);
* **coverage flow pair** - dynamic fault dropping: the first-detection
  validation flow (``stop_at_first_detection=True``) against the same
  flow under ``collapse="on"``, which retires whole classes between
  streaming windows.  Both runs pin detection counts to one and report
  identical first-detection indices, so this pair is
  bit-identity-checked like the others.

Bit-identity of every collapsed run against its uncollapsed twin is
checked before any speedup is recorded, and both sides of every pair
are timed best-of-N in the same process.  The one-time collapse pass
itself (memoised per compilation, like the slot-program build) is
measured cold and recorded as ``collapse_seconds``.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_collapse.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import (  # noqa: E402
    BENCH_PATH,
    best_of,
    entries_pass,
    results_identical,
    update_record,
)
from bench_perf_engine import library_runtime_network  # noqa: E402
from repro.faults.structural import collapse_network_faults  # noqa: E402
from repro.simulate import PatternSet, fault_simulate  # noqa: E402

WORKLOAD_NAME = "e10_collapse"
MIN_REQUIRED_SPEEDUP = 1.5


def run_collapse(
    size: int = 10,
    n_gates: int = 48,
    pattern_count: int = 1 << 19,
    coverage_patterns: int = 1 << 16,
    repetitions: int = 4,
) -> Dict:
    network = library_runtime_network(size, n_gates=n_gates)
    faults = network.enumerate_faults(
        include_cell_classes=True, include_stuck_at=True
    )
    patterns = PatternSet.random(network.inputs, pattern_count, seed=10)

    start = time.perf_counter()
    collapsed = collapse_network_faults(network, faults)
    collapse_seconds = time.perf_counter() - start
    print(
        f"{WORKLOAD_NAME}: {collapsed.fault_count} faults -> "
        f"{collapsed.class_count} classes ({collapsed.ratio:.2f}x fewer "
        f"simulations, {collapse_seconds:.2f}s one-time collapse pass)"
    )

    identical = True
    pairs = []
    for engine in ("compiled", "vector"):
        seconds = {}
        results = {}
        for mode in ("off", "on"):
            results[mode], seconds[mode] = best_of(
                lambda: fault_simulate(
                    network, patterns, faults, engine=engine, collapse=mode
                ),
                repetitions,
            )
        identical = identical and results_identical(results["on"], results["off"])
        speedup = round(seconds["off"] / seconds["on"], 3)
        pairs.append(
            {
                "engine": engine,
                "full_seconds": round(seconds["off"], 4),
                "collapsed_seconds": round(seconds["on"], 4),
                "speedup": speedup,
            }
        )
        print(
            f"  {engine}: full {seconds['off']:.2f}s -> collapsed "
            f"{seconds['on']:.2f}s = {speedup}x (identical={identical})"
        )

    # Dynamic dropping: the first-detection validation flow with whole
    # classes retired between windows.  Shorter pattern list - both
    # sides stream the pinned first-detection window grid, so the cost
    # scales with windows, not the vector chunk width.
    coverage_set = PatternSet.random(network.inputs, coverage_patterns, seed=10)
    first_result, first_seconds = best_of(
        lambda: fault_simulate(
            network, coverage_set, faults,
            stop_at_first_detection=True, engine="compiled",
        ),
        max(1, repetitions // 2),
    )
    capped_result, capped_seconds = best_of(
        lambda: fault_simulate(
            network, coverage_set, faults,
            stop_at_first_detection=True, collapse="on", engine="compiled",
        ),
        max(1, repetitions // 2),
    )
    identical = identical and results_identical(capped_result, first_result)
    coverage_speedup = round(first_seconds / capped_seconds, 3)
    print(
        f"  coverage flow: first-detection {first_seconds:.2f}s -> "
        f"collapsed+dropped {capped_seconds:.2f}s = {coverage_speedup}x "
        f"(identical={identical})"
    )

    headline = next(p for p in pairs if p["engine"] == "compiled")
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "structural fault collapsing on the E10 library workload: "
            "fault_simulate(collapse='on') simulates one representative "
            "per difference-equivalence class and scatters outcomes back "
            "bit-identically; headline speedup is the compiled-engine "
            "full-run pair, with the vector pair and the dynamic-dropping "
            "coverage flow (stop_at_first_detection=True, classes retired "
            "between windows) recorded alongside, bit-identity checked first"
        ),
        "params": {
            "cell_size": size,
            "gates": n_gates,
            "faults": collapsed.fault_count,
            "classes": collapsed.class_count,
            "patterns": pattern_count,
            "coverage_patterns": coverage_patterns,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
        "collapse_ratio": round(collapsed.ratio, 3),
        "collapse_seconds": round(collapse_seconds, 4),
        "engine_pairs": pairs,
        "coverage_flow_speedup": coverage_speedup,
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "speedup": headline["speedup"],
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
        entry = run_collapse(
            size=6, n_gates=12, pattern_count=1 << 14,
            coverage_patterns=1 << 12, repetitions=1,
        )
        if not entry["identical_results"]:
            print("FAIL: a collapsed run diverged from the full run")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_collapse()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
