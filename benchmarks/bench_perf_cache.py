"""Artifact-cache benchmark: warm store vs cold re-derivation.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e10_cache`` entry:
``fault_simulate(..., cache=<warm store>)`` - every derivable artifact
(compiled slot program, cone metadata, collapse classes, coalescer
batch plans, fault partitions) served by content fingerprint from the
artifact store (:mod:`repro.simulate.artifacts`) - against a cold run
that re-derives all of it, on two workloads:

* the **E10 library DAG** (a random network of the paper's size-10
  AND-OR cells with its complete fault universe) - derivation-heavy:
  flattening the wide cells and collapsing ~1k faults dominates short
  validation runs, which is exactly the repeated-run shape the store
  targets (the headline ``speedup`` is the compiled-engine pair);
* the **skewed-cone workload** (one deep spine over shallow islands) -
  the scheduler/coalescer adversary, where cone costs and batch plans
  are the dominant derivations (recorded, not the headline).

Cold runs get a fresh :class:`ArtifactStore` per repetition, warm runs
share one store primed by a single untimed pass.  Bit-identity of
every warm run against its cold twin is checked before any speedup is
recorded, and both sides of every pair are timed best-of-N in the same
process.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_cache.py [--quick]

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

from _harness import (  # noqa: E402
    BENCH_PATH,
    best_of,
    entries_pass,
    results_identical,
    update_record,
)
from bench_perf_engine import library_runtime_network  # noqa: E402
from repro.circuits.generators import skewed_cone_network  # noqa: E402
from repro.simulate import ArtifactStore, PatternSet, fault_simulate  # noqa: E402

WORKLOAD_NAME = "e10_cache"
MIN_REQUIRED_SPEEDUP = 2.0


def _cold_warm_pair(network, patterns, faults, engine, repetitions):
    """Time the cold (fresh store every run) and warm (one shared,
    primed store) sides of one workload x engine cell."""
    cold_result, cold_seconds = best_of(
        lambda: fault_simulate(
            network, patterns, faults, engine=engine, collapse="on",
            cache=ArtifactStore(),
        ),
        repetitions,
    )
    store = ArtifactStore()
    fault_simulate(  # the untimed priming pass
        network, patterns, faults, engine=engine, collapse="on", cache=store,
    )
    warm_result, warm_seconds = best_of(
        lambda: fault_simulate(
            network, patterns, faults, engine=engine, collapse="on",
            cache=store,
        ),
        repetitions,
    )
    return {
        "identical": results_identical(warm_result, cold_result),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 3),
    }


def run_cache(
    size: int = 10,
    n_gates: int = 48,
    pattern_count: int = 1 << 13,
    skew_depth: int = 12,
    skew_islands: int = 16,
    repetitions: int = 4,
) -> Dict:
    workloads = {
        "e10": library_runtime_network(size, n_gates=n_gates),
        "skew": skewed_cone_network(depth=skew_depth, islands=skew_islands),
    }

    identical = True
    pairs = []
    for workload, network in workloads.items():
        faults = network.enumerate_faults(
            include_cell_classes=True, include_stuck_at=True
        )
        patterns = PatternSet.random(network.inputs, pattern_count, seed=10)
        for engine in ("compiled", "vector"):
            pair = _cold_warm_pair(network, patterns, faults, engine, repetitions)
            identical = identical and pair.pop("identical")
            pairs.append({"workload": workload, "engine": engine, **pair})
            print(
                f"  {workload}/{engine}: cold {pair['cold_seconds']:.3f}s -> "
                f"warm {pair['warm_seconds']:.3f}s = {pair['speedup']}x "
                f"(identical={identical}, {len(faults)} faults)"
            )

    headline = next(
        p for p in pairs if p["workload"] == "e10" and p["engine"] == "compiled"
    )
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "content-addressed artifact store on the E10 library DAG and "
            "the skewed-cone workload: a warm store serves compiled slot "
            "programs, cone metadata, collapse classes and batch plans by "
            "network fingerprint instead of re-deriving them per run; "
            "headline speedup is the E10 compiled-engine cold-vs-warm "
            "pair, with the vector pairs and the skewed-cone workload "
            "recorded alongside, bit-identity checked first"
        ),
        "params": {
            "cell_size": size,
            "gates": n_gates,
            "patterns": pattern_count,
            "skew_depth": skew_depth,
            "skew_islands": skew_islands,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
        "pairs": pairs,
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
        entry = run_cache(
            size=6, n_gates=12, pattern_count=1 << 11,
            skew_depth=8, skew_islands=4, repetitions=1,
        )
        if not entry["identical_results"]:
            print("FAIL: a warm-cache run diverged from the cold run")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_cache()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
