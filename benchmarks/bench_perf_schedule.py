"""Cone-cost scheduler benchmark: cost-weighted vs contiguous scheduling.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e10_schedule`` entry:
the **skewed-cone workload** (``skewed_cone_network``: one deep spine
chain whose faults drag huge fanout cones, beside many tiny islands
whose stuck-at pairs underfill lane batches) fault-simulated under
``schedule="contiguous"`` (the historical mechanical partition) vs
``schedule="cost"`` (cone-cost LPT fault partitioning + cross-site
batch coalescing, :mod:`repro.simulate.schedule`) on the engines the
schedule actually steers:

* ``vector``, ``jobs=1`` - single-process lanes: ``cost`` coalesces
  each spine site's stuck-at pair into the driving gate's cell-fault
  batch (one cone pass instead of two) and merges identical-cone input
  pairs;
* ``compiled``, ``jobs=N`` - the worker pool: ``cost`` LPT-packs whole
  injection-site groups by cone cost where contiguous slices pile the
  expensive spine into one straggler (on a single-CPU host - see the
  recorded ``cpu_count`` - wall time cannot show the balance win, so
  the entry also records the *modelled makespan ratio* each partition
  would reach on ``jobs`` real cores);
* ``vector``, ``jobs=N`` - both levers at once; this pair is the
  entry's headline ``speedup``.

Every configuration is checked bit-identical to a single-process
compiled run before any speedup is recorded, and both schedules are
timed best-of-N.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_schedule.py [--quick]

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
from repro.circuits.generators import skewed_cone_network  # noqa: E402
from repro.simulate import (  # noqa: E402
    PatternSet,
    fault_costs,
    fault_simulate,
    partition_faults,
)

WORKLOAD_NAME = "e10_schedule"
MIN_REQUIRED_SPEEDUP = 1.0
#: (engine, pooled) configurations the schedule steers; the last -
#: lanes inside a worker pool - is the headline.
CONFIGS = (("vector", False), ("compiled", True), ("vector", True))



def makespan_ratio(network, faults, jobs: int, schedule: str) -> float:
    """Modelled parallel makespan of a partition: max shard cost over
    ideal (total / jobs).  1.0 is a perfect balance; contiguous slices
    of the skewed workload sit far above it.  This is what the
    partition would cost on ``jobs`` real cores, independent of how
    many this host has."""
    costs = fault_costs(network, faults)
    parts = partition_faults(network, faults, jobs, schedule)
    total = sum(costs)
    if not parts or total == 0:
        return 1.0
    # Ideal is total/jobs even when the partition returned fewer shards
    # (site grouping can): idle cores are a real makespan cost.
    ideal = total / jobs
    worst = max(sum(costs[index] for index in part) for part in parts)
    return round(worst / ideal, 3)


def run_schedule(
    depth: int = 192,
    islands: int = 24,
    pattern_count: int = 1 << 21,
    jobs: int = 4,
    repetitions: int = 2,
) -> Dict:
    network = skewed_cone_network(depth=depth, islands=islands)
    faults = network.enumerate_faults(
        include_cell_classes=True, include_stuck_at=True
    )
    patterns = PatternSet.random(network.inputs, pattern_count, seed=depth)
    print(
        f"{WORKLOAD_NAME}: {len(faults)} faults x {pattern_count} patterns on "
        f"{network.name} (best of {repetitions} runs per configuration)"
    )

    baseline, compiled_seconds = best_of(
        lambda: fault_simulate(network, patterns, faults, engine="compiled"),
        repetitions,
    )
    print(f"  compiled in-process reference: {compiled_seconds:.2f}s")

    identical = True
    pairs = []
    for engine, pooled in CONFIGS:
        engine_jobs = jobs if pooled else 1
        seconds = {}
        for schedule in ("contiguous", "cost"):
            result, elapsed = best_of(
                lambda: fault_simulate(
                    network,
                    patterns,
                    faults,
                    engine=engine,
                    jobs=engine_jobs,
                    schedule=schedule,
                ),
                repetitions,
            )
            identical = identical and results_identical(result, baseline)
            seconds[schedule] = elapsed
        speedup = round(seconds["contiguous"] / seconds["cost"], 3)
        pairs.append(
            {
                "engine": engine,
                "jobs": engine_jobs,
                "contiguous_seconds": round(seconds["contiguous"], 4),
                "cost_seconds": round(seconds["cost"], 4),
                "speedup": speedup,
            }
        )
        print(
            f"  {engine} jobs={engine_jobs}: contiguous "
            f"{seconds['contiguous']:.2f}s -> cost "
            f"{seconds['cost']:.2f}s = {speedup}x (identical={identical})"
        )

    balance = {
        schedule: makespan_ratio(network, faults, jobs, schedule)
        for schedule in ("contiguous", "interleaved", "cost")
    }
    print(f"  modelled makespan ratio over {jobs} shards: {balance}")

    headline = pairs[-1]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "fault simulation of the skewed-cone workload (one deep spine "
            "cone beside many tiny islands): cone-cost scheduling "
            "(LPT fault partitioning + cross-site batch coalescing, "
            "schedule='cost') vs the historical contiguous partition on the "
            "same engine; headline speedup is the pooled vector pair, "
            "bit-identity against the compiled engine checked first"
        ),
        "params": {
            "spine_depth": depth,
            "islands": islands,
            "gates": len(network.gates),
            "faults": len(faults),
            "patterns": pattern_count,
            "jobs": jobs,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
        "compiled_seconds": round(compiled_seconds, 4),
        "schedule_pairs": pairs,
        "modelled_makespan_ratio": balance,
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
        entry = run_schedule(
            depth=12, islands=8, pattern_count=1 << 16, jobs=2, repetitions=1
        )
        if not entry["identical_results"]:
            print("FAIL: a scheduled run diverged from the compiled engine")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_schedule()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    ok = entry["identical_results"] and entry["speedup"] >= MIN_REQUIRED_SPEEDUP
    return 0 if ok and record.get("all_pass", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
