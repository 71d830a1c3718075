"""Repeated-call benchmark: one fault list simulated again and again.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e_repeat_calls``
entry.  The PROTEST flow simulates one fault list many times
(analyse, optimise, validate, BIST sessions).  Everything a call
derives from the list alone - the deduplicated, checked and labelled
fault universe with its collapse classes, and the stem plan of the
simulated classes - is memoised in the artifact store on the very
fault objects (:func:`repro.simulate.faultsim.fault_universe`,
:func:`repro.simulate.compiled.stem_plan`).  The race:

* **same list**: ten ``fault_simulate(collapse="on")`` calls on one
  fault list, after one call that warmed the store - each call reuses
  the memoised universe and stem plan;
* **fresh copies**: the same ten calls, each on a fresh equal-but-
  distinct copy of the list (``NetworkFault(*fault)`` per fault), on a
  store warmed the same way - each call re-derives its universe
  (dedupe, injectability check, labels, fault fingerprint, collapse
  lookup), as every call did before the memo.

Both run on perfbench's ISCAS-shaped netlists (:mod:`perfbench.netgen`,
seed 1, one 500-gate module per 500 gates) at 2k and 10k gates, on
4,096 random patterns, the compiled engine, in one process.  Every
call's result is checked bit-identical to an uncached run
(``cache="off"``) before any ratio is recorded; each side is timed
best-of-N with a garbage collection before each repetition.  The entry
records the host, its CPU count and the measured commit (``-dirty``
when the checkout had local changes).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_universe.py [--quick]

``--quick`` runs the same race on a seconds-sized netlist (CI):
bit-identity only, and the JSON is left untouched.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import (  # noqa: E402
    BENCH_PATH,
    entries_pass,
    git_commit,
    results_identical,
    update_record,
)
from netgen import bench_text  # noqa: E402
from repro.netlist import NetworkFault, parse_bench  # noqa: E402
from repro.simulate import ArtifactStore, PatternSet, fault_simulate  # noqa: E402

WORKLOAD_NAME = "e_repeat_calls"
MIN_REQUIRED_SPEEDUP = 1.1
"""Same-list calls over fresh-copy calls, at every size."""
CALLS = 10
NETLIST_SEED = 1
PATTERN_SEED = 1
GATES_PER_BLOCK = 500


def blocks_of(gates: int) -> int:
    return max(1, gates // GATES_PER_BLOCK)


def copies_of(faults):
    return [NetworkFault(*fault) for fault in faults]


def side(network, patterns, faults, lists, repetitions: int):
    """``(results, seconds)``: the fastest of ``repetitions`` runs of
    one ``fault_simulate`` per list ``lists(faults)`` yields, each run
    on a fresh store warmed by one untimed call on ``faults``."""
    best = float("inf")
    results = []
    for _ in range(repetitions):
        store = ArtifactStore()
        fault_simulate(network, patterns, faults, collapse="on", cache=store)
        calls = lists(faults)
        gc.collect()
        start = time.perf_counter()
        results = [
            fault_simulate(network, patterns, listed, collapse="on", cache=store)
            for listed in calls
        ]
        best = min(best, time.perf_counter() - start)
    return results, best


def run_point(gates: int, pattern_count: int, repetitions: int) -> Dict:
    text = bench_text(NETLIST_SEED, gates=gates, blocks=blocks_of(gates))
    network = parse_bench(text, name=f"repeat_{gates}")
    faults = network.enumerate_faults()
    patterns = PatternSet.random(network.inputs, pattern_count, seed=PATTERN_SEED)
    reference = fault_simulate(network, patterns, faults, collapse="on", cache="off")

    same, same_seconds = side(
        network, patterns, faults, lambda listed: [listed] * CALLS, repetitions
    )
    fresh, fresh_seconds = side(
        network, patterns, faults,
        lambda listed: [copies_of(listed) for _ in range(CALLS)], repetitions,
    )
    identical = all(
        results_identical(result, reference) for result in same + fresh
    )
    point = {
        "gates": gates,
        "blocks": blocks_of(gates),
        "faults": len(faults),
        "classes": reference.collapsed_classes,
        "calls": CALLS,
        "same_list_seconds": round(same_seconds, 4),
        "fresh_copies_seconds": round(fresh_seconds, 4),
        "same_list_per_call_ms": round(1000 * same_seconds / CALLS, 2),
        "fresh_copies_per_call_ms": round(1000 * fresh_seconds / CALLS, 2),
        "speedup": round(fresh_seconds / max(same_seconds, 1e-9), 2),
        "identical_results": identical,
    }
    print(
        f"  {gates} gates: {len(faults)} faults, {point['classes']} classes: "
        f"{CALLS} calls on one list {same_seconds:.3f}s vs on fresh copies "
        f"{fresh_seconds:.3f}s = {point['speedup']}x, identical={identical}"
    )
    return point


def run_repeat(sizes=(2000, 10000), pattern_count: int = 4096,
               repetitions: int = 3) -> Dict:
    print(f"{WORKLOAD_NAME}: {CALLS} repeated fault_simulate calls on one "
          f"list vs on fresh copies at {list(sizes)} gates, "
          f"{pattern_count} patterns")
    points = [run_point(gates, pattern_count, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "ten repeated fault_simulate(collapse='on') calls on one fault "
            "list (memoised universe and stem plan) vs the same calls on "
            "fresh equal-but-distinct copies (universe re-derived per "
            "call), compiled engine, perfbench's seeded ISCAS-shaped "
            "netlists; every result checked bit-identical to an uncached "
            "run first"
        ),
        "params": {
            "sizes": list(sizes),
            "netlist_seed": NETLIST_SEED,
            "gates_per_block": GATES_PER_BLOCK,
            "patterns": pattern_count,
            "pattern_seed": PATTERN_SEED,
            "calls": CALLS,
            "repetitions": repetitions,
        },
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "points": points,
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "speedup": min(point["speedup"] for point in points),
        "identical_results": all(point["identical_results"] for point in points),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-sized smoke run of the same race (bit-identity "
        "only); does not touch BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        entry = run_repeat(sizes=(400,), pattern_count=1024, repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: repeated-call results diverged from the uncached run")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_repeat()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
