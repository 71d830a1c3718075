"""Stem-observability benchmark: fault passes per stem vs per fault.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e_stem_faultsim``
entry.  The compiled engine's fault pass,
:meth:`repro.simulate.compiled.GoodSimulation.differences`, carries
each fault to the stem of its fanout-free region and runs one
event-driven observability pass per stem.  It used to run one
event-driven pass per fault, through the fault's whole fanout cone.  A
faithful replica of that per-fault pass (below) races the current one
over every collapsed fault class of perfbench's ISCAS-shaped netlists
(:mod:`perfbench.netgen`, seed 1, one 500-gate module per 500 gates) at
2k and 10k gates, on one shared good-circuit simulation of 4,096 random
patterns.  Every class's word is checked bit-identical between the two
passes before any ratio is recorded; both sides are timed best-of-N in
the same process.  The entry records the host, its CPU count and the
measured commit (``-dirty`` when the checkout had local changes).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_stem.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import BENCH_PATH, best_of, git_commit, update_record  # noqa: E402
from netgen import bench_text  # noqa: E402
from repro.faults.structural import collapse_network_faults  # noqa: E402
from repro.netlist import parse_bench  # noqa: E402
from repro.simulate import PatternSet, compile_network  # noqa: E402
from repro.simulate.compiled import GoodSimulation  # noqa: E402

WORKLOAD_NAME = "e_stem_faultsim"
MIN_REQUIRED_SPEEDUP = 2.0
NETLIST_SEED = 1
PATTERN_SEED = 1
GATES_PER_BLOCK = 500


def blocks_of(gates: int) -> int:
    return max(1, gates // GATES_PER_BLOCK)


def per_fault_differences(sim: GoodSimulation, faults) -> List[int]:
    """The pre-stem compiled fault pass, verbatim: one event-driven
    fanout-cone pass per fault, from its injection site, with early exit
    once every changed word has converged back to the good word."""
    compiled = sim.compiled
    good = sim.values
    scratch = good[:]
    mask = sim.mask
    readers = compiled.readers
    gate_out = compiled._gate_out
    gate_fn = compiled._gate_fn
    is_out_slot = compiled._is_out_slot
    heap: List[int] = []
    scheduled = bytearray(len(compiled.gates))
    words = []
    for fault in faults:
        popped: List[int] = []
        touched: List[int] = []
        difference = 0
        stuck_slot = -1
        fault_gate = -1
        if fault.kind == "stuck":
            stuck_slot = compiled.slot_of_net.get(fault.net, -1)
            if stuck_slot < 0:
                words.append(0)
                continue
            forced = mask if fault.value else 0
            if scratch[stuck_slot] != forced:
                scratch[stuck_slot] = forced
                touched.append(stuck_slot)
                if is_out_slot[stuck_slot]:
                    difference = forced ^ good[stuck_slot]
                for gi in readers[stuck_slot]:
                    if not scheduled[gi]:
                        scheduled[gi] = 1
                        heappush(heap, gi)
        else:
            fault_gate = compiled.gate_index.get(fault.gate, -1)
            if fault_gate < 0:
                words.append(0)
                continue
            scheduled[fault_gate] = 1
            heappush(heap, fault_gate)
            faulty_fn = compiled.faulty_function(fault)

        while heap:
            gi = heappop(heap)
            popped.append(gi)
            out = gate_out[gi]
            if out == stuck_slot:
                continue  # the forced net shadows its driver
            if gi == fault_gate:
                word = faulty_fn(scratch, mask)
            else:
                word = gate_fn[gi](scratch, mask)
            if word != scratch[out]:
                scratch[out] = word
                touched.append(out)
                if is_out_slot[out]:
                    difference |= word ^ good[out]
                for reader in readers[out]:
                    if not scheduled[reader]:
                        scheduled[reader] = 1
                        heappush(heap, reader)

        for slot in touched:
            scratch[slot] = good[slot]
        for gi in popped:
            scheduled[gi] = 0
        words.append(difference)
    return words


def observability_passes(sim: GoodSimulation, faults) -> int:
    """How many stem-observability passes one ``differences`` call runs."""
    original = GoodSimulation._observability
    calls = [0]

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    GoodSimulation._observability = counted
    try:
        sim.differences(faults)
    finally:
        GoodSimulation._observability = original
    return calls[0]


def run_point(gates: int, pattern_count: int, repetitions: int) -> Dict:
    text = bench_text(NETLIST_SEED, gates=gates, blocks=blocks_of(gates))
    network = parse_bench(text, name=f"stem_{gates}")
    faults = collapse_network_faults(
        network, network.enumerate_faults(), cache="off"
    ).representative_faults()
    patterns = PatternSet.random(network.inputs, pattern_count, seed=PATTERN_SEED)
    compiled = compile_network(network, cache="off")
    sim = compiled.simulate(patterns.env, patterns.mask)
    # Warm the faulty-function cache so neither side pays its compiles.
    sim.differences(faults)

    legacy, legacy_seconds = best_of(
        lambda: per_fault_differences(sim, faults), repetitions
    )
    stem, stem_seconds = best_of(lambda: sim.differences(faults), repetitions)
    identical = legacy == stem
    sites = {
        compiled.slot_of_net[fault.net] if fault.kind == "stuck"
        else compiled._gate_out[compiled.gate_index[fault.gate]]
        for fault in faults
    }
    stems = len({compiled.stem_of[site] for site in sites})
    passes = observability_passes(sim, faults)
    speedup = round(legacy_seconds / max(stem_seconds, 1e-9), 2)
    print(
        f"  {gates} gates: {len(faults)} classes, {stems} stems "
        f"({passes} passed): per-fault {legacy_seconds:.3f}s vs stem "
        f"{stem_seconds:.3f}s = {speedup}x, identical={identical}"
    )
    return {
        "gates": gates,
        "blocks": blocks_of(gates),
        "classes": len(faults),
        "stems": stems,
        "stems_passed": passes,
        "per_fault_seconds": round(legacy_seconds, 4),
        "stem_seconds": round(stem_seconds, 4),
        "speedup": speedup,
        "identical_results": identical,
    }


def run_stem(sizes=(2000, 10000), pattern_count: int = 4096,
             repetitions: int = 3) -> Dict:
    print(f"{WORKLOAD_NAME}: per-fault cone passes vs stem-observability "
          f"passes at {list(sizes)} gates, {pattern_count} patterns")
    points = [run_point(gates, pattern_count, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "compiled-engine fault pass over every collapsed fault class "
            "of perfbench's seeded ISCAS-shaped netlists: one "
            "observability pass per fanout-free-region stem vs a replica "
            "of the old one-cone-pass-per-fault loop, on one shared good "
            "simulation; every class's word checked bit-identical first"
        ),
        "params": {
            "sizes": list(sizes),
            "netlist_seed": NETLIST_SEED,
            "gates_per_block": GATES_PER_BLOCK,
            "patterns": pattern_count,
            "pattern_seed": PATTERN_SEED,
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
        help="seconds-sized smoke run (correctness + plumbing only); "
        "does not touch BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        entry = run_stem(sizes=(400,), pattern_count=1024, repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: stem-observability words diverged from per-fault passes")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_stem()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    ok = entry["identical_results"] and entry["speedup"] >= MIN_REQUIRED_SPEEDUP
    return 0 if ok and record.get("all_pass", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
