"""Stem-observability benchmark: cone-list stem passes vs heap stem passes.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e_stem_faultsim``
entry.  The compiled engine's fault pass,
:meth:`repro.simulate.compiled.GoodSimulation.differences`, carries
each fault to the stem of its fanout-free region and runs one
observability pass per stem over the stem's levelized cone list
(built on first use), patching cell faults through the shared
:meth:`~repro.simulate.compiled.CompiledNetwork.faulty_word`.  Two
faithful replicas of earlier passes race it:

* the **heap stem pass** (the headline race): the same stem walk, but
  each observability pass is event-driven through a ``heapq`` schedule
  with early exit, and every cell fault is patched through its own
  cached slot-binding closure;
* the **per-fault pass**: one event-driven fanout-cone pass per fault,
  from its injection site.

They run over every collapsed fault class of perfbench's ISCAS-shaped
netlists (:mod:`perfbench.netgen`, seed 1, one 500-gate module per 500
gates) at 2k and 10k gates, on 4,096 random patterns.  A **cold** run
times the first ``differences`` call on a fresh ``CompiledNetwork``
(so the cone-list build and the heap pass's closures are inside it); a
**warm** run repeats the call on the same simulation.  Every class's
word is checked bit-identical between all three passes before any
ratio is recorded; every side is timed best-of-N in the same process.
The entry records the host, its CPU count and the measured commit
(``-dirty`` when the checkout had local changes).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_stem.py [--quick]

``--quick`` runs the same three-way race on a seconds-sized netlist
(CI): bit-identity only, and the JSON is left untouched.
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import sys
import time
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import (  # noqa: E402
    BENCH_PATH,
    best_of,
    entries_pass,
    git_commit,
    update_record,
)
from netgen import bench_text  # noqa: E402
from repro.faults.structural import collapse_network_faults  # noqa: E402
from repro.netlist import parse_bench  # noqa: E402
from repro.simulate import PatternSet, compile_network  # noqa: E402
from repro.simulate.compiled import _FAULT_PIN_FNS, GoodSimulation  # noqa: E402

WORKLOAD_NAME = "e_stem_faultsim"
MIN_REQUIRED_SPEEDUP = 1.1
"""Cone-list pass over the heap pass, cold and warm, at every size."""
MIN_REQUIRED_PER_FAULT_SPEEDUP = 2.0
"""Warm cone-list pass over the per-fault pass, at every size."""
NETLIST_SEED = 1
PATTERN_SEED = 1
GATES_PER_BLOCK = 500


def blocks_of(gates: int) -> int:
    return max(1, gates // GATES_PER_BLOCK)


def per_fault_differences(sim: GoodSimulation, faults) -> List[int]:
    """The pre-stem compiled fault pass, verbatim but for the patch
    point (now :meth:`CompiledNetwork.faulty_word`): one event-driven
    fanout-cone pass per fault, from its injection site, with early
    exit once every changed word has converged back to the good word."""
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

        while heap:
            gi = heappop(heap)
            popped.append(gi)
            out = gate_out[gi]
            if out == stuck_slot:
                continue  # the forced net shadows its driver
            if gi == fault_gate:
                word = compiled.faulty_word(fault, scratch, mask)
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


class HeapStemPass:
    """The heap stem pass, verbatim: ``GoodSimulation.detections`` and
    ``_observability`` as they were before the cone lists, with the
    per-fault closure cache ``CompiledNetwork.faulty_function`` kept
    (in ``closures``, one per compilation)."""

    def __init__(self, sim: GoodSimulation):
        self.compiled = sim.compiled
        self.values = sim.values
        self.mask = sim.mask
        self._scratch = sim.values[:]
        self._heap: List[int] = []
        self._scheduled = bytearray(len(sim.compiled.gates))
        self.closures: Dict = {}
        self.passes = 0

    def faulty_function(self, fault):
        table = fault.function.table
        key = (fault.gate, table.names, table.bits)
        fn = self.closures.get(key)
        if fn is None:
            compiled = self.compiled
            gate = compiled.gates[compiled.gate_index[fault.gate]]
            pins = tuple(gate.cell.inputs)
            # Compiles (once per process) the shared pin-level function.
            compiled.faulty_word(fault, self.values, self.mask)
            generic = _FAULT_PIN_FNS[(table.names, table.bits, pins)]
            slots = gate.in_slots

            def fn(v, m, _fn=generic, _slots=slots):
                return _fn(m, *[v[s] for s in _slots])

            self.closures[key] = fn
        return fn

    def differences(self, faults) -> List[int]:
        words = [0] * len(faults)
        for index, word in self.detections(faults):
            words[index] = word
        return words

    def detections(self, faults):
        compiled = self.compiled
        good = self.values
        scratch = self._scratch
        mask = self.mask
        slot_of_net = compiled.slot_of_net
        gate_index = compiled.gate_index
        gate_out = compiled._gate_out
        gate_fn = compiled._gate_fn
        readers = compiled.readers
        next_slot = compiled.next_slot
        stem_of = compiled.stem_of
        is_out_slot = compiled._is_out_slot

        sites = [-1] * len(faults)
        by_stem: Dict[int, List[int]] = {}
        for index, fault in enumerate(faults):
            if fault.kind == "stuck":
                slot = slot_of_net.get(fault.net, -1)
            else:
                gi = gate_index.get(fault.gate, -1)
                slot = gate_out[gi] if gi >= 0 else -1
            if slot >= 0:
                sites[index] = slot
                by_stem.setdefault(stem_of[slot], []).append(index)

        for stem, indices in by_stem.items():
            live = []
            for index in indices:
                fault = faults[index]
                slot = sites[index]
                if fault.kind == "stuck":
                    word = mask if fault.value else 0
                else:
                    word = self.faulty_function(fault)(good, mask)
                while slot != stem and word != good[slot]:
                    scratch[slot] = word
                    word = gate_fn[readers[slot][0]](scratch, mask)
                    scratch[slot] = good[slot]
                    slot = next_slot[slot]
                word ^= good[slot]
                if word:
                    live.append((index, word))
            if live:
                if is_out_slot[stem]:
                    observability = mask
                else:
                    flip = 0
                    for _, word in live:
                        flip |= word
                    observability = self._observability(stem, flip)
                for index, word in live:
                    word &= observability
                    if word:
                        yield index, word

    def _observability(self, stem: int, flip: int) -> int:
        self.passes += 1
        compiled = self.compiled
        good = self.values
        scratch = self._scratch
        mask = self.mask
        readers = compiled.readers
        gate_out = compiled._gate_out
        gate_fn = compiled._gate_fn
        is_out_slot = compiled._is_out_slot

        heap = self._heap
        scheduled = self._scheduled
        popped: List[int] = []
        touched = [stem]
        difference = 0
        scratch[stem] = good[stem] ^ flip
        for gi in readers[stem]:
            scheduled[gi] = 1
            heappush(heap, gi)

        while heap:
            gi = heappop(heap)
            popped.append(gi)
            out = gate_out[gi]
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
        return difference


def race(network, patterns, faults, make_pass, repetitions: int):
    """``(words, cold seconds, warm seconds)`` of one pass, best of
    ``repetitions``.  Each repetition compiles and simulates afresh
    (neither timed), times the first call (cold) and then a second one
    on the same simulation (warm).  The garbage collector runs before
    each repetition, so no side pays for another's live objects."""
    cold = warm = float("inf")
    for _ in range(repetitions):
        gc.collect()
        compiled = compile_network(network, cache="off")
        sim = compiled.simulate(patterns.env, patterns.mask)
        differences = make_pass(sim)
        start = time.perf_counter()
        words = differences(faults)
        cold = min(cold, time.perf_counter() - start)
        start = time.perf_counter()
        differences(faults)
        warm = min(warm, time.perf_counter() - start)
    return words, cold, warm


def run_point(gates: int, pattern_count: int, repetitions: int) -> Dict:
    text = bench_text(NETLIST_SEED, gates=gates, blocks=blocks_of(gates))
    network = parse_bench(text, name=f"stem_{gates}")
    faults = collapse_network_faults(
        network, network.enumerate_faults(), cache="off"
    ).representative_faults()
    patterns = PatternSet.random(network.inputs, pattern_count, seed=PATTERN_SEED)
    compiled = compile_network(network, cache="off")
    sim = compiled.simulate(patterns.env, patterns.mask)
    # Compiles every shared pin-level faulty function, so no timed side
    # pays a compile.
    sim.differences(faults)
    heap = HeapStemPass(sim)
    heap.differences(faults)
    passes = heap.passes
    del heap

    heap_words, heap_cold, heap_warm = race(
        network, patterns, faults, lambda s: HeapStemPass(s).differences,
        repetitions,
    )
    cone_words, cone_cold, cone_warm = race(
        network, patterns, faults, lambda s: s.differences, repetitions
    )
    gc.collect()
    per_fault_words, per_fault = best_of(
        lambda: per_fault_differences(sim, faults), repetitions
    )
    identical = cone_words == heap_words == per_fault_words

    sites = {
        compiled.slot_of_net[fault.net] if fault.kind == "stuck"
        else compiled._gate_out[compiled.gate_index[fault.gate]]
        for fault in faults
    }
    stems = len({compiled.stem_of[site] for site in sites})
    cones = [cone for cone in compiled.stem_cones() if cone is not None]
    point = {
        "gates": gates,
        "blocks": blocks_of(gates),
        "classes": len(faults),
        "stems": stems,
        "stems_passed": passes,
        "cone_list_entries": sum(map(len, cones)),
        "per_fault_seconds": round(per_fault, 4),
        "heap_cold_seconds": round(heap_cold, 4),
        "heap_warm_seconds": round(heap_warm, 4),
        "cone_cold_seconds": round(cone_cold, 4),
        "cone_warm_seconds": round(cone_warm, 4),
        "speedup_cold": round(heap_cold / max(cone_cold, 1e-9), 2),
        "speedup_warm": round(heap_warm / max(cone_warm, 1e-9), 2),
        "per_fault_speedup": round(per_fault / max(cone_warm, 1e-9), 2),
        "identical_results": identical,
    }
    print(
        f"  {gates} gates: {len(faults)} classes, {stems} stems: heap cold "
        f"{heap_cold:.3f}s / warm {heap_warm:.3f}s vs cone list cold "
        f"{cone_cold:.3f}s / warm {cone_warm:.3f}s = "
        f"{point['speedup_cold']}x / {point['speedup_warm']}x; per-fault "
        f"{per_fault:.3f}s ({point['per_fault_speedup']}x), identical={identical}"
    )
    return point


def run_stem(sizes=(2000, 10000), pattern_count: int = 4096,
             repetitions: int = 3) -> Dict:
    print(f"{WORKLOAD_NAME}: heap vs cone-list stem passes (and per-fault "
          f"passes) at {list(sizes)} gates, {pattern_count} patterns")
    points = [run_point(gates, pattern_count, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "compiled-engine fault pass over every collapsed fault class "
            "of perfbench's seeded ISCAS-shaped netlists: one "
            "observability pass per fanout-free-region stem over its "
            "levelized cone list vs a replica of the heap-scheduled stem "
            "pass with per-fault closures, cold (fresh compilation, cone "
            "build included) and warm; a replica of the old "
            "one-cone-pass-per-fault loop rides along; every class's word "
            "checked bit-identical first"
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
        "speedup": min(
            min(point["speedup_cold"], point["speedup_warm"]) for point in points
        ),
        "min_required_per_fault_speedup": MIN_REQUIRED_PER_FAULT_SPEEDUP,
        "per_fault_speedup": min(point["per_fault_speedup"] for point in points),
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
        entry = run_stem(sizes=(400,), pattern_count=1024, repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: cone-list, heap and per-fault pass words diverged")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_stem()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    ok = (
        entries_pass(record, WORKLOAD_NAME)
        and entry["per_fault_speedup"] >= MIN_REQUIRED_PER_FAULT_SPEEDUP
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
