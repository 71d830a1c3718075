"""PROTEST topological-analysis benchmark: warm ``Protest.analyse``.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an
``e_protest_topological`` entry.  The paper sizes a random test from
PROTEST's per-fault detection probabilities; a sweep over candidate
input distributions runs the topological pass hundreds of times, so
its warm cost is what counts.  The race, one warm
``analyse(method="topological")`` per repetition:

* **process memo** (the library): every probability program is
  compiled once per process, keyed by content
  (:func:`repro.logic.probability.cell_program`); the signal,
  observability and detection passes resolve each gate's programs once
  per call; ``hardest_faults`` selects without a full sort;
* **call-local replica**: the previous path, kept here - each of the
  signal, observability and detection passes compiles its programs into
  a dict local to the call, the detection loop keys every fault's
  program by its truth table, and ``hardest_faults`` sorts every fault.

Both run on perfbench's ISCAS-shaped netlists (:mod:`perfbench.netgen`,
seed 1, one 500-gate module per 500 gates; 2k gates is perfbench's own
netlist) at 2k and 10k gates, with every cell fault class, in one
process on one artifact store.  The signal, detection, test-length and
hardest-fault results of both sides are checked ``==`` (dict order
included) before any ratio is recorded; each side is timed best-of-N
with a garbage collection before each repetition, whole and by phase:
signal, observability, detection (the activation pass with its own
observability pass, as ``analyse`` runs it), ``test_length`` and
``hardest``.  The entry records the host, its CPU count and the
measured commit (``-dirty`` when the checkout had local changes).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_protest.py [--quick]

``--quick`` runs the same race on a seconds-sized netlist (CI): the
``==`` checks only, and the JSON is left untouched.
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

from _harness import BENCH_PATH, entries_pass, git_commit, update_record  # noqa: E402
from netgen import bench_text  # noqa: E402
from repro.logic.minimize import minimal_sop  # noqa: E402
from repro.logic.probability import _pinned_inputs, probability_program  # noqa: E402
from repro.netlist import parse_bench  # noqa: E402
from repro.protest import detectprob  # noqa: E402
from repro.protest.signalprob import (  # noqa: E402
    _input_probs,
    topological_signal_probabilities,
)
from repro.protest.testlength import hardest_faults, test_length  # noqa: E402
from repro.protest.tool import Protest  # noqa: E402
from repro.simulate import ArtifactStore  # noqa: E402
from repro.simulate.faultsim import fault_universe  # noqa: E402

WORKLOAD_NAME = "e_protest_topological"
MIN_REQUIRED_SPEEDUP = 1.2
"""Call-local replica over the process memo, warm analyse, every size."""
NETLIST_SEED = 1
GATES_PER_BLOCK = 500
CONFIDENCE = 0.999
HARDEST = 8
PHASES = ("signal", "observability", "detection", "test_length", "hardest")


# -- the call-local replica (the path before the process-wide memo) -----------


def _program(programs, key, expr_of, pinned):
    program = programs.get((key, pinned))
    if program is None:
        program = programs[(key, pinned)] = probability_program(expr_of(), dict(pinned))
    return program


def replica_signal(network, probs):
    estimates = dict(_input_probs(network, probs))
    programs = {}
    for gate_name in network.levelize():
        gate = network.gates[gate_name]
        pin_probs = {pin: estimates[net] for pin, net in gate.connections.items()}
        program = _program(
            programs, id(gate.cell), gate.function_expr, _pinned_inputs(pin_probs)
        )
        estimates[gate.output] = program(pin_probs)
    return estimates


def replica_observability(network, gate_inputs):
    observability = {net: 0.0 for net in network.nets()}
    for net in network.outputs:
        observability[net] = 1.0
    fanout = network.fanout_index()
    net_order = list(network.inputs) + [
        gate_inputs[name][0].output for name in network.levelize()
    ]
    programs = {}
    for net in reversed(net_order):
        for gate_name, pin in fanout.get(net, ()):
            gate, pin_probs, pinned = gate_inputs[gate_name]
            program = _program(
                programs, (id(gate.cell), pin),
                lambda: detectprob._boolean_difference(gate.function_expr(), pin),
                pinned,
            )
            through = observability[gate.output] * program(pin_probs)
            observability[net] = 1.0 - (1.0 - observability[net]) * (1.0 - through)
    return observability


def replica_detection(network, faults, signal_probs, store):
    gate_inputs = detectprob._gate_inputs(network, signal_probs)
    observability = replica_observability(network, gate_inputs)
    universe = fault_universe(network, faults, store=store)
    programs = {}
    result = {}
    for label, fault in zip(universe.labels, universe.faults):
        if fault.kind == "stuck":
            p_net = signal_probs[fault.net]
            activation = p_net if fault.value == 0 else (1.0 - p_net)
            result[label] = activation * observability[fault.net]
            continue
        gate, pin_probs, pinned = gate_inputs[fault.gate]
        table = fault.function.table
        program = _program(
            programs, (id(gate.cell), table),
            lambda: gate.function_expr() ^ minimal_sop(table), pinned,
        )
        result[label] = program(pin_probs) * observability[gate.output]
    return result


def replica_hardest(probabilities, count):
    return sorted(probabilities.items(), key=lambda item: item[1])[:count]


def replica_analyse(network, faults, store):
    """What ``analyse(method="topological")`` returned, on the replica."""
    input_probs = _input_probs(network, 0.5)
    signal = replica_signal(network, input_probs)
    detection = replica_detection(network, faults, signal, store)
    length = test_length(detection, CONFIDENCE)
    return signal, detection, length, replica_hardest(detection, HARDEST)


def memo_analyse(network, faults, store):
    report = Protest(network, faults, cache=store).analyse(
        0.5, CONFIDENCE, method="topological"
    )
    return (report.signal_probabilities, report.detection_probabilities,
            report.required_test_length, report.hardest)


# -- timing -------------------------------------------------------------------


def best(call, repetitions: int):
    """``(result, fastest seconds)`` of ``repetitions`` warm calls."""
    result, fastest = None, float("inf")
    for _ in range(repetitions):
        gc.collect()
        start = time.perf_counter()
        result = call()
        fastest = min(fastest, time.perf_counter() - start)
    return result, fastest


SIDES = {
    "memo": (
        topological_signal_probabilities, detectprob._observability,
        detectprob._topological_detection, hardest_faults,
    ),
    "replica": (
        replica_signal, replica_observability, replica_detection, replica_hardest,
    ),
}
"""Each side's signal, observability, detection and hardest-fault call."""


def phase_ms(network, faults, store, side: str, repetitions: int) -> Dict:
    """Best-of milliseconds of each phase of one side."""
    signal_of, observe, detect, hardest = SIDES[side]
    input_probs = _input_probs(network, 0.5)
    signal, signal_s = best(lambda: signal_of(network, input_probs), repetitions)
    _, observability_s = best(
        lambda: observe(network, detectprob._gate_inputs(network, signal)), repetitions
    )
    detection, detection_s = best(
        lambda: detect(network, faults, signal, store), repetitions
    )
    _, length_s = best(lambda: test_length(detection, CONFIDENCE), repetitions)
    _, hardest_s = best(lambda: hardest(detection, HARDEST), repetitions)
    seconds = (signal_s, observability_s, detection_s, length_s, hardest_s)
    return {phase: round(1000 * s, 3) for phase, s in zip(PHASES, seconds)}


def identical(a, b) -> bool:
    """Two ``(signal, detection, length, hardest)`` results agree with
    ``==``, dict keys and their order included."""
    return (
        list(a[0].items()) == list(b[0].items())
        and list(a[1].items()) == list(b[1].items())
        and a[2] == b[2]
        and a[3] == b[3]
    )


def run_point(gates: int, repetitions: int) -> Dict:
    blocks = max(1, gates // GATES_PER_BLOCK)
    network = parse_bench(
        bench_text(NETLIST_SEED, gates=gates, blocks=blocks), name=f"protest_{gates}"
    )
    faults = network.enumerate_faults()
    store = ArtifactStore()
    # Warm-up: the universe in the store and the process memo's programs.
    expected = replica_analyse(network, faults, store)
    same = identical(memo_analyse(network, faults, store), expected)
    replica, replica_s = best(lambda: replica_analyse(network, faults, store), repetitions)
    memo, memo_s = best(lambda: memo_analyse(network, faults, store), repetitions)
    same = same and identical(memo, expected) and identical(replica, expected)
    point = {
        "gates": gates,
        "blocks": blocks,
        "faults": len(faults),
        "topological_length": expected[2],
        "replica_ms": round(1000 * replica_s, 3),
        "memo_ms": round(1000 * memo_s, 3),
        "speedup": round(replica_s / max(memo_s, 1e-9), 2),
        "replica_phase_ms": phase_ms(network, faults, store, "replica", repetitions),
        "memo_phase_ms": phase_ms(network, faults, store, "memo", repetitions),
        "identical_results": same,
    }
    print(
        f"  {gates} gates, {len(faults)} faults: warm analyse call-local replica "
        f"{point['replica_ms']:.2f} ms vs process memo {point['memo_ms']:.2f} ms "
        f"= {point['speedup']}x, identical={same}"
    )
    for side in ("replica", "memo"):
        phases = point[f"{side}_phase_ms"]
        print(f"    {side:<8}" + "  ".join(f"{p} {phases[p]:.2f}" for p in PHASES))
    return point


def run_protest(sizes=(2000, 10000), repetitions: int = 15) -> Dict:
    print(f"{WORKLOAD_NAME}: warm topological Protest.analyse, call-local "
          f"replica vs process memo at {list(sizes)} gates")
    points = [run_point(gates, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "warm Protest.analyse(method='topological') on perfbench's "
            "seeded ISCAS-shaped netlists: probability programs in one "
            "process-wide content-keyed memo with per-gate resolution and "
            "a partial hardest-fault selection vs a replica of the "
            "call-local program dicts and full sort; signal, detection, "
            "length and hardest results checked == first; per-phase split "
            "(detection includes its observability pass)"
        ),
        "params": {
            "sizes": list(sizes),
            "netlist_seed": NETLIST_SEED,
            "gates_per_block": GATES_PER_BLOCK,
            "confidence": CONFIDENCE,
            "hardest": HARDEST,
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
        help="seconds-sized smoke run of the same race (== checks only); "
        "does not touch BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        entry = run_protest(sizes=(400,), repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: process-memo analyse diverged from the call-local replica")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_protest()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
