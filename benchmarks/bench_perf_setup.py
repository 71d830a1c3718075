"""Set-up benchmark: cold set-up once per cell shape vs once per gate
or fault.

Extends ``BENCH_engine.json`` (the perf trajectory - earlier runs of a
workload are kept in its ``history``) with an ``e_setup_pipeline``
entry.  Set-up takes a ``.bench`` netlist to a collapsed fault
universe: parse, enumerate faults, compile, collapse.  Every gate of
the compiled program now binds its slots into a factory compiled once
per (cell expression, pins), and the structural collapse memoises each
canonicalisation step on the cell shape.  They used to compile one
slot-baked lambda per gate, canonicalise every fault on its own path,
build two truth tables per class for dominance and feed the fault
fingerprint part by part.  Faithful replicas of that path race the
current one on perfbench's ISCAS-shaped netlists
(:mod:`perfbench.netgen`, seed 1, one 500-gate module per 500 gates) at
2k and 10k gates:

* compile - the per-gate baked render of the old
  ``compile_gate_function``, bound in place of
  :func:`repro.simulate.compiled.compile_gate_factory` (below);
* enumerate - the old per-gate label loop of
  :meth:`Network.enumerate_faults` (below);
* collapse - the per-fault canonicaliser and truth-table dominance kept
  as the test oracle in ``tests/collapse_reference.py``, keyed by the
  old part-by-part fault fingerprint (below); the current collapse is
  held by its fault objects and hashes nothing.

Each side runs every repetition in a fresh interpreter, as perfbench's
``child.py`` does, so the code caches, the cells and the collector
start as a user's fresh process finds them, and the collections that
process pays are measured: every layer is timed best-of-N, the sides
alternating which runs first, and the collector's time per generation
(``gc.callbacks``) is recorded from each side's median run.  (Points
recorded before this change timed both sides in one process, each
after ``gc.collect(); gc.freeze()``, so they left out the collections
a fresh process pays; they stay in the entry's ``history``.)
Before any ratio is recorded the two collapsed fault sets (fault lists
included) must be equal field by field, and both compiled programs must
give identical good values on 256 random patterns (one untimed
in-process run of each side).  (Points recorded while the current side
still hashed its fault list carry a ``fingerprint`` layer; they stay in
the entry's ``history``.)  The entry records per-layer
times, the collector's time, ``compile()`` calls per side, the host,
its CPU count and the measured commit (``-dirty`` when the checkout had
local changes).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_setup.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench", REPO_ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import BENCH_PATH, entries_pass, git_commit, update_record  # noqa: E402
from bench_perf_stem import GATES_PER_BLOCK, NETLIST_SEED, blocks_of  # noqa: E402
from collapse_reference import reference_collapse  # noqa: E402
from netgen import bench_text  # noqa: E402
from repro.faults.structural import CollapsedFaultSet, collapse_network_faults  # noqa: E402
from repro.netlist import NetworkFault, parse_bench  # noqa: E402
from repro.simulate import PatternSet  # noqa: E402
from repro.simulate import compiled as compiled_module  # noqa: E402
from repro.simulate.artifacts import ArtifactStore  # noqa: E402

WORKLOAD_NAME = "e_setup_pipeline"
MIN_REQUIRED_SPEEDUP = 1.5
PATTERN_SEED = 1
LAYERS = ("parse", "enumerate", "compile", "collapse")


def baked_gate_factory(expr, pins):
    """The pre-factory gate compile, verbatim in effect: each gate's
    slots are baked into its own rendered source, one ``compile()`` per
    distinct source (``compile_gate_function``)."""

    def bind(*slots):
        sources = {pin: f"v[{slot}]" for pin, slot in zip(pins, slots)}
        source = compiled_module._expr_source(expr, sources)
        return compiled_module._compile_source("v, m", source)

    return bind


def legacy_compile(network, store):
    """``compile_network`` with every gate baked on its own."""
    factory = compiled_module.compile_gate_factory
    compiled_module.compile_gate_factory = baked_gate_factory
    try:
        return compiled_module.compile_network(network, cache=store)
    finally:
        compiled_module.compile_gate_factory = factory


def legacy_enumerate(network):
    """The pre-memo ``enumerate_faults``: class labels disambiguated
    once per gate."""
    faults = []
    libraries = network.libraries()
    for name in network.levelize():
        library = libraries[name]
        label_uses: Dict[str, int] = {}
        for cls in library.classes:
            base = "|".join(cls.labels)
            label_uses[base] = label_uses.get(base, 0) + 1
        for cls in library.classes:
            base = "|".join(cls.labels)
            label = f"{name}:{base}"
            if label_uses[base] > 1:
                label = f"{label}#{cls.index}"
            faults.append(
                NetworkFault.cell_fault(name, cls.index, cls.function, label=label)
            )
    return faults


def legacy_fingerprint(faults) -> str:
    """The pre-join ``fault_fingerprint``: one digest update per part."""
    separator, terminator = b"\x1f", b"\x1e"
    digest = hashlib.sha256()
    digest.update(b"repro-faults-v1")
    for fault in faults:
        for part in (
            fault.kind,
            fault.net or "",
            "" if fault.value is None else str(fault.value),
            fault.gate or "",
            "" if fault.class_index is None else str(fault.class_index),
            fault.label,
        ):
            digest.update(part.encode("utf-8"))
            digest.update(separator)
        function = fault.function
        if function is not None:
            bits = function.table.bits
            for part in (function.name, ",".join(function.table.names), function.sop):
                digest.update(part.encode("utf-8"))
                digest.update(separator)
            digest.update(bits.to_bytes(bits.bit_length() // 8 + 1, "little"))
            digest.update(separator)
        digest.update(terminator)
    return digest.hexdigest()


def legacy_collapse(network, faults, compiled, store):
    key = (compiled.fingerprint, legacy_fingerprint(faults))
    return store.fetch(
        "collapse", key, lambda: reference_collapse(network, faults, compiled)
    )


def netlist(gates: int):
    """``(text, name)`` of the perfbench-shaped netlist of a point."""
    return bench_text(NETLIST_SEED, gates=gates, blocks=blocks_of(gates)), f"setup_{gates}"


def child(gates: int, legacy: bool) -> Dict:
    """One cold set-up in this (fresh) interpreter, each layer timed,
    with the collector's time and collections per generation."""
    text, name = netlist(gates)
    gc_ms, collections, started = [0.0, 0.0, 0.0], [0, 0, 0], [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            gc_ms[info["generation"]] += (time.perf_counter() - started[0]) * 1000
            collections[info["generation"]] += 1

    gc.callbacks.append(on_gc)
    try:
        run = _timed_setup(text, name, legacy)
    finally:
        gc.callbacks.remove(on_gc)
    return {
        "times": run["times"],
        "compiles": run["compiles"],
        "gc_ms": [round(ms, 2) for ms in gc_ms],
        "gc_collections": collections,
    }


def run_side(gates: int, legacy: bool) -> Dict:
    """:func:`child` in a fresh interpreter (hash seed fixed)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "legacy" if legacy else "current", "--gates", str(gates)]
    env = dict(os.environ, PYTHONHASHSEED=str(NETLIST_SEED))
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _timed_setup(text: str, name: str, legacy: bool) -> Dict:
    store = ArtifactStore()
    times = {}

    def timed(layer, run):
        start = time.perf_counter()
        result = run()
        times[layer] = time.perf_counter() - start
        return result

    network = timed("parse", lambda: parse_bench(text, name=name))
    if legacy:
        faults = timed("enumerate", lambda: legacy_enumerate(network))
        compiled = timed("compile", lambda: legacy_compile(network, store))
        collapsed = timed(
            "collapse", lambda: legacy_collapse(network, faults, compiled, store)
        )
    else:
        faults = timed("enumerate", network.enumerate_faults)
        compiled = timed(
            "compile", lambda: compiled_module.compile_network(network, cache=store)
        )
        collapsed = timed(
            "collapse", lambda: collapse_network_faults(network, faults, cache=store)
        )
    times["total"] = sum(times[layer] for layer in LAYERS)
    return {
        "times": times,
        "compiles": len(compiled_module._CODE_CACHE),
        "network": network,
        "compiled": compiled,
        "collapsed": collapsed,
    }


def best_sides(gates: int, repetitions: int):
    """``(legacy, current)``: each layer's fastest time over the fresh
    runs of each side, the sides alternating which runs first, with the
    collector's figures of the side's median-total run."""
    runs: Dict[bool, List[Dict]] = {True: [], False: []}
    for repetition in range(repetitions):
        order = (True, False) if repetition % 2 == 0 else (False, True)
        for legacy in order:
            runs[legacy].append(run_side(gates, legacy))
    sides = []
    for legacy in (True, False):
        side = runs[legacy]
        median = sorted(side, key=lambda run: run["times"]["total"])[len(side) // 2]
        sides.append({
            "times": {
                layer: min(run["times"][layer] for run in side)
                for layer in side[0]["times"]
            },
            "median_total": statistics.median(run["times"]["total"] for run in side),
            "compiles": side[0]["compiles"],
            "gc_ms": median["gc_ms"],
            "gc_collections": median["gc_collections"],
        })
    return sides[0], sides[1]


def identical(legacy: Dict, current: Dict, pattern_count: int) -> bool:
    """Equal collapsed sets field by field and equal good values of both
    compiled programs on random patterns."""
    if not all(
        getattr(legacy["collapsed"], field.name)
        == getattr(current["collapsed"], field.name)
        for field in dataclasses.fields(CollapsedFaultSet)
    ):
        return False
    patterns = PatternSet.random(
        current["network"].inputs, pattern_count, seed=PATTERN_SEED
    )
    good = [
        side["compiled"].simulate(patterns.env, patterns.mask).values
        for side in (legacy, current)
    ]
    return good[0] == good[1]


def run_point(gates: int, pattern_count: int, repetitions: int) -> Dict:
    text, name = netlist(gates)
    checked = {
        legacy: _timed_setup(text, name, legacy) for legacy in (True, False)
    }
    same = identical(checked[True], checked[False], pattern_count)
    collapsed = checked[True]["collapsed"]
    legacy, current = best_sides(gates, repetitions)
    old, new = legacy["times"], current["times"]
    speedup = round(old["total"] / max(new["total"], 1e-9), 2)
    layers = " ".join(
        f"{layer} {old[layer]:.3f}->{new[layer]:.3f}s"
        for layer in LAYERS
    )
    print(
        f"  {gates} gates, {collapsed.fault_count} faults: {layers}; "
        f"total {old['total']:.3f}s -> {new['total']:.3f}s = {speedup}x, "
        f"gc ms {legacy['gc_ms']} -> {current['gc_ms']}, "
        f"compiles {legacy['compiles']} -> {current['compiles']}, identical={same}"
    )
    return {
        "gates": gates,
        "blocks": blocks_of(gates),
        "faults": collapsed.fault_count,
        "classes": collapsed.class_count,
        "legacy_seconds": {layer: round(value, 4) for layer, value in old.items()},
        "current_seconds": {layer: round(value, 4) for layer, value in new.items()},
        "legacy_median_total": round(legacy["median_total"], 4),
        "current_median_total": round(current["median_total"], 4),
        "legacy_gc_ms": legacy["gc_ms"],
        "current_gc_ms": current["gc_ms"],
        "legacy_gc_collections": legacy["gc_collections"],
        "current_gc_collections": current["gc_collections"],
        "legacy_compiles": legacy["compiles"],
        "current_compiles": current["compiles"],
        "speedup": speedup,
        "identical_results": same,
    }


def run_setup(sizes=(2000, 10000), pattern_count: int = 256,
              repetitions: int = 5) -> Dict:
    print(f"{WORKLOAD_NAME}: per-gate and per-fault set-up vs per-cell-shape "
          f"set-up at {list(sizes)} gates")
    points = [run_point(gates, pattern_count, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "cold set-up of perfbench's seeded ISCAS-shaped netlists, "
            ".bench text to a collapsed fault universe (parse, enumerate, "
            "compile, collapse): per-(cell expression, pins) gate factories "
            "and shape-memoised collapse vs replicas of the per-gate baked "
            "compile, per-fault canonicaliser, truth-table dominance and "
            "part-by-part fault fingerprint, each side and repetition in "
            "a fresh interpreter (collector time per generation from "
            "gc.callbacks); collapsed sets and good values checked "
            "identical first"
        ),
        "params": {
            "method": "fresh interpreter per side and repetition",
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
    parser.add_argument("--child", choices=("legacy", "current"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--gates", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.gates, args.child == "legacy")))
        return 0
    if args.quick:
        entry = run_setup(sizes=(400,), repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: per-shape set-up diverged from the per-gate replica")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_setup()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
