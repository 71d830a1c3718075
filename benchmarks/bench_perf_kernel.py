"""Vector cone-kernel benchmark: per-(cell, hot-pin set) factories vs
per-(site, gate) rendered sources.

Extends ``BENCH_engine.json`` (the perf trajectory - earlier runs of a
workload are kept in its ``history``) with an ``e_vector_kernel_build``
entry.  The vector engine's cone plans
(:meth:`repro.simulate.vector.VectorNetwork._merged_cone`) bind each
cone gate to a factory compiled once per process for each cell
expression and hot-pin set, memoised per network on (gate index,
hot-pin mask).  They used to render one kernel source per (site, gate)
and look it up in the engine-wide code cache, compiling every distinct
one.  A faithful replica of that render (below) races the current
build over every injection-site group of the collapsed fault classes
of perfbench's ISCAS-shaped netlists (:mod:`perfbench.netgen`, seed 1,
one 500-gate module per 500 gates) at 2k and 10k gates.  Each side
starts every repetition from empty kernel and code caches and is timed
best-of-N in the same process.  Before any ratio is recorded, every
group's difference rows are checked bit-identical between the two
plans on one good lane simulation of 4,096 random patterns.  The entry
records renders, ``compile()`` calls and kernel bindings per side, the
host, its CPU count and the measured commit (``-dirty`` when the
checkout had local changes).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_kernel.py [--quick]

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

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import BENCH_PATH, best_of, git_commit, update_record  # noqa: E402
from bench_perf_stem import GATES_PER_BLOCK, NETLIST_SEED, blocks_of  # noqa: E402
from netgen import bench_text  # noqa: E402
from repro.faults.structural import collapse_network_faults  # noqa: E402
from repro.logic.expr import And, Const, Not, Or, Var  # noqa: E402
from repro.netlist import parse_bench  # noqa: E402
from repro.simulate import PatternSet, compile_network  # noqa: E402
from repro.simulate import compiled as compiled_module  # noqa: E402
from repro.simulate.schedule import cone_gates  # noqa: E402
from repro.simulate.vector import VectorNetwork  # noqa: E402

WORKLOAD_NAME = "e_vector_kernel_build"
MIN_REQUIRED_SPEEDUP = 3.0
PATTERN_SEED = 1


def batched_gate_source(expr, slot_of_pin, faulty_slots) -> str:
    """The pre-factory cone-kernel render, verbatim: the gate's
    expression over baked ``v[slot]`` lookups, with the operands of
    every AND/OR stably reordered so subtrees free of faulty slots come
    first."""

    def render(node):
        if isinstance(node, Const):
            return ("m" if node.value else "0"), True
        if isinstance(node, Var):
            slot = slot_of_pin[node.name]
            return f"v[{slot}]", slot not in faulty_slots
        if isinstance(node, Not):
            source, pure = render(node.operand)
            return f"(m ^ {source})", pure
        if isinstance(node, (And, Or)):
            rendered = [render(operand) for operand in node.operands]
            rendered.sort(key=lambda pair: not pair[1])  # stable: pure first
            joiner = " & " if isinstance(node, And) else " | "
            return (
                "(" + joiner.join(source for source, _pure in rendered) + ")",
                all(pure for _source, pure in rendered),
            )
        raise TypeError(f"unknown expression node {node!r}")

    return render(expr)[0]


def rendered_cone(compiled, site: int, counts: Dict[str, int]):
    """The pre-factory single-site cone plan, verbatim: one rendered
    source per cone gate, compiled through the engine-wide code cache
    (a ``compile()`` per distinct source)."""
    gate_out = compiled._gate_out
    faulty = {site}
    pairs = []
    outs = {site} if compiled._is_out_slot[site] else set()
    reads = set()
    for index in sorted(cone_gates(compiled, site)):
        out = gate_out[index]
        gate = compiled.gates[index]
        slot_of_pin = dict(zip(gate.cell.inputs, gate.in_slots))
        source = batched_gate_source(
            gate.expr, slot_of_pin, faulty.intersection(gate.in_slots)
        )
        counts["renders"] += 1
        pairs.append((compiled_module._compile_source("v, m", source), out))
        reads.update(gate.in_slots)
        faulty.add(out)
        if compiled._is_out_slot[out]:
            outs.add(out)
    reads -= faulty
    return (tuple(pairs), tuple(sorted(outs)), tuple(sorted(reads)))


def empty_code_caches() -> None:
    compiled_module._CODE_CACHE.clear()
    compiled_module._FACTORIES.clear()


def build_rendered(compiled, sites, counts: Dict[str, int]) -> VectorNetwork:
    """Every site's cone plan through the replica, from empty caches."""
    empty_code_caches()
    counts["renders"] = 0
    vector = VectorNetwork(compiled)
    for site in sites:
        if (site,) not in vector._cones:
            vector._cones[(site,)] = rendered_cone(compiled, site, counts)
    counts["compiles"] = len(compiled_module._CODE_CACHE)
    return vector


def build_factories(compiled, sites, counts: Dict[str, int]) -> VectorNetwork:
    """Every site's cone plan through the factory memo, from empty
    caches; a factory is rendered exactly when it misses its cache."""
    empty_code_caches()
    vector = VectorNetwork(compiled)
    for site in sites:
        vector._merged_cone((site,))
    counts["renders"] = len(compiled_module._FACTORIES)
    counts["compiles"] = len(compiled_module._CODE_CACHE)
    counts["bindings"] = len(vector._kernels)
    return vector


def rows_identical(rendered, factories, groups, patterns) -> bool:
    """Every group's live indices and difference rows agree bit for bit."""
    values, mask_row, _count = factories.good_rows(patterns)
    for group in groups:
        live_a, rows_a = rendered.group_difference_rows(values, mask_row, group)
        live_b, rows_b = factories.group_difference_rows(values, mask_row, group)
        if live_a != live_b:
            return False
        if rows_a is not None and not np.array_equal(rows_a, rows_b):
            return False
    return True


def run_point(gates: int, pattern_count: int, repetitions: int) -> Dict:
    text = bench_text(NETLIST_SEED, gates=gates, blocks=blocks_of(gates))
    network = parse_bench(text, name=f"kernel_{gates}")
    faults = collapse_network_faults(
        network, network.enumerate_faults(), cache="off"
    ).representative_faults()
    compiled = compile_network(network, cache="off")
    groups = VectorNetwork(compiled).group_faults(list(enumerate(faults)))
    sites = [site for site, _stuck_slot, _members in groups]
    for site in set(sites):
        cone_gates(compiled, site)  # neither side pays the cone walks

    legacy_counts: Dict[str, int] = {}
    factory_counts: Dict[str, int] = {}
    rendered, legacy_seconds = best_of(
        lambda: build_rendered(compiled, sites, legacy_counts), repetitions
    )
    factories, factory_seconds = best_of(
        lambda: build_factories(compiled, sites, factory_counts), repetitions
    )
    patterns = PatternSet.random(network.inputs, pattern_count, seed=PATTERN_SEED)
    identical = rows_identical(rendered, factories, groups, patterns)
    speedup = round(legacy_seconds / max(factory_seconds, 1e-9), 2)
    print(
        f"  {gates} gates: {len(groups)} site groups, {len(set(sites))} cones: "
        f"rendered {legacy_seconds:.3f}s ({legacy_counts['renders']} renders, "
        f"{legacy_counts['compiles']} compiles) vs factories "
        f"{factory_seconds:.3f}s ({factory_counts['renders']} renders, "
        f"{factory_counts['compiles']} compiles, {factory_counts['bindings']} "
        f"bindings) = {speedup}x, identical={identical}"
    )
    return {
        "gates": gates,
        "blocks": blocks_of(gates),
        "classes": len(faults),
        "site_groups": len(groups),
        "cones": len(set(sites)),
        "rendered_seconds": round(legacy_seconds, 4),
        "rendered_renders": legacy_counts["renders"],
        "rendered_compiles": legacy_counts["compiles"],
        "factory_seconds": round(factory_seconds, 4),
        "factory_renders": factory_counts["renders"],
        "factory_compiles": factory_counts["compiles"],
        "factory_bindings": factory_counts["bindings"],
        "speedup": speedup,
        "identical_results": identical,
    }


def run_kernel(sizes=(2000, 10000), pattern_count: int = 4096,
               repetitions: int = 3) -> Dict:
    print(f"{WORKLOAD_NAME}: per-(site, gate) rendered cone kernels vs "
          f"per-(cell, hot-pin set) factories at {list(sizes)} gates")
    points = [run_point(gates, pattern_count, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "vector-engine cone-plan build over every injection-site group "
            "of the collapsed fault classes of perfbench's seeded "
            "ISCAS-shaped netlists: kernels bound from per-(cell, hot-pin "
            "set) factories vs a replica of the old per-(site, gate) "
            "source render, each side from empty kernel and code caches; "
            "every group's difference rows checked bit-identical first"
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
        entry = run_kernel(sizes=(400,), pattern_count=1024, repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: factory cone kernels diverged from rendered kernels")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_kernel()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    ok = entry["identical_results"] and entry["speedup"] >= MIN_REQUIRED_SPEEDUP
    return 0 if ok and record.get("all_pass", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
