"""ISCAS-scale frontend benchmark: 10k-100k-gate netlists end to end.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e_iscas_scale`` entry
covering the two scale fixes of the netlist frontend:

* **levelize microbenchmark (headline)** - ``Network.levelize`` used to
  rescan every remaining gate once per level, O(levels x gates):
  quadratic on chain-shaped circuits.  A faithful replica of the old
  loop (below) races the Kahn's-algorithm rewrite on a 50k-gate domino
  carry chain.  The legacy loop does ~1.25e9 membership checks there
  (tens of minutes), so it runs under a wall-clock cutoff and the
  recorded ``speedup`` is a *lower bound*; exact order equality between
  the two implementations is asserted on a chain size the legacy loop
  can finish.

* **frontend scale sweep** - generated ``.bench`` text at 10k and 100k
  gates through the whole pre-pattern pipeline: ``parse_bench`` ->
  ``levelize`` -> ``compile_network`` -> cone pricing of 300 sampled
  fault sites (``cone_counts_batch``, the batched bit-plane sweep the
  cost scheduler uses).  The acceptance bar is seconds, not minutes, at
  100k gates; compiled-vs-interpreted bit-identity of the parsed 10k
  network is checked before anything is recorded.

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_iscas.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import BENCH_PATH, entries_pass, update_record  # noqa: E402
from repro.circuits.generators import domino_carry_chain  # noqa: E402
from repro.netlist import parse_bench  # noqa: E402
from repro.netlist.network import Network, NetworkError  # noqa: E402
from repro.simulate import PatternSet  # noqa: E402
from repro.simulate.compiled import compile_network  # noqa: E402
from repro.simulate.schedule import cone_counts_batch  # noqa: E402

WORKLOAD_NAME = "e_iscas_scale"
MIN_REQUIRED_SPEEDUP = 10.0
CONE_SITES = 300


def legacy_levelize(network: Network, cutoff_seconds: float = None):
    """The pre-fix ``Network.levelize`` loop, verbatim: rescan every
    remaining gate once per level.  Returns ``(order, seconds, done)``;
    ``done`` is False when the cutoff expired first (the recorded time
    is then a lower bound on the full run)."""
    start = time.perf_counter()
    ready = set(network.inputs)
    remaining = dict(network.gates)
    order: List[str] = []
    while remaining:
        progress = []
        for name, gate in remaining.items():
            if all(net in ready for net in gate.connections.values()):
                progress.append(name)
        if not progress:
            raise NetworkError(
                f"combinational cycle among gates {sorted(remaining)}"
            )
        for name in progress:
            order.append(name)
            ready.add(remaining.pop(name).output)
        if cutoff_seconds is not None:
            elapsed = time.perf_counter() - start
            if elapsed > cutoff_seconds:
                return order, elapsed, False
    return order, time.perf_counter() - start, True


def bench_text(n_gates: int, n_inputs: int = 64, locality: int = 64,
               seed: int = 1986) -> str:
    """Generated ``.bench`` text with the large_random_network wiring
    shape (one trailing-window source, one global source) over the gate
    types the format speaks: a scan-sized parser workload."""
    rng = random.Random(seed)
    kinds = ("AND", "OR", "NAND", "NOR")
    lines = [f"INPUT(x{k})" for k in range(n_inputs)]
    nets = [f"x{k}" for k in range(n_inputs)]
    for g in range(n_gates):
        window_start = max(0, len(nets) - locality)
        a = nets[rng.randrange(window_start, len(nets))]
        b = nets[rng.randrange(len(nets))]
        lines.append(f"n{g} = {rng.choice(kinds)}({a}, {b})")
        nets.append(f"n{g}")
    for net in nets[-8:]:
        lines.append(f"OUTPUT({net})")
    return "\n".join(lines) + "\n"


def run_scale_point(n_gates: int, cone_sites: int = CONE_SITES) -> Dict:
    text = bench_text(n_gates)
    start = time.perf_counter()
    network = parse_bench(text, name=f"iscas_scale_{n_gates}")
    parse_seconds = time.perf_counter() - start

    start = time.perf_counter()
    network.levelize()
    levelize_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled = compile_network(network, cache="off")
    compile_seconds = time.perf_counter() - start

    # Price the cones of fault sites spread across the whole order -
    # the pass partition_faults runs before any pooled simulation.
    sites = [
        compiled.slot_of_net[f"n{g}"]
        for g in range(0, n_gates, max(1, n_gates // cone_sites))
    ]
    start = time.perf_counter()
    cone_counts_batch(compiled, sites)
    cone_seconds = time.perf_counter() - start

    total = parse_seconds + levelize_seconds + compile_seconds + cone_seconds
    point = {
        "gates": n_gates,
        "parse_seconds": round(parse_seconds, 4),
        "levelize_seconds": round(levelize_seconds, 4),
        "compile_seconds": round(compile_seconds, 4),
        "cone_sites": len(sites),
        "cone_price_seconds": round(cone_seconds, 4),
        "total_seconds": round(total, 4),
    }
    print(
        f"  {n_gates} gates: parse {parse_seconds:.2f}s + levelize "
        f"{levelize_seconds:.2f}s + compile {compile_seconds:.2f}s + "
        f"cone({len(sites)}) {cone_seconds:.2f}s = {total:.2f}s"
    )
    return point


def parsed_network_identity(n_gates: int, pattern_count: int = 32) -> bool:
    """Compiled vs interpreted bit-identity of a parsed scale network."""
    network = parse_bench(bench_text(n_gates), name=f"identity_{n_gates}")
    patterns = PatternSet.random(network.inputs, pattern_count, seed=n_gates)
    compiled = compile_network(network, cache="off")
    fast = compiled.evaluate_bits(patterns.env, patterns.mask)
    slow = network.evaluate_bits(patterns.env, patterns.mask)
    return all(fast[net] == slow[net] for net in network.outputs)


def run_iscas_scale(
    sizes=(10000, 100000),
    chain_gates: int = 50000,
    equality_chain_gates: int = 2000,
    legacy_cutoff_seconds: float = 60.0,
    identity_gates: int = 10000,
) -> Dict:
    print(f"{WORKLOAD_NAME}: levelize microbenchmark on a "
          f"{chain_gates}-gate carry chain")
    chain = domino_carry_chain(chain_gates)
    start = time.perf_counter()
    new_order = chain.levelize()
    new_seconds = time.perf_counter() - start
    legacy_order, legacy_seconds, legacy_done = legacy_levelize(
        chain, cutoff_seconds=legacy_cutoff_seconds
    )
    if legacy_done:
        identical = legacy_order == new_order
        speedup = round(legacy_seconds / max(new_seconds, 1e-9), 1)
    else:
        # The legacy loop could not finish inside the cutoff: its
        # partial time already lower-bounds the full run, and order
        # equality is asserted where it can finish.
        identical = legacy_order == new_order[: len(legacy_order)]
        speedup = round(legacy_seconds / max(new_seconds, 1e-9), 1)
    print(
        f"  new {new_seconds:.3f}s vs legacy "
        f"{legacy_seconds:.1f}s{'' if legacy_done else '+ (cutoff)'} "
        f"= >={speedup}x"
    )
    small_chain = domino_carry_chain(equality_chain_gates)
    small_legacy, _seconds, done = legacy_levelize(small_chain)
    identical = identical and done and small_legacy == small_chain.levelize()
    print(f"  order equality at {equality_chain_gates} gates: {identical}")

    print(f"{WORKLOAD_NAME}: frontend sweep at {list(sizes)} gates "
          f"({CONE_SITES} cone sites)")
    scale = [run_scale_point(n) for n in sizes]

    identical = identical and parsed_network_identity(identity_gates)
    print(f"  parsed-network compiled/interpreted identity: {identical}")

    return {
        "name": WORKLOAD_NAME,
        "description": (
            "ISCAS-scale netlist frontend: Kahn levelize vs the legacy "
            "per-level rescan on a 50k-gate carry chain (speedup is a "
            "lower bound - the legacy loop runs under a cutoff), plus "
            "generated .bench text through parse -> levelize -> compile "
            "-> batched cone pricing at 10k and 100k gates; "
            "compiled-vs-interpreted identity of the parsed network "
            "checked first"
        ),
        "params": {
            "chain_gates": chain_gates,
            "legacy_cutoff_seconds": legacy_cutoff_seconds,
            "order_equality_chain_gates": equality_chain_gates,
            "sizes": list(sizes),
            "cone_sites": CONE_SITES,
            "identity_gates": identity_gates,
        },
        "levelize_chain": {
            "new_seconds": round(new_seconds, 4),
            "legacy_seconds": round(legacy_seconds, 4),
            "legacy_completed": legacy_done,
        },
        "scale": scale,
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
        entry = run_iscas_scale(
            sizes=(2000,),
            chain_gates=3000,
            equality_chain_gates=500,
            legacy_cutoff_seconds=20.0,
            identity_gates=2000,
        )
        if not entry["identical_results"]:
            print("FAIL: levelize order or parsed-network results diverged")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_iscas_scale()
    slowest = max(point["total_seconds"] for point in entry["scale"])
    if slowest > 60.0:
        print(f"FAIL: frontend sweep took {slowest:.1f}s at its largest "
              "size - that is minutes territory, not seconds")
        return 1
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
