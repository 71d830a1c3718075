"""Scale-tier benchmark: ``.bench`` text to a coverage report at 10k,
30k and 100k gates, one fresh interpreter per point.

Extends ``BENCH_engine.json`` (the perf trajectory - earlier runs of a
workload are kept in its ``history``) with an ``e_scale_tier`` entry.
Each point is perfbench's ISCAS-shaped netlist generator
(:mod:`perfbench.netgen`, seed 1, one 500-gate module per 500 gates) at
that size, taken the way a user's fresh process takes it:

1. **oracle** (a fresh interpreter, untimed) - cold set-up, then a
   seeded sample of collapsed-class representatives is simulated by the
   interpreted reference engine (:meth:`Network.evaluate_bits`) over
   the point's random patterns; each sampled fault's first detection
   and detection count are the expected outcomes;
2. **timed** (:data:`TIMED_RUNS` more fresh interpreters; the point
   keeps the run with the least set-up time) - ``parse_bench``,
   ``enumerate_faults``, ``compile_network``, ``collapse_network_faults``
   and a collapsed ``fault_simulate`` on the compiled engine to a
   coverage report.  Every layer is timed with the collector's time and
   collections per generation (``gc.callbacks``); peak RSS is read at
   the end.  The sampled faults' outcomes in every run's report must
   equal the oracle's before the point is recorded.

The entry's ``speedup`` is set-up at 100k gates against
:data:`REFERENCE_SETUP_S`, the 14.6 s ROADMAP item 10 measured for it
on the same 2-CPU host class before set-up was reworked, and it must
reach :data:`MIN_REQUIRED_SPEEDUP`; set-up per gate at the largest
point must stay within :data:`MAX_PER_GATE_GROWTH` of the smallest.

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_scale.py [--quick]

``--quick`` runs one small point (CI) and skips the JSON update; it
still checks the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import BENCH_PATH, entries_pass, git_commit, update_record  # noqa: E402
from netgen import bench_text  # noqa: E402

WORKLOAD_NAME = "e_scale_tier"
SIZES = (10000, 30000, 100000)
NETLIST_SEED = 1
GATES_PER_BLOCK = 500
PATTERNS = 1024
PATTERN_SEED = 1
SAMPLE_FAULTS = 8
SAMPLE_SEED = 4242
TIMED_RUNS = 3
REFERENCE_SETUP_S = 14.6
MIN_REQUIRED_SPEEDUP = 1.6
MAX_PER_GATE_GROWTH = 1.3
SETUP_LAYERS = ("parse", "enumerate", "compile", "collapse")


def netlist_text(gates: int) -> str:
    return bench_text(
        NETLIST_SEED, gates=gates, blocks=max(1, gates // GATES_PER_BLOCK)
    )


class LayerClock:
    """Wall seconds, collector milliseconds and collections per
    generation of each named layer."""

    def __init__(self):
        self.layers: Dict[str, Dict] = {}
        self._current = None
        self._gc_start = 0.0

    def _on_gc(self, phase, info):
        if self._current is None:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            generation = info["generation"]
            self._current["gc_ms"][generation] += (
                time.perf_counter() - self._gc_start
            ) * 1000
            self._current["gc_collections"][generation] += 1

    def run(self, name: str, call):
        layer = self.layers[name] = {
            "seconds": 0.0, "gc_ms": [0.0, 0.0, 0.0], "gc_collections": [0, 0, 0]
        }
        gc.callbacks.append(self._on_gc)
        self._current = layer
        start = time.perf_counter()
        try:
            return call()
        finally:
            layer["seconds"] = time.perf_counter() - start
            self._current = None
            gc.callbacks.remove(self._on_gc)


def _setup(text: str, gates: int, clock: LayerClock):
    from repro.faults.structural import collapse_network_faults
    from repro.netlist import parse_bench
    from repro.simulate.artifacts import ArtifactStore
    from repro.simulate.compiled import compile_network

    store = ArtifactStore()
    network = clock.run("parse", lambda: parse_bench(text, name=f"scale_{gates}"))
    faults = clock.run("enumerate", network.enumerate_faults)
    clock.run("compile", lambda: compile_network(network, cache=store))
    collapsed = clock.run(
        "collapse", lambda: collapse_network_faults(network, faults, cache=store)
    )
    return network, faults, collapsed, store


def oracle_child(gates: int) -> Dict:
    """Expected ``[first detection, detection count]`` of the sampled
    representatives, from the interpreted reference engine."""
    from repro.simulate import PatternSet
    from repro.simulate.registry import get_engine

    network, _faults, collapsed, _store = _setup(
        netlist_text(gates), gates, LayerClock()
    )
    representatives = collapsed.representative_faults()
    sample = random.Random(SAMPLE_SEED).sample(
        representatives, min(SAMPLE_FAULTS, len(representatives))
    )
    patterns = PatternSet.random(network.inputs, PATTERNS, seed=PATTERN_SEED)
    words = get_engine("interpreted").difference_words(network, patterns, sample)
    expected = {}
    for fault, word in zip(sample, words):
        first = (word & -word).bit_length() - 1 if word else None
        expected[fault.describe()] = [first, word.bit_count() if word else None]
    return {"expected": expected}


def timed_child(gates: int, labels: List[str]) -> Dict:
    """Cold set-up and a collapsed fault simulation, layer by layer."""
    from repro.simulate import PatternSet, fault_simulate

    text = netlist_text(gates)
    clock = LayerClock()
    network, faults, collapsed, store = _setup(text, gates, clock)
    patterns = PatternSet.random(network.inputs, PATTERNS, seed=PATTERN_SEED)
    result = clock.run("fault_simulate", lambda: fault_simulate(
        network, patterns, faults, engine="compiled", collapse="on", cache=store
    ))
    report = result.format_summary()
    return {
        "faults": len(faults),
        "classes": collapsed.class_count,
        "coverage": result.coverage,
        "report_lines": len(report.splitlines()),
        "layers": clock.layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": {
            label: [result.detected.get(label), result.detection_counts.get(label)]
            for label in labels
        },
    }


def in_fresh_interpreter(mode: str, gates: int, labels: List[str] = ()) -> Dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
               "--gates", str(gates), "--labels", json.dumps(list(labels))]
    env = dict(os.environ, PYTHONHASHSEED=str(NETLIST_SEED))
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def setup_seconds(timed: Dict) -> float:
    return sum(timed["layers"][layer]["seconds"] for layer in SETUP_LAYERS)


def run_point(gates: int, timed_runs: int) -> Dict:
    expected = in_fresh_interpreter("oracle", gates)["expected"]
    runs = [
        in_fresh_interpreter("timed", gates, list(expected))
        for _ in range(timed_runs)
    ]
    identical = all(run["outcomes"] == expected for run in runs)
    timed = min(runs, key=setup_seconds)
    layers = timed["layers"]
    setup_s = setup_seconds(timed)
    setup_gc_ms = [
        round(sum(layers[layer]["gc_ms"][generation] for layer in SETUP_LAYERS), 1)
        for generation in range(3)
    ]
    split = " ".join(f"{name} {layer['seconds']:.2f}s" for name, layer in layers.items())
    print(
        f"  {gates} gates, {timed['faults']} faults, {timed['classes']} classes: "
        f"{split}; set-up {setup_s:.2f}s ({setup_s / gates * 1e6:.1f} us/gate, "
        f"gc ms {setup_gc_ms}), coverage {timed['coverage']:.4f}, "
        f"peak RSS {timed['peak_rss_mb']:.0f} MB, oracle agrees={identical}"
    )
    return {
        "gates": gates,
        "blocks": max(1, gates // GATES_PER_BLOCK),
        "faults": timed["faults"],
        "classes": timed["classes"],
        "coverage": timed["coverage"],
        "layers": {
            name: {
                "seconds": round(layer["seconds"], 4),
                "gc_ms": [round(ms, 1) for ms in layer["gc_ms"]],
                "gc_collections": layer["gc_collections"],
            }
            for name, layer in layers.items()
        },
        "setup_seconds": round(setup_s, 4),
        "setup_seconds_of_runs": [round(setup_seconds(run), 4) for run in runs],
        "setup_gc_ms": setup_gc_ms,
        "setup_us_per_gate": round(setup_s / gates * 1e6, 2),
        "peak_rss_mb": round(timed["peak_rss_mb"], 1),
        "sampled_faults": len(expected),
        "identical_results": identical,
    }


def run_scale(sizes=SIZES, timed_runs: int = TIMED_RUNS) -> Dict:
    print(f"{WORKLOAD_NAME}: .bench text to a coverage report at {list(sizes)} "
          f"gates, best set-up of {timed_runs} fresh interpreters per point")
    points = [run_point(gates, timed_runs) for gates in sizes]
    largest, smallest = points[-1], points[0]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "perfbench-shaped .bench text to a collapsed compiled-engine "
            "coverage report at 10k/30k/100k gates, each point in a fresh "
            "interpreter: wall time per layer with the collector's time per "
            "generation, peak RSS, and sampled faults' outcomes checked "
            "against the interpreted oracle first; speedup is set-up at the "
            "largest point against ROADMAP item 10's 14.6 s"
        ),
        "params": {
            "sizes": list(sizes),
            "netlist_seed": NETLIST_SEED,
            "gates_per_block": GATES_PER_BLOCK,
            "patterns": PATTERNS,
            "pattern_seed": PATTERN_SEED,
            "sampled_faults": SAMPLE_FAULTS,
            "sample_seed": SAMPLE_SEED,
            "timed_runs": timed_runs,
            "reference_setup_seconds": REFERENCE_SETUP_S,
            "max_per_gate_growth": MAX_PER_GATE_GROWTH,
        },
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "points": points,
        "per_gate_growth": round(
            largest["setup_us_per_gate"] / smallest["setup_us_per_gate"], 3
        ),
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "speedup": round(REFERENCE_SETUP_S / largest["setup_seconds"], 2),
        "identical_results": all(point["identical_results"] for point in points),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small point (correctness + plumbing only); "
        "does not touch BENCH_engine.json",
    )
    parser.add_argument("--child", choices=("oracle", "timed"), help=argparse.SUPPRESS)
    parser.add_argument("--gates", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--labels", default="[]", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child == "oracle":
        print(json.dumps(oracle_child(args.gates)))
        return 0
    if args.child == "timed":
        print(json.dumps(timed_child(args.gates, json.loads(args.labels))))
        return 0
    if args.quick:
        entry = run_scale(sizes=(1000,), timed_runs=1)
        if not entry["identical_results"]:
            print("FAIL: sampled outcomes diverged from the interpreted oracle")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_scale()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    scales = entry["per_gate_growth"] <= MAX_PER_GATE_GROWTH
    if not scales:
        print(f"FAIL: set-up per gate grew {entry['per_gate_growth']}x "
              f"from {SIZES[0]} to {SIZES[-1]} gates")
    return 0 if entries_pass(record, WORKLOAD_NAME) and scales else 1


if __name__ == "__main__":
    raise SystemExit(main())
