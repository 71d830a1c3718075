"""Autotuning benchmark: host-calibrated execution plan vs the defaults.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e10_autotune`` entry:
the vector engine run under ``tune="auto"`` (the execution planner of
:mod:`repro.simulate.tuning`, fed by this host's micro-calibration
profile) against ``tune="default"`` (the hand-calibrated global
constants) on two workloads:

* **flat** - the E10-style AND-OR cell DAG (the workload
  ``VECTOR_CHUNK`` itself was hand-tuned on): the planner must at
  least match the constants on their home turf, and the measured
  overhead-amortisation floor typically edges them out by sizing the
  chunk to the site batches' actual width;
* **skewed-cone** - one deep spine beside many tiny islands (the
  scheduling adversary of ``e10_schedule``): one global chunk cannot
  serve a 192-gate cone and a 1-gate island at once, so per-cone
  widths are worth the most here - this pair is the entry's headline
  ``speedup``.

Every configuration is checked bit-identical to a single-process
compiled run before any speedup is recorded, and both plans are timed
best-of-N in the same process (the host's run-to-run drift exceeds the
flat-workload margin, so cross-process comparisons would lie).  The
calibrated profile itself is recorded in the entry so the numbers can
be read against the constants that produced them.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_tuning.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import BENCH_PATH, best_of, results_identical, update_record  # noqa: E402
from bench_perf_engine import library_runtime_network  # noqa: E402
from repro.circuits.generators import skewed_cone_network  # noqa: E402
from repro.simulate import PatternSet, fault_simulate, resolve_plan  # noqa: E402

WORKLOAD_NAME = "e10_autotune"
MIN_REQUIRED_SPEEDUP = 1.0
HEADLINE_WORKLOAD = "skewed_cone"


def _workloads(flat_gates: int, spine_depth: int, islands: int, patterns: int):
    flat = library_runtime_network(10, n_gates=flat_gates)
    skew = skewed_cone_network(depth=spine_depth, islands=islands)
    return [
        ("flat", flat, flat.enumerate_faults(),
         PatternSet.random(flat.inputs, patterns, seed=10)),
        ("skewed_cone", skew,
         skew.enumerate_faults(include_cell_classes=True, include_stuck_at=True),
         PatternSet.random(skew.inputs, patterns, seed=spine_depth)),
    ]


def run_autotune(
    flat_gates: int = 48,
    spine_depth: int = 192,
    islands: int = 24,
    pattern_count: int = 1 << 21,
    repetitions: int = 4,
) -> Dict:
    auto = resolve_plan("auto")  # calibrate once, before any timing
    print(f"{WORKLOAD_NAME}: calibrated profile {asdict(auto.profile)}")

    identical = True
    pairs = []
    for name, network, faults, patterns in _workloads(
        flat_gates, spine_depth, islands, pattern_count
    ):
        baseline, compiled_seconds = best_of(
            lambda: fault_simulate(network, patterns, faults, engine="compiled"),
            max(1, repetitions // 2),
        )
        print(
            f"  {name}: {len(faults)} faults x {patterns.count} patterns, "
            f"compiled reference {compiled_seconds:.2f}s"
        )
        seconds = {}
        for tune in ("default", "auto"):
            result, elapsed = best_of(
                lambda: fault_simulate(
                    network, patterns, faults, engine="vector", tune=tune
                ),
                repetitions,
            )
            identical = identical and results_identical(result, baseline)
            seconds[tune] = elapsed
        speedup = round(seconds["default"] / seconds["auto"], 3)
        pairs.append(
            {
                "workload": name,
                "gates": len(network.gates),
                "faults": len(faults),
                "default_seconds": round(seconds["default"], 4),
                "auto_seconds": round(seconds["auto"], 4),
                "speedup": speedup,
            }
        )
        print(
            f"  {name}: default {seconds['default']:.2f}s -> auto "
            f"{seconds['auto']:.2f}s = {speedup}x (identical={identical})"
        )

    headline = next(p for p in pairs if p["workload"] == HEADLINE_WORKLOAD)
    flat_pair = next(p for p in pairs if p["workload"] == "flat")
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "vector-engine fault simulation under the host-calibrated "
            "execution plan (tune='auto': per-cone column chunks, "
            "calibrated windows and coalescer pricing) vs the "
            "hand-calibrated global constants (tune='default') on the flat "
            "E10 cell DAG and the skewed-cone workload; headline speedup "
            "is the skewed-cone pair (one global chunk cannot serve a deep "
            "spine and tiny islands at once), bit-identity against the "
            "compiled engine checked first"
        ),
        "params": {
            "flat_gates": flat_gates,
            "spine_depth": spine_depth,
            "islands": islands,
            "patterns": pattern_count,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
        "calibrated_profile": asdict(auto.profile),
        "tuning_pairs": pairs,
        "flat_speedup": flat_pair["speedup"],
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
        entry = run_autotune(
            flat_gates=12, spine_depth=16, islands=6,
            pattern_count=1 << 16, repetitions=1,
        )
        if not entry["identical_results"]:
            print("FAIL: a tuned run diverged from the compiled engine")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_autotune()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    ok = (
        entry["identical_results"]
        and entry["speedup"] >= MIN_REQUIRED_SPEEDUP
        and entry["flat_speedup"] >= MIN_REQUIRED_SPEEDUP
    )
    return 0 if ok and record.get("all_pass", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
