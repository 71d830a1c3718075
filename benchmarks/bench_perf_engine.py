"""Engine benchmark: compiled slot program vs. interpreted AST walk.

Times the two simulation engines on the PR's two target workloads and
writes ``BENCH_engine.json`` at the repo root so later PRs have a perf
trajectory to regress against:

* **e10_library_runtime** - the E10 concern (runtime over switching-
  network size) applied to simulation: networks of large AND-OR cells
  (8/10/12 SN transistors), full cell-fault universe, random patterns.
  The interpreted path re-minimises every fault class's SOP on every
  pass and re-simulates the whole network per fault; the compiled path
  minimises/compiles once per (cell, fault class) and pays one fanout
  cone per fault.
* **e8_test_strategies** - the E8 fault-simulation workload (random
  test sets against a domino carry chain) scaled up to width 16 and 512
  patterns, plus the genuinely-early-exiting first-detection mode.

Every timed pair is checked for bit-identical results before the
speedup is recorded.  Run with::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _harness import (  # noqa: E402
    BENCH_PATH,
    entries_pass,
    entry_passes,
    results_identical,
)
from repro.circuits.generators import domino_carry_chain  # noqa: E402
from repro.experiments.e10_library_runtime import cell_of_size  # noqa: E402
from repro.netlist.network import Network  # noqa: E402
from repro.simulate.faultsim import fault_simulate  # noqa: E402
from repro.simulate.logicsim import PatternSet  # noqa: E402

MIN_REQUIRED_SPEEDUP = 10.0
OWN_WORKLOADS = ("e10_library_runtime", "e8_test_strategies")
"""The entries this script writes; its exit code judges only these."""


def library_runtime_network(size: int, n_gates: int = 8, seed: int = 1986) -> Network:
    """A random DAG of E10's parameterised AND-OR cells."""
    cell = cell_of_size(size)
    rng = random.Random(seed)
    network = Network(f"e10_sn{size}x{n_gates}")
    nets: List[str] = [network.add_input(f"x{k}") for k in range(len(cell.inputs))]
    for index in range(n_gates):
        sources = [rng.choice(nets) for _ in cell.inputs]
        output = f"n{index}"
        network.add_gate(f"gate{index}", cell, dict(zip(cell.inputs, sources)), output)
        nets.append(output)
    for net in nets[-4:]:
        network.mark_output(net)
    return network



def _time(
    run: Callable[[], object],
    min_seconds: float = 0.5,
    max_repeats: int = 5,
) -> Tuple[float, object]:
    """Best-of-N wall time (timeit-style min, applied to both engines
    alike): millisecond-sized measurements on a loaded host otherwise
    swing the recorded speedup by +-20%.  Fast runs repeat until
    ``min_seconds`` of samples accumulate; slow runs pay one pass.

    Only sound where one-time setup (network compilation, SOP-cache
    fills) is amortised *within* a single measurement - repetitions hit
    warm global caches and would otherwise overstate the ratio.  Pass
    ``max_repeats=1`` for workloads where a measurement is one cold
    pass (e.g. E10, one ``fault_simulate`` per network)."""
    best = float("inf")
    total = 0.0
    result: object = None
    for _ in range(max_repeats):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
        if total >= min_seconds:
            break
    return best, result


def _workload_record(
    name: str,
    description: str,
    params: Dict,
    interpreted_seconds: float,
    compiled_seconds: float,
    identical: bool,
) -> Dict:
    return {
        "name": name,
        "description": description,
        "params": params,
        "interpreted_seconds": round(interpreted_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "speedup": round(interpreted_seconds / compiled_seconds, 2),
        "identical_results": identical,
    }


def bench_e10_library_runtime(
    sizes=(6, 8, 10), n_gates: int = 6, pattern_count: int = 256
) -> Dict:
    """E10's size sweep applied to fault simulation.

    Size 12 (the paper's "normal sized gate" ceiling) is excluded only
    because the *interpreted* oracle needs ~6 s of Quine-McCluskey per
    fault pass there - the exact pathology the compiled engine removes.
    """
    interpreted_total = 0.0
    compiled_total = 0.0
    identical = True
    fault_counts = {}
    for size in sizes:
        network = library_runtime_network(size, n_gates=n_gates)
        faults = network.enumerate_faults()
        fault_counts[size] = len(faults)
        patterns = PatternSet.random(network.inputs, pattern_count, seed=size)
        # Single cold measurements: one fault_simulate per network means
        # repetitions would reuse the warm compile/SOP caches and hide
        # the compiled engine's one-time costs (the 1000x-scale ratio
        # has margin to spare over timing noise anyway).
        seconds_c, result_c = _time(
            lambda: fault_simulate(network, patterns, faults, engine="compiled"),
            max_repeats=1,
        )
        seconds_i, result_i = _time(
            lambda: fault_simulate(network, patterns, faults, engine="interpreted"),
            max_repeats=1,
        )
        identical = identical and results_identical(result_c, result_i)
        interpreted_total += seconds_i
        compiled_total += seconds_c
    return _workload_record(
        "e10_library_runtime",
        "cell-fault simulation over networks of growing switching-network size",
        {
            "sizes": list(sizes),
            "gates_per_network": n_gates,
            "patterns": pattern_count,
            "faults_per_size": fault_counts,
        },
        interpreted_total,
        compiled_total,
        identical,
    )


def bench_e8_test_strategies(
    width: int = 16, pattern_count: int = 256, sessions: int = 32
) -> Dict:
    """E8's random-test-strategy evaluation at production scale.

    Mirrors the experiment's structure - many independent random
    sessions against one circuit (e8 runs 40 A2 trials) - plus one
    genuinely-early-exiting first-detection pass.
    """
    network = domino_carry_chain(width)
    faults = network.enumerate_faults()
    pattern_sets = [
        PatternSet.random(network.inputs, pattern_count, seed=session)
        for session in range(sessions)
    ]
    identical = True
    interpreted_total = 0.0
    compiled_total = 0.0
    for patterns in pattern_sets:
        seconds_c, result_c = _time(
            lambda: fault_simulate(network, patterns, faults, engine="compiled")
        )
        seconds_i, result_i = _time(
            lambda: fault_simulate(network, patterns, faults, engine="interpreted")
        )
        identical = identical and results_identical(result_c, result_i)
        interpreted_total += seconds_i
        compiled_total += seconds_c
    first_c, first_result_c = _time(
        lambda: fault_simulate(
            network,
            pattern_sets[0],
            faults,
            stop_at_first_detection=True,
            engine="compiled",
        )
    )
    first_i, first_result_i = _time(
        lambda: fault_simulate(
            network,
            pattern_sets[0],
            faults,
            stop_at_first_detection=True,
            engine="interpreted",
        )
    )
    identical = identical and first_result_c.detected == first_result_i.detected
    return _workload_record(
        "e8_test_strategies",
        "random-test-set fault simulation of a domino carry chain "
        f"({sessions} random sessions + first-detection early-exit pass)",
        {
            "carry_chain_width": width,
            "patterns_per_session": pattern_count,
            "sessions": sessions,
            "faults": len(faults),
        },
        interpreted_total + first_i,
        compiled_total + first_c,
        identical,
    )


def run_benchmarks() -> Dict:
    """Re-measure this benchmark's workloads, preserving any other
    entries already in the record (BENCH_engine.json is a trajectory
    shared with e.g. bench_perf_shard.py, not a snapshot)."""
    workloads = [bench_e10_library_runtime(), bench_e8_test_strategies()]
    names = {w["name"] for w in workloads}
    record = {
        "benchmark": "compiled vs interpreted simulation engine",
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "workloads": workloads,
    }
    if BENCH_PATH.exists():
        previous = json.loads(BENCH_PATH.read_text())
        record["created_utc"] = previous.get("created_utc", record["created_utc"])
        record["updated_utc"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        record["workloads"] = workloads + [
            w for w in previous.get("workloads", []) if w.get("name") not in names
        ]
    record["all_pass"] = all(
        entry_passes(record, workload) for workload in record["workloads"]
    )
    return record


def main() -> int:
    record = run_benchmarks()
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    for workload in record["workloads"]:
        if "interpreted_seconds" not in workload:
            print(f"{workload['name']}: kept (other benchmark's entry)")
            continue
        print(
            f"{workload['name']}: interpreted {workload['interpreted_seconds']}s, "
            f"compiled {workload['compiled_seconds']}s "
            f"-> {workload['speedup']}x (identical={workload['identical_results']})"
        )
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, *OWN_WORKLOADS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
