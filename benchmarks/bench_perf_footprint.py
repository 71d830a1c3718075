"""Process-footprint benchmark: what a fresh interpreter pays to load
the library and to take a ``.bench`` netlist to a verdict.

Extends ``BENCH_engine.json`` (the perf trajectory - earlier runs of a
workload are kept in its ``history``) with an ``e_process_footprint``
entry.  A command-line user starts a new interpreter per run, so what
the library's import graph pulls in is paid by every run.  The switch-
level transmission functions enumerate a cell's conduction paths in
the repository, so networkx (and what it imports: ``importlib.metadata``,
``email``, ``socket``, ``logging``) is no longer loaded.  The replica
side imports ``networkx`` before the library - the import graph the
library had while ``repro.switchlevel.transmission`` imported it - and
runs the same calls.

Each point is one perfbench-shaped netlist (:mod:`perfbench.netgen`,
seed 1, one 500-gate module per 500 gates).  Every repetition of each
side runs in a fresh interpreter (the sides alternate which runs
first) and measures:

* the library import - ``repro.faults.structural``,
  ``repro.simulate.faultsim``, ``repro.protest`` and ``repro.netlist``:
  wall time and peak RSS after it;
* the verdict run - parse, enumerate, collapse at set-up, then a
  collapsed compiled ``fault_simulate`` of 4,096 random patterns: wall
  time and the process's peak RSS at its end.

Before any ratio is recorded every run's verdict digest (detections,
counts and undetected faults) must be equal across sides and
repetitions, and the current side must not have loaded networkx.  The
entry records median import time, import RSS and peak RSS per side,
their ratios (``speedup`` is the peak-RSS ratio), the host, its CPU
count and the measured commit (``-dirty`` when the checkout had local
changes).  Peak RSS is ``getrusage``'s ``ru_maxrss`` (kilobytes on
Linux).

Run with::

    PYTHONPATH=src python benchmarks/bench_perf_footprint.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

# A measured child loads nothing before the library but what the
# interpreter has already loaded and these three modules; everything
# else this script needs is imported where it is used.
import os
import resource
import sys
import time

BENCHMARKS = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCHMARKS)

WORKLOAD_NAME = "e_process_footprint"
MIN_REQUIRED_SPEEDUP = 1.1
NETLIST_SEED = 1
PATTERN_SEED = 1
PATTERNS = 4096
GATES_PER_BLOCK = 500


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(gates: int, replica: bool) -> dict:
    """One import and one verdict run in this (fresh) interpreter."""
    start = time.perf_counter()
    if replica:
        import networkx  # noqa: F401
    import repro.faults.structural as structural
    import repro.netlist as netlist
    import repro.protest  # noqa: F401
    import repro.simulate.faultsim as faultsim
    import_s = time.perf_counter() - start
    import_rss = peak_rss_mb()

    import hashlib
    import json

    sys.path.insert(0, os.path.join(REPO_ROOT, "perfbench"))
    from netgen import bench_text

    from repro.simulate import PatternSet

    text = bench_text(NETLIST_SEED, gates=gates, blocks=max(1, gates // GATES_PER_BLOCK))
    start = time.perf_counter()
    network = netlist.parse_bench(text, name="footprint")
    faults = network.enumerate_faults()
    structural.collapse_network_faults(network, faults)
    patterns = PatternSet.random(network.inputs, PATTERNS, seed=PATTERN_SEED)
    result = faultsim.fault_simulate(
        network, patterns, faults, engine="compiled", collapse="on"
    )
    run_s = time.perf_counter() - start
    verdict = json.dumps([
        sorted(result.detected.items()), sorted(result.detection_counts.items()),
        sorted(result.undetected),
    ])
    return {
        "import_s": import_s,
        "import_rss_mb": import_rss,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "faults": result.fault_count,
        "networkx_loaded": "networkx" in sys.modules,
        "verdict": hashlib.sha256(verdict.encode()).hexdigest(),
    }


def run_side(gates: int, replica: bool) -> dict:
    """:func:`child` in a fresh interpreter."""
    import json
    import subprocess

    command = [sys.executable, os.path.abspath(__file__), "--child",
               "replica" if replica else "current", str(gates)]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_point(gates: int, repetitions: int) -> dict:
    import statistics

    runs = {True: [], False: []}
    for repetition in range(repetitions):
        order = (True, False) if repetition % 2 == 0 else (False, True)
        for replica in order:
            runs[replica].append(run_side(gates, replica))
    every = runs[True] + runs[False]
    same = len({run["verdict"] for run in every}) == 1 and not any(
        run["networkx_loaded"] for run in runs[False]
    )

    def median(replica: bool, field: str) -> float:
        return statistics.median(run[field] for run in runs[replica])

    sides = {
        side: {
            "import_ms": round(median(replica, "import_s") * 1000, 1),
            "import_rss_mb": round(median(replica, "import_rss_mb"), 2),
            "run_s": round(median(replica, "run_s"), 4),
            "peak_rss_mb": round(median(replica, "peak_rss_mb"), 2),
        }
        for side, replica in (("replica", True), ("current", False))
    }
    old, new = sides["replica"], sides["current"]
    ratio = round(old["peak_rss_mb"] / new["peak_rss_mb"], 3)
    print(
        f"  {gates} gates, {every[0]['faults']} faults: import "
        f"{old['import_ms']}->{new['import_ms']} ms, "
        f"{old['import_rss_mb']}->{new['import_rss_mb']} MB; verdict run "
        f"{old['run_s']}->{new['run_s']} s, peak "
        f"{old['peak_rss_mb']}->{new['peak_rss_mb']} MB = {ratio}x; identical={same}"
    )
    return {
        "gates": gates,
        "blocks": max(1, gates // GATES_PER_BLOCK),
        "faults": every[0]["faults"],
        "replica": old,
        "current": new,
        "import_ms_ratio": round(old["import_ms"] / new["import_ms"], 3),
        "import_rss_ratio": round(old["import_rss_mb"] / new["import_rss_mb"], 3),
        "peak_rss_ratio": ratio,
        "speedup": ratio,
        "identical_results": same,
    }


def run_footprint(sizes=(2000,), repetitions: int = 5) -> dict:
    import platform

    from _harness import git_commit

    print(f"{WORKLOAD_NAME}: fresh-interpreter import and verdict run with "
          f"and without networkx loaded, at {list(sizes)} gates")
    points = [run_point(gates, repetitions) for gates in sizes]
    return {
        "name": WORKLOAD_NAME,
        "description": (
            "fresh-interpreter footprint of a command-line run: library "
            "import time and RSS, and the peak RSS of perfbench's seeded "
            "ISCAS-shaped netlist from .bench text to a collapsed compiled "
            "fault_simulate verdict (4,096 patterns), against a replica "
            "that imports networkx first (the import graph of the "
            "networkx-backed transmission functions); verdicts checked "
            "identical and networkx absent from the current side first; "
            "speedup is the peak-RSS ratio"
        ),
        "params": {
            "method": "fresh interpreter per side and repetition, medians",
            "sizes": list(sizes),
            "netlist_seed": NETLIST_SEED,
            "gates_per_block": GATES_PER_BLOCK,
            "patterns": PATTERNS,
            "pattern_seed": PATTERN_SEED,
            "repetitions": repetitions,
            "python": platform.python_version(),
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
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        import json

        print(json.dumps(child(int(argv[2]), argv[1] == "replica")))
        return 0
    import argparse

    from _harness import BENCH_PATH, entries_pass, update_record

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-sized smoke run (correctness + plumbing only); "
        "does not touch BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        entry = run_footprint(sizes=(400,), repetitions=1)
        if not entry["identical_results"]:
            print("FAIL: verdicts diverged, or the library loaded networkx")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_footprint()
    record = update_record(entry)
    print(f"wrote {BENCH_PATH}")
    return 0 if entries_pass(record, WORKLOAD_NAME) else 1


if __name__ == "__main__":
    raise SystemExit(main())
