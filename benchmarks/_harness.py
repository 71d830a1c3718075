"""Shared helpers of the ``bench_perf_*`` scripts.

Timing (:func:`best_of`), the bit-identity check every entry runs
before it records a ratio (:func:`results_identical`), and the merge of
one workload entry into the ``BENCH_engine.json`` trajectory
(:func:`update_record`).
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def best_of(run, repetitions: int):
    """``(result, fastest wall time)`` of ``repetitions`` runs (noise
    suppression)."""
    result = None
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def results_identical(a, b) -> bool:
    """Two fault-simulation results agree on every detection field."""
    return (
        a.detected == b.detected
        and a.detection_counts == b.detection_counts
        and a.undetected == b.undetected
    )


def update_record(entry: Dict) -> Dict:
    """Merge one workload entry into BENCH_engine.json, preserving the
    existing workload trajectory (only a previous run of *this*
    workload is replaced)."""
    record = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {
        "benchmark": "simulation engine perf trajectory",
        "workloads": [],
    }
    record["workloads"] = [
        workload
        for workload in record.get("workloads", [])
        if workload.get("name") != entry["name"]
    ] + [entry]
    record["updated_utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    record["all_pass"] = all(
        workload.get("identical_results", False)
        and workload.get("speedup", 0.0)
        >= workload.get(
            "min_required_speedup", record.get("min_required_speedup", 1.0)
        )
        for workload in record["workloads"]
    )
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    return record
