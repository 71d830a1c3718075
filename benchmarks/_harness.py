"""Shared helpers of the ``bench_perf_*`` scripts.

Timing (:func:`best_of`), the measured commit (:func:`git_commit`),
the bit-identity check every entry runs before it records a ratio
(:func:`results_identical`), the merge of one workload entry into
the ``BENCH_engine.json`` trajectory (:func:`update_record`, which
keeps every earlier run of a workload), and the verdict on a script's
own entries (:func:`entries_pass`), which is what a script's exit code
reports.
"""

from __future__ import annotations

import json
import subprocess
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


def git_commit() -> str:
    """The checkout's commit, suffixed ``-dirty`` under local changes."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=BENCH_PATH.parent, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def results_identical(a, b) -> bool:
    """Two fault-simulation results agree on every detection field."""
    return (
        a.detected == b.detected
        and a.detection_counts == b.detection_counts
        and a.undetected == b.undetected
    )


def entry_passes(record: Dict, workload: Dict) -> bool:
    """One workload entry's latest point is bit-identical and meets its
    required speedup (its own, else the record's, else 1)."""
    gate = workload.get("min_required_speedup", record.get("min_required_speedup", 1.0))
    return workload.get("identical_results", False) and workload.get("speedup", 0.0) >= gate


def entries_pass(record: Dict, *names: str) -> bool:
    """The named entries of ``record`` all pass (:func:`entry_passes`):
    a script's exit code judges its own entries, never the record-wide
    ``all_pass`` that other scripts' entries keep false."""
    latest = {workload.get("name"): workload for workload in record.get("workloads", [])}
    return all(name in latest and entry_passes(record, latest[name]) for name in names)


def update_record(entry: Dict, path: Path = BENCH_PATH) -> Dict:
    """Merge one workload entry into the record at ``path``, preserving
    the existing workload trajectory.

    A previous run of *this* workload is not dropped: the new entry
    carries every earlier run, oldest first and each with its own
    fields, in its ``history`` list.  The new entry is stamped with its
    own ``recorded_utc``; earlier points keep their fields as they were.
    ``all_pass`` judges only the latest point of each workload.
    """
    record = json.loads(path.read_text()) if path.exists() else {
        "benchmark": "simulation engine perf trajectory",
        "workloads": [],
    }
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    entry = dict(entry, recorded_utc=now)
    history = []
    workloads = []
    for workload in record.get("workloads", []):
        if workload.get("name") == entry["name"]:
            earlier = dict(workload)
            history += earlier.pop("history", []) + [earlier]
        else:
            workloads.append(workload)
    if history:
        entry = dict(entry, history=history)
    record["workloads"] = workloads + [entry]
    record["updated_utc"] = now
    record["all_pass"] = all(
        entry_passes(record, workload) for workload in record["workloads"]
    )
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record
