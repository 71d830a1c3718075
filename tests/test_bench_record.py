"""The ``BENCH_engine.json`` trajectory merge (``benchmarks/_harness``).

A re-run of a workload must not drop its earlier points: the latest
entry carries them, oldest first, in ``history``, and ``all_pass``
judges only the latest point of each workload.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from _harness import update_record  # noqa: E402


def point(name, speedup, commit):
    return {
        "name": name,
        "speedup": speedup,
        "min_required_speedup": 2.0,
        "identical_results": True,
        "commit": commit,
    }


def test_update_record_keeps_every_earlier_point(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    other = point("other", 3.0, "a")
    first = point("workload", 1.5, "a")
    second = point("workload", 2.5, "b")
    third = point("workload", 4.0, "c")

    update_record(other, path)
    assert update_record(first, path)["all_pass"] is False
    record = update_record(second, path)
    assert record["all_pass"] is True  # the failing first point is history

    update_record(third, path)
    stored = json.loads(path.read_text())
    entries = {entry["name"]: entry for entry in stored["workloads"]}
    assert [entry["name"] for entry in stored["workloads"]] == ["other", "workload"]
    assert entries["other"] == other
    latest = entries["workload"]
    assert {key: latest[key] for key in third} == third
    assert latest["history"] == [first, second]
