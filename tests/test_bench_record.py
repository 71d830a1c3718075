"""The ``BENCH_engine.json`` trajectory merge (``benchmarks/_harness``).

A re-run of a workload must not drop its earlier points: the latest
entry carries them, oldest first, in ``history``, and ``all_pass``
judges only the latest point of each workload.  Every new point is
stamped with its own ``recorded_utc``.
"""

import json
import sys
from datetime import datetime
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
    assert without_date(entries["other"]) == other
    latest = entries["workload"]
    assert {key: latest[key] for key in third} == third
    assert [without_date(point) for point in latest["history"]] == [first, second]


def without_date(point):
    return {key: value for key, value in point.items() if key != "recorded_utc"}


def test_every_new_point_carries_its_own_date(tmp_path, monkeypatch):
    import _harness

    path = tmp_path / "BENCH_engine.json"
    undated = dict(
        point("workload", 1.0, "old"), history=[point("workload", 0.5, "older")]
    )
    path.write_text(json.dumps({"workloads": [undated]}))

    stamps = iter(["2026-01-01T00:00:00+00:00", "2026-02-01T00:00:00+00:00"])

    class Clock:
        @staticmethod
        def now(tz):
            return datetime.fromisoformat(next(stamps))

    monkeypatch.setattr(_harness, "datetime", Clock)
    update_record(point("workload", 2.0, "a"), path)
    record = update_record(point("workload", 3.0, "b"), path)

    latest = record["workloads"][0]
    assert latest["recorded_utc"] == "2026-02-01T00:00:00+00:00"
    assert record["updated_utc"] == latest["recorded_utc"]
    older, old, first = latest["history"]
    # Points recorded before dating keep their fields: no backfill.
    assert older == point("workload", 0.5, "older")
    assert old == point("workload", 1.0, "old")
    assert first["recorded_utc"] == "2026-01-01T00:00:00+00:00"
    assert without_date(first) == point("workload", 2.0, "a")
