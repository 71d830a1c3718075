"""One measured run of one workload in a fresh interpreter.

``run.py`` starts this script once per sample, so the program's
process-global memos start empty, as they do for a CLI user.  It reads
a JSON spec on stdin and prints one JSON object on stdout.  Modes:

* ``setup`` - set-up only (``setup_s``);
* ``full`` - set-up, the main call (``run_s``), its verdict, then
  ``warm`` repeats of the main call on the same store (``warm_s``);
* ``probe`` - set-up, then the per-layer probes of ``workloads.py``.

With ``trace`` set, spans are recorded and returned with the result.
Each timed segment is reported scaled by the yardstick sampled while
it runs (``yardstick.py``), and as wall seconds under ``wall``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads as wl
from spans import Tracer
from yardstick import Yardstick


def _store_totals(stats: dict) -> dict:
    return {key: sum(kind[key] for kind in stats.values())
            for key in ("hits", "misses")}


def run(spec: dict) -> dict:
    workload, mode = spec["workload"], spec["mode"]
    tracer = Tracer(enabled=spec["trace"], run_id=spec["run_id"])
    inputs = {"target": spec.get("target"), "stop": spec.get("stop")}
    if workload in ("grade_compiled", "grade_vector"):
        inputs["patterns"] = wl.grade_patterns(spec["seed"])
    if mode == "full" and workload == "protest_estimate":
        wl.trace_main_call(tracer)
    out: dict = {"wall": {}}
    yardstick = Yardstick(spec["text"], spec["seed"])

    def timed(name: str, call, repeat: bool = False):
        """Run ``call`` in span ``name``; record its time as ``name_s``."""
        with yardstick.segment() as reading, tracer.span(name):
            value = call()
        key = f"{name}_s"
        if repeat:
            out[key].append(reading["scaled"])
            out["wall"][key].append(reading["wall"])
        else:
            out[key], out["wall"][key] = reading["scaled"], reading["wall"]
        return value

    ctx = timed("setup", lambda: wl.setup(
        spec["text"], tracer, wl.WORKLOADS[workload]["vector"]))
    after_setup = _store_totals(ctx.store.stats())
    counts = {
        "netlist.faults": len(ctx.faults),
        "collapse.classes": ctx.collapsed.class_count,
        "collapse.ratio": ctx.collapsed.ratio,
        "artifacts.setup_misses": after_setup["misses"],
    }
    if mode == "full":
        result = timed("run", lambda: wl.main_call(workload, ctx, inputs))
        for times in (out, out["wall"]):
            times["verdict_s"] = times["setup_s"] + times["run_s"]
        after_run = _store_totals(ctx.store.stats())
        hits = after_run["hits"] - after_setup["hits"]
        misses = after_run["misses"] - after_setup["misses"]
        counts.update({
            "artifacts.run_hits": hits,
            "artifacts.run_misses": misses,
            "artifacts.run_hit_ratio": hits / max(1, hits + misses),
        })
        out["verdict"] = wl.verdict(workload, result, spec["sample"])
        if workload == "bist_session":
            counts.update({
                "session.patterns": result.pattern_count,
                "session.windows": len(result.curve),
                "session.budget_ratio": result.pattern_count / result.pattern_budget,
            })
        out["warm_s"], out["wall"]["warm_s"], out["warm_fingerprints"] = [], [], []
        for _ in range(spec["warm"]):
            again = timed("warm", lambda: wl.main_call(workload, ctx, inputs),
                          repeat=True)
            out["warm_fingerprints"].append(
                wl.verdict(workload, again, spec["sample"])["fingerprint"])
    elif mode == "probe":
        counts.update(wl.probe_layers(workload, ctx, inputs, tracer))
    tracer.restore()
    out["counts"] = counts
    out["spans"] = tracer.spans
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.stdin.read()))))
