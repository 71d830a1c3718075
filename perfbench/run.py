"""ISCAS-scale benchmark: ``.bench`` netlist to coverage, BIST and PROTEST
verdicts, timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload grade_compiled --seed 1 --seconds 20 --trace 0

One run:

1. generates an ISCAS85-shaped ``.bench`` netlist from ``--seed``
   (``netgen.py``);
2. runs the correctness gate before any timing: about 200 sampled
   fault classes against the interpreted oracle, the compiled reference
   for ``grade_vector``, the BIST stopping point for ``bist_session``;
3. starts a fresh interpreter (``child.py``) per sample - a few set-up
   only, then full runs until ``--seconds`` are used (at least two) -
   and checks every verdict against the gate and against each other;
4. prints a summary, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(medians over the samples of yardstick-scaled seconds, see
``yardstick.py``; the summary also prints the unscaled wall-clock
medians); ``--trace 1`` runs one untraced and one
traced sample plus a probe sample and reports the per-layer metrics.
Each run also writes a JSON record with its provenance (host, CPU
count, Python and numpy versions, commit, seed, parameters) to
``perfbench/results/``, and a traced run its Chrome trace-event file.
Load model: one client, one request at a time, engines serial.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

HELD_OUT_SEED = 4242
"""Not used while the benchmark was written: confirm a later claim here too."""

SETUP_SAMPLES = 3
MIN_FULL_SAMPLES = 2
WARM_REPEATS = 1
CHILD_TIMEOUT_S = 150


class Checks:
    """Counts correctness checks; every failure keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def child_env(seed: int) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_CACHE_DIR", "REPRO_TUNE_PROFILE")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def run_child(spec: dict, checks: Checks):
    """One sample in a fresh interpreter; ``None`` if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")], input=json.dumps(spec),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
            env=child_env(spec["seed"]),
        )
    except subprocess.TimeoutExpired:
        checks.check(False, f"{spec['run_id']}: timed out")
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        checks.check(False, f"{spec['run_id']}: exit {proc.returncode}: {tail}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(workload: str, text: str, seed: int, checks: Checks) -> dict:
    """Correctness references for the children, checked against the
    interpreted oracle first."""
    import workloads as wl
    from spans import Tracer

    ctx = wl.setup(text, Tracer(False), wl.WORKLOADS[workload]["vector"])
    sample = wl.oracle_sample(ctx, seed)
    labels = [fault.describe() for fault in sample]
    words, reference = wl.oracle_words(workload, ctx, sample, seed)
    checks.check(words == reference,
                 f"{workload}: engine words differ from the interpreted oracle "
                 f"on {sum(a != b for a, b in zip(words, reference))} sampled faults")
    refs = {"sample": labels, "expected": None, "fingerprint": None,
            "inputs": {}, "summary": {}}
    if workload != "bist_session":
        refs["expected"] = wl.expected_outcomes(workload, sample, reference)
    if workload == "grade_vector":
        compiled = wl.main_call("grade_compiled", ctx, {"patterns": wl.grade_patterns(seed)})
        refs["fingerprint"] = wl.verdict("grade_compiled", compiled, labels)["fingerprint"]
    if workload == "bist_session":
        cal = wl.bist_calibration(ctx, labels)
        wrong = []
        for label, word in zip(labels, reference):
            found = cal["sample"][label]
            if word:
                ok = found == (word & -word).bit_length() - 1
            else:
                ok = found is None or found >= wl.ORACLE_PATTERNS
            if not ok:
                wrong.append(label)
        checks.check(not wrong, f"bist_session: {len(wrong)} sampled first "
                                f"detections differ from the oracle, e.g. {wrong[:3]}")
        refs["inputs"] = {"target": cal["target"], "stop": cal["stop"]}
        refs["summary"] = {"patterns": cal["stop"], "satisfied": True,
                           "detected_weight": cal["detected_weight"],
                           "total_weight": cal["total_weight"]}
    return refs


def check_verdict(workload: str, out: dict, refs: dict, checks: Checks) -> None:
    verdict = out["verdict"]
    run_id = out["run_id"]
    if refs["fingerprint"] is None:
        refs["fingerprint"] = verdict["fingerprint"]
        refs["first_run"] = run_id
    checks.check(verdict["fingerprint"] == refs["fingerprint"],
                 f"{run_id}: verdict {verdict['fingerprint']} differs from "
                 f"{refs.get('first_run', 'the compiled reference')}")
    for index, fingerprint in enumerate(out["warm_fingerprints"]):
        checks.check(fingerprint == verdict["fingerprint"],
                     f"{run_id}: warm repeat {index} changed the verdict")
    if refs["expected"] is not None:
        wrong = [label for label, value in refs["expected"].items()
                 if verdict["sample"].get(label) != value]
        checks.check(not wrong, f"{run_id}: {len(wrong)} sampled faults differ "
                                f"from the interpreted oracle, e.g. {wrong[:3]}")
    for key, value in refs["summary"].items():
        checks.check(verdict["summary"][key] == value,
                     f"{run_id}: {key} is {verdict['summary'][key]}, expected {value}")
    if workload == "bist_session":
        summary = verdict["summary"]
        checks.check(summary["patterns"] < summary["budget"],
                     f"{run_id}: session used its whole budget")


def measure(workload: str, text: str, seed: int, seconds: float, trace: bool,
            refs: dict, checks: Checks) -> dict:
    base = {"workload": workload, "text": text, "seed": seed,
            "sample": refs["sample"], **refs["inputs"]}
    samples = {"setup": [], "full": [], "traced": None, "probe": None}

    def sample(mode: str, run_id: str, traced: bool = False, warm: int = 0):
        out = run_child({**base, "mode": mode, "run_id": run_id,
                         "trace": traced, "warm": warm}, checks)
        if out is not None:
            out["run_id"] = run_id
            if mode == "full":
                check_verdict(workload, out, refs, checks)
        return out

    if trace:
        samples["full"] = [sample("full", "untraced")]
        samples["traced"] = sample("full", "traced", traced=True)
        samples["probe"] = sample("probe", "probe", traced=True)
        return samples
    # Full samples while another one fits in the window, then set-up
    # samples in the time left over (and at least SETUP_SAMPLES set-ups).
    start = time.perf_counter()
    for mode in ("full", "setup"):
        longest = 0.0
        while True:
            count = len(samples["full"]) + len(samples["setup"])
            if mode == "full" and len(samples["full"]) >= MIN_FULL_SAMPLES or (
                    mode == "setup" and count >= SETUP_SAMPLES):
                if time.perf_counter() - start + longest > seconds:
                    break
            begin = time.perf_counter()
            samples[mode].append(sample(mode, f"{mode}{count}", warm=WARM_REPEATS))
            longest = max(longest, time.perf_counter() - begin)
    return samples


def end_to_end(samples: dict, wall: bool = False) -> dict:
    """Medians over the samples (every full sample also sets up) of the
    yardstick-scaled times, or of the wall times."""
    full = [out for out in samples["full"] if out is not None]
    setups = [out for out in samples["setup"] if out is not None] + full

    def times(out):
        return out["wall"] if wall else out

    return {
        "verdict_s": statistics.median(times(out)["verdict_s"] for out in full),
        "setup_s": statistics.median(times(out)["setup_s"] for out in setups),
        "run_s": statistics.median(times(out)["run_s"] for out in full),
        "warm_s": statistics.median(t for out in full for t in times(out)["warm_s"]),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in full),
    }


def per_layer(samples: dict, names) -> dict:
    from spans import self_times

    untraced, traced, probe = samples["full"][0], samples["traced"], samples["probe"]
    times = self_times(probe["spans"])
    times.update(self_times(traced["spans"]))
    counts = {**probe["counts"], **traced["counts"]}
    counts["trace.overhead_s"] = traced["verdict_s"] - untraced["verdict_s"]
    values = {}
    for name in names:
        if name in counts:
            values[name] = counts[name]
        elif name.endswith("_s"):
            values[name] = times.get(name[:-2], 0.0)
        else:
            values[name] = 0
    return values


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import workloads as wl

    return {
        "host": platform.node(), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace, "params": wl.params(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import netgen
    import workloads as wl
    from spans import chrome_trace

    checks = Checks()
    record = provenance(workload, seed, seconds, trace)
    text = netgen.bench_text(seed, wl.GATES, wl.INPUTS, wl.LOCALITY, wl.BLOCKS)
    refs, samples = {}, {"setup": [], "full": [], "traced": None, "probe": None}
    try:
        refs = gate(workload, text, seed, checks)
        samples = measure(workload, text, seed, seconds, trace, refs, checks)
    except Exception:  # a raising program is a failed check, reported below
        checks.check(False, traceback.format_exc(limit=4))
    section = "per_layer" if trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    complete = any(out is not None for out in samples["full"]) and (
        not trace or (samples["traced"] is not None and samples["probe"] is not None))
    values = {}
    if complete:
        values = per_layer(samples, units) if trace else end_to_end(samples)
    failed = len(checks.failures)
    result = {
        "correct": failed == 0 and complete,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    if complete and not trace:
        record["wall"] = end_to_end(samples, wall=True)
    record.update(result=result, failures=checks.failures,
                  fail_ratio=failed / max(1, checks.attempted),
                  reference=refs.get("fingerprint"),
                  verdict=next((out["verdict"]["summary"] for out in samples["full"]
                                if out is not None), None),
                  samples={kind: [_strip(out) for out in outs] if isinstance(outs, list)
                           else _strip(outs) for kind, outs in samples.items()})
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace and complete:
        runs = {out["run_id"]: out["spans"]
                for out in (samples["traced"], samples["probe"])}
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(chrome_trace(runs)))
    return record


def _strip(out):
    """A child's output without its spans (those go to the trace file)."""
    return None if out is None else {k: v for k, v in out.items() if k != "spans"}


def summary_lines(record: dict) -> list:
    result = record["result"]
    lines = [f"perfbench {record['workload']} seed={record['seed']} "
             f"commit={record['commit'][:12]} cpus={record['cpu_count']}: "
             f"verdict {json.dumps(record['verdict'])[:240]}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if "wall" in record:
        lines.append("  wall seconds (unscaled): " + ", ".join(
            f"{name} {value:.4g}" for name, value in record["wall"].items()
            if name.endswith("_s")))
    lines.append(f"  {'fail_ratio':<28} {record['fail_ratio']:>14.6g} 1 "
                 f"({result['failed']}/{result['attempted']} checks failed)")
    lines += [f"  FAIL {message}" for message in record["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(list(wl.WORKLOADS) + ["all"]))
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
               for name in names]
    for record in records:
        print("\n".join(summary_lines(record)))
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
