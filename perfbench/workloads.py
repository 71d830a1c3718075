"""The four workloads: set-up, main call, verdict and layer probes.

Every call goes through the program's public API and is handed an
explicit fresh :class:`ArtifactStore`, so ``$REPRO_CACHE_DIR`` cannot
warm a measurement.  Each workload's main call, per ``WORKLOADS``:

* ``grade_compiled`` / ``grade_vector`` - ``fault_simulate`` of a
  seeded random pattern set with full detection counts, structural
  collapsing on, on the ``compiled`` / ``vector`` engine;
* ``bist_session`` - ``streaming_coverage`` on an ``lfsr`` source with a
  Wilson-bound confidence stop on the compiled engine;
* ``protest_estimate`` - ``Protest.analyse`` with the topological and
  then the Monte-Carlo estimator.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.faults.structural import collapse_network_faults
from repro.netlist import parse_bench
from repro.protest import detectprob, signalprob, tool
from repro.protest.testlength import coverage_lower_bound
from repro.protest.tool import Protest
from repro.simulate import PatternSet
from repro.simulate.artifacts import ArtifactStore
from repro.simulate.compiled import compile_network
from repro.simulate.faultsim import (
    FIRST_DETECTION_CHUNK,
    fault_simulate,
    streaming_coverage,
)
from repro.simulate.registry import get_engine
from repro.simulate.schedule import fault_costs
from repro.simulate.source import make_source
from repro.simulate.vector import vector_compile

# Netlist shape (see netgen.py).
GATES = 2000
INPUTS = 64
LOCALITY = 64
BLOCKS = 4

GRADE_PATTERNS = 4096
ORACLE_FAULTS = 200
ORACLE_PATTERNS = 4096
KERNEL_PROBE_PATTERNS = 64
SOURCE_WINDOW = 4096

# The Monte-Carlo estimator's own defaults (``detection_probabilities``):
# the oracle rebuilds the same pattern set to check its estimates.
MC_SAMPLES = 4096
MC_SEED = 1986
PROTEST_CONFIDENCE = 0.999

BIST_BUDGET = 1 << 17
BIST_HORIZON = 1 << 15
BIST_CONFIDENCE = 0.99
LFSR_SEED = 1

WORKLOADS = {
    "grade_compiled": {"engine": "compiled", "vector": False},
    "grade_vector": {"engine": "vector", "vector": True},
    "bist_session": {"engine": "compiled", "vector": False},
    "protest_estimate": {"engine": "compiled", "vector": False},
}


def params() -> dict:
    """Every workload parameter, for the provenance record."""
    return {
        "gates": GATES, "inputs": INPUTS, "locality": LOCALITY, "blocks": BLOCKS,
        "grade_patterns": GRADE_PATTERNS, "oracle_faults": ORACLE_FAULTS,
        "oracle_patterns": ORACLE_PATTERNS, "mc_samples": MC_SAMPLES,
        "mc_seed": MC_SEED, "protest_confidence": PROTEST_CONFIDENCE,
        "bist_budget": BIST_BUDGET, "bist_horizon": BIST_HORIZON,
        "bist_confidence": BIST_CONFIDENCE, "lfsr_seed": LFSR_SEED,
        "kernel_probe_patterns": KERNEL_PROBE_PATTERNS,
        "source_window": SOURCE_WINDOW,
    }


def input_names() -> List[str]:
    return [f"x{k}" for k in range(INPUTS)]


def grade_patterns(seed: int) -> PatternSet:
    return PatternSet.random(input_names(), GRADE_PATTERNS, seed=seed)


def mc_patterns() -> PatternSet:
    names = input_names()
    return PatternSet.random(names, MC_SAMPLES, seed=MC_SEED,
                             probabilities={name: 0.5 for name in names})


def lfsr_source(count: int):
    return make_source("lfsr", input_names(), count, seed=LFSR_SEED)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _number(value: float):
    """JSON-safe float: infinities become their repr."""
    return value if math.isfinite(value) else repr(value)


# -- set-up ------------------------------------------------------------------


@dataclass
class Context:
    network: object
    faults: list
    store: ArtifactStore
    compiled: object
    collapsed: object


def setup(text: str, tracer, vector: bool) -> Context:
    """``.bench`` text to a collapsed fault universe on a fresh store."""
    store = ArtifactStore()
    with tracer.span("netlist.parse"):
        network = parse_bench(text, name="perfbench")
    with tracer.span("netlist.levelize"):
        network.levelize()
    with tracer.span("netlist.enumerate"):
        faults = network.enumerate_faults()
    with tracer.span("compiled.compile"):
        compiled = compile_network(network, cache=store)
    with tracer.span("collapse.collapse"):
        collapsed = collapse_network_faults(network, faults, cache=store)
    if vector:
        with tracer.span("vector.compile"):
            vector_compile(network, cache=store)
    return Context(network, faults, store, compiled, collapsed)


# -- main calls and their verdicts -------------------------------------------


def main_call(workload: str, ctx: Context, inputs: dict):
    if workload in ("grade_compiled", "grade_vector"):
        return fault_simulate(
            ctx.network, inputs["patterns"], ctx.faults,
            engine=WORKLOADS[workload]["engine"], collapse="on",
            cache=ctx.store,
        )
    if workload == "bist_session":
        return streaming_coverage(
            ctx.network, lfsr_source(BIST_BUDGET), ctx.faults,
            target_coverage=inputs["target"], confidence=BIST_CONFIDENCE,
            engine="compiled", collapse="on", cache=ctx.store,
        )
    protest = Protest(ctx.network, ctx.faults, engine="compiled",
                      collapse="on", cache=ctx.store)
    return (
        protest.analyse(confidence=PROTEST_CONFIDENCE, method="topological"),
        protest.analyse(confidence=PROTEST_CONFIDENCE, method="monte_carlo"),
    )


def verdict(workload: str, result, sample: List[str]) -> dict:
    """Fingerprint, summary and the sampled faults' outcomes of a result."""
    if workload in ("grade_compiled", "grade_vector"):
        fingerprint = _digest([
            result.pattern_count, sorted(result.detected.items()),
            sorted(result.detection_counts.items()), sorted(result.undetected),
        ])
        summary = {"coverage": result.coverage, "detected": len(result.detected),
                   "faults": result.fault_count,
                   "classes": result.collapsed_classes}
        outcomes = {label: [result.detected.get(label),
                            result.detection_counts.get(label)]
                    for label in sample}
        return {"fingerprint": fingerprint, "summary": summary,
                "sample": outcomes}
    if workload == "bist_session":
        summary = {
            "patterns": result.pattern_count, "budget": result.pattern_budget,
            "satisfied": result.satisfied, "exhausted": result.exhausted,
            "detected_weight": result.detected_weight,
            "total_weight": result.total_weight,
            "lower_bound": result.lower_bound, "windows": len(result.curve),
        }
        return {"fingerprint": _digest(summary), "summary": summary,
                "sample": {}}
    topo, mc = result
    summary = {
        "topological_length": _number(topo.required_test_length),
        "monte_carlo_length": _number(mc.required_test_length),
        "topological_hardest": [[label, p] for label, p in topo.hardest],
        "monte_carlo_hardest": [[label, p] for label, p in mc.hardest],
    }
    fingerprint = _digest([
        summary, sorted(topo.detection_probabilities.items()),
        sorted(mc.detection_probabilities.items()),
    ])
    outcomes = {label: mc.detection_probabilities[label] for label in sample}
    return {"fingerprint": fingerprint, "summary": summary, "sample": outcomes}


def trace_main_call(tracer) -> None:
    """Record spans around the PROTEST estimators as the facade calls them."""
    for module in (signalprob, detectprob):
        tracer.wrap(module, "topological_signal_probabilities", "protest.signal")
    tracer.wrap(detectprob, "observability_estimates", "protest.observability")
    tracer.wrap(detectprob, "topological_detection_probabilities",
                "protest.detect_topo")
    tracer.wrap(detectprob, "monte_carlo_detection_probabilities",
                "protest.detect_mc")
    tracer.wrap(tool, "test_length", "protest.test_length")


# -- the correctness gate (run before any timing) ----------------------------


def oracle_sample(ctx: Context, seed: int) -> list:
    reps = ctx.collapsed.representative_faults()
    return random.Random(seed).sample(reps, min(ORACLE_FAULTS, len(reps)))


def oracle_patterns(workload: str, seed: int) -> PatternSet:
    if workload == "bist_session":
        return lfsr_source(ORACLE_PATTERNS).materialise()
    if workload == "protest_estimate":
        return mc_patterns()
    return grade_patterns(seed)


def oracle_words(workload: str, ctx: Context, sample: list, seed: int):
    """``(engine words, interpreted words)`` of the sampled faults."""
    patterns = oracle_patterns(workload, seed)
    engine = WORKLOADS[workload]["engine"]
    words = get_engine(engine).difference_words(
        ctx.network, patterns, sample, cache=ctx.store)
    reference = get_engine("interpreted").difference_words(
        ctx.network, patterns, sample)
    return words, reference


def expected_outcomes(workload: str, sample: list, reference: List[int]) -> dict:
    """What the main call must report for each sampled fault."""
    expected = {}
    for fault, word in zip(sample, reference):
        label = fault.describe()
        if workload == "protest_estimate":
            expected[label] = word.bit_count() / MC_SAMPLES
        elif word:
            expected[label] = [(word & -word).bit_length() - 1, word.bit_count()]
        else:
            expected[label] = [None, None]
    return expected


def bist_calibration(ctx: Context, sample: List[str]) -> dict:
    """The session's target and its exact stopping point, from first
    detections over the first ``BIST_HORIZON`` LFSR patterns.

    The target is the Wilson bound on the weight covered at the
    horizon, so the session must stop at the first 256-pattern
    boundary that reaches that weight - inside the horizon and far
    inside the budget.  ``sample`` labels get their first detections
    back, for the oracle to check.
    """
    result = fault_simulate(
        ctx.network, lfsr_source(BIST_HORIZON).materialise(), ctx.faults,
        stop_at_first_detection=True, engine="compiled", collapse="on",
        cache=ctx.store,
    )
    last = max(result.detected.values())
    covered = len(result.detected)
    return {
        "target": coverage_lower_bound(covered, result.fault_count,
                                       BIST_CONFIDENCE),
        "stop": (last // FIRST_DETECTION_CHUNK + 1) * FIRST_DETECTION_CHUNK,
        "detected_weight": covered,
        "total_weight": result.fault_count,
        "sample": {label: result.detected.get(label) for label in sample},
    }


# -- layer probes (traced runs only) -----------------------------------------


def _timed(tracer, name: str, call):
    with tracer.span(name) as span:
        value = call()
    return value, span["end"] - span["start"]


def probe_layers(workload: str, ctx: Context, inputs: dict, tracer) -> Dict[str, float]:
    """Time and count single layers through their public calls, in an
    order that keeps each cold measurement cold."""
    engine = WORKLOADS[workload]["engine"]
    network, store = ctx.network, ctx.store
    reps = ctx.collapsed.representative_faults()
    counts: Dict[str, float] = {}
    if workload in ("grade_compiled", "grade_vector"):
        costs, _ = _timed(tracer, "schedule.cone_price",
                          lambda: fault_costs(network, reps, cache=store))
        counts["schedule.cone_gates"] = sum(costs) - len(costs)
    if workload == "grade_vector":
        vector = vector_compile(network, cache=store)
        groups = vector.group_faults(list(enumerate(reps)))
        plans, _ = _timed(tracer, "vector.plan",
                          lambda: vector.plan_batches(groups, cache=store))
        counts["vector.batches"] = len(plans)
        prefix = inputs["patterns"].slice(0, KERNEL_PROBE_PATTERNS)
        diff = get_engine("vector").difference_words
        _, cold = _timed(tracer, "vector.kernel_cold",
                         lambda: diff(network, prefix, reps, cache=store))
        _, warm = _timed(tracer, "vector.kernel_warm",
                         lambda: diff(network, prefix, reps, cache=store))
        counts["vector.kernel_build_s"] = cold - warm
    if workload in ("grade_compiled", "grade_vector", "protest_estimate"):
        patterns = mc_patterns() if workload == "protest_estimate" else inputs["patterns"]
        if workload != "grade_vector":
            _timed(tracer, "compiled.good_pass",
                   lambda: ctx.compiled.evaluate_bits(patterns.env, patterns.mask))
        diff = get_engine(engine).difference_words
        _timed(tracer, "engine.difference_words",
               lambda: diff(network, patterns, reps, cache=store))
    if workload == "bist_session":
        stop = inputs["stop"]

        def generate():
            return sum(window.count for _start, window
                       in lfsr_source(stop).windows(SOURCE_WINDOW))

        counts["source.patterns"], _ = _timed(tracer, "source.generate", generate)
    return counts
