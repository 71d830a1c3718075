"""Optimized input signal probabilities - PROTEST feature 4.

"For each primary input a specific signal probability is computed,
promising an increase of fault detection and a decrease of the
necessary test length.  Using those optimized input signal
probabilities, the necessary test length can be reduced by orders of
magnitudes" (refs. [11], [15]).

The optimizer maximises the *minimum* fault detection probability (the
hardest fault dictates the test length) by cyclic coordinate search
over a probability grid.  Detection probabilities are evaluated exactly
through a precomputed fault-difference matrix: row f of ``M`` marks the
minterms on which fault f is detected, and for an input-probability
vector ``w`` the detection probabilities are ``M @ weights(w)`` - one
vectorised matrix product per candidate, which keeps the whole search
exact and fast for the (<= ~16-input) cones where random resistance
lives.  Larger circuits fall back to Monte-Carlo evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.network import Network, NetworkFault
from ..simulate.compiled import compile_network
from ..simulate.faultsim import resolve_knobs
from ..simulate.logicsim import PatternSet
from .detectprob import monte_carlo_detection_probabilities
from .signalprob import MAX_EXACT_INPUTS, bits_to_bool_array, minterm_weights
from .testlength import test_length

DEFAULT_GRID = (0.03, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.97)
"""Candidate probabilities per input.  Bounded away from 0/1 so no fault
becomes strictly undetectable (and A1/A2 keep being exercised)."""


@dataclass
class OptimizationResult:
    """Outcome of the input-probability optimization."""

    uniform_probabilities: Dict[str, float]
    optimized_probabilities: Dict[str, float]
    uniform_min_detection: float
    optimized_min_detection: float
    uniform_test_length: float
    optimized_test_length: float
    confidence: float
    sweeps: int

    @property
    def test_length_ratio(self) -> float:
        """Uniform / optimized - the paper's "orders of magnitude"."""
        if self.optimized_test_length == 0:
            return math.inf
        return self.uniform_test_length / self.optimized_test_length

    def format_summary(self) -> str:
        lines = [
            f"optimized input probabilities (confidence {self.confidence}):",
            f"  min detection probability: {self.uniform_min_detection:.3e} "
            f"-> {self.optimized_min_detection:.3e}",
            f"  test length: {self.uniform_test_length:.0f} "
            f"-> {self.optimized_test_length:.0f} "
            f"(ratio {self.test_length_ratio:.1f}x)",
        ]
        changed = {
            name: p
            for name, p in self.optimized_probabilities.items()
            if abs(p - 0.5) > 1e-9
        }
        if changed:
            lines.append(
                "  inputs moved off 0.5: "
                + ", ".join(f"{n}={p:.2f}" for n, p in sorted(changed.items()))
            )
        return "\n".join(lines)


class _ExactEvaluator:
    """Exact detection probabilities via the fault-difference matrix."""

    def __init__(self, network: Network, faults: Sequence[NetworkFault], cache=None):
        self.network = network
        self.names = list(network.inputs)
        patterns = PatternSet.exhaustive(self.names)
        sim = compile_network(network, cache=cache).simulate(
            patterns.env, patterns.mask
        )
        rows = []
        for fault in faults:
            rows.append(bits_to_bool_array(sim.difference(fault), patterns.count))
        self.matrix = np.array(rows, dtype=float)

    def detection(self, probs: Mapping[str, float]) -> np.ndarray:
        ordered = [probs[name] for name in reversed(self.names)]
        weights = minterm_weights(ordered)
        return self.matrix @ weights


class _MonteCarloEvaluator:
    """Sampled detection probabilities for wide circuits."""

    def __init__(
        self,
        network: Network,
        faults: Sequence[NetworkFault],
        samples: int = 2048,
        seed: int = 1986,
        engine: str = "compiled",
        jobs: Optional[int] = None,
        schedule: Optional[str] = None,
        tune=None,
        cache=None,
    ):
        self.network = network
        self.faults = list(faults)
        self.samples = samples
        self.seed = seed
        self.engine = engine
        self.jobs = jobs
        self.schedule = schedule
        self.tune = tune
        self.cache = cache

    def detection(self, probs: Mapping[str, float]) -> np.ndarray:
        values = monte_carlo_detection_probabilities(
            self.network,
            self.faults,
            probs,
            self.samples,
            self.seed,
            self.engine,
            self.jobs,
            self.schedule,
            self.tune,
            cache=self.cache,
        )
        return np.array([values[f.describe()] for f in self.faults])


def optimize_input_probabilities(
    network: Network,
    faults: Optional[Sequence[NetworkFault]] = None,
    confidence: float = 0.999,
    grid: Sequence[float] = DEFAULT_GRID,
    max_sweeps: int = 4,
    samples: int = 2048,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    cache=None,
) -> OptimizationResult:
    """Coordinate search maximising the minimum detection probability.

    ``engine``/``jobs``/``schedule``/``tune``/``cache`` select the
    simulation engine, fault schedule, execution plan and artifact
    store for the Monte-Carlo evaluator on wide circuits (the exact
    fault-difference matrix of narrow circuits is a single compiled
    pass either way).
    """
    _engine, store, plan, _mode = resolve_knobs(
        engine, jobs, schedule, tune, None, cache
    )
    if faults is None:
        faults = network.enumerate_faults()
    faults = list(faults)
    if not faults:
        raise ValueError("no faults to optimize for")
    if len(network.inputs) <= MAX_EXACT_INPUTS - 4:
        evaluator = _ExactEvaluator(network, faults, cache=store)
    else:
        evaluator = _MonteCarloEvaluator(
            network, faults, samples, engine=engine, jobs=jobs,
            schedule=schedule, tune=plan, cache=store,
        )

    labels = [f.describe() for f in faults]
    uniform = {name: 0.5 for name in network.inputs}
    uniform_det = evaluator.detection(uniform)

    def objective(det: np.ndarray) -> Tuple[float, float]:
        """Score to maximise: negative harmonic sum of detection
        probabilities, tie-broken by the minimum.

        ``sum(1/p_f)`` is (up to a log factor) the expected number of
        patterns until the last fault falls, so minimising it tracks the
        real target - the necessary test length - while staying smooth
        enough for coordinate moves to make progress where a pure
        max-min objective is locally stuck (raising one input of a wide
        AND cone momentarily hurts the single hardest fault but helps
        seven others)."""
        epsilon = 1e-12
        harmonic = -float(np.sum(1.0 / np.maximum(det, epsilon)))
        return (harmonic, float(det.min()))

    current = dict(uniform)
    current_det = uniform_det
    current_score = objective(current_det)
    sweeps_done = 0
    for sweep in range(max_sweeps):
        improved = False
        for name in network.inputs:
            best_value = current[name]
            best_score = current_score
            best_det = current_det
            for candidate in grid:
                if candidate == current[name]:
                    continue
                trial = dict(current)
                trial[name] = candidate
                det = evaluator.detection(trial)
                score = objective(det)
                if score > best_score:
                    best_score = score
                    best_value = candidate
                    best_det = det
            if best_value != current[name]:
                current[name] = best_value
                current_score = best_score
                current_det = best_det
                improved = True
        sweeps_done = sweep + 1
        if not improved:
            break

    uniform_probs = dict(zip(labels, uniform_det.tolist()))
    optimized_probs = dict(zip(labels, current_det.tolist()))
    return OptimizationResult(
        uniform_probabilities=uniform,
        optimized_probabilities=current,
        uniform_min_detection=float(uniform_det.min()),
        optimized_min_detection=float(current_det.min()),
        uniform_test_length=test_length(uniform_probs, confidence),
        optimized_test_length=test_length(optimized_probs, confidence),
        confidence=confidence,
        sweeps=sweeps_done,
    )
