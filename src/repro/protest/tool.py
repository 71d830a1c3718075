"""The PROTEST facade - Fig. 8 of the paper as one object.

The block diagram's pipeline:

    circuit description + functional library
        -> estimating signal probabilities
        -> estimating fault detection probabilities
        -> protocol of necessary test length
        -> optimizing input signal probabilities
        -> random pattern generation
        -> static fault simulation (validation)

:class:`Protest` wires the pieces of this package over one
:class:`~repro.netlist.network.Network` whose gates carry their
technology-dependent fault libraries (Section 5's "variable fault
models").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..netlist.network import Network, NetworkFault
from ..simulate.faultsim import (
    FaultSimResult,
    StreamingCoverage,
    fault_simulate,
    streaming_coverage,
)
from ..simulate.logicsim import PatternSet
from ..simulate.source import make_source
from .detectprob import _topological_detection, detection_probabilities
from .optimize import OptimizationResult, optimize_input_probabilities
from .signalprob import _input_probs, signal_probabilities
from .testlength import (
    confidence_all_detected,
    expected_coverage,
    hardest_faults,
    test_length,
)


@dataclass
class ProtestReport:
    """Everything PROTEST computed for one analysis run."""

    network_name: str
    input_probabilities: Dict[str, float]
    signal_probabilities: Dict[str, float]
    detection_probabilities: Dict[str, float]
    confidence: float
    required_test_length: float
    hardest: List

    def format_summary(self) -> str:
        lines = [
            f"PROTEST report for {self.network_name}",
            f"  faults analysed: {len(self.detection_probabilities)}",
            f"  demanded confidence: {self.confidence}",
            f"  necessary random test length: {self.required_test_length:.0f}"
            if math.isfinite(self.required_test_length)
            else "  necessary random test length: unbounded (undetectable fault present)",
            "  hardest faults:",
        ]
        for label, p in self.hardest:
            lines.append(f"    {label:<40} p = {p:.3e}")
        return "\n".join(lines)

    def format_protocol(self) -> str:
        """The full per-fault protocol (Fig. 8's 'protocol of necessary
        test length'): detection probability and the pattern count at
        which each fault individually reaches the demanded confidence."""
        from .testlength import test_length_for_fault

        lines = [
            f"protocol of necessary test length "
            f"({self.network_name}, confidence {self.confidence})",
            f"{'fault':<44} {'p_detect':>10} {'N':>10}",
        ]
        ranked = sorted(self.detection_probabilities.items(), key=lambda kv: kv[1])
        for label, p in ranked:
            if p > 0.0:
                needed = f"{test_length_for_fault(p, self.confidence):.0f}"
            else:
                needed = "inf"
            lines.append(f"{label:<44} {p:>10.3e} {needed:>10}")
        lines.append(
            f"{'whole test (all faults, joint confidence)':<44} "
            f"{'':>10} {self.required_test_length:>10.0f}"
        )
        return "\n".join(lines)


class Protest:
    """Probabilistic testability analysis of a combinational network.

    ``engine``/``jobs`` pick the simulation engine
    (:mod:`repro.simulate.registry`: ``"interpreted"``, ``"compiled"``,
    ``"vector"``) and the worker count (``None`` or 1 in-process,
    ``> 1`` a forked pool) used by every simulation-backed step - the
    Monte-Carlo estimators and the validation fault simulation.
    ``collapse`` picks the structural-collapsing mode
    (:mod:`repro.faults.structural`: ``"off"`` by default, ``"on"`` to
    simulate one representative per equivalence class with
    bit-identical results) for those same steps.  ``cache`` picks
    the artifact store (:mod:`repro.simulate.artifacts`: ``None`` or
    ``"memory"`` for the process-wide in-memory store, ``"off"``, or an
    :class:`~repro.simulate.artifacts.ArtifactStore`) every
    simulation-backed step resolves compiled programs, cone metadata
    and collapse classes through.  The knobs are validated
    once, here, and every method runs on them - no method takes a
    knob of its own.
    """

    def __init__(
        self,
        network: Network,
        faults: Optional[Sequence[NetworkFault]] = None,
        engine: str = "compiled",
        jobs: Optional[int] = None,
        collapse: Optional[str] = None,
        cache=None,
    ):
        from ..simulate.faultsim import resolve_knobs

        # Reject every bad knob at construction, not at first use.
        resolve_knobs(engine, jobs, collapse, cache)
        self.network = network
        self.faults = list(faults) if faults is not None else network.enumerate_faults()
        self.engine = engine
        self.jobs = jobs
        self.collapse = collapse
        self.cache = cache

    # -- the Fig. 8 pipeline, feature by feature ---------------------------------

    def signal_probabilities(
        self,
        probs: Mapping[str, float] | float = 0.5,
        method: str = "auto",
    ) -> Dict[str, float]:
        return signal_probabilities(
            self.network, probs, method, engine=self.engine, cache=self.cache,
        )

    def detection_probabilities(
        self,
        probs: Mapping[str, float] | float = 0.5,
        method: str = "auto",
    ) -> Dict[str, float]:
        return detection_probabilities(
            self.network,
            self.faults,
            probs,
            method,
            engine=self.engine,
            jobs=self.jobs,
            collapse=self.collapse,
            cache=self.cache,
        )

    def required_test_length(
        self,
        confidence: float = 0.999,
        probs: Mapping[str, float] | float = 0.5,
        method: str = "auto",
    ) -> float:
        return test_length(self.detection_probabilities(probs, method), confidence)

    def optimize(
        self, confidence: float = 0.999, max_sweeps: int = 4
    ) -> OptimizationResult:
        return optimize_input_probabilities(
            self.network,
            self.faults,
            confidence,
            max_sweeps=max_sweeps,
            engine=self.engine,
            jobs=self.jobs,
            cache=self.cache,
        )

    def generate_patterns(
        self,
        count: int,
        probs: Mapping[str, float] | float = 0.5,
        seed: int = 1986,
    ) -> PatternSet:
        """Random patterns with the (possibly optimized) distribution."""
        return PatternSet.random(
            self.network.inputs, count, seed=seed,
            probabilities=_input_probs(self.network, probs),
        )

    def validate(
        self,
        count: int,
        probs: Mapping[str, float] | float = 0.5,
        seed: int = 1986,
    ) -> FaultSimResult:
        """Static fault simulation of generated patterns - the validation
        step before committing self-test logic to the chip, on the
        instance's engine, workers, collapse mode and store.  See
        :func:`repro.simulate.faultsim.fault_simulate`.
        """
        patterns = self.generate_patterns(count, probs, seed)
        return fault_simulate(
            self.network,
            patterns,
            self.faults,
            engine=self.engine,
            jobs=self.jobs,
            collapse=self.collapse,
            cache=self.cache,
        )

    def streaming_test_length(
        self,
        target_coverage: float = 0.99,
        confidence: float = 0.99,
        source: str = "lfsr",
        max_patterns: int = 1 << 16,
        seed: int = 1,
        probabilities: Optional[Mapping[str, float]] = None,
    ) -> StreamingCoverage:
        """How many patterns for the target coverage, at a confidence -
        answered by streaming a BIST source until the bound tightens.

        ``source`` names a registered pattern source
        (:mod:`repro.simulate.source`: ``"lfsr"`` by default,
        ``"weighted"`` and ``"random"`` - which honour
        ``probabilities``, e.g. the optimized distribution -, ``"set"``;
        the uniform-by-construction sources reject ``probabilities``
        with a ``ValueError``); ``max_patterns`` bounds the session.
        The source streams its windows through
        :func:`repro.simulate.faultsim.streaming_coverage`, which runs
        the engines' batched window cores and stops at the first window
        where the Wilson lower confidence bound on fault coverage
        clears ``target_coverage`` - ``jobs > 1`` fans each block across
        a ``jobs``-wide worker pool.  The run knobs are the instance's.
        """
        resolved = make_source(
            source,
            self.network.inputs,
            max_patterns,
            seed=seed,
            probabilities=probabilities,
        )
        return streaming_coverage(
            self.network,
            resolved,
            self.faults,
            target_coverage=target_coverage,
            confidence=confidence,
            engine=self.engine,
            jobs=self.jobs,
            collapse=self.collapse,
            cache=self.cache,
        )

    # -- one-call analysis -----------------------------------------------------------

    def analyse(
        self,
        probs: Mapping[str, float] | float = 0.5,
        confidence: float = 0.999,
        method: str = "auto",
    ) -> ProtestReport:
        input_probs = _input_probs(self.network, probs)
        signal = self.signal_probabilities(input_probs, method)
        if method == "topological":
            # The signal probabilities above are the estimator's input.
            detection = _topological_detection(
                self.network, self.faults, signal, self.cache
            )
        else:
            detection = self.detection_probabilities(input_probs, method)
        length = test_length(detection, confidence)
        return ProtestReport(
            network_name=self.network.name,
            input_probabilities=input_probs,
            signal_probabilities=signal,
            detection_probabilities=detection,
            confidence=confidence,
            required_test_length=length,
            hardest=hardest_faults(detection, count=8),
        )
