"""Simulation: true-value, static fault simulation, RC timing."""

from .artifacts import (
    ArtifactStore,
    available_cache_modes,
    fault_fingerprint,
    network_fingerprint,
    resolve_cache,
)
from .compiled import CompiledNetwork, GoodSimulation, compile_network
from .deductive import deductive_fault_simulate
from .dictionary import Diagnosis, FaultDictionary
from .faultsim import (
    FaultSimResult,
    StreamingCoverage,
    coverage_curve,
    fault_simulate,
    streaming_coverage,
    windowed_outcomes,
)
from .parallel import parallel_fault_simulate
from .logicsim import PatternSet, simulate, simulate_all_nets
from .registry import Engine, available_engines, get_engine, register_engine
from .source import (
    LfsrSource,
    PatternSetSource,
    PatternSource,
    RandomSource,
    WeightedSource,
    available_sources,
    get_source,
    make_source,
)
from .schedule import fault_costs, partition_faults
from .sharded import DEFAULT_WINDOW
from .vector import (
    VECTOR_WINDOW,
    VectorNetwork,
    VectorSimulation,
    vector_compile,
)
from .timingsim import (
    DegradationPoint,
    TimingConfig,
    TimingSimulator,
    detects_at_speed,
    inverter_degradation_sweep,
    measure_gate_at_speed,
)

__all__ = [
    "ArtifactStore",
    "available_cache_modes",
    "fault_fingerprint",
    "network_fingerprint",
    "resolve_cache",
    "CompiledNetwork",
    "GoodSimulation",
    "compile_network",
    "deductive_fault_simulate",
    "Diagnosis",
    "FaultDictionary",
    "FaultSimResult",
    "StreamingCoverage",
    "coverage_curve",
    "fault_simulate",
    "streaming_coverage",
    "windowed_outcomes",
    "parallel_fault_simulate",
    "PatternSet",
    "PatternSource",
    "LfsrSource",
    "WeightedSource",
    "RandomSource",
    "PatternSetSource",
    "available_sources",
    "get_source",
    "make_source",
    "simulate",
    "simulate_all_nets",
    "Engine",
    "available_engines",
    "get_engine",
    "register_engine",
    "fault_costs",
    "partition_faults",
    "DEFAULT_WINDOW",
    "VECTOR_WINDOW",
    "VectorNetwork",
    "VectorSimulation",
    "vector_compile",
    "DegradationPoint",
    "TimingConfig",
    "TimingSimulator",
    "detects_at_speed",
    "inverter_degradation_sweep",
    "measure_gate_at_speed",
]
