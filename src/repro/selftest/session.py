"""Complete self-test sessions: PRPG -> circuit -> MISR.

Two flavours:

* :func:`logic_selftest` - gate-level: an LFSR (or weighted NLFSR)
  drives the network, a MISR compacts the outputs; a fault is detected
  when the faulty signature differs from the golden one.
* :func:`at_speed_gate_selftest` - transistor-level with the RC timing
  simulator: the same session run at two clock rates.  This is the
  paper's key testing claim in executable form: "random self tests also
  cover most of the timing faults in contrast to an external test" -
  a CMOS-3 case (b) fault corrupts the signature at maximum speed and
  leaves it untouched at a slow clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..netlist.network import Network, NetworkFault
from ..switchlevel.network import PhysicalFault
from .lfsr import Lfsr
from .misr import Misr


@dataclass
class SelfTestOutcome:
    """Result of one self-test session."""

    cycles: int
    golden_signature: int
    signature: int

    @property
    def detected(self) -> bool:
        return self.signature != self.golden_signature


_SESSION_WINDOW = 1 << 12
"""Patterns simulated per window of a gate-level session - bounds
the big-int working set while keeping the bit-parallel passes wide."""


def _session_source(
    inputs: Sequence[str],
    cycles: int,
    probabilities: Optional[Mapping[str, float]],
    seed: int,
):
    """The session's pattern source: an LFSR bank, or a weighted NLFSR.

    Fixed-degree banks (the ``BANK_DEGREE`` pattern) rather than one
    register whose degree scales with the input count - the tabulated
    primitive polynomials stop at degree 32, and scaling used to crash
    BIST sessions on any network with more than 32 inputs.
    """
    # Imported lazily: repro.simulate.source imports this package's
    # register models, so a module-level import here would be circular.
    from ..simulate.source import LfsrSource, WeightedSource

    if probabilities is None:
        return LfsrSource(inputs, cycles, seed=seed)
    return WeightedSource(inputs, cycles, probabilities=probabilities, seed=seed)


def logic_selftest(
    network: Network,
    fault: Optional[NetworkFault] = None,
    cycles: int = 256,
    seed: int = 1,
    probabilities: Optional[Mapping[str, float]] = None,
    misr_width: Optional[int] = None,
) -> SelfTestOutcome:
    """Gate-level self-test session; golden signature computed alongside.

    The MISR is at least 8 bits wide regardless of the output count so
    that aliasing (2^-width) stays negligible for the session lengths
    used here.

    The session runs on the compiled engine: the pattern source emits
    big-int column windows, the compiled network evaluates each window
    bit-parallel (one faulty-network pass per window for the faulty
    response), and the MISRs absorb the per-pattern output columns -
    no per-pattern ``Network.evaluate`` calls.
    """
    from ..simulate.compiled import compile_network

    width = misr_width or max(8, len(network.outputs))
    golden_misr = Misr(width)
    faulty_misr = Misr(width)
    source = _session_source(network.inputs, cycles, probabilities, seed)
    compiled = compile_network(network)
    outputs = network.outputs
    for _start, chunk in source.windows(_SESSION_WINDOW):
        good = compiled.output_bits(chunk.env, chunk.mask)
        bad = good if fault is None else compiled.output_bits(
            chunk.env, chunk.mask, fault
        )
        for k in range(chunk.count):
            golden_misr.absorb([(good[net] >> k) & 1 for net in outputs])
            faulty_misr.absorb([(bad[net] >> k) & 1 for net in outputs])
    return SelfTestOutcome(
        cycles=cycles,
        golden_signature=golden_misr.signature,
        signature=faulty_misr.signature,
    )


def at_speed_gate_selftest(
    gate,
    fault: Optional[PhysicalFault] = None,
    cycles: int = 32,
    period: Optional[float] = None,
    seed: int = 1,
    misr_width: int = 8,
) -> SelfTestOutcome:
    """Transistor-level timed self-test of one gate.

    ``period`` defaults to the gate's rated (maximum) speed.  Patterns
    come from an LFSR; the single output bit per cycle feeds a MISR.
    The golden signature is the intended function's response to the
    same pattern stream.
    """
    from ..simulate.timingsim import TimingSimulator, rated_period

    if period is None:
        # Free-running sessions calibrate over vector *pairs*: the
        # previous pattern's internal state is part of the timing.
        period = rated_period(gate, sequence=True)
    circuit = gate.circuit if fault is None else gate.circuit.with_fault(fault)
    timing = TimingSimulator(circuit)
    lfsr = Lfsr(max(2, len(gate.inputs)), seed=seed)
    golden_misr = Misr(misr_width)
    faulty_misr = Misr(misr_width)

    # A2 warm-up at the same speed before signatures are collected.
    assert_vec, deassert_vec = gate.toggle_vectors()
    for index in range(4):
        vector = assert_vec if index % 2 == 0 else deassert_vec
        for step in gate.cycle_steps(vector):
            timing.step(step, period)

    for _ in range(cycles):
        lfsr.step()
        bits = lfsr.bits()
        vector = {name: bits[position] for position, name in enumerate(gate.inputs)}
        for step in gate.cycle_steps(vector):
            timing.step(step, period)
        measured = timing.logic_value(gate.output)
        expected = gate.function.evaluate(vector)
        golden_misr.absorb([expected])
        faulty_misr.absorb([measured])
    return SelfTestOutcome(
        cycles=cycles,
        golden_signature=golden_misr.signature,
        signature=faulty_misr.signature,
    )
