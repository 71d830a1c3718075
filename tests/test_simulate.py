"""Tests for pattern sets, fault simulation, and the timing simulator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import and_cone, domino_carry_chain
from repro.logic.parser import parse_expression
from repro.netlist import CellFactory, Network, NetworkFault
from repro.simulate import (
    PatternSet,
    TimingSimulator,
    coverage_curve,
    detects_at_speed,
    fault_simulate,
    inverter_degradation_sweep,
    measure_gate_at_speed,
    simulate,
)
from repro.simulate.timingsim import rated_period
from repro.switchlevel.network import FaultKind, PhysicalFault
from repro.tech import DominoCmosGate


class TestPatternSet:
    def test_exhaustive_counts(self):
        patterns = PatternSet.exhaustive(("a", "b", "c"))
        assert patterns.count == 8
        assert patterns.vector(5) == {"a": 1, "b": 0, "c": 1}

    def test_from_vectors_round_trip(self):
        vectors = [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        patterns = PatternSet.from_vectors(("a", "b"), vectors)
        assert list(patterns.vectors()) == vectors

    def test_random_respects_weights(self):
        patterns = PatternSet.random(("a", "b"), 4096, probabilities={"a": 0.9, "b": 0.1})
        freq_a = patterns.env["a"].bit_count() / patterns.count
        freq_b = patterns.env["b"].bit_count() / patterns.count
        assert freq_a == pytest.approx(0.9, abs=0.03)
        assert freq_b == pytest.approx(0.1, abs=0.03)

    def test_random_reproducible(self):
        p1 = PatternSet.random(("a",), 64, seed=3)
        p2 = PatternSet.random(("a",), 64, seed=3)
        assert p1.env == p2.env

    def test_concat_and_repeat(self):
        patterns = PatternSet.from_vectors(("a",), [{"a": 1}, {"a": 0}])
        doubled = patterns.repeat(2)
        assert doubled.count == 4
        assert [v["a"] for v in doubled.vectors()] == [1, 0, 1, 0]

    def test_repeat_zero_is_empty(self):
        patterns = PatternSet.from_vectors(("a",), [{"a": 1}, {"a": 0}])
        empty = patterns.repeat(0)
        assert empty.count == 0
        assert empty.names == patterns.names
        assert all(bits == 0 for bits in empty.env.values())
        assert list(empty.vectors()) == []

    def test_repeat_one_is_identity(self):
        patterns = PatternSet.from_vectors(("a",), [{"a": 1}, {"a": 0}])
        once = patterns.repeat(1)
        assert once.count == 2
        assert once.env == patterns.env

    def test_repeat_negative_raises(self):
        patterns = PatternSet.from_vectors(("a",), [{"a": 1}])
        with pytest.raises(ValueError):
            patterns.repeat(-1)

    def test_concat_incompatible(self):
        with pytest.raises(ValueError):
            PatternSet.exhaustive(("a",)).concat(PatternSet.exhaustive(("b",)))

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            PatternSet.exhaustive(("a",)).vector(2)


class TestFaultSimulation:
    def test_full_coverage_on_exhaustive(self):
        network = domino_carry_chain(3)
        result = fault_simulate(network, PatternSet.exhaustive(network.inputs))
        assert result.coverage == 1.0
        assert result.undetected == []

    def test_first_detection_index_valid(self):
        network = domino_carry_chain(3)
        patterns = PatternSet.exhaustive(network.inputs)
        result = fault_simulate(network, patterns)
        good = simulate(network, patterns)
        for fault in network.enumerate_faults():
            label = fault.describe()
            index = result.detected[label]
            faulty = network.output_bits(patterns.env, patterns.mask, fault)
            difference = 0
            for net in network.outputs:
                difference |= good[net] ^ faulty[net]
            assert (difference >> index) & 1 == 1
            assert difference & ((1 << index) - 1) == 0

    def test_detection_counts_give_probabilities(self):
        network = and_cone(4)
        patterns = PatternSet.exhaustive(network.inputs)
        result = fault_simulate(network, patterns)
        from repro.protest.detectprob import exact_detection_probabilities

        exact = exact_detection_probabilities(network, network.enumerate_faults())
        for label, count in result.detection_counts.items():
            assert count / patterns.count == pytest.approx(exact[label])

    def test_coverage_curve_monotone(self):
        network = domino_carry_chain(3)
        curve = coverage_curve(network, PatternSet.random(network.inputs, 128), points=8)
        coverages = [c for _, c in curve]
        assert coverages == sorted(coverages)

    @pytest.mark.parametrize("points", [0, -3])
    def test_coverage_curve_rejects_fewer_than_one_point(self, points):
        """``points=0`` used to divide by zero and ``points=-3`` to fall
        back silently to one sample per pattern."""
        network = domino_carry_chain(3)
        patterns = PatternSet.random(network.inputs, 256)
        with pytest.raises(ValueError, match=f"points must be >= 1, got {points}"):
            coverage_curve(network, patterns, points=points)
        assert len(coverage_curve(network, patterns, points=1)) == 1

    def test_undetectable_fault_reported(self):
        factory = CellFactory("domino-CMOS")
        network = Network("masked")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        # n1 is not observable: z = b only.
        network.add_gate("g2", factory.cell("pass2", "i2", ["i1", "i2"]),
                         {"i1": "n1", "i2": "b"}, "z")
        network.mark_output("z")
        result = fault_simulate(network, PatternSet.exhaustive(network.inputs))
        assert any("g1" in label for label in result.undetected)


class TestTimingSimulator:
    def test_inverter_levels(self):
        from repro.tech import static_cmos_inverter

        gate = static_cmos_inverter()
        sim = TimingSimulator(gate.circuit)
        sim.step({"a": 0.0}, duration=12.0)
        assert sim.voltage("z") > 0.9
        sim.step({"a": 1.0}, duration=12.0)
        assert sim.voltage("z") < 0.1

    def test_rated_period_is_minimal(self):
        gate = DominoCmosGate(parse_expression("a*b"))
        period = rated_period(gate)
        vectors = [{"a": x, "b": y} for x in (0, 1) for y in (0, 1)]
        assert all(
            measure_gate_at_speed(gate, v, period=period) == gate.function.evaluate(v)
            for v in vectors
        )

    def test_cmos3_regimes(self):
        fault = PhysicalFault(FaultKind.TRANSISTOR_CLOSED, switch="T1")
        strong = DominoCmosGate(parse_expression("a*b"), precharge_resistance=0.2)
        fast, slow = detects_at_speed(strong, fault)
        assert fast and slow  # case (a): hard s0-z
        weak = DominoCmosGate(parse_expression("a*b"), precharge_resistance=4.0)
        fast, slow = detects_at_speed(weak, fault)
        assert fast and not slow  # case (b): delay fault, at-speed only

    def test_unknown_port_raises(self):
        gate = DominoCmosGate(parse_expression("a*b"))
        sim = TimingSimulator(gate.circuit)
        with pytest.raises(KeyError):
            sim.step({"ghost": 1.0}, 1.0)


class TestFig2Sweep:
    def test_levels_follow_divider(self):
        points = inverter_degradation_sweep([1.0, 4.0])
        assert points[0].steady_low_level == pytest.approx(0.5)
        assert points[1].steady_low_level == pytest.approx(0.2)

    def test_delay_infinite_when_level_above_threshold(self):
        (point,) = inverter_degradation_sweep([0.5])
        assert math.isinf(point.fall_delay)
        assert not point.correct_logic_level

    def test_delay_decreases_with_weaker_pullup(self):
        points = inverter_degradation_sweep([2.0, 4.0, 8.0])
        delays = [p.fall_delay for p in points]
        assert delays == sorted(delays, reverse=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=1, max_value=60))
def test_fault_injection_changes_only_claimed_nets(bits, count):
    """Property: a stuck fault never alters nets outside the fault's
    transitive fanout (sanity of the injection mechanics)."""
    network = domino_carry_chain(3)
    patterns = PatternSet.random(network.inputs, count, seed=bits)
    fault = NetworkFault.stuck_at("c1", 0)
    good = network.evaluate_bits(patterns.env, patterns.mask)
    bad = network.evaluate_bits(patterns.env, patterns.mask, fault)
    # c1 feeds stage1.. onward; inputs and g0/p0 unaffected
    for net in network.inputs:
        assert good[net] == bad[net]
