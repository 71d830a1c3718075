"""Tests for the self-test hardware: LFSR, MISR, BILBO, NLFSR, sessions."""

from typing import List

import pytest

from repro.circuits.generators import domino_carry_chain
from repro.logic.parser import parse_expression
from repro.selftest import (
    BANK_DEGREE,
    Bilbo,
    BilboMode,
    Lfsr,
    LfsrBank,
    Misr,
    PRIMITIVE_TAPS,
    WeightedPatternGenerator,
    at_speed_gate_selftest,
    bank_seed,
    closest_dyadic_weight,
    logic_selftest,
)
from repro.simulate import LfsrSource, PatternSet
from repro.switchlevel.network import FaultKind, PhysicalFault
from repro.tech import DominoCmosGate

from lfsr_lanes_reference import reference_bank_rows, reference_rows


class TestLfsr:
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 8, 10, 12])
    def test_maximal_period(self, degree):
        assert Lfsr(degree).period() == (1 << degree) - 1

    def test_never_all_zero(self):
        lfsr = Lfsr(6)
        for _ in range(200):
            lfsr.step()
            assert lfsr.state != 0

    def test_reset(self):
        lfsr = Lfsr(5, seed=7)
        lfsr.step()
        lfsr.reset()
        assert lfsr.state == 7

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(4, seed=0)
        with pytest.raises(ValueError):
            Lfsr(4, seed=16)

    def test_pattern_width_bounded(self):
        with pytest.raises(ValueError):
            Lfsr(4).pattern(5)

    def test_tabulated_degrees(self):
        assert set(range(2, 33)) == set(PRIMITIVE_TAPS)

    def test_balanced_output(self):
        lfsr = Lfsr(10)
        ones = sum(lfsr.step() for _ in range(1023))
        assert ones == 512  # maximal-length sequences have 2^(n-1) ones

    def test_period_does_not_clobber_state(self):
        # period() used to run the register from its current state and
        # leave it wherever the cycle closed - an observation that
        # rewrote the thing observed.
        lfsr = Lfsr(7, seed=45)
        lfsr.jump(13)
        before = lfsr.state
        assert lfsr.period() == 127
        assert lfsr.state == before

    def test_jump_matches_serial_stepping(self):
        serial = Lfsr(12, seed=321)
        jumped = Lfsr(12, seed=321)
        for _ in range(157):
            serial.step()
        jumped.jump(157)
        assert jumped.state == serial.state
        with pytest.raises(ValueError):
            jumped.jump(-1)


class TestLfsrBank:
    def test_bank_seeds_distinct_and_in_range(self):
        seeds = [bank_seed(1, index) for index in range(8)]
        assert len(set(seeds)) == len(seeds)
        assert all(1 <= s < (1 << BANK_DEGREE) for s in seeds)

    def test_wide_bank_covers_width(self):
        bank = LfsrBank(40, seed=1)
        assert len(bank.members) == 2
        pattern = bank.pattern()
        assert len(pattern) == 40

    def test_jump_matches_serial(self):
        serial = LfsrBank(10, seed=4)
        jumped = LfsrBank(10, seed=4)
        for _ in range(99):
            serial.step()
        jumped.jump(99)
        assert jumped.pattern() == serial.pattern()


def serial_rows(patterns, width: int) -> List[int]:
    """Serial 0/1 patterns as ``width`` big-int rows (bit ``p`` of row
    ``i`` = bit ``i`` of pattern ``p``)."""
    rows = [0] * width
    for p, bits in enumerate(patterns):
        for i in range(width):
            rows[i] |= bits[i] << p
    return rows


def weighted_rows(generator, count: int) -> List[int]:
    """``count`` serial ``pattern()`` draws as rows in assignment order."""
    names = [a.name for a in generator.assignments]
    return serial_rows(
        ([pattern[name] for name in names] for pattern in generator.patterns(count)),
        len(names),
    )


CALLS = 3
"""Consecutive ``rows`` calls per check: each resumes the register
state the previous call left, as a streaming session does."""

COUNTS = (0, 1, 63, 65, 300)
"""Patterns per ``rows`` call - mostly off the 64-pattern word grid."""


class TestLaneGenerator:
    """``rows`` against serial clocking and the old word-jump path."""

    @pytest.mark.parametrize("degree", sorted(PRIMITIVE_TAPS))
    def test_every_degree_and_length(self, degree):
        seed = bank_seed(5, degree, degree)
        for count in COUNTS:
            serial = Lfsr(degree, seed=seed)
            generator = Lfsr(degree, seed=seed)
            old = Lfsr(degree, seed=seed)
            for _ in range(CALLS):
                expected = serial_rows(serial.patterns(degree, count), degree)
                assert generator.rows(count) == expected
                assert generator.state == serial.state
                assert reference_rows(old, count) == expected
                assert old.state == serial.state

    @pytest.mark.parametrize("width", [64, 65])
    def test_bank_matches_serial_and_reference(self, width):
        serial = LfsrBank(width, seed=11)
        generator = LfsrBank(width, seed=11)
        old = LfsrBank(width, seed=11)
        for count in COUNTS:
            expected = serial_rows(serial.patterns(count), width)
            assert generator.rows(count) == expected
            assert reference_bank_rows(old, count) == expected
        assert [m.state for m in generator.members] == [
            m.state for m in serial.members
        ]

    def test_weighted_rows_across_consecutive_calls(self):
        probabilities = {f"x{i}": (0.02, 0.5, 0.875, 0.25)[i % 4] for i in range(12)}
        serial = WeightedPatternGenerator(probabilities, seed=3, max_k=6)
        generator = WeightedPatternGenerator(probabilities, seed=3, max_k=6)
        assert len(generator.bank.members) >= 2
        for count in COUNTS:
            assert generator.rows(count) == weighted_rows(serial, count)
        assert [m.state for m in generator.bank.members] == [
            m.state for m in serial.bank.members
        ]

    def test_source_slices_match_materialised_and_serial(self):
        names = [f"i{k}" for k in range(40)]
        count = 1000
        source = LfsrSource(names, count, seed=9)
        whole = source.materialise()
        bank = LfsrBank(len(names), seed=9)
        serial = PatternSet.from_vectors(
            names, (dict(zip(names, bits)) for bits in bank.patterns(count))
        )
        assert dict(whole.env) == dict(serial.env)
        # A slice starting where the previous one stopped resumes that
        # generator; any other start jumps a fresh one.  Starts and
        # stops are mostly off word boundaries.
        for start, stop in ((3, 70), (70, 128), (128, 250), (263, 400), (5, 6),
                            (901, 1000), (130, 777), (0, 1000)):
            window = LfsrSource(names, count, seed=9) if start == 130 else source
            assert window.slice(start, stop) == whole.slice(start, stop)


class TestMisr:
    def test_signature_deterministic(self):
        m1, m2 = Misr(8), Misr(8)
        stream = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        assert m1.absorb_all(stream) == m2.absorb_all(stream)

    def test_signature_sensitive_to_single_bit(self):
        good = Misr(8)
        bad = Misr(8)
        good.absorb_all([[1, 0], [0, 1], [1, 1]])
        bad.absorb_all([[1, 0], [0, 0], [1, 1]])
        assert good.signature != bad.signature

    def test_width_guard(self):
        with pytest.raises(ValueError):
            Misr(8).absorb([1] * 9)

    def test_aliasing_probability(self):
        assert Misr(16).aliasing_probability() == pytest.approx(2.0 ** -16)


class TestBilbo:
    def test_normal_mode_loads(self):
        bilbo = Bilbo(4)
        assert bilbo.clock(parallel_in=[1, 0, 1, 0]) == [1, 0, 1, 0]

    def test_shift_mode(self):
        bilbo = Bilbo(4, seed=0)
        bilbo.set_mode(BilboMode.SHIFT)
        for bit in (1, 0, 1, 1):
            bilbo.clock(serial_in=bit)
        # First bit in ends up in the MSB after four shifts.
        assert bilbo.state == 0b1011

    def test_prpg_mode_cycles(self):
        bilbo = Bilbo(4)
        bilbo.set_mode(BilboMode.PRPG)
        seen = set()
        for _ in range(15):
            bilbo.clock()
            seen.add(bilbo.state)
        assert len(seen) == 15  # maximal length

    def test_misr_mode_compacts(self):
        bilbo = Bilbo(4)
        bilbo.set_mode(BilboMode.MISR)
        bilbo.clock(parallel_in=[1, 0, 0, 1])
        state_a = bilbo.state
        bilbo.clock(parallel_in=[0, 1, 1, 0])
        assert bilbo.state != state_a

    def test_mode_requirements(self):
        bilbo = Bilbo(4)
        with pytest.raises(ValueError):
            bilbo.clock()  # NORMAL needs data
        bilbo.set_mode(BilboMode.MISR)
        with pytest.raises(ValueError):
            bilbo.clock()

    def test_scan_out(self):
        bilbo = Bilbo(4, seed=0b1010)
        assert bilbo.scan_out() == [1, 0, 1, 0]


class TestWeightedGenerator:
    def test_dyadic_weights(self):
        assert closest_dyadic_weight(0.5) == (1, False, 0.5)
        k, inverted, realised = closest_dyadic_weight(0.9)
        assert inverted and realised == pytest.approx(0.875)
        k, inverted, realised = closest_dyadic_weight(0.1)
        assert not inverted and realised == pytest.approx(0.125)

    def test_empirical_frequencies(self):
        generator = WeightedPatternGenerator({"a": 0.75, "b": 0.125, "c": 0.5})
        empirical = generator.empirical_probabilities(4096)
        realised = generator.realised_probabilities()
        for name in empirical:
            assert empirical[name] == pytest.approx(realised[name], abs=0.03)

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            closest_dyadic_weight(0.0)

    def test_wide_generator_uses_multiple_banks(self):
        generator = WeightedPatternGenerator(
            {f"x{i}": 0.02 for i in range(10)}, max_k=6
        )
        assert len(generator.bank.members) >= 2
        empirical = generator.empirical_probabilities(8192)
        for name, frequency in empirical.items():
            assert frequency == pytest.approx(1 / 64, abs=0.01)


class TestSessions:
    def test_fault_free_signature_matches(self):
        network = domino_carry_chain(3)
        outcome = logic_selftest(network, None, cycles=128)
        assert not outcome.detected

    def test_detects_every_library_fault(self):
        network = domino_carry_chain(3)
        for fault in network.enumerate_faults():
            outcome = logic_selftest(network, fault, cycles=256)
            assert outcome.detected, fault.describe()

    def test_weighted_session(self):
        network = domino_carry_chain(3)
        fault = network.enumerate_faults()[0]
        outcome = logic_selftest(
            network, fault, cycles=256,
            probabilities={name: 0.7 for name in network.inputs},
        )
        assert outcome.detected

    def test_wide_network_session(self):
        # domino_carry_chain(20) has 41 inputs; the session used to
        # crash for anything past 32 because it drew every bit from one
        # fixed-degree register.
        network = domino_carry_chain(20)
        assert len(network.inputs) > 40
        clean = logic_selftest(network, None, cycles=128)
        assert not clean.detected
        fault = network.enumerate_faults()[0]
        outcome = logic_selftest(network, fault, cycles=256)
        assert outcome.detected

    def test_session_detects_with_partial_weights(self):
        # Missing names fall back to 0.5 rather than crashing.
        network = domino_carry_chain(3)
        fault = network.enumerate_faults()[0]
        outcome = logic_selftest(
            network, fault, cycles=256,
            probabilities={network.inputs[0]: 0.75},
        )
        assert outcome.detected

    def test_at_speed_catches_delay_fault(self):
        gate = DominoCmosGate(parse_expression("a*b"), precharge_resistance=4.0)
        fault = PhysicalFault(FaultKind.TRANSISTOR_CLOSED, switch="T1")
        at_speed = at_speed_gate_selftest(gate, fault, cycles=32)
        slow = at_speed_gate_selftest(gate, fault, cycles=32, period=48.0)
        assert at_speed.detected
        assert not slow.detected

    def test_at_speed_fault_free_clean(self):
        gate = DominoCmosGate(parse_expression("a*b"))
        outcome = at_speed_gate_selftest(gate, None, cycles=24)
        assert not outcome.detected
