"""Vector (numpy lane-array) engine mechanics.

Cross-engine bit-identity lives in the registry-driven harness
(``test_engine_equivalence.py``); this file covers what is specific to
the lane backend: the big-int <-> uint64-lane bridges, the batched
cone pass (grouping, activation filtering, chunk boundaries), the
per-fault ``difference`` API, and the lane kernel inside a genuine
worker pool (``jobs > 1``).
"""

import numpy as np
import pytest

from engine_test_utils import all_faults, results_identical
from words_reference import reference_difference_words

from repro.circuits.generators import (
    and_cone,
    c17,
    domino_carry_chain,
    random_network,
)
from repro.netlist import CellFactory, Network, NetworkFault
from repro.simulate import (
    PatternSet,
    VectorNetwork,
    VectorSimulation,
    fault_simulate,
    sharded,
    vector_compile,
)
from repro.simulate.compiled import compile_network
from repro.simulate.faultsim import collect_words
from repro.simulate.logicsim import pack_words, unpack_words
from repro.simulate.vector import lane_words_kernel


class TestWordBridges:
    def test_pack_unpack_roundtrip(self):
        for count in (0, 1, 63, 64, 65, 130, 1000):
            bits = (0x9E3779B97F4A7C15 * (count + 1)) & ((1 << count) - 1)
            words = pack_words(bits, count)
            assert words.dtype == np.uint64
            assert words.shape == ((count + 63) // 64,)
            assert unpack_words(words, count) == bits

    def test_pack_masks_excess_bits(self):
        words = pack_words((1 << 100) - 1, 10)
        assert unpack_words(words, 10) == (1 << 10) - 1

    def test_to_words_layout(self):
        patterns = PatternSet.random(("a", "b", "c"), 131, seed=3)
        words = patterns.to_words()
        assert words.shape == (3, 3)
        for row, name in enumerate(patterns.names):
            for index in range(patterns.count):
                lane = int(words[row, index // 64])
                assert (lane >> (index % 64)) & 1 == (
                    patterns.env[name] >> index
                ) & 1

    def test_from_words_roundtrip(self):
        patterns = PatternSet.random(("a", "b"), 200, seed=5, probabilities={"b": 0.1})
        rebuilt = PatternSet.from_words(
            patterns.names, patterns.to_words(), patterns.count
        )
        assert rebuilt.names == patterns.names
        assert rebuilt.env == patterns.env
        assert rebuilt.count == patterns.count

    def test_from_words_rejects_bad_shape(self):
        patterns = PatternSet.random(("a", "b"), 100, seed=6)
        with pytest.raises(ValueError, match="shape"):
            PatternSet.from_words(("a",), patterns.to_words(), 100)
        with pytest.raises(ValueError, match="shape"):
            PatternSet.from_words(("a", "b"), patterns.to_words(), 300)

    def test_empty_set_bridges(self):
        empty = PatternSet(("a",), {"a": 0}, 0)
        words = empty.to_words()
        assert words.shape == (1, 0)
        rebuilt = PatternSet.from_words(("a",), words, 0)
        assert rebuilt.count == 0 and rebuilt.env == {"a": 0}

    def test_pack_masks_excess_bits_at_zero_count(self):
        """Regression: nonzero payload bits with count == 0 must mask to
        the empty word array, not overflow ``int.to_bytes``."""
        words = pack_words(5, 0)
        assert words.shape == (0,)
        assert unpack_words(words, 0) == 0


class TestVectorSimulation:
    def test_simulate_values_match_interpreted(self):
        network = c17()
        patterns = PatternSet.random(network.inputs, 200, seed=4)
        sim = vector_compile(network).simulate(patterns)
        assert isinstance(sim, VectorSimulation)
        assert sim.as_dict() == network.evaluate_bits(patterns.env, patterns.mask)
        for net in network.outputs:
            assert sim.value_of(net) == sim.as_dict()[net]

    def test_difference_matches_compiled_per_fault(self):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 150, seed=7)
        compiled_sim = compile_network(network).simulate(patterns.env, patterns.mask)
        vector_sim = vector_compile(network).simulate(patterns)
        for fault in all_faults(network):
            assert vector_sim.difference(fault) == compiled_sim.difference(
                fault
            ), fault.describe()

    def test_ghost_faults_are_zero_difference(self):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        sim = vector_compile(network).simulate(patterns)
        assert sim.difference(NetworkFault.stuck_at("ghost", 1)) == 0
        template = network.enumerate_faults()[0]
        orphan = NetworkFault.cell_fault(
            "no_such_gate", template.class_index, template.function
        )
        assert sim.difference(orphan) == 0

    def test_stuck_input_that_is_also_output(self):
        factory = CellFactory("domino-CMOS")
        network = Network("passthrough")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g", factory.and_gate(2), {"i1": "a", "i2": "b"}, "z")
        network.mark_output("z")
        network.mark_output("a")
        patterns = PatternSet.exhaustive(network.inputs)
        compiled_sim = compile_network(network).simulate(patterns.env, patterns.mask)
        vector_sim = vector_compile(network).simulate(patterns)
        for fault in [NetworkFault.stuck_at("a", 0), NetworkFault.stuck_at("a", 1)]:
            assert vector_sim.difference(fault) == compiled_sim.difference(fault)

    def test_vector_network_reuses_compiled_program(self):
        network = c17()
        vector = vector_compile(network)
        assert isinstance(vector, VectorNetwork)
        assert vector.compiled is compile_network(network)


class TestBatchedWindows:
    @pytest.mark.parametrize("window", [1, 7, 64, 333])
    def test_difference_words_windowed_exact(self, window):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 150, seed=17)
        faults = all_faults(network)
        words = lane_words_kernel(network, faults)
        assert collect_words(
            patterns, words, range(len(faults)), window
        ) == reference_difference_words(network, patterns, faults)

    def test_chunk_boundaries_exact(self, monkeypatch):
        """Results must not depend on the cone chunking granularity.

        Regression for the import-time-constant assumption: every chunk
        read routes through the execution plan, whose *default* plan
        reads ``VECTOR_CHUNK`` at call time - so this monkeypatch must
        keep steering the fault passes."""
        import repro.simulate.vector as vector_module

        network = random_network(n_inputs=6, n_gates=14, seed=11)
        patterns = PatternSet.random(network.inputs, 500, seed=3)
        faults = all_faults(network)
        reference = fault_simulate(network, patterns, faults, engine="compiled")
        for chunk in (1, 2, 3, 1536):
            monkeypatch.setattr(vector_module, "VECTOR_CHUNK", chunk)
            results_identical(
                fault_simulate(network, patterns, faults, engine="vector"),
                reference,
            )

    def test_monkeypatched_chunk_actually_reaches_the_cone_loop(self, monkeypatch):
        """The default plan must read VECTOR_CHUNK per call, not hold an
        import-time snapshot: patching the module constant changes the
        width the cone pass tiles with."""
        import repro.simulate.vector as vector_module
        from repro.simulate.tuning import resolve_plan

        seen = []
        default_plan = resolve_plan("default")
        original = type(default_plan).chunk_words

        def spy(self, cone_gates, batch, n_words):
            width = original(self, cone_gates, batch, n_words)
            seen.append(width)
            return width

        monkeypatch.setattr(type(default_plan), "chunk_words", spy)
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        patterns = PatternSet.random(network.inputs, 500, seed=3)
        faults = all_faults(network)
        monkeypatch.setattr(vector_module, "VECTOR_CHUNK", 3)
        fault_simulate(network, patterns, faults, engine="vector")
        assert seen and set(seen) == {3}

    def test_tuned_plan_gives_per_cone_chunk_widths(self):
        """What the global constant could never express: one run tiles a
        deep spine cone narrower than a shallow island - and stays
        bit-identical while doing it."""
        from repro.circuits.generators import skewed_cone_network
        from repro.simulate import TuningProfile
        from repro.simulate.tuning import TunedPlan

        profile = TuningProfile(
            name="per-cone", word_ns=1.0, call_ns=1.0, block_ns=1.0,
            cache_words=512,
        )
        plan = TunedPlan(profile)
        widths = []
        original = TunedPlan.chunk_words

        class Spy(TunedPlan):
            def chunk_words(self, cone_gates, batch, n_words):
                width = original(self, cone_gates, batch, n_words)
                widths.append((cone_gates, width))
                return width

        network = skewed_cone_network(depth=12, islands=4)
        patterns = PatternSet.random(network.inputs, 3000, seed=13)
        faults = all_faults(network)
        reference = fault_simulate(network, patterns, faults, engine="compiled")
        results_identical(
            fault_simulate(
                network, patterns, faults, engine="vector", tune=Spy(profile)
            ),
            reference,
        )
        assert len({width for _cone, width in widths}) > 1
        deepest = max(cone for cone, _width in widths)
        shallowest = min(cone for cone, _width in widths)
        assert max(w for c, w in widths if c == deepest) <= min(
            w for c, w in widths if c == shallowest
        )
        # The same plan resolves through the registry path too.
        results_identical(
            fault_simulate(network, patterns, faults, engine="vector", tune=plan),
            reference,
        )

    def test_mostly_inactive_batch_compression(self):
        """A batch whose faults mostly never activate in the window is
        compressed to its active rows; results stay exact."""
        network = and_cone(4)
        # Constant-0 inputs: s-a-0 faults never activate, s-a-1 do.
        vectors = [{net: 0 for net in network.inputs}] * 70
        patterns = PatternSet.from_vectors(network.inputs, vectors)
        faults = [
            NetworkFault.stuck_at(net, value)
            for net in network.inputs
            for value in (0, 1)
        ]
        results_identical(
            fault_simulate(network, patterns, faults, engine="vector"),
            fault_simulate(network, patterns, faults, engine="compiled"),
        )

    def test_stop_at_first_detection_windows(self):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 700, seed=21)
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network, patterns, faults, stop_at_first_detection=True,
                engine="vector",
            ),
            fault_simulate(
                network, patterns, faults, stop_at_first_detection=True,
                engine="compiled",
            ),
        )


class TestPooledVector:
    def test_pooled_vector_identical(self, monkeypatch):
        """shards x lanes through a genuine worker pool (MIN_POOL_WORK = 0
        forces it) must stay bit-identical to the compiled engine."""
        monkeypatch.setattr(sharded, "MIN_POOL_WORK", 0)
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 220, seed=5)
        faults = all_faults(network)
        reference = fault_simulate(network, patterns, faults, engine="compiled")
        for jobs in (1, 2, 3):
            pooled = fault_simulate(
                network, patterns, faults, engine="vector", jobs=jobs
            )
            results_identical(pooled, reference)

    def test_vector_jobs_composes(self):
        network = domino_carry_chain(3)
        patterns = PatternSet.random(network.inputs, 128, seed=9)
        faults = all_faults(network)
        results_identical(
            fault_simulate(network, patterns, faults, engine="vector", jobs=2),
            fault_simulate(network, patterns, faults, engine="compiled"),
        )
