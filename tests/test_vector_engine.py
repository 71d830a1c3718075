"""Vector (numpy lane-array) engine mechanics.

Cross-engine bit-identity lives in the registry-driven harness
(``test_engine_equivalence.py``); this file covers what is specific to
the lane backend: the big-int <-> uint64-lane bridges, the batched
cone pass (grouping, activation filtering, chunk boundaries), the
per-fault ``difference`` API, and the lane pass inside a genuine
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
    large_random_network,
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
from repro.simulate import compiled as compiled_module
from repro.simulate.artifacts import ArtifactStore
from repro.simulate.compiled import compile_network
from repro.simulate.faultsim import collect_words
from repro.simulate.vector import lane_pass, pack_words, unpack_words


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
        passes = lane_pass(network, faults)
        assert collect_words(
            patterns, passes, len(faults), window
        ) == reference_difference_words(network, patterns, faults)

    def test_chunk_boundaries_exact(self, monkeypatch):
        """Results must not depend on the cone chunking granularity.

        Every chunk read goes to ``VECTOR_CHUNK`` at call time, so this
        monkeypatch steers the fault passes."""
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
        """``VECTOR_CHUNK`` is read per call, not held as an import-time
        snapshot: patching the module constant changes the width the
        cone pass tiles with."""
        import repro.simulate.vector as vector_module

        seen = []
        original = vector_module._chunk_words

        def spy(n_words):
            width = original(n_words)
            seen.append(width)
            return width

        monkeypatch.setattr(vector_module, "_chunk_words", spy)
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        patterns = PatternSet.random(network.inputs, 500, seed=3)
        faults = all_faults(network)
        monkeypatch.setattr(vector_module, "VECTOR_CHUNK", 3)
        fault_simulate(network, patterns, faults, engine="vector")
        assert seen and set(seen) == {3}

    def test_chunk_width_clamped_to_the_window(self, monkeypatch):
        import repro.simulate.vector as vector_module

        for chunk in (1, 3, 77, 4096):
            monkeypatch.setattr(vector_module, "VECTOR_CHUNK", chunk)
            assert vector_module._chunk_words(1 << 20) == chunk
        monkeypatch.setattr(vector_module, "VECTOR_CHUNK", 1 << 30)
        assert vector_module._chunk_words(10) == 10
        assert vector_module._chunk_words(0) == 1

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


class TestConeKernels:
    """Cone kernels are cell factories bound once per network for each
    (gate, hot-pin mask), shared by single-site and coalesced cones."""

    @staticmethod
    def shared_reader():
        """Sites n1 and n2 whose cones meet at one reader gate, g3."""
        factory = CellFactory("domino-CMOS")
        network = Network("shared_reader")
        for name in ("a", "b", "c", "d"):
            network.add_input(name)
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "c", "i2": "d"}, "n2")
        network.add_gate("g3", factory.and_gate(2), {"i1": "n1", "i2": "n2"}, "n3")
        network.add_gate("g4", factory.or_gate(2), {"i1": "n3", "i2": "a"}, "z")
        network.mark_output("z")
        return network

    def test_two_site_cone_rows_match_oracle_in_either_build_order(self):
        network = self.shared_reader()
        patterns = PatternSet.exhaustive(network.inputs)
        faults = all_faults(network)
        expected = reference_difference_words(network, patterns, faults)
        plans = []
        for single_first in (False, True):
            compiled = compile_network(network, cache="off")
            vector = VectorNetwork(compiled)
            n1, n2 = compiled.slot_of_net["n1"], compiled.slot_of_net["n2"]
            groups = [
                group for group in vector.group_faults(list(enumerate(faults)))
                if group[0] in (n1, n2)
            ]
            values, mask_row, count = vector.good_rows(patterns)

            def check(passed, members):
                live, rows = passed
                words = [] if rows is None else [unpack_words(row, count) for row in rows]
                assert words == [expected[index] for index in live]
                for index, _fault in members:
                    if index not in live:
                        assert expected[index] == 0

            singles = [group for group in groups if group[0] == n1]
            for step in ("single", "merged") if single_first else ("merged", "single"):
                if step == "merged":
                    members = [member for group in groups for member in group[2]]
                    check(vector.merged_difference_rows(values, mask_row, groups), members)
                else:
                    for group in singles:
                        check(vector.group_difference_rows(values, mask_row, group), group[2])
            merged_pairs = vector._merged_cone((n1, n2))[0]
            single_pairs = vector._merged_cone((n1,))[0]
            plans.append((
                [kernel.__code__ for kernel, _out in merged_pairs],
                [kernel.__code__ for kernel, _out in single_pairs],
            ))
        # g3 reads one hot pin in n1's cone and two in the union cone:
        # two bindings, whichever cone was built first.
        assert plans[0] == plans[1]

    def test_second_netlist_of_the_same_cells_compiles_no_code(self):
        store = ArtifactStore()
        for n_gates, seed in ((400, 3), (2000, 4)):
            network = large_random_network(n_gates, n_inputs=32, seed=seed)
            patterns = PatternSet.random(network.inputs, 256, seed=1)
            faults = network.enumerate_faults()
            compile_network(network, cache=store)
            before = len(compiled_module._CODE_CACHE)
            fault_simulate(
                network, patterns, faults, engine="vector", collapse="on",
                cache=store,
            )
            added = len(compiled_module._CODE_CACHE) - before
        assert added == 0
