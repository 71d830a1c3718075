"""Vector (numpy lane-row) engine mechanics.

Cross-engine bit-identity lives in the registry-driven harness
(``test_engine_equivalence.py``); this file covers what is specific to
the lane backend: the big-int <-> uint64-lane bridges, the compiled
stem pass on lane rows (scalar words from constant gates, output and
dead-end stems, partial last words) and the invariants that let one
pass serve both word forms (its word test, no writes through aliased
rows, a scratch reset after every pass), the per-fault ``difference`` API,
the stem groups the traced probe reports, and the lane pass inside a
genuine worker pool (``jobs > 1``).
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
    get_engine,
    sharded,
    vector_compile,
)
from repro.simulate import compiled as compiled_module
from repro.simulate.artifacts import ArtifactStore
from repro.simulate.compiled import GoodSimulation, compile_network
from repro.simulate.faultsim import collect_words
from repro.simulate.schedule import fault_site
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

    def test_mostly_inactive_batch_compression(self):
        """Faults that never activate in the window leave the stem pass
        after their fanout-free-region walk; results stay exact."""
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


def domino_network(name, gates, outputs, inputs=("a", "b", "c")):
    """A domino-CMOS network from ``(gate, cell, input nets, output net)``
    rows; ``cell`` is ``"and"``, ``"or"`` or a constant ``"0"``/``"1"``
    switching network over two pins."""
    factory = CellFactory("domino-CMOS")
    cells = {
        "and": factory.and_gate(2),
        "or": factory.or_gate(2),
        "0": factory.cell("const0", "0", ["i1", "i2"]),
        "1": factory.cell("const1", "1", ["i1", "i2"]),
    }
    network = Network(name)
    for net in inputs:
        network.add_input(net)
    for gate, cell, (first, second), output in gates:
        network.add_gate(gate, cells[cell], {"i1": first, "i2": second}, output)
    for net in outputs:
        network.mark_output(net)
    return network


def constant_cone():
    """A stem (``n1``) whose cone holds constant-0 and constant-1 gates."""
    return domino_network(
        "constant_cone",
        [
            ("g1", "and", ("a", "b"), "n1"),
            ("k0", "0", ("n1", "c"), "z0"),
            ("k1", "1", ("n1", "c"), "z1"),
            ("g2", "or", ("n1", "c"), "n2"),
            ("g3", "and", ("z1", "n2"), "y1"),
            ("g4", "or", ("z0", "n2"), "y2"),
        ],
        outputs=("y1", "y2", "z0"),
    )


def c17_network():
    return c17()


def carry_chain():
    return domino_carry_chain(4)


#: Builders of the networks the shared-pass invariants are checked on.
SHARED_PASS_NETWORKS = [constant_cone, c17_network, carry_chain]


class TestLanePath:
    """The compiled stem pass on lane rows, held to the compiled engine
    and the interpreted oracle fault by fault."""

    @staticmethod
    def assert_lanes_match(network, patterns):
        faults = all_faults(network)
        expected = reference_difference_words(network, patterns, faults)
        for engine in ("compiled", "vector"):
            words = get_engine(engine).difference_words(network, patterns, faults)
            assert words == expected, engine
        sim = vector_compile(network).simulate(patterns)
        assert sim.differences(faults) == expected
        results_identical(
            fault_simulate(network, patterns, faults, engine="vector"),
            fault_simulate(network, patterns, faults, engine="interpreted"),
        )
        return expected

    def test_constant_gates_inside_a_stem_cone(self):
        """Constant kernels return the scalar ``0`` and the mask row
        itself; both flow through the stem's cone and its outputs."""
        network = constant_cone()
        compiled = compile_network(network, cache="off")
        stem = compiled.slot_of_net["n1"]
        assert compiled.next_slot[stem] == -1 and not compiled._is_out_slot[stem]
        patterns = PatternSet.exhaustive(network.inputs)
        assert compiled.gates[compiled.gate_index["k0"]].fn(
            [None] * compiled.num_slots, patterns.mask
        ) == 0
        assert any(self.assert_lanes_match(network, patterns))

    def test_stuck_input_that_is_also_an_output(self):
        network = domino_network(
            "input_output",
            [("g1", "and", ("a", "b"), "n1"), ("g2", "or", ("a", "c"), "n2")],
            outputs=("n1", "n2", "a"),
        )
        patterns = PatternSet.exhaustive(network.inputs)
        expected = self.assert_lanes_match(network, patterns)
        faults = all_faults(network)
        for value in (0, 1):
            assert expected[faults.index(NetworkFault.stuck_at("a", value))]

    def test_output_stem(self):
        """An output that also feeds gates is a stem observed directly:
        its observability word is the mask."""
        network = domino_network(
            "output_stem",
            [
                ("g1", "and", ("a", "b"), "n1"),
                ("g2", "or", ("n1", "c"), "n2"),
                ("g3", "and", ("n1", "n2"), "n3"),
            ],
            outputs=("n1", "n3"),
        )
        compiled = compile_network(network, cache="off")
        stem = compiled.slot_of_net["n1"]
        assert compiled._is_out_slot[stem] and compiled.stem_of[stem] == stem
        self.assert_lanes_match(network, PatternSet.exhaustive(network.inputs))

    def test_stem_whose_cone_reaches_no_output(self):
        """A dead-end stem's observability is zero, so every fault of
        its region is undetected on every engine."""
        network = domino_network(
            "dead_end",
            [
                ("g1", "and", ("a", "b"), "n1"),
                ("g2", "or", ("n1", "c"), "d2"),
                ("g3", "and", ("n1", "c"), "d3"),
                ("g4", "or", ("a", "c"), "z"),
            ],
            outputs=("z",),
        )
        expected = self.assert_lanes_match(
            network, PatternSet.exhaustive(network.inputs)
        )
        compiled = compile_network(network)
        stem = compiled.slot_of_net["n1"]
        assert compiled.next_slot[stem] == -1
        assert compiled._stem_outputs[stem] == []  # its pass ran, no outputs
        for fault, word in zip(all_faults(network), expected):
            if fault.kind == "stuck" and fault.net in ("n1", "d2", "d3"):
                assert word == 0, fault.describe()

    @pytest.mark.parametrize("count", [1, 63, 65, 100, 130])
    def test_pattern_count_not_a_multiple_of_64(self, count):
        network = c17()
        patterns = PatternSet.random(network.inputs, count, seed=count)
        self.assert_lanes_match(network, patterns)

    def test_word_tests_of_both_word_forms(self):
        """``nonzero`` is ``bool`` on big-ints; on lane rows it also
        takes the scalar ``0`` a constant kernel returns."""
        assert GoodSimulation.nonzero is bool
        nonzero = VectorSimulation.nonzero
        assert not nonzero(0) and not nonzero(np.uint64(0))
        assert not nonzero(np.zeros(3, dtype=np.uint64))
        assert nonzero(np.array([0, 0, 1 << 63], dtype=np.uint64))

    @pytest.mark.parametrize("build", SHARED_PASS_NETWORKS, ids=lambda b: b.__name__)
    def test_pass_leaves_good_rows_and_scratch_as_it_found_them(self, build):
        """The pass combines words without in-place operators, so a word
        that is the very row of a good value or of the mask never
        changes it, and it resets every slot it wrote in its scratch."""
        network = build()
        patterns = PatternSet.random(network.inputs, 130, seed=3)
        faults = all_faults(network)
        sim = vector_compile(network, cache="off").simulate(patterns)
        good = [row.copy() for row in sim.values]
        mask = sim.mask.copy()
        assert any(sim.differences(faults))
        assert all(np.array_equal(a, b) for a, b in zip(sim.values, good))
        assert np.array_equal(sim.mask, mask)
        assert all(
            row is value for row, value in zip(sim._scratch, sim.values)
        )

    @pytest.mark.parametrize("build", SHARED_PASS_NETWORKS, ids=lambda b: b.__name__)
    def test_rows_do_not_depend_on_fault_order_or_earlier_passes(self, build):
        """One simulation serves many passes: rows are the oracle's
        whatever the fault order and however many passes ran before, on
        both word forms."""
        network = build()
        patterns = PatternSet.random(network.inputs, 100, seed=8)
        faults = all_faults(network)
        expected = reference_difference_words(network, patterns, faults)
        for sim in (
            compile_network(network).simulate(patterns.env, patterns.mask),
            vector_compile(network).simulate(patterns),
        ):
            assert sim.differences(faults) == expected
            assert sim.differences(faults[::-1]) == expected[::-1]
            assert sim.differences(faults) == expected

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


class TestProbeGroups:
    """``group_faults`` / ``plan_batches`` report the stem groups the
    pass runs: one plan per fanout-free-region stem."""

    @pytest.mark.parametrize(
        "network",
        [c17(), domino_carry_chain(4), random_network(n_inputs=6, n_gates=14, seed=11)],
        ids=lambda n: n.name,
    )
    def test_one_plan_per_stem_covering_every_fault_once(self, network):
        vector = vector_compile(network)
        compiled = vector.compiled
        faults = all_faults(network) + [NetworkFault.stuck_at("ghost", 1)]
        groups = vector.group_faults(list(enumerate(faults)))
        plans = vector.plan_batches(groups, cache="off")
        assert plans == [[group] for group in groups]
        stems = [stem for stem, _members in groups]
        assert len(set(stems)) == len(stems)
        covered = sorted(index for _stem, members in groups for index, _f in members)
        assert covered == list(range(len(faults) - 1))
        for stem, members in groups:
            for _index, fault in members:
                assert compiled.stem_of[fault_site(compiled, fault)] == stem
