"""Compiled engine internals - the slot program's own mechanics.

Cross-engine bit-identity (fault simulation results, difference words,
net valuations, first-detection indices) is held by the registry-driven
differential harness in ``test_engine_equivalence.py``; this file keeps
what is specific to the compiled backend: faulty all-net valuations,
stuck-at edge cases of the cone pass, the fanout-free-region corner
cases of the stem-observability pass, off-library fault tables, the
compile/minimal-SOP caches, and the pattern-set fast paths.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import bench_text
from repro.circuits.generators import (
    and_cone,
    c17,
    domino_carry_chain,
    large_random_network,
    random_network,
)
from repro.faults.structural import collapse_network_faults
from repro.netlist import CellFactory, Network, NetworkFault, parse_bench
from repro.simulate import (
    ArtifactStore,
    PatternSet,
    available_engines,
    compile_network,
    fault_simulate,
    get_engine,
)
from repro.simulate import compiled as compiled_module
from repro.simulate.compiled import minimal_sop_cached
from repro.simulate.schedule import cone_gates
from words_reference import reference_difference_words


def all_faults(network):
    return network.enumerate_faults(include_cell_classes=True, include_stuck_at=True)


def interpreted_difference(network, patterns, fault):
    good = network.output_bits(patterns.env, patterns.mask)
    faulty = network.output_bits(patterns.env, patterns.mask, fault)
    difference = 0
    for net in network.outputs:
        difference |= good[net] ^ faulty[net]
    return difference


class TestFaultyValuations:
    """``evaluate_bits(..., fault)`` has no registry equivalent (the
    harness checks output differences); hold the all-net faulty
    valuation to the oracle here."""

    @pytest.mark.parametrize(
        "network",
        [
            domino_carry_chain(4),
            c17(),
            random_network(n_inputs=5, n_gates=10, technology="static-CMOS", seed=37),
        ],
        ids=lambda n: n.name,
    )
    def test_faulty_values_identical_on_every_net(self, network):
        patterns = PatternSet.random(network.inputs, 48, seed=6)
        compiled = compile_network(network)
        for fault in all_faults(network):
            interpreted = network.evaluate_bits(patterns.env, patterns.mask, fault)
            assert (
                compiled.evaluate_bits(patterns.env, patterns.mask, fault)
                == interpreted
            ), fault.describe()


class TestStuckAtEdgeCases:
    def test_stuck_input_that_is_also_output(self):
        factory = CellFactory("domino-CMOS")
        network = Network("passthrough")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g", factory.and_gate(2), {"i1": "a", "i2": "b"}, "z")
        network.mark_output("z")
        network.mark_output("a")  # a primary input observed directly
        patterns = PatternSet.exhaustive(network.inputs)
        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        for fault in [NetworkFault.stuck_at("a", 0), NetworkFault.stuck_at("a", 1)]:
            assert sim.difference(fault) == interpreted_difference(
                network, patterns, fault
            )

    def test_stuck_on_unknown_net_is_a_no_op(self):
        network = domino_carry_chain(2)
        patterns = PatternSet.exhaustive(network.inputs)
        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        fault = NetworkFault.stuck_at("ghost", 1)
        assert sim.difference(fault) == 0
        assert interpreted_difference(network, patterns, fault) == 0

    def test_stuck_matching_good_value_is_undetected(self):
        network = and_cone(3)
        # Single pattern driving the cone output to 0; s0 on it changes nothing.
        vector = {net: 0 for net in network.inputs}
        patterns = PatternSet.from_vectors(network.inputs, [vector])
        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        assert sim.difference(NetworkFault.stuck_at("w", 0)) == 0


def assert_words_match_oracle(network, patterns=None, faults=None):
    """Every fault's stem-observability word equals the oracle's full
    faulty re-simulation, batched and one fault at a time; so does
    every registered engine's ``difference_words`` (the vector engine's
    hot-pin cone kernels included)."""
    if patterns is None:
        patterns = PatternSet.exhaustive(network.inputs)
    if faults is None:
        faults = all_faults(network)
    assert_stem_cones_match_bfs(compile_network(network, cache="off"))
    sim = compile_network(network).simulate(patterns.env, patterns.mask)
    expected = reference_difference_words(network, patterns, faults)
    assert sim.differences(faults) == expected
    assert [sim.difference(fault) for fault in faults] == expected
    for engine in available_engines():
        words = get_engine(engine).difference_words(network, patterns, faults)
        assert words == expected, engine


def assert_stem_cones_match_bfs(compiled):
    """Every non-output stem's cone list is its BFS fanout cone, in
    levelized order; no other slot keeps a list."""
    cones = compiled.stem_cones()
    for index in range(compiled.num_slots):
        if compiled.next_slot[index] < 0 and not compiled._is_out_slot[index]:
            assert list(cones[index]) == sorted(cone_gates(compiled, index)), index
        else:
            assert cones[index] is None, index


def slot(compiled, net):
    return compiled.slot_of_net[net]


class TestFanoutFreeRegions:
    """Corner cases of the fanout-free-region metadata and of the
    local-difference walk to each region's stem."""

    def test_output_in_the_middle_of_a_chain_is_a_stem(self):
        factory = CellFactory("domino-CMOS")
        network = Network("chain_tap")
        for name in ("a", "b", "c", "d"):
            network.add_input(name)
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "c"}, "n2")
        network.add_gate("g3", factory.and_gate(2), {"i1": "n2", "i2": "d"}, "z")
        network.mark_output("n2")
        network.mark_output("z")
        compiled = compile_network(network)
        assert compiled.next_slot[slot(compiled, "n1")] == slot(compiled, "n2")
        assert compiled.next_slot[slot(compiled, "n2")] == -1
        assert compiled.stem_of[slot(compiled, "n1")] == slot(compiled, "n2")
        assert_words_match_oracle(network)

    def test_gate_reading_one_net_on_two_pins(self):
        factory = CellFactory("domino-CMOS")
        network = Network("double_pin")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.or_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate(
            "g2", factory.and_or(2, 2),
            {"i1": "n1", "i2": "a", "i3": "n1", "i4": "b"}, "z",
        )
        network.mark_output("z")
        compiled = compile_network(network)
        # One distinct reader gate: n1 is not a stem.
        assert compiled.next_slot[slot(compiled, "n1")] == slot(compiled, "z")
        assert_words_match_oracle(network)

    def test_dangling_net_is_unobservable(self):
        factory = CellFactory("domino-CMOS")
        network = Network("dangling")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "z")
        network.add_gate("g2", factory.or_gate(2), {"i1": "a", "i2": "b"}, "d")
        network.mark_output("z")
        compiled = compile_network(network)
        assert compiled.next_slot[slot(compiled, "d")] == -1
        patterns = PatternSet.exhaustive(network.inputs)
        sim = compiled.simulate(patterns.env, patterns.mask)
        dead = [NetworkFault.stuck_at("d", 0), NetworkFault.stuck_at("d", 1)]
        dead += [f for f in all_faults(network) if f.kind != "stuck" and f.gate == "g2"]
        assert sim.differences(dead) == [0] * len(dead)
        assert_words_match_oracle(network)

    def test_stuck_at_on_fanning_out_input(self):
        factory = CellFactory("domino-CMOS")
        network = Network("input_fanout")
        for name in ("a", "b", "c"):
            network.add_input(name)
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "a", "i2": "c"}, "n2")
        network.add_gate("g3", factory.and_gate(2), {"i1": "n1", "i2": "n2"}, "z")
        network.mark_output("z")
        compiled = compile_network(network)
        assert compiled.next_slot[slot(compiled, "a")] == -1
        assert_words_match_oracle(network)

    def test_stuck_at_on_output_that_feeds_gates(self):
        factory = CellFactory("domino-CMOS")
        network = Network("output_fanout")
        for name in ("a", "b", "c"):
            network.add_input(name)
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "c"}, "z")
        network.mark_output("n1")
        network.mark_output("z")
        compiled = compile_network(network)
        assert compiled.stem_of[slot(compiled, "n1")] == slot(compiled, "n1")
        assert_words_match_oracle(network)

    def test_stuck_at_gate_output_shadows_its_driver(self):
        factory = CellFactory("domino-CMOS")
        network = Network("shadow")
        for name in ("a", "b", "c"):
            network.add_input(name)
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "c"}, "z")
        network.mark_output("z")
        # The walk starts at the forced slot n1 and never re-evaluates
        # its driver g1; the batch mixes the stuck-ats with g1's faults.
        assert_words_match_oracle(network)

    def test_local_difference_dies_before_the_stem(self):
        factory = CellFactory("domino-CMOS")
        network = Network("masked")
        for name in ("a", "b", "c", "d"):
            network.add_input(name)
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.and_gate(2), {"i1": "n1", "i2": "c"}, "n2")
        network.add_gate("g3", factory.or_gate(2), {"i1": "n2", "i2": "d"}, "z")
        network.mark_output("z")
        # c = 0 on every pattern: n1's difference dies at g2, two gates
        # short of the stem z.
        vectors = [
            {"a": a, "b": b, "c": 0, "d": d}
            for a in (0, 1) for b in (0, 1) for d in (0, 1)
        ]
        patterns = PatternSet.from_vectors(network.inputs, vectors)
        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        fault = NetworkFault.stuck_at("n1", 1)
        assert sim.difference(fault) == 0
        assert_words_match_oracle(network, patterns=patterns)
        assert_words_match_oracle(network)

    def test_every_net_a_stem(self):
        factory = CellFactory("domino-CMOS")
        network = Network("all_stems")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "a", "i2": "b"}, "n2")
        network.add_gate("g3", factory.and_gate(2), {"i1": "n1", "i2": "n2"}, "z")
        for net in ("n1", "n2", "z"):
            network.mark_output(net)
        compiled = compile_network(network)
        assert compiled.next_slot == [-1] * compiled.num_slots
        assert compiled.stem_of == list(range(compiled.num_slots))
        assert_words_match_oracle(network)


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=40),
)
def test_batched_differences_match_single_fault_calls(seed, picks):
    """Batching is invisible: any order, duplicates included, gives the
    words of one-fault calls - and those match the oracle."""
    network = random_network(n_inputs=5, n_gates=10, seed=seed)
    faults = all_faults(network)
    batch = [faults[pick % len(faults)] for pick in picks]
    patterns = PatternSet.random(network.inputs, 96, seed=seed)
    sim = compile_network(network).simulate(patterns.env, patterns.mask)
    words = sim.differences(batch)
    assert words == [sim.differences([fault])[0] for fault in batch]
    assert words == reference_difference_words(network, patterns, batch)


class TestStemCones:
    """The per-stem levelized cone lists the observability passes walk."""

    @settings(max_examples=25)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_gates=st.integers(min_value=1, max_value=40))
    def test_lists_match_bfs_on_random_circuits(self, seed, n_gates):
        network = random_network(n_inputs=5, n_gates=n_gates, seed=seed)
        assert_stem_cones_match_bfs(compile_network(network, cache="off"))

    def test_lists_match_bfs_at_scale(self):
        network = parse_bench(bench_text(2000), name="stem_cones")
        assert_stem_cones_match_bfs(compile_network(network, cache="off"))

    def test_built_lazily_and_reused_across_runs(self):
        network = parse_bench(bench_text(400), name="lazy_cones")
        store = ArtifactStore()
        compiled = compile_network(network, cache=store)
        assert compiled._stem_cones is None
        patterns = PatternSet.random(network.inputs, 256, seed=2)
        first = fault_simulate(network, patterns, engine="compiled", cache=store)
        cones = compiled._stem_cones
        assert cones is not None
        lists = [cone for cone in cones if cone is not None]
        again = fault_simulate(network, patterns, engine="compiled", cache=store)
        assert compile_network(network, cache=store) is compiled
        assert compiled._stem_cones is cones
        assert all(a is b for a, b in zip(
            lists, [cone for cone in cones if cone is not None]))
        assert again.detected == first.detected


class TestFaultyWord:
    """``faulty_word`` is the gate's output under the fault, given the
    good input words - exactly what the oracle's faulty valuation has
    on that net."""

    @staticmethod
    def assert_matches_oracle(network, faults):
        patterns = PatternSet.random(network.inputs, 64, seed=9)
        compiled = compile_network(network)
        good = compiled.simulate(patterns.env, patterns.mask).values
        for fault in faults:
            net = network.gates[fault.gate].output
            expected = network.evaluate_bits(patterns.env, patterns.mask, fault)[net]
            assert compiled.faulty_word(fault, good, patterns.mask) == expected, (
                fault.describe()
            )

    @pytest.mark.parametrize(
        "network",
        [domino_carry_chain(3), c17(),
         random_network(n_inputs=5, n_gates=10, technology="static-CMOS", seed=37)],
        ids=lambda n: n.name,
    )
    def test_library_cell_faults(self, network):
        self.assert_matches_oracle(
            network, [fault for fault in all_faults(network) if fault.kind != "stuck"]
        )

    def test_off_library_faults(self):
        from repro.cells.library import LibraryFunction
        from repro.logic.parser import parse_expression
        from repro.logic.truthtable import TruthTable

        network = TestOffLibraryFaults.arity_mix()
        faults = []
        for names, text in ((("i2",), "i2"), (("i3", "i1"), "i3 + i1")):
            table = TruthTable.from_expr(parse_expression(text), names)
            function = LibraryFunction(name=text, table=table, sop=text)
            faults += [NetworkFault.cell_fault("g3", 99, function)]
            if "i3" not in names:
                faults += [NetworkFault.cell_fault("g2", 99, function)]
        for fault in faults:
            assert fault.function.table.names != tuple(
                network.gates[fault.gate].cell.inputs
            )
        self.assert_matches_oracle(network, faults)


def test_cold_fault_simulation_leaves_few_live_objects():
    """A cold run allocates no long-lived object per fault: with the GC
    as the caller left it, the tracked-object count grows by less than a
    quarter of the fault count."""
    network = parse_bench(bench_text(2000), name="gc_growth")
    faults = network.enumerate_faults()
    store = ArtifactStore()
    compile_network(network, cache=store)
    collapse_network_faults(network, faults, cache=store)
    patterns = PatternSet.random(network.inputs, 1024, seed=1)
    before = len(gc.get_objects())
    fault_simulate(network, patterns, faults, engine="compiled",
                   collapse="on", cache=store)
    assert len(gc.get_objects()) - before < len(faults) / 4


#: Long-lived GC-tracked objects a cold set-up may leave per fault: the
#: fault itself, and per gate (a quarter of the faults or fewer) its
#: ``GateInstance``, ``CompiledGate`` and bound gate function.  Reader
#: lists and collapse classes are flat int lists, not one list each.
SETUP_TRACKED_PER_FAULT = 2


def test_cold_set_up_leaves_few_tracked_objects():
    """Parse, enumerate, compile and collapse a 2k-gate netlist: after a
    collection (tuples of atoms the collector stops tracking do not
    count) the tracked objects grow by less than
    ``SETUP_TRACKED_PER_FAULT`` per fault."""
    text = bench_text(2000)
    gc.collect()
    before = len(gc.get_objects())
    network = parse_bench(text, name="gc_setup")
    faults = network.enumerate_faults()
    store = ArtifactStore()
    compile_network(network, cache=store)
    collapse_network_faults(network, faults, cache=store)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown < SETUP_TRACKED_PER_FAULT * len(faults), (grown, len(faults))


class TestOffLibraryFaults:
    @staticmethod
    def arity_mix():
        factory = CellFactory("domino-CMOS")
        network = Network("arity_mix")
        for name in ("a", "b", "c"):
            network.add_input(name)
        network.add_gate("g2", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate(
            "g3", factory.and_gate(3), {"i1": "n1", "i2": "b", "i3": "c"}, "z"
        )
        network.mark_output("z")
        return network

    def test_shared_table_across_cells_of_different_arity(self):
        """An off-library fault table (names != cell.inputs) must work on
        gates of different arity despite the shared pin-function cache."""
        from repro.cells.library import LibraryFunction
        from repro.logic.parser import parse_expression
        from repro.logic.truthtable import TruthTable

        table = TruthTable.from_expr(parse_expression("i2"), ("i2",))
        function = LibraryFunction(name="pass_i2", table=table, sop="i2")
        network = self.arity_mix()
        patterns = PatternSet.exhaustive(network.inputs)
        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        for gate_name in ("g2", "g3"):
            fault = NetworkFault.cell_fault(gate_name, 99, function)
            assert sim.difference(fault) == interpreted_difference(
                network, patterns, fault
            ), gate_name


class TestCompileCache:
    def test_cache_hit_and_invalidation_on_mutation(self):
        factory = CellFactory("domino-CMOS")
        network = Network("grow")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.mark_output("n1")
        first = compile_network(network)
        assert compile_network(network) is first
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "b"}, "z")
        network.mark_output("z")
        second = compile_network(network)
        assert second is not first
        patterns = PatternSet.exhaustive(network.inputs)
        assert second.output_bits(patterns.env, patterns.mask) == network.output_bits(
            patterns.env, patterns.mask
        )

    def test_minimal_sop_cache_returns_equivalent_expr(self):
        network = domino_carry_chain(2)
        for fault in network.enumerate_faults():
            expr = minimal_sop_cached(fault.function.table)
            again = minimal_sop_cached(fault.function.table)
            assert again is expr  # memoised

    def test_compiled_networks_are_garbage_collected(self):
        """The compile cache must not pin networks for the process life."""
        import gc
        import weakref

        refs = []
        for seed in range(3):
            network = random_network(n_inputs=4, n_gates=5, seed=seed + 1000)
            compile_network(network)
            refs.append(weakref.ref(network))
        del network  # the loop variable pins the last one
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_reenumerated_faults_compile_nothing_and_cache_nothing(self):
        """Freshly enumerated fault lists reuse the shared pin-level
        faulty functions: no new code, and nothing stored per fault on
        the compilation or in the pin-function memo."""
        network = c17()
        patterns = PatternSet.random(network.inputs, 32, seed=4)
        compiled = compile_network(network)
        sim = compiled.simulate(patterns.env, patterns.mask)
        sim.differences(network.enumerate_faults())

        def sizes():
            held = {name: len(value) for name, value in vars(compiled).items()
                    if isinstance(value, (dict, list))}
            return (len(compiled_module._CODE_CACHE),
                    len(compiled_module._FAULT_PIN_FNS), held)

        before = sizes()
        for _ in range(2):
            for fault in network.enumerate_faults():
                sim.difference(fault)
        assert sizes() == before

    def test_second_netlist_of_the_same_cells_compiles_no_code(self):
        """Every gate binds its slots into a per-(cell expression, pins)
        factory, so a netlist compiles at most one code object per cell
        and a second netlist of the same cells compiles none."""
        added = []
        for n_gates, seed in ((400, 5), (2000, 6)):
            network = large_random_network(n_gates, n_inputs=32, seed=seed)
            before = len(compiled_module._CODE_CACHE)
            compiled = compile_network(network, cache="off")
            added.append(len(compiled_module._CODE_CACHE) - before)
        assert added[0] <= len({id(gate.cell) for gate in network.gates.values()})
        assert added[1] == 0
        patterns = PatternSet.random(network.inputs, 64, seed=6)
        assert compiled.output_bits(patterns.env, patterns.mask) == (
            network.output_bits(patterns.env, patterns.mask)
        )

    def test_scratch_state_restored_between_faults(self):
        network = domino_carry_chain(3)
        patterns = PatternSet.random(network.inputs, 64, seed=3)
        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        faults = all_faults(network)
        once = [sim.difference(f) for f in faults]
        # Re-running in any order must give the same words (scratch clean).
        twice = [sim.difference(f) for f in reversed(faults)]
        assert once == list(reversed(twice))


class TestPatternSetFastPaths:
    def test_exhaustive_closed_form_matches_binary_counting(self):
        for n in range(1, 7):
            names = tuple(f"x{k}" for k in range(n))
            patterns = PatternSet.exhaustive(names)
            for index in range(patterns.count):
                expected = {
                    name: (index >> (n - 1 - position)) & 1
                    for position, name in enumerate(names)
                }
                assert patterns.vector(index) == expected

    def test_weighted_random_reproducible_and_extreme_probs(self):
        p1 = PatternSet.random(("a", "b"), 512, seed=9, probabilities={"a": 0.25})
        p2 = PatternSet.random(("a", "b"), 512, seed=9, probabilities={"a": 0.25})
        assert p1.env == p2.env
        degenerate = PatternSet.random(
            ("a", "b"), 100, seed=1, probabilities={"a": 0.0, "b": 1.0}
        )
        assert degenerate.env["a"] == 0
        assert degenerate.env["b"] == (1 << 100) - 1

    def test_random_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            PatternSet.random(("a",), 8, probabilities={"a": 1.5})


class TestFanoutIndex:
    def test_index_matches_scan_and_invalidates(self):
        factory = CellFactory("domino-CMOS")
        network = Network("fan")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "a"}, "z")
        network.mark_output("z")
        assert sorted(network.fanout_of("a")) == [("g1", "i1"), ("g2", "i2")]
        assert network.fanout_of("n1") == [("g2", "i1")]
        assert network.fanout_of("z") == []
        network.add_gate("g3", factory.buffer(), {"i1": "n1"}, "z2")
        assert sorted(network.fanout_of("n1")) == [("g2", "i1"), ("g3", "i1")]


def test_parity_inputs_render_as_xor():
    """Parity inputs peel off as ``x ^ ...``: ``xor2`` is one big-int
    operation, an XNOR adds ``m`` and a 3-input parity chains three
    inputs; the gate functions and the faulty pin functions compiled
    from those sources agree with the interpreted oracle."""
    factory = CellFactory("bipolar")
    cells = {
        "(i1 ^ i2)": factory.cell("xor2", "i1*!i2 + !i1*i2", ["i1", "i2"]),
        "(i1 ^ i2 ^ m)": factory.cell("xnor2", "i1*i2 + !i1*!i2", ["i1", "i2"]),
        "(i1 ^ i2 ^ i3)": factory.cell(
            "xor3", "i1*!i2*!i3 + !i1*i2*!i3 + !i1*!i2*i3 + i1*i2*i3",
            ["i1", "i2", "i3"],
        ),
    }
    network = Network("parity")
    for net in ("a", "b", "c"):
        network.add_input(net)
    for index, (source, cell) in enumerate(cells.items()):
        pins = cell.inputs
        assert compiled_module.cell_source(
            cell.output_function, pins, {pin: pin for pin in pins}
        ) == source
        network.add_gate(
            f"g{index}", cell, dict(zip(pins, ("a", "b", "c"))), f"z{index}"
        )
        network.mark_output(f"z{index}")
    patterns = PatternSet.exhaustive(network.inputs)
    compiled = compile_network(network, cache="off")
    assert compiled.evaluate_bits(patterns.env, patterns.mask) == (
        network.evaluate_bits(patterns.env, patterns.mask)
    )
    faults = all_faults(network)
    sim = compiled.simulate(patterns.env, patterns.mask)
    assert sim.differences(faults) == reference_difference_words(
        network, patterns, faults
    )

