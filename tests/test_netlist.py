"""Tests for gate-level networks, builders, and the sequential fault model."""

import pickle
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import BENCH_ZOO, differential_circuits
from repro.circuits.generators import domino_carry_chain
from repro.netlist import (
    CellFactory,
    Network,
    NetworkError,
    NetworkFault,
    SequentialFaultSimulator,
    parse_bench,
    stuck_open_faults_of_gate,
)
from repro.logic.values import X
from repro.simulate.logicsim import PatternSet


def small_network() -> Network:
    factory = CellFactory("domino-CMOS")
    network = Network("small")
    for name in "abcd":
        network.add_input(name)
    network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
    network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "c"}, "n2")
    network.add_gate("g3", factory.and_gate(2), {"i1": "n2", "i2": "d"}, "z")
    network.mark_output("z")
    return network


class TestStructure:
    def test_levelize_order(self):
        network = small_network()
        order = network.levelize()
        assert order.index("g1") < order.index("g2") < order.index("g3")

    def test_depth(self):
        assert small_network().depth() == 3

    def test_cycle_detected(self):
        factory = CellFactory("domino-CMOS")
        network = Network("cyclic")
        network.add_input("a")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "n2"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "a"}, "n2")
        with pytest.raises(NetworkError):
            network.levelize()

    def test_undriven_net_detected(self):
        factory = CellFactory("domino-CMOS")
        network = Network("undriven")
        network.add_input("a")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "ghost"}, "z")
        with pytest.raises(NetworkError):
            network.levelize()

    def test_multiple_drivers_rejected(self):
        factory = CellFactory("domino-CMOS")
        network = Network("multi")
        network.add_input("a")
        network.add_gate("g1", factory.buffer(), {"i1": "a"}, "z")
        with pytest.raises(NetworkError):
            network.add_gate("g2", factory.buffer(), {"i1": "a"}, "z")

    def test_unconnected_pin_rejected(self):
        factory = CellFactory("domino-CMOS")
        network = Network("pins")
        network.add_input("a")
        with pytest.raises(NetworkError):
            network.add_gate("g1", factory.and_gate(2), {"i1": "a"}, "z")

    def test_fanout_query(self):
        network = small_network()
        assert ("g2", "i1") in network.fanout_of("n1")


class TestLevelizeDiagnosis:
    """The exact structural diagnoses levelize raises when stuck."""

    def _factory(self):
        return CellFactory("domino-CMOS")

    def test_undriven_message(self):
        factory = self._factory()
        network = Network("undriven")
        network.add_input("a")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "ghost"}, "z")
        with pytest.raises(NetworkError, match=r"^undriven nets: \['ghost'\]$"):
            network.levelize()

    def test_cycle_message(self):
        factory = self._factory()
        network = Network("cyclic")
        network.add_input("a")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "n2"}, "n1")
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "a"}, "n2")
        with pytest.raises(
            NetworkError,
            match=r"^combinational cycle among gates \['g1', 'g2'\]$",
        ):
            network.levelize()

    def test_cycle_and_undriven_reported_together(self):
        # A malformed netlist easily has both defects at once; the
        # diagnosis must name both, not let the undriven half shadow
        # the cycle.
        factory = self._factory()
        network = Network("both")
        network.add_input("a")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "ghost"}, "n1")
        network.add_gate("g2", factory.and_gate(2), {"i1": "n1", "i2": "n3"}, "n2")
        network.add_gate("g3", factory.or_gate(2), {"i1": "n2", "i2": "a"}, "n3")
        with pytest.raises(
            NetworkError,
            match=r"^undriven nets: \['ghost'\]; "
            r"combinational cycle among gates \['g2', 'g3'\]$",
        ):
            network.levelize()

    def test_undriven_gates_downstream_of_cycle_not_called_cyclic(self):
        # g1 is stuck on an undriven net only; the cycle is g2/g3.  The
        # second relaxation must not blame g1 for the cycle.
        factory = self._factory()
        network = Network("split")
        network.add_input("a")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "ghost"}, "n1")
        network.add_gate("g2", factory.and_gate(2), {"i1": "a", "i2": "n3"}, "n2")
        network.add_gate("g3", factory.or_gate(2), {"i1": "n2", "i2": "a"}, "n3")
        with pytest.raises(
            NetworkError,
            match=r"^undriven nets: \['ghost'\]; "
            r"combinational cycle among gates \['g2', 'g3'\]$",
        ):
            network.levelize()

    def test_undriven_output_message(self):
        network = Network("noout")
        network.add_input("a")
        network.mark_output("q")
        with pytest.raises(
            NetworkError, match=r"^primary output 'q' is never driven$"
        ):
            network.levelize()

    def test_chain_levelize_is_linear(self):
        # The old per-level rescan was O(levels x gates): quadratic on
        # chains, ~10 s at this size.  Kahn's queue must stay well under
        # a second.
        network = domino_carry_chain(50000)
        start = time.perf_counter()
        order = network.levelize()
        elapsed = time.perf_counter() - start
        assert len(order) == 50000
        assert order[0] == "stage0" and order[-1] == "stage49999"
        assert elapsed < 1.0, f"50k-gate chain levelize took {elapsed:.2f}s"


class TestStructureCaches:
    """``_order``/``_fanout``/``_depth`` are one cache family: populated
    lazily, dropped together on every mutation (the artifact store's
    fingerprints assume no stale derived structure survives a change)."""

    def _populated(self):
        network = small_network()
        network.levelize()
        network.fanout_index()
        network.depth()
        assert network._order is not None
        assert network._fanout is not None
        assert network._depth is not None
        return network

    def test_depth_is_memoised(self):
        network = small_network()
        assert network._depth is None
        assert network.depth() == 3
        assert network._depth == 3
        # Cached answer, same object state: no recompute path needed.
        network._order = None  # force levelize to be unusable if re-walked
        assert network.depth() == 3

    @given(mutation=st.sampled_from(("input", "gate", "output")), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_all_three_caches_invalidate_together(self, mutation, data):
        network = self._populated()
        generation = network._generation
        if mutation == "input":
            network.add_input("fresh")
        elif mutation == "gate":
            factory = CellFactory("domino-CMOS")
            pins = {"i1": data.draw(st.sampled_from(network.inputs)), "i2": "n1"}
            network.add_gate("g_new", factory.or_gate(2), pins, "new_net")
        else:
            network.mark_output(data.draw(st.sampled_from(("n1", "n2"))))
        assert network._order is None
        assert network._fanout is None
        assert network._depth is None
        assert network._generation == generation + 1

    def test_failed_mutations_leave_caches_alone(self):
        network = self._populated()
        generation = network._generation
        with pytest.raises(NetworkError):
            network.add_input("a")  # duplicate
        with pytest.raises(NetworkError):
            network.add_gate(
                "g9", CellFactory("domino-CMOS").buffer(), {"i1": "a"}, "z"
            )  # net already driven
        network.mark_output("z")  # already marked: no-op
        assert network._generation == generation
        assert network._order is not None
        assert network._fanout is not None
        assert network._depth is not None


class TestEvaluation:
    def test_single_vector(self):
        network = small_network()
        values = network.evaluate({"a": 1, "b": 1, "c": 0, "d": 1})
        assert values["z"] == 1

    def test_bit_parallel_matches_scalar(self):
        network = small_network()
        patterns = PatternSet.exhaustive(network.inputs)
        parallel = network.output_bits(patterns.env, patterns.mask)
        for index, vector in enumerate(patterns.vectors()):
            scalar = network.evaluate(vector)
            assert (parallel["z"] >> index) & 1 == scalar["z"]

    def test_stuck_fault_on_input(self):
        network = small_network()
        fault = NetworkFault.stuck_at("a", 1)
        values = network.evaluate({"a": 0, "b": 1, "c": 0, "d": 1}, fault)
        assert values["z"] == 1

    def test_stuck_fault_on_internal_net(self):
        network = small_network()
        fault = NetworkFault.stuck_at("n2", 0)
        values = network.evaluate({"a": 1, "b": 1, "c": 1, "d": 1}, fault)
        assert values["z"] == 0

    def test_cell_fault_replaces_function(self):
        network = small_network()
        library = network.libraries()["g1"]
        cls = library.classes[0]
        fault = NetworkFault.cell_fault("g1", cls.index, cls.function)
        good = network.evaluate_bits(
            PatternSet.exhaustive(network.inputs).env,
            PatternSet.exhaustive(network.inputs).mask,
        )
        bad = network.evaluate_bits(
            PatternSet.exhaustive(network.inputs).env,
            PatternSet.exhaustive(network.inputs).mask,
            fault,
        )
        assert good["n1"] != bad["n1"]

    def test_enumerate_faults_counts(self):
        network = small_network()
        cell_faults = network.enumerate_faults()
        both = network.enumerate_faults(include_stuck_at=True)
        assert len(both) == len(cell_faults) + 2 * len(network.nets())


class TestSequentialModel:
    def _static_network(self):
        factory = CellFactory("static-CMOS")
        network = Network("static")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("nor", factory.or_gate(2), {"i1": "a", "i2": "b"}, "z")
        network.mark_output("z")
        return network

    def test_stuck_open_fault_extraction(self):
        network = self._static_network()
        faults = stuck_open_faults_of_gate(network, "nor")
        assert len(faults) == 4  # two pull-down + two pull-up devices

    def test_requires_static_cmos(self):
        network = small_network()
        with pytest.raises(ValueError):
            stuck_open_faults_of_gate(network, "g1")

    def test_memory_behaviour(self):
        network = self._static_network()
        faults = stuck_open_faults_of_gate(network, "nor")
        # Find the pull-down fault floating on (a=1, b=0) - Fig. 1.
        fault = next(
            f for f in faults if f.float_condition.value({"i1": 1, "i2": 0}) == 1
        )
        simulator = SequentialFaultSimulator(network, fault)
        simulator.apply({"a": 0, "b": 0})  # init: z driven to 1
        outputs = simulator.apply({"a": 1, "b": 0})  # float: retains 1, good says 0
        assert outputs["z"] == 1
        simulator.reset()
        simulator.apply({"a": 0, "b": 1})  # init: z driven to 0
        outputs = simulator.apply({"a": 1, "b": 0})
        assert outputs["z"] == 0  # same vector, different history!

    def test_uninitialised_state_is_x(self):
        network = self._static_network()
        fault = stuck_open_faults_of_gate(network, "nor")[0]
        simulator = SequentialFaultSimulator(network, fault)
        floating_vector = None
        for a in (0, 1):
            for b in (0, 1):
                if fault.float_condition.value({"i1": a, "i2": b}):
                    floating_vector = {"a": a, "b": b}
        assert floating_vector is not None
        outputs = simulator.apply(floating_vector)
        assert outputs["z"] == X


def reference_faults(network):
    """The fault list built one constructor call per fault: every
    library class of every gate in levelized order (a class label shared
    by several classes of a gate gets ``#<class index>``), then both
    stuck-ats of every net."""
    faults = []
    libraries = network.libraries()
    for name in network.levelize():
        classes = libraries[name].classes
        uses = Counter("|".join(cls.labels) for cls in classes)
        for cls in classes:
            base = "|".join(cls.labels)
            suffix = f"#{cls.index}" if uses[base] > 1 else ""
            faults.append(NetworkFault.cell_fault(
                name, cls.index, cls.function, label=f"{name}:{base}{suffix}"
            ))
    for net in network.nets():
        faults += [NetworkFault.stuck_at(net, 0), NetworkFault.stuck_at(net, 1)]
    return faults


def zoo_faults():
    return parse_bench(BENCH_ZOO, name="zoo").enumerate_faults(include_stuck_at=True)


class TestNetworkFaultContract:
    """A fault is an immutable value: equal fields compare and hash
    equal, assignment raises, and it pickles (pool workers receive
    faults) - however it is built."""

    @pytest.mark.parametrize(
        "network", differential_circuits(), ids=lambda network: network.name
    )
    def test_enumeration_keeps_order_labels_and_fingerprint(self, network):
        """The lists compare field by field, which covers everything a
        fault-list fingerprint would hash: faulty functions' names,
        tables and SOPs included (``LibraryFunction`` compares by
        value)."""
        faults = network.enumerate_faults(include_stuck_at=True)
        expected = reference_faults(network)
        assert faults == expected
        assert [fault.describe() for fault in faults] == [
            fault.describe() for fault in expected
        ]

    def test_separately_built_lists_compare_and_hash_equal(self):
        first, second = zoo_faults(), zoo_faults()
        assert first == second
        assert [hash(fault) for fault in first] == [hash(fault) for fault in second]
        assert set(first) == set(second)
        assert len(set(first)) == len(first)
        assert NetworkFault.stuck_at("a", 0) != NetworkFault.stuck_at("a", 1)

    def test_attribute_assignment_raises(self):
        fault = zoo_faults()[0]
        with pytest.raises(AttributeError):
            fault.label = "renamed"
        with pytest.raises(AttributeError):
            fault.extra = 1
        assert fault.label == fault.describe() != "renamed"

    def test_pickle_round_trip(self):
        faults = zoo_faults()
        again = pickle.loads(pickle.dumps(faults))
        assert again == faults
        assert all(type(fault) is NetworkFault for fault in again)
        assert [fault.describe() for fault in again] == [
            fault.describe() for fault in faults
        ]
