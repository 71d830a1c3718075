"""Structural fault collapsing: soundness, contracts and reporting.

The collapse layer (:mod:`repro.faults.structural`) promises that
faults sharing a class have *provably identical* difference functions
through the whole netlist and that dominance pairs are sound (every
pattern detecting the dominator detects the dominated fault).  Both
claims are checked here against exhaustive interpreted simulation -
the strongest oracle available - on fixed circuits and
hypothesis-generated random ones.  The engine-level bit-identity of
``collapse="on"`` lives in ``test_engine_equivalence.py``.
``TestCollapseOracle`` holds the shape-memoised canonicaliser to the
per-fault one kept in ``tests/collapse_reference.py``.  This file
owns the collapse pass itself plus collapsed sessions stopping where
uncollapsed ones do and the gate-level ``CollapseResult.format_table``
sections.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_reference import reference_collapse
from engine_test_utils import all_faults, differential_circuits
from words_reference import reference_difference_words

from repro.circuits.generators import c17, domino_carry_chain, random_network
from repro.cells.library import LibraryFunction
from repro.faults import structural
from repro.faults.structural import (
    COLLAPSE_MODES,
    DEFAULT_COLLAPSE,
    CollapsedFaultSet,
    available_collapse_modes,
    collapse_network_faults,
    get_collapse_mode,
)
from repro.logic.truthtable import TruthTable
from repro.netlist import NetworkFault, parse_bench
from repro.netlist.bench import GATE_TYPES
from repro.simulate import (
    PatternSet,
    compile_network,
    fault_simulate,
    streaming_coverage,
)


def exhaustive_words(network, faults):
    """Per-fault detection words over the exhaustive pattern set."""
    patterns = PatternSet.exhaustive(network.inputs)
    return reference_difference_words(network, patterns, faults)


class TestPartitionInvariants:
    """The collapsed set is an exact partition of the fault list."""

    @pytest.mark.parametrize(
        "network", differential_circuits(), ids=lambda n: n.name
    )
    def test_classes_partition_the_fault_list(self, network):
        faults = all_faults(network)
        collapsed = collapse_network_faults(network, faults)
        seen = sorted(
            index for members in collapsed.classes for index in members
        )
        assert seen == list(range(len(collapsed.faults)))
        for index, class_index in enumerate(collapsed.class_of):
            assert index in collapsed.classes[class_index]
        for k, members in enumerate(collapsed.classes):
            assert collapsed.representatives[k] == members[0]
        assert collapsed.class_count <= collapsed.fault_count
        assert collapsed.ratio == pytest.approx(
            collapsed.fault_count / collapsed.class_count
        )
        assert collapsed.class_sizes() == [
            len(members) for members in collapsed.classes
        ]

    def test_collapse_actually_merges_on_library_dags(self):
        """The point of the layer: multi-gate DAGs collapse measurably."""
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        collapsed = collapse_network_faults(network, all_faults(network))
        assert collapsed.class_count < collapsed.fault_count
        assert collapsed.ratio > 1.2


class TestEquivalenceSoundness:
    """Class members have identical difference functions - exhaustively."""

    @pytest.mark.parametrize(
        "network", differential_circuits(), ids=lambda n: n.name
    )
    def test_members_share_their_representative_word(self, network):
        faults = all_faults(network)
        collapsed = collapse_network_faults(network, faults)
        words = exhaustive_words(network, collapsed.faults)
        for members in collapsed.classes:
            reference = words[members[0]]
            for index in members[1:]:
                assert words[index] == reference, (
                    collapsed.faults[members[0]].describe(),
                    collapsed.faults[index].describe(),
                )

    @pytest.mark.parametrize(
        "network", differential_circuits(), ids=lambda n: n.name
    )
    def test_null_classes_have_zero_difference(self, network):
        faults = all_faults(network)
        collapsed = collapse_network_faults(network, faults)
        words = exhaustive_words(network, collapsed.faults)
        for k in collapsed.null_classes:
            for index in collapsed.classes[k]:
                assert words[index] == 0, collapsed.faults[index].describe()

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_inputs=st.integers(min_value=2, max_value=7),
        n_gates=st.integers(min_value=1, max_value=16),
    )
    def test_property_members_equivalent_on_random_circuits(
        self, seed, n_inputs, n_gates
    ):
        network = random_network(n_inputs=n_inputs, n_gates=n_gates, seed=seed)
        faults = all_faults(network)
        collapsed = collapse_network_faults(network, faults)
        words = exhaustive_words(network, collapsed.faults)
        for members in collapsed.classes:
            assert len({words[index] for index in members}) == 1


class TestDominanceSoundness:
    """A dominated fault's detecting patterns are a superset of its
    dominator's - the documented (report-only) dominance contract."""

    @pytest.mark.parametrize(
        "network", differential_circuits(), ids=lambda n: n.name
    )
    def test_dominator_patterns_subset_of_dominated(self, network):
        faults = all_faults(network)
        collapsed = collapse_network_faults(network, faults)
        words = exhaustive_words(network, collapsed.faults)
        for dominator, dominated in collapsed.dominance:
            dominator_word = words[collapsed.representatives[dominator]]
            dominated_word = words[collapsed.representatives[dominated]]
            assert dominator_word & ~dominated_word == 0, (
                collapsed.faults[collapsed.representatives[dominator]].describe(),
                collapsed.faults[collapsed.representatives[dominated]].describe(),
            )

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_inputs=st.integers(min_value=2, max_value=7),
        n_gates=st.integers(min_value=1, max_value=16),
    )
    def test_property_dominance_sound_on_random_circuits(
        self, seed, n_inputs, n_gates
    ):
        network = random_network(n_inputs=n_inputs, n_gates=n_gates, seed=seed)
        faults = all_faults(network)
        collapsed = collapse_network_faults(network, faults)
        words = exhaustive_words(network, collapsed.faults)
        for dominator, dominated in collapsed.dominance:
            dominator_word = words[collapsed.representatives[dominator]]
            dominated_word = words[collapsed.representatives[dominated]]
            assert dominator_word & ~dominated_word == 0


def oracle_text(rng, n_inputs, n_gates, double_pin_share, locality=None):
    """``.bench`` text over every gate type in which about
    ``double_pin_share`` of the multi-input gates read one net on two
    pins; ``locality`` draws each gate's first input from the trailing
    window of that many nets (ISCAS-like depth)."""
    nets = [f"x{k}" for k in range(n_inputs)]
    lines = [f"INPUT({net})" for net in nets]
    for g in range(n_gates):
        kind = rng.choice(GATE_TYPES)
        first = rng.choice(nets[-locality:] if locality else nets)
        if kind in ("BUFF", "NOT"):
            args = [first]
        elif rng.random() < double_pin_share:
            args = [first, first]
        else:
            args = [first, rng.choice(nets)]
        lines.append(f"n{g} = {kind}({', '.join(args)})")
        nets.append(f"n{g}")
    lines += [f"OUTPUT({net})" for net in nets[-max(1, n_gates // 3):]]
    return "\n".join(lines) + "\n"


def odd_faults(network):
    """Faults the canonicaliser cannot align or place: ghosts on an
    absent net and gate (the null class) and opaque cell faults whose
    table uses a foreign variable or whose function is missing."""
    gate = next(iter(network.gates))
    foreign = LibraryFunction("foreign", TruthTable(("q",), 0b10), "q")
    return [
        NetworkFault.stuck_at("ghost", 1),
        NetworkFault.cell_fault("g_ghost", 1, foreign, label="ghost-gate"),
        NetworkFault.cell_fault(gate, 98, foreign, label="opaque-foreign"),
        NetworkFault(kind="cell", gate=gate, class_index=99, label="opaque-none"),
    ]


def assert_collapse_matches_reference(network, faults):
    """The memoised collapse equals the per-fault oracle field by field,
    dominance order included."""
    actual = collapse_network_faults(network, faults, cache="off")
    expected = reference_collapse(
        network, faults, compile_network(network, cache="off")
    )
    for field in dataclasses.fields(CollapsedFaultSet):
        assert getattr(actual, field.name) == getattr(expected, field.name), field.name


class TestCollapseOracle:
    """``tests/collapse_reference.py`` keeps the per-fault canonicaliser;
    the shape-memoised one must reproduce it exactly."""

    @settings(max_examples=40)
    @given(
        rng=st.randoms(use_true_random=False),
        n_inputs=st.integers(min_value=2, max_value=6),
        n_gates=st.integers(min_value=1, max_value=14),
        double_pin_share=st.sampled_from((0.0, 0.3, 1.0)),
        semantic=st.booleans(),
    )
    def test_memoised_collapse_equals_oracle_on_random_circuits(
        self, rng, n_inputs, n_gates, double_pin_share, semantic
    ):
        text = oracle_text(rng, n_inputs, n_gates, double_pin_share)
        network = parse_bench(text, name="oracle")
        faults = all_faults(network) + odd_faults(network)
        with pytest.MonkeyPatch.context() as patch:
            if not semantic:
                # Structural classes and dominance only.
                patch.setattr(structural, "SEMANTIC_COLLAPSE_MAX_INPUTS", 0)
            assert_collapse_matches_reference(network, faults)

    @pytest.mark.parametrize(
        "network", differential_circuits(), ids=lambda n: n.name
    )
    def test_memoised_collapse_equals_oracle_on_library_circuits(
        self, network, monkeypatch
    ):
        monkeypatch.setattr(structural, "SEMANTIC_COLLAPSE_MAX_INPUTS", 0)
        assert_collapse_matches_reference(network, all_faults(network))

    def test_memoised_collapse_equals_oracle_at_2k_gates(self):
        text = oracle_text(random.Random(2000), 64, 2000, 0.05, locality=64)
        network = parse_bench(text, name="oracle_2k")
        assert len(network.gates) == 2000
        assert any(
            len(set(gate.connections.values())) < len(gate.connections)
            for gate in network.gates.values()
        )
        assert_collapse_matches_reference(network, all_faults(network))


class TestLazyDominance:
    """Only the report reads ``dominance``, so the collapse computes it
    on first read - on the structural and on the semantic path."""

    @pytest.mark.parametrize("semantic", (False, True))
    def test_dominance_is_computed_on_first_read(self, semantic, monkeypatch):
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        faults = all_faults(network)
        if not semantic:
            monkeypatch.setattr(structural, "SEMANTIC_COLLAPSE_MAX_INPUTS", 0)

        def refuse(*_args):
            raise AssertionError("dominance computed during the collapse")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structural, "_dominance_pairs", refuse)
            patch.setattr(structural, "_semantic_dominance", refuse)
            collapsed = collapse_network_faults(network, faults, cache="off")
        expected = reference_collapse(
            network, faults, compile_network(network, cache="off")
        )
        assert expected.dominance
        assert collapsed.dominance == expected.dominance
        assert collapsed.dominance is collapsed.dominance  # computed once


class TestFlatClasses:
    """``classes`` is held flat and reads as the list of member lists."""

    def test_classes_read_as_member_lists(self):
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        collapsed = collapse_network_faults(network, all_faults(network))
        members = [[] for _ in range(collapsed.class_count)]
        for index, class_index in enumerate(collapsed.class_of):
            members[class_index].append(index)
        assert collapsed.classes == members
        assert list(collapsed.classes) == members
        assert [collapsed.classes[k] for k in range(len(members))] == members
        assert collapsed.classes[-1] == members[-1]
        assert collapsed.class_sizes() == [len(group) for group in members]
        with pytest.raises(IndexError):
            collapsed.classes[len(members)]
        assert collapsed.classes != members[:-1]


class TestCollapseModeContract:
    """The ``--collapse`` resolution contract, mirroring the registry."""

    def test_default_mode_is_off(self):
        assert get_collapse_mode(None) == DEFAULT_COLLAPSE == "off"

    def test_every_listed_mode_resolves(self):
        for mode in COLLAPSE_MODES:
            assert get_collapse_mode(mode) == mode

    def test_available_modes_sorted(self):
        modes = available_collapse_modes()
        assert list(modes) == sorted(modes)
        assert set(modes) == set(COLLAPSE_MODES)

    def test_unknown_mode_message_lists_available_modes(self):
        with pytest.raises(ValueError) as excinfo:
            get_collapse_mode("turbo")
        assert str(excinfo.value) == (
            "unknown collapse mode 'turbo'; available collapse modes: "
            + ", ".join(sorted(COLLAPSE_MODES))
        )

    def test_fault_simulate_rejects_unknown_mode(self):
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        with pytest.raises(ValueError, match="unknown collapse mode"):
            fault_simulate(network, patterns, collapse="turbo")

    def test_protest_rejects_unknown_mode_at_construction(self):
        from repro.protest import Protest

        with pytest.raises(ValueError, match="unknown collapse mode"):
            Protest(c17(), collapse="turbo")


class TestCollapsedFaultSetMechanics:
    def test_scatter_outcomes_length_mismatch_raises(self):
        network = c17()
        collapsed = collapse_network_faults(network, all_faults(network))
        with pytest.raises(ValueError, match="class outcomes"):
            collapsed.scatter_outcomes([None] * (collapsed.class_count + 1))

    def test_scatter_outcomes_replicates_class_values(self):
        network = c17()
        collapsed = collapse_network_faults(network, all_faults(network))
        scattered = collapsed.scatter_outcomes(list(range(collapsed.class_count)))
        for index, value in enumerate(scattered):
            assert value == collapsed.class_of[index]

    def test_collapse_is_memoised_per_fault_list(self):
        network = domino_carry_chain(3)
        faults = all_faults(network)
        first = collapse_network_faults(network, faults)
        assert collapse_network_faults(network, faults) is first
        # A different fault list gets its own collapsed set.
        subset = faults[: len(faults) // 2]
        assert collapse_network_faults(network, subset) is not first

    def test_uninjectable_representative_keeps_only_its_class_unproven(
        self, monkeypatch
    ):
        """The semantic refinement simulates every representative in one
        batch; a representative the engine cannot inject leaves only its
        own class without a word."""
        from repro.faults.structural import _exhaustive_class_words
        from repro.simulate.compiled import CompiledNetwork, compile_network

        network = domino_carry_chain(2)
        faults = [fault for fault in all_faults(network) if fault.kind != "stuck"]
        broken = faults[0]
        original = CompiledNetwork.fault_pins

        def fault_pins(compiled, fault):
            if fault is broken:
                raise KeyError(fault.describe())
            return original(compiled, fault)

        monkeypatch.setattr(CompiledNetwork, "fault_pins", fault_pins)
        classes = [[index] for index in range(len(faults))]
        signatures = [("cell", index) for index in range(len(faults))]
        words = _exhaustive_class_words(
            compile_network(network), network, faults, classes, signatures
        )
        assert words[0] is None
        assert words[1:] == exhaustive_words(network, faults[1:])

    def test_format_report_mentions_ratio_and_classes(self):
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        collapsed = collapse_network_faults(network, all_faults(network))
        report = collapsed.format_report()
        assert f"{collapsed.fault_count} faults -> {collapsed.class_count} classes" in report
        assert "fewer fault simulations" in report
        if any(len(members) > 1 for members in collapsed.classes):
            assert "equivalence classes with several members:" in report

    def test_result_summary_reports_collapse_ratio_line(self):
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        faults = all_faults(network)
        collapsed_run = fault_simulate(network, patterns, faults, collapse="on")
        summary = collapsed_run.format_summary()
        assert (
            f"collapse: {collapsed_run.collapsed_classes}/"
            f"{collapsed_run.fault_count} classes/faults simulated" in summary
        )
        plain = fault_simulate(network, patterns, faults)
        assert plain.collapsed_classes is None
        assert "classes/faults simulated" not in plain.format_summary()


class TestCollapsedSessions:
    def test_collapsed_and_uncollapsed_sessions_are_identical(self):
        """Class sizes weight the covered count, so a collapsed session
        stops at the uncollapsed one's window for every target."""
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        patterns = PatternSet.random(network.inputs, 2048, seed=3)
        faults = all_faults(network)
        for target in (0.25, 0.6, 0.9, 1.0):
            sessions = [
                streaming_coverage(
                    network, patterns, faults, target_coverage=target,
                    confidence=0.9, collapse=collapse,
                )
                for collapse in ("on", "off")
            ]
            assert sessions[0].collapsed_classes < sessions[0].fault_count
            sessions[0].collapsed_classes = None
            assert sessions[0] == sessions[1]


class TestGateLevelFormatTable:
    """Satellite: format_table renders benign and sequential sections."""

    def _entry(self, label):
        from repro.faults.enumerate import FaultEntry
        from repro.switchlevel.network import FaultKind, PhysicalFault

        return FaultEntry(
            label, PhysicalFault(FaultKind.TRANSISTOR_CLOSED, switch=label)
        )

    def test_sequential_section_rendered_for_static_cmos_opens(self):
        """The Fig. 1 pathology: static CMOS opens float the output and
        land in the sequential bucket - format_table must say so."""
        from repro.faults.classify import classify
        from repro.faults.collapse import collapse
        from repro.faults.enumerate import enumerate_gate_faults
        from repro.faults.logical import FaultCategory
        from repro.logic.parser import parse_expression
        from repro.logic.truthtable import TruthTable
        from repro.tech import StaticCmosGate

        gate = StaticCmosGate(parse_expression("a+b"))
        classified = [
            (entry, cls)
            for entry in enumerate_gate_faults(gate)
            for cls in [classify(gate, entry.fault)]
            if cls.category is FaultCategory.SEQUENTIAL
        ]
        assert classified  # every transistor open in a NOR floats somewhere
        fault_free = TruthTable.from_expr(gate.function, gate.inputs)
        result = collapse(fault_free, classified)
        assert result.sequential
        text = result.format_table()
        assert "Sequential (combinationally unmodellable):" in text
        for entry, _cls in result.sequential:
            assert entry.label in text

    def test_benign_section_rendered_when_present(self):
        from repro.faults.collapse import collapse
        from repro.faults.logical import Classification, FaultCategory
        from repro.logic.truthtable import TruthTable

        entry = self._entry("pass closed")
        benign = Classification(
            "pass closed", FaultCategory.BENIGN, notes="no behavioural change"
        )
        fault_free = TruthTable(("a",), 0b10)
        result = collapse(fault_free, [(entry, benign)])
        text = result.format_table()
        assert "Benign (fault-free behaviour preserved):" in text
        assert "pass closed" in text
        assert "no behavioural change" in text

    def test_every_section_rendered_together(self):
        """One result carrying all four buckets renders all four."""
        from repro.faults.collapse import collapse
        from repro.faults.logical import Classification, FaultCategory
        from repro.logic.truthtable import TruthTable

        fault_free = TruthTable(("a",), 0b10)
        classified = [
            (
                self._entry("flip"),
                Classification(
                    "flip",
                    FaultCategory.COMBINATIONAL,
                    predicted=TruthTable(("a",), 0b01),
                ),
            ),
            (
                self._entry("benign one"),
                Classification("benign one", FaultCategory.BENIGN, notes="nop"),
            ),
            (
                self._entry("floats"),
                Classification(
                    "floats", FaultCategory.SEQUENTIAL, notes="remembers"
                ),
            ),
            (
                self._entry("hidden"),
                Classification(
                    "hidden", FaultCategory.UNDETECTABLE, notes="redundant"
                ),
            ),
        ]
        result = collapse(fault_free, classified)
        text = result.format_table()
        assert "Class" in text
        assert "Benign (fault-free behaviour preserved):" in text
        assert "Sequential (combinationally unmodellable):" in text
        assert "Not representable / possibly undetectable:" in text
        assert result.total_faults() == 4
