"""Structural fault collapsing: soundness, contracts and reporting.

The collapse layer (:mod:`repro.faults.structural`) promises that
faults sharing a class have *provably identical* difference functions
through the whole netlist and that dominance pairs are sound (every
pattern detecting the dominator detects the dominated fault).  Both
claims are checked here against exhaustive interpreted simulation -
the strongest oracle available - on fixed circuits and
hypothesis-generated random ones.  The engine-level bit-identity of
``collapse="on"`` lives in ``test_engine_equivalence.py``; this file
owns the collapse pass itself plus the ``stop_at_coverage`` validation
contract and the gate-level ``CollapseResult.format_table`` sections.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import all_faults, differential_circuits, results_identical
from words_reference import reference_difference_words

from repro.circuits.generators import c17, domino_carry_chain, random_network
from repro.faults.structural import (
    COLLAPSE_MODES,
    DEFAULT_COLLAPSE,
    available_collapse_modes,
    collapse_network_faults,
    get_collapse_mode,
)
from repro.simulate import PatternSet, fault_simulate
from repro.simulate.faultsim import check_stop_at_coverage, windowed_outcomes


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


class TestStopAtCoverageValidation:
    """Satellite: the (0, 1] contract in the estimators' error style."""

    @pytest.mark.parametrize("bad", (0, 0.0, -0.5, 1.5, 2))
    def test_rejects_values_outside_unit_interval(self, bad):
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        message = f"stop_at_coverage must be in (0, 1], got {bad}"
        with pytest.raises(ValueError) as excinfo:
            check_stop_at_coverage(bad)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            fault_simulate(network, patterns, stop_at_coverage=bad)
        assert str(excinfo.value) == message

    def test_rejects_bad_values_on_every_engine(self):
        from repro.simulate import available_engines

        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        for engine in available_engines():
            with pytest.raises(ValueError, match=r"stop_at_coverage must be"):
                fault_simulate(
                    network, patterns, engine=engine, stop_at_coverage=-1
                )

    def test_accepts_one_and_none(self):
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        faults = all_faults(network)
        check_stop_at_coverage(None)
        check_stop_at_coverage(1.0)
        full = fault_simulate(network, patterns, faults)
        capped = fault_simulate(network, patterns, faults, stop_at_coverage=1.0)
        # Coverage 1.0 still retires faults (counts pinned to 1) but
        # detects the same set at the same first indices.
        assert capped.detected == full.detected
        assert all(count == 1 for count in capped.detection_counts.values())

    def test_windowed_outcomes_validates_too(self):
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        with pytest.raises(ValueError, match=r"stop_at_coverage must be"):
            windowed_outcomes(
                network, patterns, all_faults(network), 64,
                stop_at_coverage=1.5,
            )
        for window in (0, -3):
            with pytest.raises(
                ValueError, match=f"window width must be >= 1, got {window}"
            ):
                windowed_outcomes(
                    network, patterns, all_faults(network), window,
                    on_window=lambda consumed, covered: True,
                )


class TestStopAtCoverageSemantics:
    def test_stops_early_and_reports_unreached_as_undetected(self):
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        # Many windows: low thresholds must stop before the full run.
        patterns = PatternSet.random(network.inputs, 2048, seed=3)
        faults = all_faults(network)
        full = fault_simulate(network, patterns, faults)
        capped = fault_simulate(
            network, patterns, faults, stop_at_coverage=0.25
        )
        assert len(capped.detected) <= len(full.detected)
        assert capped.coverage >= 0.25 or len(capped.detected) == len(full.detected)
        # Every reported first-detection index matches the full run.
        for label, first in capped.detected.items():
            assert full.detected[label] == first

    def test_collapsed_and_uncollapsed_stops_are_identical(self):
        network = random_network(n_inputs=6, n_gates=14, seed=11)
        patterns = PatternSet.random(network.inputs, 2048, seed=3)
        faults = all_faults(network)
        for threshold in (0.25, 0.6, 0.9, 1.0):
            results_identical(
                fault_simulate(
                    network, patterns, faults, stop_at_coverage=threshold,
                    collapse="on",
                ),
                fault_simulate(
                    network, patterns, faults, stop_at_coverage=threshold,
                ),
            )


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
