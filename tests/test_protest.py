"""Tests for the PROTEST probabilistic testability analyser."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import and_cone, c17, domino_carry_chain
from repro.netlist import CellFactory, Network
from repro.protest import (
    Protest,
    confidence_all_detected,
    detection_probabilities,
    escape_probability,
    exact_detection_probabilities,
    exact_signal_probabilities,
    expected_coverage,
    hardest_faults,
    monte_carlo_signal_probabilities,
    optimize_input_probabilities,
    signal_probabilities,
    test_length as required_test_length,
    test_length_for_fault as required_length_for_fault,
    topological_signal_probabilities,
)
from repro.simulate import PatternSet, fault_simulate


class TestSignalProbabilities:
    def test_exact_known_values(self):
        network = and_cone(3)
        exact = exact_signal_probabilities(network)
        assert exact["w"] == pytest.approx(0.125)
        assert exact["z"] == pytest.approx(1 - (1 - 0.125) * 0.5)

    def test_weighted_inputs(self):
        network = and_cone(2)
        exact = exact_signal_probabilities(
            network, {"a0": 0.9, "a1": 0.9, "bypass": 0.0}
        )
        assert exact["z"] == pytest.approx(0.81)

    def test_topological_exact_without_reconvergence(self):
        network = domino_carry_chain(3)
        exact = exact_signal_probabilities(network)
        topo = topological_signal_probabilities(network)
        for net in exact:
            assert topo[net] == pytest.approx(exact[net], abs=1e-12)

    def test_topological_biased_with_reconvergence(self):
        factory = CellFactory("domino-CMOS")
        network = Network("reconv")
        network.add_input("a")
        network.add_input("b")
        network.add_gate("g1", factory.and_gate(2), {"i1": "a", "i2": "b"}, "n1")
        # z = n1 + a: reconvergent on a.
        network.add_gate("g2", factory.or_gate(2), {"i1": "n1", "i2": "a"}, "z")
        network.mark_output("z")
        exact = exact_signal_probabilities(network)
        topo = topological_signal_probabilities(network)
        assert exact["z"] == pytest.approx(0.5)  # z = a
        assert topo["z"] != pytest.approx(0.5)  # independence bias

    def test_monte_carlo_converges(self):
        network = domino_carry_chain(3)
        exact = exact_signal_probabilities(network)
        monte = monte_carlo_signal_probabilities(network, samples=16384)
        for net in exact:
            assert monte[net] == pytest.approx(exact[net], abs=0.02)

    def test_dispatch(self):
        network = and_cone(2)
        assert signal_probabilities(network, method="exact") == exact_signal_probabilities(network)
        with pytest.raises(ValueError):
            signal_probabilities(network, method="psychic")

    def test_zero_samples_raises(self):
        """Regression: samples=0 used to divide by zero (and negative
        counts produced empty, silently meaningless estimates)."""
        network = and_cone(2)
        for samples in (0, -4):
            with pytest.raises(ValueError, match="samples"):
                monte_carlo_signal_probabilities(network, samples=samples)

    def test_one_sample_is_valid(self):
        network = and_cone(2)
        estimates = monte_carlo_signal_probabilities(network, samples=1)
        assert all(value in (0.0, 1.0) for value in estimates.values())

    @pytest.mark.parametrize("method", ["exact", "topological", "monte_carlo", "auto"])
    @pytest.mark.parametrize("bad", [1.5, -0.5, float("nan")])
    def test_scalar_input_probability_validated(self, method, bad):
        """Regression: a scalar probability skipped the range check, so
        exact estimation returned P = 1.5 on c17 and the topological
        path failed naming a cell pin instead of the primary input."""
        with pytest.raises(ValueError, match=rf"probability of 'n1' must be in \[0,1\], got {bad}"):
            signal_probabilities(c17(), bad, method=method)


class TestDetectionProbabilities:
    def test_exact_matches_fault_simulation_frequency(self):
        network = and_cone(4)
        faults = network.enumerate_faults()
        exact = exact_detection_probabilities(network, faults)
        patterns = PatternSet.exhaustive(network.inputs)
        result = fault_simulate(network, patterns)
        for fault in faults:
            label = fault.describe()
            assert exact[label] == pytest.approx(
                result.detection_counts.get(label, 0) / patterns.count
            )

    def test_cone_width_halves_detection(self):
        # The AND-open class needs all inputs 1 and bypass 0.
        for width in (3, 4, 5):
            network = and_cone(width)
            exact = exact_detection_probabilities(network, network.enumerate_faults())
            hardest = min(exact.values())
            assert hardest == pytest.approx(2.0 ** -(width + 1))

    def test_topological_estimates_bounded(self):
        network = domino_carry_chain(4)
        estimates = detection_probabilities(network, method="topological")
        assert all(0.0 <= p <= 1.0 for p in estimates.values())

    @pytest.mark.parametrize("method", ["exact", "topological", "monte_carlo", "auto"])
    @pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan")])
    def test_scalar_input_probability_validated(self, method, bad):
        """Regression: exact estimation on c17 with a scalar -0.5 returned
        a detection probability of -1.3125."""
        with pytest.raises(ValueError, match=rf"probability of 'n1' must be in \[0,1\], got {bad}"):
            detection_probabilities(c17(), None, bad, method=method)

    def test_monte_carlo_zero_samples_raises(self):
        """Regression: samples=0 used to divide by zero."""
        from repro.protest import monte_carlo_detection_probabilities

        network = and_cone(2)
        faults = network.enumerate_faults()
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples"):
                monte_carlo_detection_probabilities(network, faults, samples=samples)

    def test_monte_carlo_one_sample_is_valid(self):
        from repro.protest import monte_carlo_detection_probabilities

        network = and_cone(2)
        faults = network.enumerate_faults()
        estimates = monte_carlo_detection_probabilities(network, faults, samples=1)
        assert all(value in (0.0, 1.0) for value in estimates.values())

    def test_estimators_reject_colliding_fault_labels(self):
        """Distinct faults sharing a label must raise here too, not just
        in fault_simulate - a silent dict merge would shrink the fault
        universe under test_length/hardest_faults."""
        from repro.netlist import NetworkFault
        from repro.protest import monte_carlo_detection_probabilities

        network = and_cone(3)
        colliding = [
            NetworkFault.stuck_at("a0", 0),
            NetworkFault(kind="stuck", net="a1", value=0, label="s0-a0"),
        ]
        with pytest.raises(ValueError, match="shared by two distinct"):
            monte_carlo_detection_probabilities(network, colliding, samples=16)
        with pytest.raises(ValueError, match="shared by two distinct"):
            exact_detection_probabilities(network, colliding)
        with pytest.raises(ValueError, match="shared by two distinct"):
            detection_probabilities(network, colliding, method="topological")

    def test_estimators_reject_ghost_faults(self):
        """A fault on a net the network does not drive must raise, not
        silently score detection probability 0.0."""
        from repro.netlist import NetworkFault
        from repro.protest import monte_carlo_detection_probabilities

        network = and_cone(3)
        ghost = [NetworkFault.stuck_at("ghost", 1)]
        with pytest.raises(ValueError, match="cannot be injected"):
            monte_carlo_detection_probabilities(network, ghost, samples=16)
        with pytest.raises(ValueError, match="cannot be injected"):
            exact_detection_probabilities(network, ghost)
        with pytest.raises(ValueError, match="cannot be injected"):
            detection_probabilities(network, ghost, method="topological")


class TestTestLength:
    def test_per_fault_formula(self):
        # 1-(1-p)^N >= c  =>  N >= log(1-c)/log(1-p)
        assert required_length_for_fault(0.5, 0.999) == 10
        assert required_length_for_fault(1.0, 0.999) == 1
        assert math.isinf(required_length_for_fault(0.0, 0.999))

    def test_escape_probability(self):
        assert escape_probability(0.5, 3) == pytest.approx(0.125)

    def test_whole_test_longer_than_per_fault(self):
        probabilities = {f"f{k}": 0.01 for k in range(50)}
        per_fault = required_test_length(probabilities, 0.99, per_fault=True)
        whole = required_test_length(probabilities, 0.99)
        assert whole >= per_fault

    def test_confidence_monotone_in_length(self):
        probabilities = {"f1": 0.1, "f2": 0.02}
        confidences = [confidence_all_detected(probabilities, n) for n in (10, 50, 250)]
        assert confidences == sorted(confidences)

    def test_expected_coverage(self):
        assert expected_coverage({"f": 1.0}, 1) == pytest.approx(1.0)
        assert expected_coverage({}, 5) == 1.0

    def test_hardest_faults_sorted(self):
        ranked = hardest_faults({"easy": 0.9, "hard": 0.001, "mid": 0.1}, count=2)
        assert [label for label, _ in ranked] == ["hard", "mid"]

    def test_undetectable_gives_infinite_length(self):
        assert math.isinf(required_test_length({"f": 0.0}, 0.9))

    def test_validation_against_simulation(self):
        # With the computed length, random tests should indeed catch all
        # faults in most trials.
        network = and_cone(4)
        exact = exact_detection_probabilities(network, network.enumerate_faults())
        length = int(required_test_length(exact, 0.99))
        hits = 0
        trials = 20
        for seed in range(trials):
            patterns = PatternSet.random(network.inputs, length, seed=seed)
            if fault_simulate(network, patterns).coverage == 1.0:
                hits += 1
        assert hits / trials >= 0.9


class TestOptimization:
    def test_cone_gain(self):
        network = and_cone(8)
        result = optimize_input_probabilities(network)
        assert result.optimized_min_detection > result.uniform_min_detection
        assert result.test_length_ratio > 5.0

    def test_probabilities_stay_in_grid_bounds(self):
        network = and_cone(6)
        result = optimize_input_probabilities(network)
        assert all(0.0 < p < 1.0 for p in result.optimized_probabilities.values())

    def test_summary_renders(self):
        network = and_cone(4)
        result = optimize_input_probabilities(network)
        text = result.format_summary()
        assert "test length" in text


class TestFacade:
    def test_analysis_report(self):
        network = domino_carry_chain(3)
        protest = Protest(network)
        report = protest.analyse(confidence=0.99)
        assert report.required_test_length > 0
        assert len(report.detection_probabilities) == len(protest.faults)
        assert "PROTEST report" in report.format_summary()

    def test_validate_runs_fault_simulation(self):
        network = domino_carry_chain(3)
        protest = Protest(network)
        result = protest.validate(count=128)
        assert result.pattern_count == 128

    def test_generated_patterns_use_distribution(self):
        network = and_cone(4)
        protest = Protest(network)
        patterns = protest.generate_patterns(
            2048, probs={name: 0.9 for name in network.inputs}
        )
        ones = patterns.env["a0"].bit_count() / patterns.count
        assert ones == pytest.approx(0.9, abs=0.04)

    @pytest.mark.parametrize(
        "probs, shown",
        [(1.5, "1.5"), (2, "2.0"), (float("nan"), "nan"), ({"a0": -0.1}, "-0.1")],
    )
    def test_every_method_rejects_bad_probabilities_alike(self, probs, shown):
        """One normaliser: analysis, pattern generation and validation
        reject a bad distribution with the same message."""
        protest = Protest(and_cone(3))
        message = f"probability of 'a0' must be in [0,1], got {shown}"
        for call in (
            lambda: protest.analyse(probs),
            lambda: protest.generate_patterns(8, probs),
            lambda: protest.validate(8, probs),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_scalar_and_mapping_probabilities_agree(self):
        network = and_cone(3)
        protest = Protest(network)
        mapping = dict.fromkeys(network.inputs, 0.25)
        assert protest.generate_patterns(64, 0.25) == protest.generate_patterns(
            64, mapping
        )
        assert protest.analyse(0.25) == protest.analyse(mapping)

    def test_topological_analyse_runs_one_signal_pass(self, monkeypatch):
        """The topological report's signal probabilities are the
        detection estimator's input: one signal pass per analyse, and
        the report equals the two public estimators' results."""
        from repro.protest import detectprob, signalprob

        network = domino_carry_chain(3)
        protest = Protest(network)
        probs = dict.fromkeys(network.inputs, 0.3)
        expected_signal = topological_signal_probabilities(network, probs)
        expected_detection = detectprob.topological_detection_probabilities(
            network, protest.faults, probs
        )
        calls = []
        original = signalprob.topological_signal_probabilities

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (signalprob, detectprob):
            monkeypatch.setattr(module, "topological_signal_probabilities", counting)
        report = protest.analyse(probs, method="topological")
        assert len(calls) == 1
        assert report.signal_probabilities == expected_signal
        assert report.detection_probabilities == expected_detection
        assert report.required_test_length == required_test_length(
            expected_detection, 0.999
        )

    def test_topological_analyse_builds_in_its_own_store(self):
        """``Protest(cache=...)`` holds for the topological estimate too:
        its fault universe is built in the facade's store, not the
        process-global one."""
        from repro.simulate.artifacts import ArtifactStore, resolve_cache

        network = domino_carry_chain(3)
        shared = resolve_cache("memory")
        shared.reset_counters()
        store = ArtifactStore()
        Protest(network, cache="off").analyse(method="topological")
        Protest(network, cache=store).analyse(method="topological")
        assert "universe" not in shared.stats()
        assert store.stats()["universe"] == {"hits": 0, "misses": 1}


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.5, max_value=0.999),
)
def test_test_length_meets_confidence(p, confidence):
    """Property: the computed per-fault length actually achieves the
    demanded confidence, and one fewer pattern does not."""
    length = required_length_for_fault(p, confidence)
    assert 1.0 - (1.0 - p) ** length >= confidence - 1e-12
    if length > 1:
        assert 1.0 - (1.0 - p) ** (length - 1) < confidence


class TestProtocol:
    def test_format_protocol_lists_every_fault(self):
        from repro.circuits.generators import and_cone

        network = and_cone(4)
        protest = Protest(network)
        report = protest.analyse(confidence=0.99)
        text = report.format_protocol()
        assert "protocol of necessary test length" in text
        # one line per fault plus header/footer
        assert len(text.splitlines()) == len(protest.faults) + 3
        assert "whole test" in text
