"""Tests for confidence-bounded streaming coverage sessions.

Covers the Wilson lower bound (:func:`coverage_lower_bound`), the
incremental consumer (:func:`streaming_coverage`, whose ``curve`` is the
session's coverage curve), and the rewritten test-length numerics that
back them.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import and_cone, domino_carry_chain, skewed_cone_network
from repro.protest import (
    Protest,
    confidence_all_detected,
    coverage_lower_bound,
    detection_probability,
    escape_probability,
    test_length as required_test_length,
    test_length_for_fault as required_length_for_fault,
)
from repro.selftest import Lfsr
from repro.simulate import (
    LfsrSource,
    PatternSet,
    WeightedSource,
    available_engines,
    coverage_curve,
    fault_simulate,
    streaming_coverage,
)
from repro.simulate import faultsim, sharded, vector
from repro.simulate.faultsim import (
    FIRST_DETECTION_CHUNK,
    fault_universe,
    windowed_outcomes,
)

from engine_test_utils import LFSR_SESSION_WINDOWS, lfsr_session_case
from testlength_reference import reference_test_length


class TestCoverageLowerBound:
    def test_empty_universe_is_vacuously_covered(self):
        assert coverage_lower_bound(0, 0) == 1.0

    def test_nothing_detected_bounds_at_zero(self):
        assert coverage_lower_bound(0, 50) == pytest.approx(0.0, abs=1e-12)

    def test_full_detection_stays_below_one(self):
        bound = coverage_lower_bound(40, 40, confidence=0.99)
        assert 0.0 < bound < 1.0

    def test_bound_below_empirical_coverage(self):
        for detected, total in [(3, 10), (9, 10), (50, 64), (199, 200)]:
            bound = coverage_lower_bound(detected, total, confidence=0.95)
            assert bound <= detected / total

    def test_bound_tightens_with_more_evidence(self):
        # Same empirical coverage, larger sample: the bound must rise.
        small = coverage_lower_bound(9, 10, confidence=0.99)
        large = coverage_lower_bound(900, 1000, confidence=0.99)
        assert large > small

    def test_known_wilson_value(self):
        # One-sided 97.5% (z = 1.96): Wilson lower bound for 9-of-10
        # is the textbook two-sided-95% value ~0.59585.
        bound = coverage_lower_bound(9, 10, confidence=0.975)
        assert bound == pytest.approx(0.59585, abs=5e-4)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_confidence_outside_open_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            coverage_lower_bound(1, 2, confidence=confidence)

    def test_rejects_detected_outside_range(self):
        with pytest.raises(ValueError):
            coverage_lower_bound(-1, 5)
        with pytest.raises(ValueError):
            coverage_lower_bound(6, 5)

    @given(
        total=st.integers(min_value=1, max_value=500),
        data=st.data(),
        confidence=st.sampled_from([0.9, 0.95, 0.99, 0.999]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_monotone_in_detected_and_in_range(
        self, total, data, confidence
    ):
        detected = data.draw(st.integers(min_value=0, max_value=total - 1))
        lower = coverage_lower_bound(detected, total, confidence=confidence)
        upper = coverage_lower_bound(detected + 1, total, confidence=confidence)
        assert 0.0 <= lower <= 1.0
        assert 0.0 <= upper <= 1.0
        assert upper >= lower
        assert upper <= (detected + 1) / total


class TestStreamingCoverageSession:
    def _session(self, **overrides):
        network = domino_carry_chain(10)
        source = LfsrSource(
            network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=7
        )
        keywords = dict(target_coverage=0.7, confidence=0.95)
        keywords.update(overrides)
        return network, source, streaming_coverage(network, source, **keywords)

    def test_stops_on_window_boundary(self):
        _, source, session = self._session()
        assert (
            session.pattern_count % FIRST_DETECTION_CHUNK == 0
            or session.pattern_count == source.count
        )

    def test_satisfied_session_clears_target(self):
        _, _, session = self._session()
        assert session.satisfied
        assert session.lower_bound >= session.target_coverage
        assert session.coverage >= session.lower_bound

    def test_curve_coverage_is_monotone_and_bound_consistent(self):
        _, _, session = self._session()
        coverages = [coverage for _, coverage in session.curve]
        assert coverages == sorted(coverages)
        counts = [count for count, _ in session.curve]
        assert counts == sorted(counts)
        assert counts[-1] == session.pattern_count

    def test_detected_weight_matches_fault_simulation_of_prefix(self):
        network, source, session = self._session()
        prefix = source.slice(0, session.pattern_count)
        result = fault_simulate(network, prefix)
        assert len(result.detected) == session.detected_weight
        assert result.coverage == pytest.approx(session.coverage)

    def test_unreachable_target_exhausts_budget(self):
        network = and_cone(3)
        source = LfsrSource(network.inputs, 2 * FIRST_DETECTION_CHUNK, seed=3)
        session = streaming_coverage(
            network, source, target_coverage=1.0, confidence=0.999999
        )
        assert not session.satisfied
        assert session.exhausted
        assert session.lower_bound < session.target_coverage

    def test_small_universe_stops_once_every_fault_fell(self):
        # and_cone(2) has few faults: even full detection cannot clear a
        # 0.999999 confidence demand, and the session must not keep
        # burning budget once no fault remains.
        network = and_cone(2)
        source = LfsrSource(network.inputs, 64 * FIRST_DETECTION_CHUNK, seed=3)
        session = streaming_coverage(
            network, source, target_coverage=0.999, confidence=0.999999
        )
        if not session.satisfied:
            assert session.coverage == pytest.approx(1.0)
            assert session.pattern_count < session.pattern_budget

    def test_empty_fault_list_is_vacuous(self):
        network = and_cone(2)
        source = LfsrSource(network.inputs, FIRST_DETECTION_CHUNK, seed=1)
        session = streaming_coverage(network, source, faults=[])
        assert session.satisfied
        assert session.pattern_count == 0
        assert session.coverage == 1.0

    @pytest.mark.parametrize("target", [0.0, -0.1, 1.5])
    def test_rejects_bad_target(self, target):
        network, source, _ = None, None, None
        network = and_cone(2)
        source = LfsrSource(network.inputs, 64, seed=1)
        with pytest.raises(ValueError, match="target_coverage"):
            streaming_coverage(network, source, target_coverage=target)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_rejects_bad_confidence(self, confidence):
        network = and_cone(2)
        source = LfsrSource(network.inputs, 64, seed=1)
        with pytest.raises(ValueError, match="confidence"):
            streaming_coverage(network, source, confidence=confidence)

    def test_unknown_engine_uses_registry_error(self):
        network = and_cone(2)
        source = LfsrSource(network.inputs, 64, seed=1)
        with pytest.raises(ValueError, match="unknown engine"):
            streaming_coverage(network, source, engine="bogus")

    def test_format_summary_mentions_verdict(self):
        _, _, session = self._session()
        text = session.format_summary()
        assert "confidence target met" in text
        assert f"{session.pattern_count} patterns" in text

    def test_collapse_preserves_stopping_point(self):
        network, source, session = self._session()
        collapsed = streaming_coverage(
            network,
            source,
            target_coverage=0.7,
            confidence=0.95,
            collapse="on",
        )
        assert collapsed.collapsed_classes is not None
        assert collapsed.pattern_count == session.pattern_count
        assert collapsed.satisfied == session.satisfied
        assert collapsed.total_weight == session.total_weight
        assert collapsed.detected_weight == session.detected_weight

    @given(
        seed=st.integers(min_value=1, max_value=2**16),
        target=st.sampled_from([0.5, 0.7, 0.9, 0.95]),
        confidence=st.sampled_from([0.9, 0.95, 0.99]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_session_invariants(self, seed, target, confidence):
        network = skewed_cone_network(depth=5, islands=3)
        source = LfsrSource(
            network.inputs, 6 * FIRST_DETECTION_CHUNK, seed=seed
        )
        session = streaming_coverage(
            network,
            source,
            target_coverage=target,
            confidence=confidence,
        )
        # Stops only at a window boundary or at the end of the budget.
        assert (
            session.pattern_count % FIRST_DETECTION_CHUNK == 0
            or session.pattern_count == source.count
        )
        # Never claims satisfaction below the target.
        if session.satisfied:
            assert session.lower_bound >= target
        else:
            assert session.lower_bound < target
        assert session.coverage >= session.lower_bound
        assert 0 <= session.detected_weight <= session.total_weight
        coverages = [coverage for _, coverage in session.curve]
        assert coverages == sorted(coverages)


class TestWindowBoundarySeam:
    """``on_window`` - the per-window-boundary callback the session
    plugs into the engines' batched window cores."""

    def _run(self, engine, stop_after=None):
        # Deep skewed cones keep faults live across several windows, so
        # the callback genuinely fires more than once.
        network = skewed_cone_network(depth=6, islands=4)
        source = LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5)
        faults = network.enumerate_faults()
        boundaries = []

        def on_window(consumed, covered_weight):
            boundaries.append((consumed, covered_weight))
            return stop_after is None or len(boundaries) < stop_after

        outcomes = windowed_outcomes(
            network, source, fault_universe(network, faults), engine,
            on_window=on_window,
        )
        return source, faults, boundaries, outcomes

    @pytest.mark.parametrize("engine", ["compiled", "interpreted", "vector"])
    def test_called_at_every_window_boundary(self, engine):
        source, faults, boundaries, outcomes = self._run(engine)
        # Exactly the pinned grid, one call per consumed window...
        assert [consumed for consumed, _ in boundaries] == [
            FIRST_DETECTION_CHUNK * k for k in range(1, len(boundaries) + 1)
        ]
        covered = [weight for _, weight in boundaries]
        assert covered == sorted(covered)
        # ...and the run only ends at budget exhaustion or full
        # retirement - the boundary where the last active fault fell is
        # still reported (the session samples its curve there).
        assert (
            boundaries[-1][0] == source.count
            or covered[-1] == sum(1 for o in outcomes if o is not None)
        )
        if boundaries[-1][0] < source.count:
            assert all(outcome is not None for outcome in outcomes)

    @pytest.mark.parametrize("engine", ["compiled", "interpreted", "vector"])
    def test_returning_false_stops_the_run(self, engine):
        source, faults, boundaries, outcomes = self._run(engine, stop_after=2)
        assert len(boundaries) == 2
        # Faults first detected beyond the consumed prefix come back None.
        consumed = boundaries[-1][0]
        for outcome in outcomes:
            assert outcome is None or outcome[0] < consumed

    def test_engines_see_identical_boundaries(self):
        reference = self._run("interpreted")[2]
        for engine in ("compiled", "vector"):
            assert self._run(engine)[2] == reference

    def test_seam_turns_on_retirement(self):
        # With the callback provided, detected faults retire (count
        # pinned to 1), exactly as under stop_at_first_detection.
        _, _, _, outcomes = self._run("compiled")
        assert all(
            outcome is None or outcome[1] == 1 for outcome in outcomes
        )


class TestNonWordAlignedStreaming:
    """Sources consumed at window widths that are neither multiples of
    64 nor divisors of the budget must stay bit-exact."""

    BUDGET = 3 * FIRST_DETECTION_CHUNK + 11

    @pytest.mark.parametrize("width", [37, 100, 129])
    def test_windows_match_materialised_slices(self, width):
        network = domino_carry_chain(10)
        source = LfsrSource(network.inputs, self.BUDGET, seed=13)
        whole = LfsrSource(network.inputs, self.BUDGET, seed=13).materialise()
        consumed = 0
        for start, window in source.windows(width):
            assert start == consumed
            expected = whole.slice(start, min(start + width, self.BUDGET))
            assert window.count == expected.count
            assert dict(window.env) == dict(expected.env)
            consumed += window.count
        assert consumed == self.BUDGET

    @pytest.mark.parametrize("width", [37, 100])
    @pytest.mark.parametrize("engine", ["compiled", "vector"])
    def test_windowed_outcomes_on_odd_grid_match_whole_set(
        self, width, engine, monkeypatch
    ):
        network = domino_carry_chain(10)
        source = LfsrSource(network.inputs, self.BUDGET, seed=13)
        universe = fault_universe(network)
        reference = windowed_outcomes(
            network, source.materialise(), universe, "interpreted"
        )
        for module, name in (
            (sharded, "DEFAULT_WINDOW"),
            (vector, "VECTOR_WINDOW"),
            (faultsim, "FIRST_DETECTION_CHUNK"),
        ):
            monkeypatch.setattr(module, name, width)
        assert windowed_outcomes(network, source, universe, engine) == reference
        # The retiring run on the same odd grid: first indices unchanged,
        # counts pinned to 1.
        retired = windowed_outcomes(
            network, source, universe, engine,
            on_window=lambda consumed, covered: True,
        )
        assert retired == [
            None if outcome is None else (outcome[0], 1) for outcome in reference
        ]

    def test_non_aligned_slice_is_exact(self):
        network = domino_carry_chain(10)
        source = LfsrSource(network.inputs, self.BUDGET, seed=13)
        whole = source.materialise()
        assert source.slice(37, 137) == whole.slice(37, 137)


def _register_source(kind, names, count, seed):
    if kind == "weighted":
        probabilities = {
            name: (0.25, 0.75, 0.5, 0.125)[index % 4]
            for index, name in enumerate(names)
        }
        return WeightedSource(names, count, probabilities=probabilities, seed=seed)
    return LfsrSource(names, count, seed=seed)


@pytest.fixture
def jumps(monkeypatch):
    """Every ``Lfsr.jump`` call's step count, in call order."""
    calls = []
    jump = Lfsr.jump

    def counting(self, steps):
        calls.append(steps)
        jump(self, steps)

    monkeypatch.setattr(Lfsr, "jump", counting)
    return calls


@pytest.mark.parametrize("kind", ["lfsr", "weighted"])
class TestSequentialResume:
    """Sequential windows resume the advanced generator; random access
    stays positionally exact (pool workers jump to their own windows)."""

    def test_sequential_windows_resume_the_generator(self, kind, jumps):
        network = domino_carry_chain(10)
        source = _register_source(kind, network.inputs, 1024, seed=7)
        source.slice(0, 256)
        assert source._resume is not None and source._resume[0] == 256
        after_first = len(jumps)
        follow = source.slice(256, 512)  # resume hit: generator is at pattern 256
        assert len(jumps) == after_first
        fresh = _register_source(kind, network.inputs, 1024, seed=7)
        assert follow == fresh.slice(256, 512)

    def test_consecutive_windows_jump_no_register(self, kind, jumps):
        network = domino_carry_chain(10)
        source = _register_source(kind, network.inputs, 1024, seed=7)
        windows = source.windows(FIRST_DETECTION_CHUNK)
        next(windows)
        after_first = len(jumps)
        assert sum(window.count for _start, window in windows) == 1024 - 256
        assert len(jumps) == after_first

    def test_out_of_order_slice_jumps_and_is_exact(self, kind, jumps):
        network = domino_carry_chain(10)
        source = _register_source(kind, network.inputs, 1024, seed=7)
        for _start, _window in source.windows(FIRST_DETECTION_CHUNK):
            pass  # stream the whole budget, leaving the generator advanced
        before = len(jumps)
        again = source.slice(128, 384)  # jump back mid-stream
        assert 128 in jumps[before:]
        fresh = _register_source(kind, network.inputs, 1024, seed=7)
        assert again == fresh.slice(128, 384)

    def test_streamed_windows_identical_to_fresh_jumps(self, kind):
        network = domino_carry_chain(10)
        streamed = _register_source(kind, network.inputs, 1024, seed=7)
        for start, window in streamed.windows(FIRST_DETECTION_CHUNK):
            fresh = _register_source(kind, network.inputs, 1024, seed=7)
            assert window == fresh.slice(start, start + window.count)


class TestStreamingJobs:
    """``jobs`` is validated on every engine and every primitive, and
    threads to the pooled session path."""

    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("engine", available_engines())
    def test_streaming_coverage_validates_jobs(self, engine, jobs):
        network = and_cone(2)
        source = LfsrSource(network.inputs, 64, seed=1)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            streaming_coverage(network, source, engine=engine, jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("engine", available_engines())
    def test_fault_simulate_validates_jobs(self, engine, jobs):
        network = and_cone(2)
        patterns = PatternSet.exhaustive(network.inputs)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            fault_simulate(network, patterns, engine=engine, jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("engine", available_engines())
    def test_monte_carlo_estimator_validates_jobs(self, engine, jobs):
        from repro.protest import monte_carlo_detection_probabilities

        network = and_cone(2)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            monte_carlo_detection_probabilities(
                network, network.enumerate_faults(), samples=64,
                engine=engine, jobs=jobs,
            )

    def test_explicit_jobs_accepted_on_serial_engines(self):
        network = domino_carry_chain(10)
        source = LfsrSource(network.inputs, 2 * FIRST_DETECTION_CHUNK, seed=7)
        session = streaming_coverage(
            network, source, target_coverage=0.7, confidence=0.95, jobs=3
        )
        assert session.pattern_count > 0


class TestPooledSessionFanOut:
    """``jobs=2`` genuinely serves the session from the worker pool -
    one ``pool.map`` per speculative block of the window driver -
    bit-identical to the single-process consumer, on every engine."""

    @pytest.mark.parametrize("engine", available_engines())
    def test_pooled_session_matches_serial(self, engine, monkeypatch):
        from repro.simulate import sharded as sharded_module

        calls = {"maps": 0, "blocks": 0}
        original = sharded_module._pool_kernel

        def spy(pool, *args):
            real_map = pool.map

            def counting_map(*map_args):
                calls["maps"] += 1
                return real_map(*map_args)

            pool.map = counting_map
            detect = original(pool, *args)

            def counting_detect(*detect_args):
                calls["blocks"] += 1
                return detect(*detect_args)

            return counting_detect

        monkeypatch.setattr(sharded_module, "MIN_POOL_WORK", 0)
        monkeypatch.setattr(sharded_module, "_pool_kernel", spy)
        network, budget, faults, target = lfsr_session_case(full_universe=False)
        pooled = streaming_coverage(
            network,
            LfsrSource(network.inputs, budget, seed=5),
            list(faults),
            target_coverage=target,
            confidence=0.95,
            engine=engine,
            jobs=2,
        )
        serial = streaming_coverage(
            network,
            LfsrSource(network.inputs, budget, seed=5),
            list(faults),
            target_coverage=target,
            confidence=0.95,
        )
        assert serial.satisfied and len(serial.curve) < LFSR_SESSION_WINDOWS
        assert calls["blocks"], "session silently downgraded to one process"
        assert calls["maps"] == calls["blocks"]
        windows = -(-pooled.pattern_count // FIRST_DETECTION_CHUNK)
        assert calls["blocks"] < windows
        assert pooled.pattern_count == serial.pattern_count
        assert pooled.detected_weight == serial.detected_weight
        assert pooled.satisfied == serial.satisfied
        assert pooled.curve == serial.curve
        assert pooled.lower_bound == serial.lower_bound


class TestBudgetBoundaryVerdict:
    """A session whose final window detects every remaining fault
    exactly at the budget boundary is reported as a too-small universe,
    not as an exhausted budget."""

    def _boundary_session(self):
        # One-window budget: everything detectable falls in the very
        # last (and only) window, so pattern_count == pattern_budget
        # while no active fault remains.
        network = and_cone(2)
        source = LfsrSource(network.inputs, FIRST_DETECTION_CHUNK, seed=3)
        return streaming_coverage(
            network, source, target_coverage=0.999, confidence=0.999999
        )

    def test_full_detection_at_budget_boundary_not_budget_exhausted(self):
        session = self._boundary_session()
        assert session.pattern_count == session.pattern_budget  # the trap
        assert session.detected_weight == session.total_weight
        assert not session.satisfied
        summary = session.format_summary()
        assert "every fault detected" in summary
        assert "budget" not in summary.splitlines()[0]

    def test_genuinely_exhausted_budget_still_reported(self):
        network = domino_carry_chain(14)
        source = LfsrSource(network.inputs, FIRST_DETECTION_CHUNK, seed=2)
        session = streaming_coverage(
            network, source, target_coverage=1.0, confidence=0.999999
        )
        if session.detected_weight < session.total_weight:
            assert "budget of" in session.format_summary()


class TestCoverageCurve:
    def test_plain_curve_unchanged_without_stop(self):
        network = and_cone(3)
        source = LfsrSource(network.inputs, 128, seed=9)
        full = coverage_curve(network, source.materialise(), points=4)
        streamed = coverage_curve(network, source, points=4)
        assert streamed == full


class TestTestLengthNumerics:
    def test_tiny_probability_stays_finite(self):
        n = required_test_length({"f": 1e-18}, 0.999)
        assert math.isfinite(n)
        exact = math.ceil(math.log1p(-0.999) / math.log1p(-1e-18))
        assert abs(n - exact) / exact < 1e-12

    def test_single_fault_matches_closed_form(self):
        for p in (1e-18, 1e-12, 1e-6, 0.01, 0.5):
            n = required_test_length({"f": p}, 0.99)
            closed = required_length_for_fault(p, 0.99)
            # Beyond 2**53 the float return type rounds the integer
            # pattern count, so compare with relative tolerance.
            assert n >= closed or abs(n - closed) / closed < 1e-12
            assert confidence_all_detected({"f": p}, n) >= 0.99 - 1e-12

    def test_mixed_magnitudes(self):
        probabilities = {"easy": 0.25, "hard": 1e-16, "mid": 1e-4}
        n = required_test_length(probabilities, 0.99)
        assert math.isfinite(n)
        assert confidence_all_detected(probabilities, n) >= 0.99 - 1e-12

    def test_moderate_mix_is_minimal(self):
        # At this scale n - 1 is exactly representable, so the binary
        # search must land on the smallest sufficient length.
        probabilities = {"easy": 0.25, "hard": 0.003, "mid": 0.01}
        n = required_test_length(probabilities, 0.99)
        assert confidence_all_detected(probabilities, n) >= 0.99
        assert confidence_all_detected(probabilities, n - 1) < 0.99

    def test_certain_fault_needs_one_pattern(self):
        assert required_test_length({"f": 1.0}, 0.999) == 1
        assert escape_probability(1.0, 1) == 0.0
        assert escape_probability(1.0, 0) == 1.0

    def test_detection_probability_complements_escape(self):
        for p in (1e-18, 1e-9, 0.1, 0.999):
            for length in (1, 100, 10**6):
                detect = detection_probability(p, length)
                escape = escape_probability(p, length)
                assert detect == pytest.approx(1.0 - escape, abs=1e-12)
                assert 0.0 <= detect <= 1.0

    def test_tiny_probability_detection_not_rounded_to_zero(self):
        # The old 1-(1-p)**N path rounded (1-p) to 1.0 for p <~ 1e-16.
        assert detection_probability(1e-18, 10**15) > 0.0
        assert escape_probability(1e-18, 10**15) < 1.0

    @given(
        p=st.floats(min_value=1e-18, max_value=0.999),
        confidence=st.floats(min_value=0.5, max_value=0.9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_length_is_minimal(self, p, confidence):
        n = required_length_for_fault(p, confidence)
        assert math.isfinite(n) and n >= 1
        assert detection_probability(p, n) >= confidence - 1e-12

    @given(
        probabilities=st.lists(
            st.one_of(
                st.just(1.0),
                st.floats(min_value=0.0, max_value=18.0).map(lambda e: 10.0 ** -e),
                st.floats(min_value=1e-18, max_value=1.0),
            ),
            min_size=1,
            max_size=80,
        ),
        confidence=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_length_equals_reference(self, probabilities, confidence):
        # The sorted-log bisection skips only factors that are exactly
        # 1.0, so the length must equal the unskipped search bit for bit.
        named = {f"f{index}": p for index, p in enumerate(probabilities)}
        assert required_test_length(named, confidence) == reference_test_length(
            named, confidence
        )


class TestProtestStreamingFacade:
    def test_streaming_test_length_runs_end_to_end(self):
        network = domino_carry_chain(10)
        protest = Protest(network)
        session = protest.streaming_test_length(
            target_coverage=0.7,
            confidence=0.95,
            max_patterns=4 * FIRST_DETECTION_CHUNK,
            seed=7,
        )
        assert session.satisfied
        assert session.network_name == network.name
        assert session.pattern_budget == 4 * FIRST_DETECTION_CHUNK

    def test_streaming_on_wide_network(self):
        # domino_carry_chain(20) has 41 inputs - more than one lane word
        # of generator width, the regime the old session code crashed in.
        network = domino_carry_chain(20)
        protest = Protest(network)
        session = protest.streaming_test_length(
            target_coverage=0.5,
            confidence=0.9,
            max_patterns=2 * FIRST_DETECTION_CHUNK,
        )
        assert len(network.inputs) > 40
        assert session.pattern_count > 0
        assert session.detected_weight > 0

    def test_unknown_source_uses_registry_error(self):
        network = and_cone(2)
        protest = Protest(network)
        with pytest.raises(ValueError, match="unknown pattern source"):
            protest.streaming_test_length(source="bogus")
