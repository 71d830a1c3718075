"""The execution planner's invariants (:mod:`repro.simulate.tuning`).

Plans only re-tile work - bit-identity across plans is the differential
harness's job (``test_engine_equivalence.py`` sweeps every engine x
schedule x tuning-plan combination) - so what this file holds are the
planner's *own* contracts: every width inside its physical bounds,
decisions deterministic pure functions of the profile, chunk width
monotone non-increasing in cone size, profiles JSON round-trippable to
identical plans, the ``default`` plan reading the engine-module
constants at call time (so monkeypatching ``vector.VECTOR_CHUNK`` still
steers every chunk read), and the ``resolve_plan`` error contract every
entry point surfaces.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate import (
    TuningProfile,
    available_tunings,
    calibrate_profile,
    resolve_plan,
)
from repro.simulate.tuning import (
    DEFAULT_TUNING,
    MAX_CHUNK_WORDS,
    DefaultPlan,
    TunedPlan,
)

profiles = st.builds(
    TuningProfile,
    name=st.just("prop"),
    word_ns=st.floats(min_value=1e-3, max_value=1e3),
    call_ns=st.floats(min_value=1e-3, max_value=1e6),
    block_ns=st.floats(min_value=1e-3, max_value=1e3),
    cache_words=st.integers(min_value=1, max_value=1 << 24),
)

cone_sizes = st.integers(min_value=0, max_value=5000)
batches = st.integers(min_value=1, max_value=64)
word_counts = st.integers(min_value=1, max_value=1 << 22)
pattern_counts = st.integers(min_value=1, max_value=1 << 26)
slot_counts = st.one_of(st.none(), st.integers(min_value=1, max_value=4096))


class TestPlannerProperties:
    @given(profile=profiles, cone=cone_sizes, batch=batches, n_words=word_counts)
    def test_chunk_always_within_bounds(self, profile, cone, batch, n_words):
        chunk = TunedPlan(profile).chunk_words(cone, batch, n_words)
        assert 1 <= chunk <= n_words
        assert chunk <= MAX_CHUNK_WORDS

    @given(profile=profiles, n_patterns=pattern_counts, slots=slot_counts)
    def test_windows_always_within_bounds(self, profile, n_patterns, slots):
        plan = TunedPlan(profile)
        for window in (
            plan.lane_window(n_patterns, slots),
            plan.bigint_window(n_patterns, slots),
        ):
            assert 1 <= window <= n_patterns

    @given(profile=profiles, cone=cone_sizes, batch=batches, n_words=word_counts,
           n_patterns=pattern_counts, slots=slot_counts)
    def test_plans_deterministic_for_a_fixed_profile(
        self, profile, cone, batch, n_words, n_patterns, slots
    ):
        """Two plans built from equal profiles make identical decisions
        (and re-asking one plan never changes its answer)."""
        first, second = TunedPlan(profile), TunedPlan(profile)
        assert first.profile == second.profile
        assert first.chunk_words(cone, batch, n_words) == second.chunk_words(
            cone, batch, n_words
        )
        assert first.chunk_words(cone, batch, n_words) == first.chunk_words(
            cone, batch, n_words
        )
        assert first.lane_window(n_patterns, slots) == second.lane_window(
            n_patterns, slots
        )
        assert first.bigint_window(n_patterns, slots) == second.bigint_window(
            n_patterns, slots
        )
        assert first.coalesce_overhead_words() == second.coalesce_overhead_words()
        assert first.block_build_factor() == second.block_build_factor()

    @given(profile=profiles, cone_a=cone_sizes, cone_b=cone_sizes,
           batch=batches, n_words=word_counts)
    def test_chunk_monotone_non_increasing_in_cone_size(
        self, profile, cone_a, cone_b, batch, n_words
    ):
        """Deep cones never get wider chunks than shallow ones: the
        residency term shrinks with cone depth and the overhead floor is
        cone-independent."""
        lo, hi = sorted((cone_a, cone_b))
        plan = TunedPlan(profile)
        assert plan.chunk_words(lo, batch, n_words) >= plan.chunk_words(
            hi, batch, n_words
        )

    @given(profile=profiles)
    @settings(max_examples=10)
    def test_profile_round_trip_gives_identical_plan(self, profile, tmp_path_factory):
        path = tmp_path_factory.mktemp("tuning") / "profile.json"
        profile.save(path)
        reloaded = TuningProfile.load(path)
        assert reloaded == profile
        before, after = TunedPlan(profile), TunedPlan(reloaded)
        for cone in (0, 1, 7, 48, 192, 4000):
            for batch in (1, 2, 16, 64):
                assert before.chunk_words(cone, batch, 1 << 20) == (
                    after.chunk_words(cone, batch, 1 << 20)
                )
        for slots in (None, 1, 48, 1024):
            assert before.lane_window(1 << 24, slots) == after.lane_window(
                1 << 24, slots
            )
            assert before.bigint_window(1 << 24, slots) == after.bigint_window(
                1 << 24, slots
            )
        assert before.coalesce_overhead_words() == after.coalesce_overhead_words()
        assert before.block_build_factor() == after.block_build_factor()

    @given(profile=profiles, batch=batches, n_words=word_counts)
    def test_per_cone_widths_are_a_real_degree_of_freedom(
        self, profile, batch, n_words
    ):
        """A tuned plan may give a one-gate island a wider chunk than a
        5000-gate spine - and when the cache budget is large enough
        relative to the floor, it must (the per-cone regression the old
        import-time VECTOR_CHUNK constant made impossible)."""
        plan = TunedPlan(profile)
        shallow = plan.chunk_words(0, batch, n_words)
        deep = plan.chunk_words(5000, batch, n_words)
        assert shallow >= deep
        if (
            profile.cache_words // (batch + 1) > 2 * plan.chunk_words(5000, batch, 1 << 30)
            and profile.cache_words // (batch + 1) < n_words
        ):
            assert shallow > deep


class TestProfileValidation:
    def test_costs_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            TuningProfile(name="bad", word_ns=0.0, call_ns=1.0, block_ns=1.0,
                          cache_words=1)
        with pytest.raises(ValueError, match="cache_words must be >= 1"):
            TuningProfile(name="bad", word_ns=1.0, call_ns=1.0, block_ns=1.0,
                          cache_words=0)

    def test_non_finite_costs_rejected_at_load_time(self, tmp_path):
        """Regression: json parses NaN/Infinity literals, and neither
        compares <= 0 - they must fail profile validation (the
        documented ValueError), not surface later as an OverflowError
        deep inside a chunk computation."""
        for literal in ("NaN", "Infinity", "-Infinity"):
            path = tmp_path / f"{literal}.json"
            path.write_text(
                '{"name": "bad", "word_ns": 1.0, "call_ns": %s, '
                '"block_ns": 1.0, "cache_words": 64}' % literal
            )
            with pytest.raises(ValueError, match="invalid tuning profile"):
                TuningProfile.load(path)

    def test_missing_fields_named_in_error(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"name": "partial", "word_ns": 1.0}))
        with pytest.raises(ValueError, match="missing fields") as excinfo:
            TuningProfile.load(path)
        message = str(excinfo.value)
        assert "call_ns" in message and "cache_words" in message

    def test_malformed_json_raises_invalid_profile(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid tuning profile"):
            TuningProfile.load(path)

    def test_non_object_json_raises_invalid_profile(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            TuningProfile.load(path)


class TestDefaultPlanReadsModuleConstants:
    """Regression (the latent import-time-constant assumption): all
    chunk/window reads route through the plan object, and the default
    plan reads the module constants *at call time* - a monkeypatched
    ``vector.VECTOR_CHUNK`` must keep steering every chunk, which the
    old inlined reads only honoured in some code paths."""

    def test_default_chunk_tracks_monkeypatched_vector_chunk(self, monkeypatch):
        import repro.simulate.vector as vector_module

        plan = DefaultPlan()
        for chunk in (1, 3, 77, 4096):
            monkeypatch.setattr(vector_module, "VECTOR_CHUNK", chunk)
            assert plan.chunk_words(0, 1, 1 << 20) == chunk
            assert plan.chunk_words(500, 64, 1 << 20) == chunk
            assert plan.pricing_chunk(500, 64) == chunk
        monkeypatch.setattr(vector_module, "VECTOR_CHUNK", 1 << 30)
        assert plan.chunk_words(0, 1, 10) == 10  # still clamped to n_words

    def test_default_windows_track_module_constants(self, monkeypatch):
        import repro.simulate.sharded as sharded_module
        import repro.simulate.vector as vector_module

        plan = DefaultPlan()
        monkeypatch.setattr(vector_module, "VECTOR_WINDOW", 123)
        monkeypatch.setattr(sharded_module, "DEFAULT_WINDOW", 77)
        assert plan.lane_window(1 << 20) == 123
        assert plan.bigint_window(1 << 20) == 77

    def test_default_overhead_tracks_module_constant(self, monkeypatch):
        import repro.simulate.vector as vector_module

        plan = DefaultPlan()
        monkeypatch.setattr(vector_module, "COALESCE_OVERHEAD_WORDS", 99)
        assert plan.coalesce_overhead_words() == 99


class TestResolution:
    def test_none_and_default_resolve_to_the_same_plan(self):
        assert resolve_plan(None) is resolve_plan("default")
        assert resolve_plan(None).name == DEFAULT_TUNING == "default"

    def test_available_tunings_sorted(self):
        assert available_tunings() == tuple(sorted(available_tunings()))
        assert available_tunings() == ("auto", "default")

    def test_profile_and_plan_instances_accepted(self):
        profile = TuningProfile(name="inline", word_ns=1.0, call_ns=2.0,
                                block_ns=1.0, cache_words=1 << 16)
        plan = resolve_plan(profile)
        assert plan.profile == profile
        assert resolve_plan(plan) is plan

    def test_auto_plan_memoised_per_process(self):
        assert resolve_plan("auto") is resolve_plan("auto")
        assert resolve_plan("auto").name == "auto"

    def test_auto_plan_persists_to_env_path(self, monkeypatch, tmp_path):
        import repro.simulate.tuning as tuning_module

        path = tmp_path / "host.json"
        monkeypatch.setenv(tuning_module.PROFILE_ENV, str(path))
        monkeypatch.setattr(tuning_module, "_AUTO_PLAN", None)
        first = resolve_plan("auto")
        assert path.exists()
        monkeypatch.setattr(tuning_module, "_AUTO_PLAN", None)
        second = resolve_plan("auto")  # reloaded, not re-calibrated
        assert second.profile == first.profile

    def test_profile_path_resolves_and_is_cached(self, tmp_path):
        profile = TuningProfile(name="saved", word_ns=1.0, call_ns=3.0,
                                block_ns=2.0, cache_words=4096)
        path = str(tmp_path / "saved.json")
        profile.save(path)
        plan = resolve_plan(path)
        assert plan.profile == profile
        assert resolve_plan(path) is plan

    def test_unknown_plan_message_lists_available_plans(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_plan("no/such/profile.json")
        assert str(excinfo.value) == (
            "unknown tuning plan 'no/such/profile.json'; available plans: "
            "auto, default (or a tuning-profile JSON path)"
        )

    def test_non_string_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown tuning plan"):
            resolve_plan(1536)


class TestCalibration:
    def test_calibrated_profile_is_plannable(self):
        profile = calibrate_profile(name="probe")
        assert profile.name == "probe"
        assert profile.word_ns > 0 and profile.call_ns > 0 and profile.block_ns > 0
        assert profile.cache_words >= 1
        assert profile.call_overhead_words >= 1
        plan = TunedPlan(profile)
        assert 1 <= plan.chunk_words(48, 16, 1 << 20) <= 1 << 20

    def test_calibrated_profile_round_trips(self, tmp_path):
        profile = calibrate_profile()
        path = tmp_path / "host.json"
        profile.save(path)
        assert TuningProfile.load(path) == profile
