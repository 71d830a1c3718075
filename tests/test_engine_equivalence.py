"""Registry-driven differential harness: every engine vs the oracle.

Every engine registered in :mod:`repro.simulate.registry` - today
``interpreted``, ``compiled`` and ``vector``, and automatically any
engine registered later - run in-process (``jobs=1``) or through a
genuinely forked worker pool (``jobs=2``) - must be bit-identical to
the interpreted oracle
(:meth:`Network.evaluate_bits`) on every detection set, detection
count, first-detection index, difference word and net valuation,
across fixed circuits, hypothesis-generated circuits, both fault
kinds, pattern-window widths, weighted pattern sets - every
registered fault **schedule** (``contiguous``/``cost``/``interleaved``,
swept on skewed-cone circuits where scheduling reorders work hardest)
- and every **tuning plan** (:mod:`repro.simulate.tuning`: the default
constants, an adversarial profile forcing tiny chunk/window widths
that do not divide the word count, and the host-calibrated ``auto``
plan), since plans re-tile every pass and must never move a bit - and
the **collapse** dimension (:mod:`repro.faults.structural`): simulating
one representative per structural equivalence class and scattering the
outcomes back must be bit-identical too, as must coverage-capped runs
(``stop_at_coverage``), whose stopping window is pinned to the same
streaming grid on every engine - and the **cache** dimension
(:mod:`repro.simulate.artifacts`): a warm artifact store only skips
re-derivation, so a cached re-run must be bit-identical to the cold
run on every engine x schedule x plan x collapse combination, on every
cache mode (``off``, ``memory``, a disk-tier directory).

Engine-specific mechanics stay in their own files
(``test_compiled_engine.py`` for the slot program's internals,
``test_sharded_engine.py`` for the worker pool, windows and merge,
``test_vector_engine.py`` for lane arrays); the cross-engine
equivalence cases that used to be duplicated there are folded in here.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import all_faults, differential_circuits, results_identical
from words_reference import reference_difference_words

from repro.circuits.generators import (
    and_cone,
    domino_carry_chain,
    random_network,
    skewed_cone_network,
)
from repro.netlist import NetworkFault
from repro.simulate import (
    ArtifactStore,
    LfsrSource,
    PatternSet,
    PatternSetSource,
    RandomSource,
    TuningProfile,
    WeightedSource,
    available_engines,
    available_schedules,
    available_sources,
    available_tunings,
    coverage_curve,
    fault_simulate,
    get_engine,
    get_source,
    register_engine,
    resolve_plan,
    sharded,
    streaming_coverage,
)
from repro.simulate.faultsim import (
    FIRST_DETECTION_CHUNK,
    build_result,
    windowed_outcomes,
)

ENGINES = available_engines()
SCHEDULES = available_schedules()

#: Worker counts the harness sweeps: in-process, and a two-worker pool
#: that really forks (:func:`pooling` drops ``MIN_POOL_WORK`` to 0 -
#: every harness workload is far below the production threshold).
JOBS = (1, 2)


@contextlib.contextmanager
def pooling(jobs):
    """Force a genuine worker pool for ``jobs > 1``."""
    with pytest.MonkeyPatch.context() as patch:
        if jobs > 1:
            patch.setattr(sharded, "MIN_POOL_WORK", 0)
        yield jobs


@pytest.fixture(params=JOBS, ids=lambda jobs: f"jobs{jobs}")
def jobs(request):
    with pooling(request.param):
        yield request.param

#: Tuning plans the harness sweeps: the historical constants, an
#: adversarial profile whose tiny cache budget forces one-word chunks
#: and 64-pattern windows (uneven tails everywhere), and the
#: host-calibrated plan.  "adversarial" is materialised as a profile
#: JSON by the ``tuning_specs`` fixture, exercising the --tune path
#: form end to end.
TUNINGS = ("default", "adversarial", "auto")

ADVERSARIAL_TUNING = TuningProfile(
    name="adversarial", word_ns=1.0, call_ns=1.0, block_ns=4.0, cache_words=7
)

#: A second adversary for chunk geometry: the cache budget is sized so
#: multi-word windows survive while per-cone chunks land on widths (2,
#: 5, 9, ...) that do not divide the window's word count.
ODD_CHUNK_TUNING = TuningProfile(
    name="odd-chunks", word_ns=1.0, call_ns=1.0, block_ns=2.0, cache_words=120
)


@pytest.fixture(scope="session")
def tuning_specs(tmp_path_factory):
    """Map sweep names to the specs callers would actually pass."""
    path = tmp_path_factory.mktemp("tuning") / "adversarial.json"
    ADVERSARIAL_TUNING.save(path)
    return {"default": "default", "adversarial": str(path), "auto": "auto"}


CIRCUITS = differential_circuits()


def oracle_result(network, patterns, faults, **kwargs):
    return fault_simulate(network, patterns, faults, engine="interpreted", **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("network", CIRCUITS, ids=lambda n: n.name)
class TestEveryEngineMatchesOracle:
    """The registry contract, engine by engine, circuit by circuit -
    the fault-simulation modes, detection words and sessions once
    in-process and once through a forked pool (the ``jobs`` fixture)."""

    def test_fault_simulate_identical(self, engine, network, jobs):
        patterns = PatternSet.random(network.inputs, 128, seed=8)
        faults = all_faults(network)
        results_identical(
            fault_simulate(network, patterns, faults, engine=engine, jobs=jobs),
            oracle_result(network, patterns, faults),
        )

    def test_first_detection_identical(self, engine, network, jobs):
        # More patterns than one chunk so the early-exit path is exercised.
        patterns = PatternSet.random(
            network.inputs, FIRST_DETECTION_CHUNK + 64, seed=9
        )
        faults = all_faults(network)
        first = fault_simulate(
            network, patterns, faults, stop_at_first_detection=True,
            engine=engine, jobs=jobs,
        )
        results_identical(
            first,
            oracle_result(network, patterns, faults, stop_at_first_detection=True),
        )
        full = fault_simulate(network, patterns, faults, engine=engine, jobs=jobs)
        assert first.detected == full.detected
        assert first.undetected == full.undetected
        # Documented semantics: counts are pinned to 1 per detected fault.
        assert all(count == 1 for count in first.detection_counts.values())

    def test_coverage_capped_run_identical(self, engine, network, jobs):
        patterns = PatternSet.random(
            network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=61
        )
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network, patterns, faults, engine=engine, jobs=jobs,
                stop_at_coverage=0.7,
            ),
            oracle_result(network, patterns, faults, stop_at_coverage=0.7),
        )

    def test_difference_words_identical(self, engine, network, jobs):
        """Called positionally: ``(network, patterns, faults, jobs,
        schedule, tune, cache)`` is every engine's signature."""
        patterns = PatternSet.random(network.inputs, 130, seed=7)
        faults = all_faults(network)
        assert get_engine(engine).difference_words(
            network, patterns, faults, jobs, "cost", "default", None
        ) == reference_difference_words(network, patterns, faults)

    def test_streaming_coverage_identical(self, engine, network, jobs):
        def session(engine, jobs=None):
            return streaming_coverage(
                network,
                LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
                all_faults(network),
                target_coverage=0.7,
                confidence=0.95,
                engine=engine,
                jobs=jobs,
            )

        result, reference = session(engine, jobs), session("interpreted")
        assert result.pattern_count == reference.pattern_count
        assert result.detected_weight == reference.detected_weight
        assert result.satisfied == reference.satisfied
        assert result.curve == reference.curve
        assert result.lower_bound == reference.lower_bound

    def test_evaluate_bits_identical_on_every_net(self, engine, network):
        patterns = PatternSet.random(network.inputs, 96, seed=5)
        assert get_engine(engine).evaluate_bits(
            network, patterns.env, patterns.mask
        ) == network.evaluate_bits(patterns.env, patterns.mask)

    def test_evaluate_bits_identical_under_sparse_mask(self, engine, network):
        """Regression (PR 3): a non-contiguous mask is legal for
        evaluate_bits (it selects pattern positions) and must keep its
        positional layout on every engine."""
        patterns = PatternSet.random(network.inputs, 64, seed=15)
        sparse = patterns.mask & 0xA5A5_A5A5_A5A5_A5A5
        reference = network.evaluate_bits(patterns.env, sparse)
        assert (
            get_engine(engine).evaluate_bits(network, patterns.env, sparse)
            == reference
        )

    def test_weighted_pattern_sets_identical(self, engine, network):
        probabilities = {
            name: probability
            for name, probability in zip(network.inputs, (0.1, 0.9, 0.35, 0.5, 0.75))
        }
        patterns = PatternSet.random(
            network.inputs, 200, seed=13, probabilities=probabilities
        )
        faults = all_faults(network)
        results_identical(
            fault_simulate(network, patterns, faults, engine=engine),
            oracle_result(network, patterns, faults),
        )

    def test_empty_pattern_set_identical(self, engine, network):
        empty = PatternSet(tuple(network.inputs), {n: 0 for n in network.inputs}, 0)
        faults = all_faults(network)
        result = fault_simulate(network, empty, faults, engine=engine)
        assert result.detected == {}
        assert result.pattern_count == 0
        assert len(result.undetected) == len({f.describe() for f in faults})


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=12)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_inputs=st.integers(min_value=2, max_value=7),
    n_gates=st.integers(min_value=1, max_value=16),
    pattern_seed=st.integers(min_value=0, max_value=255),
    count=st.integers(min_value=1, max_value=300),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_engines_agree_on_random_circuits(
    engine, seed, n_inputs, n_gates, pattern_seed, count, weight
):
    """Property: every engine agrees with the oracle on arbitrary random
    circuits, fault kinds and (weighted) pattern sets."""
    network = random_network(n_inputs=n_inputs, n_gates=n_gates, seed=seed)
    patterns = PatternSet.random(
        network.inputs,
        count,
        seed=pattern_seed,
        probabilities={network.inputs[0]: weight},
    )
    faults = all_faults(network)
    results_identical(
        fault_simulate(network, patterns, faults, engine=engine),
        oracle_result(network, patterns, faults),
    )


@pytest.fixture()
def plugin_engine():
    """A throwaway engine built only from the seam - the compiled
    kernels under a new name - registered for one test; ``ENGINES`` is
    unchanged afterwards."""
    from repro.simulate import Engine, registry

    compiled = get_engine("compiled")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_ENGINES", dict(registry._ENGINES))
        yield register_engine(
            Engine(
                name="plug-in",
                description="compiled kernels under a new name",
                evaluate_bits=compiled.evaluate_bits,
                block_kernel=compiled.block_kernel,
                words_kernel=compiled.words_kernel,
                lanes=compiled.lanes,
            )
        ).name
    assert available_engines() == ENGINES


@pytest.mark.parametrize("network", CIRCUITS[:4], ids=lambda n: n.name)
def test_plugin_engine_matches_oracle(plugin_engine, network, jobs):
    """The seam is the contract: an engine registered from nothing but
    its kernels and window kind runs every mode - in-process and
    through a forked pool - bit-identical to the oracle."""
    assert plugin_engine in available_engines()
    patterns = PatternSet.random(
        network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=71
    )
    faults = all_faults(network)
    for kwargs in (
        {},
        {"stop_at_first_detection": True},
        {"stop_at_coverage": 0.7},
    ):
        results_identical(
            fault_simulate(
                network, patterns, faults, engine=plugin_engine, jobs=jobs,
                **kwargs,
            ),
            oracle_result(network, patterns, faults, **kwargs),
        )
    assert get_engine(plugin_engine).difference_words(
        network, patterns, faults, jobs
    ) == reference_difference_words(network, patterns, faults)

    def session(engine, jobs=None):
        return streaming_coverage(
            network,
            LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
            faults, target_coverage=0.7, confidence=0.95,
            engine=engine, jobs=jobs,
        )

    assert session(plugin_engine, jobs) == session("interpreted")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
class TestEveryEngineScheduleCombination:
    """The schedule sweep: scheduling re-orders work, never results.

    Skewed-cone circuits (one huge fanout cone next to many tiny ones)
    are the adversarial topology - cost-weighted partitioning reorders
    the fault list hardest and the cross-site coalescer has the most
    two-lane stuck-at-pair batches to merge - so every engine x
    schedule combination is held bit-identical to the interpreted
    oracle on exactly that shape.
    """

    def test_fault_simulate_identical_on_skewed_cones(self, engine, schedule, jobs):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 160, seed=29)
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network, patterns, faults, engine=engine, schedule=schedule,
                jobs=jobs,
            ),
            oracle_result(network, patterns, faults),
        )

    def test_first_detection_identical_on_skewed_cones(self, engine, schedule, jobs):
        network = skewed_cone_network(depth=6, islands=4)
        patterns = PatternSet.random(
            network.inputs, FIRST_DETECTION_CHUNK + 32, seed=33
        )
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network,
                patterns,
                faults,
                stop_at_first_detection=True,
                engine=engine,
                schedule=schedule,
                jobs=jobs,
            ),
            oracle_result(network, patterns, faults, stop_at_first_detection=True),
        )

    def test_difference_words_identical_on_skewed_cones(self, engine, schedule, jobs):
        network = skewed_cone_network(depth=7, islands=5)
        patterns = PatternSet.random(network.inputs, 130, seed=37)
        faults = all_faults(network)
        assert get_engine(engine).difference_words(
            network, patterns, faults, jobs=jobs, schedule=schedule
        ) == reference_difference_words(network, patterns, faults)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@settings(max_examples=6)
@given(
    depth=st.integers(min_value=1, max_value=12),
    islands=st.integers(min_value=0, max_value=8),
    count=st.integers(min_value=1, max_value=220),
    seed=st.integers(min_value=0, max_value=255),
)
def test_property_engine_schedule_identical_on_skewed_circuits(
    engine, schedule, depth, islands, count, seed
):
    """Property: every engine x schedule combination matches the oracle
    on hypothesis-generated skewed circuits and pattern sets."""
    network = skewed_cone_network(depth=depth, islands=islands)
    patterns = PatternSet.random(network.inputs, count, seed=seed)
    faults = all_faults(network)
    results_identical(
        fault_simulate(network, patterns, faults, engine=engine, schedule=schedule),
        oracle_result(network, patterns, faults),
    )


_ORACLE_CACHE = {}


def _cached_oracle(key, network, patterns, faults, **kwargs):
    """One oracle run per (circuit, pattern) configuration for the
    engine x schedule x plan sweep - 45 combinations re-deriving the
    same interpreted reference would dominate the harness's runtime."""
    cached = _ORACLE_CACHE.get(key)
    if cached is None:
        cached = oracle_result(network, patterns, faults, **kwargs)
        _ORACLE_CACHE[key] = cached
    return cached


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("tuning", TUNINGS)
class TestEveryEngineSchedulePlanCombination:
    """The full sweep: plans re-tile work, schedules re-order it, and
    neither - in any combination, on any engine - may move a bit.

    The skewed-cone circuit is the adversary for both at once: the
    spine's deep cones get the narrowest tuned chunks while the
    coalescer merges the islands' underfilled batches, and the
    adversarial profile forces one-word chunks and 64-pattern windows
    whose tails do not divide the pattern count.
    """

    def test_fault_simulate_identical_on_skewed_cones(
        self, engine, schedule, tuning, tuning_specs, jobs
    ):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network, patterns, faults, engine=engine, schedule=schedule,
                tune=tuning_specs[tuning], jobs=jobs,
            ),
            _cached_oracle("skew-plan-sweep", network, patterns, faults),
        )

    def test_collapsed_run_identical_on_skewed_cones(
        self, engine, schedule, tuning, tuning_specs, jobs
    ):
        """The collapse sweep dimension: simulating one representative
        per structural equivalence class and scattering the outcomes
        back must be bit-identical on every engine x schedule x plan
        combination."""
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        collapsed = fault_simulate(
            network, patterns, faults, engine=engine, schedule=schedule,
            tune=tuning_specs[tuning], collapse="on", jobs=jobs,
        )
        results_identical(
            collapsed,
            _cached_oracle("skew-plan-sweep", network, patterns, faults),
        )
        assert collapsed.collapsed_classes is not None
        assert collapsed.collapsed_classes <= collapsed.fault_count


#: Cache modes the harness sweeps: caching disabled, the in-memory
#: tier, and the persistent disk tier ("disk" is materialised as a
#: per-test directory, exercising the --cache path form end to end).
CACHE_SWEEP = ("off", "memory", "disk")


def _cache_spec(mode, tmp_path):
    if mode == "disk":
        return str(tmp_path / "artifact-store")
    if mode == "memory":
        return ArtifactStore()  # a fresh store: the test owns warm-up
    return mode


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("cache_mode", CACHE_SWEEP)
class TestEveryEngineScheduleCacheCombination:
    """The cache sweep dimension: a warm store only skips
    re-derivation.  Each combination runs cold then warm on the same
    store - both must match the cache-free oracle bit for bit, on the
    collapsed run too (collapse classes are themselves cached
    artifacts)."""

    def test_cached_rerun_identical_on_skewed_cones(
        self, engine, schedule, cache_mode, tmp_path
    ):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        spec = _cache_spec(cache_mode, tmp_path)
        cold = fault_simulate(
            network, patterns, faults, engine=engine, schedule=schedule,
            collapse="on", cache=spec,
        )
        warm = fault_simulate(
            network, patterns, faults, engine=engine, schedule=schedule,
            collapse="on", cache=spec,
        )
        results_identical(
            cold, _cached_oracle("skew-plan-sweep", network, patterns, faults)
        )
        results_identical(warm, cold)


@pytest.mark.parametrize("engine", ("compiled", "vector"))
@pytest.mark.parametrize("tuning", TUNINGS)
@pytest.mark.parametrize("cache_mode", CACHE_SWEEP)
class TestEveryPlanCacheCombination:
    """The plan x cache cross: tuned plans re-tile the cached slot
    programs and batch plans, and a warm store must hand back artifacts
    that re-tile to the same bits."""

    def test_cached_rerun_identical_under_every_plan(
        self, engine, tuning, cache_mode, tuning_specs, tmp_path
    ):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        spec = _cache_spec(cache_mode, tmp_path)
        cold = fault_simulate(
            network, patterns, faults, engine=engine,
            tune=tuning_specs[tuning], cache=spec,
        )
        warm = fault_simulate(
            network, patterns, faults, engine=engine,
            tune=tuning_specs[tuning], cache=spec,
        )
        results_identical(
            cold, _cached_oracle("skew-plan-sweep", network, patterns, faults)
        )
        results_identical(warm, cold)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tuning", TUNINGS)
class TestEveryEnginePlanCombination:
    """The engine x plan surfaces beyond plain fault simulation."""

    def test_first_detection_identical_under_every_plan(
        self, engine, tuning, tuning_specs
    ):
        network = skewed_cone_network(depth=6, islands=4)
        patterns = PatternSet.random(
            network.inputs, FIRST_DETECTION_CHUNK + 32, seed=51
        )
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network,
                patterns,
                faults,
                stop_at_first_detection=True,
                engine=engine,
                tune=tuning_specs[tuning],
            ),
            _cached_oracle(
                "skew-plan-first", network, patterns, faults,
                stop_at_first_detection=True,
            ),
        )

    def test_difference_words_identical_under_every_plan(
        self, engine, tuning, tuning_specs
    ):
        network = skewed_cone_network(depth=7, islands=5)
        patterns = PatternSet.random(network.inputs, 130, seed=53)
        faults = all_faults(network)
        assert get_engine(engine).difference_words(
            network, patterns, faults, tune=tuning_specs[tuning]
        ) == reference_difference_words(network, patterns, faults)


@pytest.mark.parametrize("engine", ENGINES)
def test_chunks_that_do_not_divide_the_word_count_are_exact(engine):
    """The odd-chunk adversary: a cache budget sized so windows span
    many words while per-cone chunk widths land on non-divisors of the
    word count (and differ cone by cone) - the boundary arithmetic the
    per-cone planner must get right where one global chunk never could.
    """
    network = skewed_cone_network(depth=9, islands=6)
    patterns = PatternSet.random(network.inputs, 1000, seed=59)  # 16 words
    faults = all_faults(network)
    results_identical(
        fault_simulate(network, patterns, faults, engine=engine,
                       tune=ODD_CHUNK_TUNING),
        _cached_oracle("skew-odd-chunks", network, patterns, faults),
    )


@pytest.mark.parametrize("engine", ("vector",))
@pytest.mark.parametrize("jobs", JOBS)
@settings(max_examples=6)
@given(
    depth=st.integers(min_value=1, max_value=10),
    islands=st.integers(min_value=0, max_value=6),
    count=st.integers(min_value=1, max_value=220),
    cache_words=st.integers(min_value=1, max_value=4096),
)
def test_property_tuned_plans_identical_on_skewed_circuits(
    engine, jobs, depth, islands, count, cache_words
):
    """Property: arbitrary cache budgets (hence arbitrary chunk/window
    geometries) never move a bit on the engines that consume them."""
    profile = TuningProfile(
        name="prop", word_ns=1.0, call_ns=3.0, block_ns=2.0,
        cache_words=cache_words,
    )
    network = skewed_cone_network(depth=depth, islands=islands)
    patterns = PatternSet.random(network.inputs, count, seed=count)
    faults = all_faults(network)
    with pooling(jobs):
        result = fault_simulate(
            network, patterns, faults, engine=engine, tune=profile, jobs=jobs
        )
    results_identical(result, oracle_result(network, patterns, faults))


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=200),
    window=st.integers(min_value=1, max_value=64),
)
def test_property_window_widths_exact(engine, seed, count, window):
    """Property: windowed == whole-set for every single-process window
    core, on arbitrary circuits and window widths (uneven tails
    included)."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0xAAAA)
    faults = all_faults(network)
    outcomes = windowed_outcomes(network, patterns, faults, window, False, engine)
    rebuilt = build_result(network.name, patterns.count, faults, outcomes)
    results_identical(rebuilt, oracle_result(network, patterns, faults))


@settings(max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=200),
    window=st.integers(min_value=1, max_value=64),
    inner=st.sampled_from(ENGINES),
    schedule=st.sampled_from(SCHEDULES),
)
def test_property_pooled_window_widths_exact(seed, count, window, inner, schedule):
    """Property: the worker pool composes exactly with any engine's
    window core at any window width, under any schedule."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x5555)
    faults = all_faults(network)
    with pooling(2):
        outcomes = windowed_outcomes(
            network, patterns, faults, window, False, inner, schedule, jobs=2
        )
    pooled = build_result(network.name, patterns.count, faults, outcomes)
    results_identical(pooled, oracle_result(network, patterns, faults))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("tuning", ("default", "adversarial", "auto"))
@settings(max_examples=3)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=200),
)
def test_property_collapsed_identical_on_every_engine_schedule_plan(
    engine, schedule, tuning, seed, count
):
    """Property: ``collapse="on"`` is bit-identical to the uncollapsed
    run across every engine x schedule x plan combination, on arbitrary
    random circuits and pattern sets - the tentpole contract."""
    tune = ADVERSARIAL_TUNING if tuning == "adversarial" else tuning
    network = random_network(n_inputs=5, n_gates=11, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x3333)
    faults = all_faults(network)
    results_identical(
        fault_simulate(
            network, patterns, faults, engine=engine, schedule=schedule,
            tune=tune, collapse="on",
        ),
        fault_simulate(
            network, patterns, faults, engine=engine, schedule=schedule,
            tune=tune,
        ),
    )


@pytest.mark.parametrize("engine", ENGINES)
class TestStopAtCoverageAcrossEngines:
    """Dynamic fault dropping: every engine stops at the identical
    window (the FIRST_DETECTION_CHUNK grid is pinned everywhere), so
    coverage-capped runs are bit-identical across the registry - with
    and without collapsing, whose class-size weights keep the stopping
    window aligned with the uncollapsed universe."""

    def test_coverage_capped_run_identical_to_oracle(self, engine, jobs):
        network = skewed_cone_network(depth=6, islands=4)
        patterns = PatternSet.random(
            network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=61
        )
        faults = all_faults(network)
        for threshold in (0.3, 0.7, 1.0):
            results_identical(
                fault_simulate(
                    network, patterns, faults, engine=engine, jobs=jobs,
                    stop_at_coverage=threshold,
                ),
                _cached_oracle(
                    ("skew-coverage", threshold), network, patterns, faults,
                    stop_at_coverage=threshold,
                ),
            )

    def test_coverage_capped_collapsed_run_identical(self, engine, jobs):
        network = skewed_cone_network(depth=6, islands=4)
        patterns = PatternSet.random(
            network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=61
        )
        faults = all_faults(network)
        for threshold in (0.3, 0.7):
            results_identical(
                fault_simulate(
                    network, patterns, faults, engine=engine, jobs=jobs,
                    stop_at_coverage=threshold, collapse="on",
                ),
                _cached_oracle(
                    ("skew-coverage", threshold), network, patterns, faults,
                    stop_at_coverage=threshold,
                ),
            )


@settings(max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=600),
    threshold=st.floats(min_value=0.05, max_value=1.0),
    engine=st.sampled_from(ENGINES),
    collapse=st.sampled_from(("off", "on")),
)
def test_property_coverage_capped_runs_identical(
    seed, count, threshold, engine, collapse
):
    """Property: any coverage threshold stops every engine - collapsed
    or not - at the same window as the interpreted oracle."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x7777)
    faults = all_faults(network)
    results_identical(
        fault_simulate(
            network, patterns, faults, engine=engine,
            stop_at_coverage=threshold, collapse=collapse,
        ),
        oracle_result(network, patterns, faults, stop_at_coverage=threshold),
    )


class TestEngineContracts:
    """Per-engine input-validation contracts, over the whole registry."""

    def test_stuck_on_unknown_net_raises_on_all_engines(self):
        network = domino_carry_chain(2)
        patterns = PatternSet.exhaustive(network.inputs)
        ghost = NetworkFault.stuck_at("ghost", 1)
        for engine in ENGINES:
            with pytest.raises(ValueError, match="cannot be injected"):
                fault_simulate(network, patterns, [ghost], engine=engine)

    def test_cell_fault_on_unknown_gate_raises_on_all_engines(self):
        network = domino_carry_chain(2)
        patterns = PatternSet.exhaustive(network.inputs)
        template = network.enumerate_faults()[0]
        orphan = NetworkFault.cell_fault(
            "no_such_gate", template.class_index, template.function
        )
        for engine in ENGINES:
            with pytest.raises(ValueError, match="cannot be injected"):
                fault_simulate(network, patterns, [orphan], engine=engine)

    def test_distinct_faults_sharing_a_label_raise_on_all_engines(self):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        colliding = [
            NetworkFault.stuck_at("a0", 0),
            NetworkFault(kind="stuck", net="a1", value=0, label="s0-a0"),
        ]
        for engine in ENGINES:
            with pytest.raises(ValueError, match="shared by two distinct"):
                fault_simulate(network, patterns, colliding, engine=engine)

    def test_duplicate_of_same_fault_reported_once_on_all_engines(self):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        fault = NetworkFault.stuck_at("a0", 0)
        single = fault_simulate(network, patterns, [fault], engine="interpreted")
        for engine in ENGINES:
            doubled = fault_simulate(network, patterns, [fault, fault], engine=engine)
            results_identical(doubled, single)


class TestRegistryErrorPaths:
    def test_unknown_engine_message_lists_sorted_available_engines(self):
        with pytest.raises(ValueError) as excinfo:
            get_engine("turbo")
        message = str(excinfo.value)
        assert message == (
            "unknown engine 'turbo'; available engines: " + ", ".join(ENGINES)
        )
        assert list(ENGINES) == sorted(ENGINES)

    def test_fault_simulate_rejects_unknown_engine(self):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        with pytest.raises(ValueError, match="unknown engine"):
            fault_simulate(network, patterns, engine="turbo")

    def test_register_engine_is_idempotent(self):
        engine = get_engine("compiled")
        before = available_engines()
        assert register_engine(engine) is engine
        assert register_engine(engine) is engine
        assert available_engines() == before
        assert get_engine("compiled") is engine

    def test_fault_simulate_rejects_unknown_schedule_on_every_engine(self):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        for engine in ENGINES:
            with pytest.raises(ValueError, match="unknown schedule"):
                fault_simulate(
                    network, patterns, engine=engine, schedule="turbo"
                )

    def test_difference_words_rejects_unknown_schedule_on_every_engine(self):
        """Regression: the estimator path enters through
        ``Engine.difference_words``, which bypasses ``fault_simulate``'s
        up-front check - the serial engines must still reject bad
        schedule names there instead of silently ignoring them."""
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        faults = all_faults(network)
        for engine in ENGINES:
            with pytest.raises(ValueError, match="unknown schedule"):
                get_engine(engine).difference_words(
                    network, patterns, faults, schedule="turbo"
                )

    def test_unknown_schedule_message_lists_sorted_available_schedules(self):
        from repro.simulate import get_schedule

        with pytest.raises(ValueError) as excinfo:
            get_schedule("turbo")
        assert str(excinfo.value) == (
            "unknown schedule 'turbo'; available schedules: "
            + ", ".join(SCHEDULES)
        )
        assert list(SCHEDULES) == sorted(SCHEDULES)

    def test_cli_engine_choices_match_registry(self):
        """ENGINE_CHOICES is spelled out in cli.py (to keep --help free
        of the simulate import cost); it must not drift from the
        registry."""
        from repro.cli import ENGINE_CHOICES

        assert tuple(sorted(ENGINE_CHOICES)) == ENGINES

    def test_cli_schedule_choices_match_registry(self):
        from repro.cli import SCHEDULE_CHOICES

        assert tuple(sorted(SCHEDULE_CHOICES)) == SCHEDULES

    def test_cli_collapse_choices_match_module(self):
        from repro.cli import COLLAPSE_CHOICES
        from repro.faults.structural import available_collapse_modes

        assert tuple(sorted(COLLAPSE_CHOICES)) == available_collapse_modes()

    def test_cli_rejects_unknown_collapse_with_module_message(self, capsys):
        from repro.cli import build_parser
        from repro.faults.structural import available_collapse_modes

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["protest", "cell.txt", "--collapse", "turbo"])
        stderr = capsys.readouterr().err
        assert (
            "unknown collapse mode 'turbo'; available collapse modes: "
            + ", ".join(available_collapse_modes())
        ) in stderr

    def test_cli_accepts_every_collapse_mode(self):
        from repro.cli import COLLAPSE_CHOICES, build_parser

        parser = build_parser()
        for mode in COLLAPSE_CHOICES:
            args = parser.parse_args(["protest", "cell.txt", "--collapse", mode])
            assert args.collapse == mode
        assert parser.parse_args(["protest", "cell.txt"]).collapse is None

    def test_cli_rejects_unknown_engine_with_registry_message(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["protest", "cell.txt", "--engine", "turbo"])
        stderr = capsys.readouterr().err
        assert "unknown engine 'turbo'; available engines: " + ", ".join(
            ENGINES
        ) in stderr

    def test_cli_accepts_every_registered_engine(self):
        from repro.cli import build_parser

        parser = build_parser()
        for engine in ENGINES:
            args = parser.parse_args(["protest", "cell.txt", "--engine", engine])
            assert args.engine == engine

    def test_cli_jobs_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["protest", "cell.txt", "--engine", "compiled", "--jobs", "2"]
        )
        assert args.engine == "compiled"
        assert args.jobs == 2
        assert parser.parse_args(["protest", "cell.txt"]).jobs == 1

    def test_cli_accepts_every_registered_schedule(self):
        from repro.cli import build_parser

        parser = build_parser()
        for schedule in SCHEDULES:
            args = parser.parse_args(
                ["protest", "cell.txt", "--schedule", schedule]
            )
            assert args.schedule == schedule
        assert parser.parse_args(["protest", "cell.txt"]).schedule is None

    def test_cli_rejects_unknown_schedule_with_registry_message(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["protest", "cell.txt", "--schedule", "turbo"])
        stderr = capsys.readouterr().err
        assert "unknown schedule 'turbo'; available schedules: " + ", ".join(
            SCHEDULES
        ) in stderr


class TestTuningErrorPaths:
    """The --tune error contract: unknown plan names/paths and
    malformed profile JSON raise the tuning module's exact message on
    every entry point, drift-tested like ENGINE_CHOICES and
    SCHEDULE_CHOICES."""

    UNKNOWN = "no/such/profile.json"

    @pytest.fixture()
    def malformed_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        return str(path)

    def _exact_message(self, spec):
        with pytest.raises(ValueError) as excinfo:
            resolve_plan(spec)
        return str(excinfo.value)

    def test_unknown_plan_message_lists_available_plans(self):
        assert self._exact_message(self.UNKNOWN) == (
            f"unknown tuning plan {self.UNKNOWN!r}; available plans: "
            + ", ".join(available_tunings())
            + " (or a tuning-profile JSON path)"
        )
        assert list(available_tunings()) == sorted(available_tunings())

    def test_fault_simulate_rejects_bad_plans_on_every_engine(
        self, malformed_path
    ):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        unknown = self._exact_message(self.UNKNOWN)
        malformed = self._exact_message(malformed_path)
        assert malformed.startswith(f"invalid tuning profile {malformed_path!r}")
        for engine in ENGINES:
            for spec, message in ((self.UNKNOWN, unknown), (malformed_path, malformed)):
                with pytest.raises(ValueError) as excinfo:
                    fault_simulate(network, patterns, engine=engine, tune=spec)
                assert str(excinfo.value) == message, engine

    def test_difference_words_rejects_bad_plans_on_every_engine(
        self, malformed_path
    ):
        """The estimator path enters through ``Engine.difference_words``,
        which bypasses ``fault_simulate``'s up-front check - the serial
        engines must still reject bad plans there too."""
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        faults = all_faults(network)
        for engine in ENGINES:
            for spec in (self.UNKNOWN, malformed_path):
                with pytest.raises(ValueError) as excinfo:
                    get_engine(engine).difference_words(
                        network, patterns, faults, tune=spec
                    )
                assert str(excinfo.value) == self._exact_message(spec), engine

    def test_estimators_and_facade_reject_bad_plans(self, malformed_path):
        from repro.protest import (
            Protest,
            detection_probabilities,
            monte_carlo_detection_probabilities,
            optimize_input_probabilities,
        )

        network = and_cone(3)
        for spec in (self.UNKNOWN, malformed_path):
            message = self._exact_message(spec)
            for entry in (
                lambda: coverage_curve(
                    network, PatternSet.exhaustive(network.inputs), tune=spec
                ),
                lambda: monte_carlo_detection_probabilities(
                    network, all_faults(network), samples=8, tune=spec
                ),
                lambda: detection_probabilities(network, tune=spec),
                lambda: optimize_input_probabilities(
                    network, max_sweeps=1, tune=spec
                ),
                lambda: Protest(network, tune=spec).validate(8),
            ):
                with pytest.raises(ValueError) as excinfo:
                    entry()
                assert str(excinfo.value) == message

    def test_cli_tune_choices_match_module(self):
        from repro.cli import TUNE_CHOICES

        assert tuple(sorted(TUNE_CHOICES)) == available_tunings()

    def test_cli_rejects_bad_plans_with_module_message(
        self, capsys, malformed_path
    ):
        from repro.cli import build_parser

        parser = build_parser()
        for spec in (self.UNKNOWN, malformed_path):
            with pytest.raises(SystemExit):
                parser.parse_args(["protest", "cell.txt", "--tune", spec])
            assert self._exact_message(spec) in capsys.readouterr().err

    def test_cli_accepts_builtin_plans_and_profile_paths(self, tmp_path):
        from repro.cli import TUNE_CHOICES, build_parser

        parser = build_parser()
        for tune in TUNE_CHOICES:
            args = parser.parse_args(["protest", "cell.txt", "--tune", tune])
            assert args.tune == tune
        path = str(tmp_path / "host.json")
        resolve_plan("default").profile.save(path)
        assert parser.parse_args(
            ["protest", "cell.txt", "--tune", path]
        ).tune == path
        assert parser.parse_args(["protest", "cell.txt"]).tune is None


class TestEstimatorsAcrossEngines:
    def test_monte_carlo_estimators_identical_across_engines(self):
        from repro.protest import (
            monte_carlo_detection_probabilities,
            monte_carlo_signal_probabilities,
        )

        network = domino_carry_chain(3)
        faults = network.enumerate_faults()
        reference_detect = monte_carlo_detection_probabilities(
            network, faults, samples=512, engine="interpreted"
        )
        reference_signal = monte_carlo_signal_probabilities(
            network, samples=512, engine="interpreted"
        )
        for engine in ENGINES:
            assert monte_carlo_detection_probabilities(
                network, faults, samples=512, engine=engine
            ) == reference_detect, engine
            assert monte_carlo_signal_probabilities(
                network, samples=512, engine=engine
            ) == reference_signal, engine

    def test_coverage_curve_identical_across_engines(self):
        network = domino_carry_chain(3)
        patterns = PatternSet.random(network.inputs, 128, seed=10)
        reference = coverage_curve(network, patterns, points=8, engine="interpreted")
        for engine in ENGINES:
            assert (
                coverage_curve(network, patterns, points=8, engine=engine)
                == reference
            ), engine

    def test_protest_facade_identical_across_engines(self):
        from repro.protest import Protest

        network = domino_carry_chain(3)
        reference = Protest(network, engine="interpreted").validate(200, seed=7)
        for engine in ENGINES:
            results_identical(
                Protest(network, engine=engine, jobs=2).validate(200, seed=7),
                reference,
            )

    def test_protest_facade_identical_across_schedules(self):
        from repro.protest import Protest

        network = skewed_cone_network(depth=5, islands=3)
        reference = Protest(network, engine="interpreted").validate(200, seed=7)
        for schedule in SCHEDULES:
            for engine in ("compiled", "vector"):
                results_identical(
                    Protest(
                        network, engine=engine, jobs=2, schedule=schedule
                    ).validate(200, seed=7),
                    reference,
                )

    def test_protest_facade_identical_across_tuning_plans(self, tuning_specs):
        from repro.protest import Protest

        network = skewed_cone_network(depth=5, islands=3)
        reference = Protest(network, engine="interpreted").validate(200, seed=7)
        for tuning in TUNINGS:
            for engine in ("compiled", "vector"):
                results_identical(
                    Protest(
                        network, engine=engine, jobs=2,
                        tune=tuning_specs[tuning],
                    ).validate(200, seed=7),
                    reference,
                )

    def test_monte_carlo_estimators_identical_across_tuning_plans(
        self, tuning_specs
    ):
        from repro.protest import monte_carlo_detection_probabilities

        network = skewed_cone_network(depth=5, islands=3)
        faults = all_faults(network)
        reference = monte_carlo_detection_probabilities(
            network, faults, samples=512, engine="interpreted"
        )
        for tuning in TUNINGS:
            for engine in ("compiled", "vector"):
                assert monte_carlo_detection_probabilities(
                    network, faults, samples=512, engine=engine,
                    tune=tuning_specs[tuning],
                ) == reference, (engine, tuning)

    def test_monte_carlo_estimator_identical_under_collapse(self):
        """Class members have identical difference words, so the
        collapsed Monte-Carlo estimate matches the uncollapsed one
        exactly on every engine."""
        from repro.protest import monte_carlo_detection_probabilities

        network = skewed_cone_network(depth=5, islands=3)
        faults = all_faults(network)
        reference = monte_carlo_detection_probabilities(
            network, faults, samples=512, engine="interpreted"
        )
        for engine in ENGINES:
            assert monte_carlo_detection_probabilities(
                network, faults, samples=512, engine=engine, collapse="on"
            ) == reference, engine

    def test_protest_facade_identical_under_collapse(self):
        from repro.protest import Protest

        network = domino_carry_chain(3)
        reference = Protest(network, engine="interpreted").validate(200, seed=7)
        for collapse in ("on", "report"):
            for engine in ("compiled", "vector"):
                results_identical(
                    Protest(network, engine=engine, collapse=collapse).validate(
                        200, seed=7
                    ),
                    reference,
                )


# --- the streaming pattern-source dimension ----------------------------------------


def _streaming_source(kind, names, count, seed):
    """One registered source per sweep name (the 'set' adapter wraps the
    lfsr source's own materialisation, so adapter != trivial identity)."""
    if kind == "lfsr":
        return LfsrSource(names, count, seed=seed)
    if kind == "weighted":
        probabilities = {
            name: probability
            for name, probability in zip(names, (0.25, 0.75, 0.5, 0.125, 0.875))
        }
        return WeightedSource(names, count, probabilities=probabilities, seed=seed)
    if kind == "random":
        return RandomSource(names, count, seed=seed)
    assert kind == "set"
    return PatternSetSource(LfsrSource(names, count, seed=seed).materialise())


SOURCE_KINDS = available_sources()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", SOURCE_KINDS)
class TestStreamingSourcesAcrossEngines:
    """The tentpole contract: a lane-native streaming source is
    bit-identical to the equivalent fully-materialised ``PatternSet``
    on every registered engine - the windows a source generates on
    demand (GF(2)-jumped LFSR banks, NLFSR lane words) must carry
    exactly the bits the serial register stream would have produced."""

    def test_source_identical_to_materialised(self, engine, kind, jobs):
        network = skewed_cone_network(depth=6, islands=4)
        source = _streaming_source(kind, network.inputs, 3 * 64 + 37, seed=21)
        faults = all_faults(network)
        results_identical(
            fault_simulate(network, source, faults, engine=engine, jobs=jobs),
            _cached_oracle(
                ("stream", kind), network, source.materialise(), faults
            ),
        )

    def test_source_first_detection_identical(self, engine, kind, jobs):
        network = skewed_cone_network(depth=6, islands=4)
        source = _streaming_source(
            kind, network.inputs, FIRST_DETECTION_CHUNK + 32, seed=23
        )
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network, source, faults, engine=engine, jobs=jobs,
                stop_at_first_detection=True,
            ),
            _cached_oracle(
                ("stream-first", kind), network, source.materialise(), faults,
                stop_at_first_detection=True,
            ),
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("tuning", TUNINGS)
def test_lfsr_source_identical_over_schedule_plan_sweep(
    engine, schedule, tuning, tuning_specs, jobs
):
    """The source seam composes with the full engine x schedule x plan
    sweep: re-ordering and re-tiling windowed passes over generated (not
    materialised) windows never moves a bit."""
    network = skewed_cone_network(depth=6, islands=4)
    source = LfsrSource(network.inputs, 230, seed=29)
    faults = all_faults(network)
    results_identical(
        fault_simulate(
            network, source, faults, engine=engine, jobs=jobs,
            schedule=schedule, tune=tuning_specs[tuning],
        ),
        _cached_oracle(
            "stream-sweep", network, source.materialise(), faults
        ),
    )


@settings(max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=300),
    source_seed=st.integers(min_value=1, max_value=255),
    engine=st.sampled_from(ENGINES),
    kind=st.sampled_from(SOURCE_KINDS),
)
def test_property_sources_identical_to_materialised(
    seed, count, source_seed, engine, kind
):
    """Property: every registered source is bit-identical to its own
    materialisation on every engine, for arbitrary circuits and pattern
    budgets (word-boundary straddles included)."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    source = _streaming_source(kind, network.inputs, count, seed=source_seed)
    faults = all_faults(network)
    results_identical(
        fault_simulate(network, source, faults, engine=engine),
        oracle_result(network, source.materialise(), faults),
    )


_STREAMING_REFERENCE = {}


@pytest.mark.parametrize("engine", ENGINES)
def test_streaming_coverage_stopping_point_identical(engine):
    """The confidence-stopped session is engine-independent: the window
    grid is pinned to FIRST_DETECTION_CHUNK everywhere, so every engine
    consumes the same number of patterns, retires the same fault weight
    and reports the same curve."""
    network = skewed_cone_network(depth=6, islands=4)
    result = streaming_coverage(
        network,
        LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
        all_faults(network),
        target_coverage=0.7,
        confidence=0.95,
        engine=engine,
        jobs=2,
    )
    reference = _STREAMING_REFERENCE.setdefault(
        "skew",
        streaming_coverage(
            network,
            LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
            all_faults(network),
            target_coverage=0.7,
            confidence=0.95,
            engine="interpreted",
        ),
    )
    assert result.pattern_count == reference.pattern_count
    assert result.detected_weight == reference.detected_weight
    assert result.satisfied == reference.satisfied
    assert result.curve == reference.curve
    assert result.lower_bound == reference.lower_bound


def _streaming_reference():
    network = skewed_cone_network(depth=6, islands=4)
    return network, _STREAMING_REFERENCE.setdefault(
        "skew",
        streaming_coverage(
            network,
            LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
            all_faults(network),
            target_coverage=0.7,
            confidence=0.95,
            engine="interpreted",
        ),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("tuning", TUNINGS)
@pytest.mark.parametrize("collapse", ("off", "on"))
def test_streaming_session_stopping_window_full_sweep(
    engine, schedule, tuning, collapse, tuning_specs
):
    """Sessions run *through* the engines' batched window cores now, so
    the stopping window must survive the whole differential sweep:
    every engine x schedule x plan x collapse combination consumes the
    same number of patterns, retires the same weight and reports the
    same curve as the interpreted consumer - scheduling only reorders
    work, plans only re-tile it, collapse only deduplicates it."""
    network, reference = _streaming_reference()
    result = streaming_coverage(
        network,
        LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
        all_faults(network),
        target_coverage=0.7,
        confidence=0.95,
        engine=engine,
        jobs=2,
        schedule=schedule,
        tune=tuning_specs[tuning],
        collapse=collapse,
    )
    assert result.pattern_count == reference.pattern_count
    assert result.detected_weight == reference.detected_weight
    assert result.total_weight == reference.total_weight
    assert result.satisfied == reference.satisfied
    assert result.curve == reference.curve
    assert result.lower_bound == reference.lower_bound


class TestSourceRegistryErrorPaths:
    """The --source error contract, drift-tested like the other
    registries."""

    def test_unknown_source_message_lists_sorted_available_sources(self):
        with pytest.raises(ValueError) as excinfo:
            get_source("turbo")
        assert str(excinfo.value) == (
            "unknown pattern source 'turbo'; available pattern sources: "
            + ", ".join(SOURCE_KINDS)
        )
        assert list(SOURCE_KINDS) == sorted(SOURCE_KINDS)

    def test_set_source_requires_a_pattern_set(self):
        from repro.simulate import make_source

        with pytest.raises(ValueError, match="needs an explicit pattern set"):
            make_source("set", ("a", "b"), 16)

    def test_cli_source_choices_match_registry(self):
        from repro.cli import SOURCE_CHOICES

        assert tuple(sorted(SOURCE_CHOICES)) == SOURCE_KINDS

    def test_cli_rejects_unknown_source_with_registry_message(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["protest", "cell.txt", "--source", "turbo"])
        stderr = capsys.readouterr().err
        assert (
            "unknown pattern source 'turbo'; available pattern sources: "
            + ", ".join(SOURCE_KINDS)
        ) in stderr

    def test_cli_accepts_every_registered_source(self):
        from repro.cli import SOURCE_CHOICES, build_parser

        parser = build_parser()
        for kind in SOURCE_CHOICES:
            args = parser.parse_args(["protest", "cell.txt", "--source", kind])
            assert args.source == kind
        defaults = parser.parse_args(["protest", "cell.txt"])
        assert defaults.source == "lfsr"
        assert defaults.stop_confidence is None
        assert defaults.target_coverage == 0.99
