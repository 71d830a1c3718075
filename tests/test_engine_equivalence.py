"""Registry-driven differential harness: every engine vs the oracle.

Every engine registered in :mod:`repro.simulate.registry` - today
``interpreted``, ``compiled`` and ``vector``, and automatically any
engine registered later - run in-process (``jobs=1``) or through a
genuinely forked two- or three-worker pool (``jobs=2``/``jobs=3``,
which cut the fault list into even and uneven cone-cost shards) -
must be bit-identical to
the interpreted oracle
(:meth:`Network.evaluate_bits`) on every detection set, detection
count, first-detection index, difference word and net valuation,
across fixed circuits, hypothesis-generated circuits, both fault
kinds, pattern-window widths, weighted pattern sets - the **width**
dimension (the default chunk and window constants, and an adversarial
profile monkeypatching :data:`~repro.simulate.vector.VECTOR_CHUNK`,
:data:`~repro.simulate.vector.VECTOR_WINDOW` and
:data:`~repro.simulate.sharded.DEFAULT_WINDOW` to tiny widths that do
not divide the word or pattern count, swept on skewed-cone circuits
where pooled partitions and the cross-site coalescer reorder work
hardest), since widths re-tile every pass and must never move a bit -
and the **collapse** dimension (:mod:`repro.faults.structural`): simulating
one representative per structural equivalence class and scattering the
outcomes back must be bit-identical too, as must streaming sessions
whose target stops them mid-budget - their stopping window is pinned to
the same grid on every engine and held to an oracle built from the
interpreted run's first detections alone - and the **cache** dimension
(:mod:`repro.simulate.artifacts`): a warm artifact store only skips
re-derivation, so a cached re-run must be bit-identical to the cold
run on every engine x width x collapse combination, on every cache
mode (``off``, ``memory``).

Engine-specific mechanics stay in their own files
(``test_compiled_engine.py`` for the slot program's internals,
``test_sharded_engine.py`` for the worker pool, windows and merge,
``test_vector_engine.py`` for lane arrays); the cross-engine
equivalence cases that used to be duplicated there are folded in here.
"""

import contextlib
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import (
    LFSR_SESSION_WINDOWS,
    SessionOracle,
    all_faults,
    differential_circuits,
    lfsr_session_case,
    results_identical,
)
from words_reference import reference_difference_words

from repro.circuits.generators import (
    and_cone,
    domino_carry_chain,
    large_random_network,
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
    WeightedSource,
    available_engines,
    available_sources,
    coverage_curve,
    fault_simulate,
    faultsim,
    get_engine,
    get_source,
    register_engine,
    sharded,
    streaming_coverage,
    vector,
)
from repro.simulate.faultsim import FIRST_DETECTION_CHUNK

ENGINES = available_engines()

#: Worker counts the harness sweeps: in-process, and two- and
#: three-worker pools that really fork (:func:`pooling` drops
#: ``MIN_POOL_WORK`` to 0 - every harness workload is far below the
#: production threshold).  The cone-cost partitioner is the only
#: scheduler, so the pool width is what re-cuts the fault list: three
#: workers leave LPT bins of unequal length and an odd shard count for
#: the merge to reassemble.
JOBS = (1, 2, 3)


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

#: Width profiles the harness sweeps: the module constants as they are,
#: and an adversary whose one-word chunks, 160-pattern lane windows and
#: 64-pattern big-int windows leave uneven tails everywhere.
WIDTHS = {
    "default": (),
    "adversarial": (
        (vector, "VECTOR_CHUNK", 1),
        (vector, "VECTOR_WINDOW", 160),
        (sharded, "DEFAULT_WINDOW", 64),
    ),
}

#: A second adversary for chunk geometry: multi-word windows cut into
#: 5-word chunks (and 320-pattern big-int windows), which divide neither
#: the word count nor the pattern count.
ODD_CHUNK_WIDTHS = (
    (vector, "VECTOR_CHUNK", 5),
    (sharded, "DEFAULT_WINDOW", 320),
)


@contextlib.contextmanager
def patched_widths(patches):
    """Run with the chunk and window constants set to ``patches``."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name, value in patches:
            patch.setattr(module, name, value)
        yield


@pytest.fixture(params=sorted(WIDTHS))
def widths(request):
    """Each test runs once per width profile of :data:`WIDTHS`."""
    with patched_widths(WIDTHS[request.param]):
        yield request.param


CIRCUITS = differential_circuits()


def oracle_result(network, patterns, faults, **kwargs):
    return fault_simulate(network, patterns, faults, engine="interpreted", **kwargs)


def assert_estimates_match_oracle(network, faults, samples, seed, **knobs):
    """The Monte-Carlo detection estimator on ``knobs`` must report each
    oracle word's detecting-pattern count over ``samples``, on the
    estimator's own pattern set, in fault-list order."""
    from repro.protest import monte_carlo_detection_probabilities

    patterns = PatternSet.random(
        network.inputs, samples, seed=seed,
        probabilities=dict.fromkeys(network.inputs, 0.5),
    )
    words = reference_difference_words(network, patterns, faults)
    expected = {
        fault.describe(): word.bit_count() / samples
        for fault, word in zip(faults, words)
    }
    estimates = monte_carlo_detection_probabilities(
        network, faults, samples=samples, seed=seed, **knobs
    )
    assert list(estimates.items()) == list(expected.items())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("network", CIRCUITS, ids=lambda n: n.name)
class TestEveryEngineMatchesOracle:
    """The registry contract, engine by engine, circuit by circuit -
    the fault-simulation modes, detection estimates and sessions once
    in-process and through forked pools (the ``jobs`` fixture), and
    the detection words in-process."""

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

    @pytest.mark.parametrize("collapse", ("off", "on"))
    def test_session_stopped_mid_budget_identical(
        self, engine, network, jobs, collapse
    ):
        """A session whose target its own detections reach before the
        budget ends stops there, collapsed or not, pooled or not."""
        patterns = PatternSet.random(
            network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=61
        )
        faults = all_faults(network)
        oracle = SessionOracle(network, patterns, faults, 0.9)
        session = streaming_coverage(
            network, patterns, faults,
            target_coverage=oracle.mid_budget_targets()[-1], confidence=0.9,
            engine=engine, jobs=jobs, collapse=collapse,
        )
        assert session.satisfied and session.pattern_count < patterns.count
        oracle.check(session)

    def test_difference_words_identical(self, engine, network):
        patterns = PatternSet.random(network.inputs, 130, seed=7)
        faults = all_faults(network)
        assert get_engine(engine).difference_words(
            network, patterns, faults, cache=None
        ) == reference_difference_words(network, patterns, faults)

    def test_detection_estimates_identical(self, engine, network, jobs):
        assert_estimates_match_oracle(
            network, all_faults(network), 130, 7, engine=engine, jobs=jobs
        )

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
    fault pass under a new name - registered for one test; ``ENGINES`` is
    unchanged afterwards."""
    from repro.simulate import Engine, registry

    compiled = get_engine("compiled")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_ENGINES", dict(registry._ENGINES))
        yield register_engine(
            Engine(
                name="plug-in",
                description="the compiled fault pass under a new name",
                evaluate_bits=compiled.evaluate_bits,
                fault_pass=compiled.fault_pass,
                lanes=compiled.lanes,
            )
        ).name
    assert available_engines() == ENGINES


@pytest.mark.parametrize("network", CIRCUITS[:4], ids=lambda n: n.name)
def test_plugin_engine_matches_oracle(plugin_engine, network, jobs):
    """The seam is the contract: an engine registered from nothing but
    its fault pass and window kind runs every mode - in-process and
    through a forked pool - bit-identical to the oracle."""
    assert plugin_engine in available_engines()
    patterns = PatternSet.random(
        network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=71
    )
    faults = all_faults(network)
    for kwargs in ({}, {"stop_at_first_detection": True}):
        results_identical(
            fault_simulate(
                network, patterns, faults, engine=plugin_engine, jobs=jobs,
                **kwargs,
            ),
            oracle_result(network, patterns, faults, **kwargs),
        )
    assert get_engine(plugin_engine).difference_words(
        network, patterns, faults
    ) == reference_difference_words(network, patterns, faults)
    assert_estimates_match_oracle(
        network, faults, 130, 7, engine=plugin_engine, jobs=jobs
    )

    def session(engine, jobs=None):
        return streaming_coverage(
            network,
            LfsrSource(network.inputs, 4 * FIRST_DETECTION_CHUNK, seed=5),
            faults, target_coverage=0.7, confidence=0.95,
            engine=engine, jobs=jobs,
        )

    assert session(plugin_engine, jobs) == session("interpreted")


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=6)
@given(
    depth=st.integers(min_value=1, max_value=12),
    islands=st.integers(min_value=0, max_value=8),
    count=st.integers(min_value=1, max_value=220),
    seed=st.integers(min_value=0, max_value=255),
)
def test_property_engine_identical_on_skewed_circuits(
    engine, depth, islands, count, seed
):
    """Property: every engine matches the oracle on hypothesis-generated
    skewed circuits and pattern sets."""
    network = skewed_cone_network(depth=depth, islands=islands)
    patterns = PatternSet.random(network.inputs, count, seed=seed)
    faults = all_faults(network)
    results_identical(
        fault_simulate(network, patterns, faults, engine=engine),
        oracle_result(network, patterns, faults),
    )


_ORACLE_CACHE = {}


def _cached_oracle(key, network, patterns, faults, **kwargs):
    """One oracle run per (circuit, pattern) configuration for the
    engine x width sweep - every combination re-deriving the same
    interpreted reference would dominate the harness's runtime."""
    cached = _ORACLE_CACHE.get(key)
    if cached is None:
        cached = oracle_result(network, patterns, faults, **kwargs)
        _ORACLE_CACHE[key] = cached
    return cached


@pytest.mark.parametrize("engine", ENGINES)
class TestEveryEngineWidthCombination:
    """The width sweep: chunks and windows re-tile work, pooled
    partitions re-order it, and neither - in any combination, on any
    engine - may move a bit.

    The skewed-cone circuit (one huge fanout cone next to many tiny
    ones) is the adversary for both at once: cost-weighted partitioning
    reorders the fault list hardest, the coalescer merges the islands'
    underfilled batches, and the adversarial widths force one-word
    chunks and windows whose tails do not divide the pattern count.
    """

    def test_fault_simulate_identical_on_skewed_cones(self, engine, widths, jobs):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        results_identical(
            fault_simulate(network, patterns, faults, engine=engine, jobs=jobs),
            _cached_oracle("skew-plan-sweep", network, patterns, faults),
        )

    def test_collapsed_run_identical_on_skewed_cones(self, engine, widths, jobs):
        """The collapse sweep dimension: simulating one representative
        per structural equivalence class and scattering the outcomes
        back must be bit-identical on every engine x width combination."""
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        collapsed = fault_simulate(
            network, patterns, faults, engine=engine, collapse="on", jobs=jobs,
        )
        results_identical(
            collapsed,
            _cached_oracle("skew-plan-sweep", network, patterns, faults),
        )
        assert collapsed.collapsed_classes is not None
        assert collapsed.collapsed_classes <= collapsed.fault_count

    def test_first_detection_identical_on_skewed_cones(self, engine, widths, jobs):
        network = skewed_cone_network(depth=6, islands=4)
        patterns = PatternSet.random(
            network.inputs, FIRST_DETECTION_CHUNK + 32, seed=51
        )
        faults = all_faults(network)
        results_identical(
            fault_simulate(
                network, patterns, faults, stop_at_first_detection=True,
                engine=engine, jobs=jobs,
            ),
            _cached_oracle(
                "skew-plan-first", network, patterns, faults,
                stop_at_first_detection=True,
            ),
        )

    def test_difference_words_identical_on_skewed_cones(self, engine, widths):
        network = skewed_cone_network(depth=7, islands=5)
        patterns = PatternSet.random(network.inputs, 130, seed=53)
        faults = all_faults(network)
        assert get_engine(engine).difference_words(
            network, patterns, faults
        ) == reference_difference_words(network, patterns, faults)

    def test_detection_estimates_identical_on_skewed_cones(
        self, engine, widths, jobs
    ):
        network = skewed_cone_network(depth=7, islands=5)
        assert_estimates_match_oracle(
            network, all_faults(network), 130, 53, engine=engine, jobs=jobs
        )


#: Cache modes the harness sweeps: caching disabled and the in-memory
#: store.
CACHE_SWEEP = ("off", "memory")


def _cache_spec(mode):
    if mode == "memory":
        return ArtifactStore()  # a fresh store: the test owns warm-up
    return mode


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cache_mode", CACHE_SWEEP)
class TestEveryEngineCacheCombination:
    """The cache sweep dimension: a warm store only skips
    re-derivation.  Each combination runs cold then warm on the same
    store - both must match the cache-free oracle bit for bit, on the
    collapsed run too (collapse classes are themselves cached
    artifacts)."""

    def test_cached_rerun_identical_on_skewed_cones(self, engine, cache_mode):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        spec = _cache_spec(cache_mode)
        cold = fault_simulate(
            network, patterns, faults, engine=engine, collapse="on", cache=spec,
        )
        warm = fault_simulate(
            network, patterns, faults, engine=engine, collapse="on", cache=spec,
        )
        results_identical(
            cold, _cached_oracle("skew-plan-sweep", network, patterns, faults)
        )
        results_identical(warm, cold)


@pytest.mark.parametrize("engine", ("compiled", "vector"))
@pytest.mark.parametrize("cache_mode", CACHE_SWEEP)
class TestEveryWidthCacheCombination:
    """The width x cache cross: widths re-tile the cached slot programs
    and batch plans (which are keyed on the pricing constants), and a
    warm store must hand back artifacts that re-tile to the same bits."""

    def test_cached_rerun_identical_under_every_width(
        self, engine, widths, cache_mode
    ):
        network = skewed_cone_network(depth=9, islands=6)
        patterns = PatternSet.random(network.inputs, 163, seed=47)
        faults = all_faults(network)
        spec = _cache_spec(cache_mode)
        cold = fault_simulate(network, patterns, faults, engine=engine, cache=spec)
        warm = fault_simulate(network, patterns, faults, engine=engine, cache=spec)
        results_identical(
            cold, _cached_oracle("skew-plan-sweep", network, patterns, faults)
        )
        results_identical(warm, cold)


@pytest.mark.parametrize("engine", ENGINES)
def test_chunks_that_do_not_divide_the_word_count_are_exact(engine):
    """The odd-chunk adversary: windows span many words while the chunk
    width is a non-divisor of the word count - the boundary arithmetic
    every chunked cone pass must get right."""
    network = skewed_cone_network(depth=9, islands=6)
    patterns = PatternSet.random(network.inputs, 1000, seed=59)  # 16 words
    faults = all_faults(network)
    with patched_widths(ODD_CHUNK_WIDTHS):
        result = fault_simulate(network, patterns, faults, engine=engine)
    results_identical(
        result, _cached_oracle("skew-odd-chunks", network, patterns, faults)
    )


@pytest.mark.parametrize("engine", ("vector",))
@pytest.mark.parametrize("jobs", JOBS)
@settings(max_examples=6)
@given(
    depth=st.integers(min_value=1, max_value=10),
    islands=st.integers(min_value=0, max_value=6),
    count=st.integers(min_value=1, max_value=220),
    chunk=st.integers(min_value=1, max_value=6),
    window=st.integers(min_value=1, max_value=256),
)
def test_property_widths_identical_on_skewed_circuits(
    engine, jobs, depth, islands, count, chunk, window
):
    """Property: arbitrary chunk and window widths never move a bit on
    the engines that consume them."""
    network = skewed_cone_network(depth=depth, islands=islands)
    patterns = PatternSet.random(network.inputs, count, seed=count)
    faults = all_faults(network)
    widths = ((vector, "VECTOR_CHUNK", chunk), (vector, "VECTOR_WINDOW", window))
    with pooling(jobs), patched_widths(widths):
        result = fault_simulate(network, patterns, faults, engine=engine, jobs=jobs)
    results_identical(result, oracle_result(network, patterns, faults))


def grid_widths(window):
    """Every window constant - both engine kinds' streaming windows and
    the retiring grid - set to ``window``."""
    return (
        (sharded, "DEFAULT_WINDOW", window),
        (vector, "VECTOR_WINDOW", window),
        (faultsim, "FIRST_DETECTION_CHUNK", window),
    )


def assert_every_mode_exact(network, patterns, faults, **knobs):
    """Counting, first-detection and a mid-budget session on ``knobs``
    all match the oracle under the window constants in force."""
    oracle = oracle_result(network, patterns, faults)
    results_identical(fault_simulate(network, patterns, faults, **knobs), oracle)
    first = fault_simulate(
        network, patterns, faults, stop_at_first_detection=True, **knobs
    )
    assert first.detected == oracle.detected
    assert first.undetected == oracle.undetected
    assert set(first.detection_counts.values()) <= {1}
    oracle = SessionOracle(network, patterns, faults, 0.75)
    target = (oracle.mid_budget_targets() or [1.0])[-1]
    oracle.check(
        streaming_coverage(
            network, patterns, faults, target_coverage=target, confidence=0.75,
            **knobs,
        )
    )


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
    included) - the streaming windows and the retiring grid alike."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0xAAAA)
    faults = all_faults(network)
    with patched_widths(grid_widths(window)):
        assert_every_mode_exact(network, patterns, faults, engine=engine)


@settings(max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=200),
    window=st.integers(min_value=1, max_value=64),
    inner=st.sampled_from(ENGINES),
)
def test_property_pooled_window_widths_exact(seed, count, window, inner):
    """Property: the worker pool composes exactly with any engine's
    window core at any window width."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x5555)
    faults = all_faults(network)
    with pooling(2), patched_widths(grid_widths(window)):
        assert_every_mode_exact(network, patterns, faults, engine=inner, jobs=2)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("profile", sorted(WIDTHS))
@settings(max_examples=3)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=200),
)
def test_property_collapsed_identical_on_every_engine_width(
    engine, profile, seed, count
):
    """Property: ``collapse="on"`` is bit-identical to the uncollapsed
    run across every engine x width combination, on arbitrary random
    circuits and pattern sets."""
    network = random_network(n_inputs=5, n_gates=11, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x3333)
    faults = all_faults(network)
    with patched_widths(WIDTHS[profile]):
        results_identical(
            fault_simulate(network, patterns, faults, engine=engine, collapse="on"),
            fault_simulate(network, patterns, faults, engine=engine),
        )


@functools.lru_cache(maxsize=None)
def _mid_budget_case():
    """A random AND/OR DAG whose detections keep falling past the first
    session window (the bound rises at 256, 512 and 768 patterns), with
    enough fanout-free regions for every pool width to shard it - and
    its session oracle, built once for the whole sweep."""
    network = large_random_network(n_gates=120, n_inputs=24, seed=5)
    patterns = PatternSet.random(
        network.inputs, 3 * FIRST_DETECTION_CHUNK + 32, seed=61
    )
    faults = all_faults(network)
    return network, patterns, faults, SessionOracle(network, patterns, faults, 0.95)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("collapse", ("off", "on"))
def test_sessions_stopped_mid_budget_identical(engine, collapse, jobs):
    """Every engine stops a session at the identical window (the
    FIRST_DETECTION_CHUNK grid is pinned everywhere) for every target
    its detections reach before the budget ends - a later boundary for
    each - with and without collapsing, whose class-size weights keep
    the stopping window aligned with the uncollapsed universe."""
    network, patterns, faults, oracle = _mid_budget_case()
    stops = []
    for target in oracle.mid_budget_targets():
        session = streaming_coverage(
            network, patterns, faults, target_coverage=target, confidence=0.95,
            engine=engine, jobs=jobs, collapse=collapse,
        )
        assert session.satisfied
        oracle.check(session)
        stops.append(session.pattern_count)
    assert stops == [FIRST_DETECTION_CHUNK * k for k in (1, 2, 3)]


@settings(max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=600),
    target=st.floats(min_value=0.05, max_value=1.0),
    confidence=st.floats(min_value=0.5, max_value=0.99),
    engine=st.sampled_from(ENGINES),
    collapse=st.sampled_from(("off", "on")),
)
def test_property_sessions_match_reference(
    seed, count, target, confidence, engine, collapse
):
    """Property: any target and confidence stop every engine's session -
    collapsed or not - at the window the oracle's first detections
    predict, or run it to the budget or the last fault."""
    network = random_network(n_inputs=5, n_gates=9, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x7777)
    faults = all_faults(network)
    SessionOracle(network, patterns, faults, confidence).check(
        streaming_coverage(
            network, patterns, faults, target_coverage=target,
            confidence=confidence, engine=engine, collapse=collapse,
        )
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

    def test_cli_engine_choices_match_registry(self):
        """ENGINE_CHOICES is spelled out in cli.py (to keep --help free
        of the simulate import cost); it must not drift from the
        registry."""
        from repro.cli import ENGINE_CHOICES

        assert tuple(sorted(ENGINE_CHOICES)) == ENGINES

    def test_cli_collapse_choices_match_module(self):
        """The CLI offers the library's modes plus its own ``report``."""
        from repro.cli import COLLAPSE_CHOICES
        from repro.faults.structural import available_collapse_modes

        assert COLLAPSE_CHOICES == available_collapse_modes() + ("report",)

    def test_cli_rejects_unknown_collapse_with_module_message(self, capsys):
        from repro.cli import COLLAPSE_CHOICES, build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["protest", "cell.txt", "--collapse", "turbo"])
        stderr = capsys.readouterr().err
        assert (
            "unknown collapse mode 'turbo'; available collapse modes: "
            + ", ".join(COLLAPSE_CHOICES)
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

    def test_protest_facade_identical_across_widths(self, widths):
        from repro.protest import Protest

        network = skewed_cone_network(depth=5, islands=3)
        reference = Protest(network, engine="interpreted").validate(200, seed=7)
        for engine in ("compiled", "vector"):
            results_identical(
                Protest(network, engine=engine, jobs=2).validate(200, seed=7),
                reference,
            )

    def test_monte_carlo_estimators_identical_across_widths(self, widths):
        from repro.protest import monte_carlo_detection_probabilities

        network = skewed_cone_network(depth=5, islands=3)
        faults = all_faults(network)
        reference = monte_carlo_detection_probabilities(
            network, faults, samples=512, engine="interpreted"
        )
        for engine in ("compiled", "vector"):
            assert monte_carlo_detection_probabilities(
                network, faults, samples=512, engine=engine
            ) == reference, engine

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
        for engine in ("compiled", "vector"):
            results_identical(
                Protest(network, engine=engine, collapse="on").validate(
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
    """The source contract: a streaming source is bit-identical to the
    equivalent fully-materialised ``PatternSet`` on every registered
    engine - the windows a source generates on demand (resumed or
    GF(2)-jumped LFSR banks, NLFSR rows) must carry
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
def test_lfsr_source_identical_over_width_sweep(engine, widths, jobs):
    """The source seam composes with the full engine x width x jobs
    sweep: re-ordering and re-tiling windowed passes over generated (not
    materialised) windows never moves a bit."""
    network = skewed_cone_network(depth=6, islands=4)
    source = LfsrSource(network.inputs, 230, seed=29)
    faults = all_faults(network)
    results_identical(
        fault_simulate(network, source, faults, engine=engine, jobs=jobs),
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


def _lfsr_session(engine="interpreted", **knobs):
    """The mid-budget LFSR session of ``lfsr_session_case`` on ``engine``."""
    network, budget, faults, target = lfsr_session_case()
    return streaming_coverage(
        network,
        LfsrSource(network.inputs, budget, seed=5),
        list(faults),
        target_coverage=target,
        confidence=0.95,
        engine=engine,
        **knobs,
    )


@functools.lru_cache(maxsize=None)
def _streaming_reference():
    """The interpreted consumer's session, which stops on its target."""
    reference = _lfsr_session()
    assert reference.satisfied
    assert len(reference.curve) < LFSR_SESSION_WINDOWS
    assert reference.pattern_count < reference.pattern_budget
    return reference


def assert_same_session(result, reference):
    assert result.satisfied and len(result.curve) < LFSR_SESSION_WINDOWS
    assert result.pattern_count == reference.pattern_count
    assert result.detected_weight == reference.detected_weight
    assert result.total_weight == reference.total_weight
    assert result.satisfied == reference.satisfied
    assert result.curve == reference.curve
    assert result.lower_bound == reference.lower_bound


@pytest.mark.parametrize("engine", ENGINES)
def test_streaming_coverage_stopping_point_identical(engine):
    """The confidence-stopped session is engine-independent: the window
    grid is pinned to FIRST_DETECTION_CHUNK everywhere, so every engine
    stops after the same window, having consumed the same number of
    patterns, retired the same fault weight and reported the same curve."""
    with pooling(2):
        result = _lfsr_session(engine, jobs=2)
    assert_same_session(result, _streaming_reference())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("collapse", ("off", "on"))
def test_streaming_session_stopping_window_full_sweep(
    engine, widths, collapse, jobs
):
    """Sessions run *through* the engines' batched window cores now, so
    the stopping window must survive the whole differential sweep:
    every engine x width x collapse x pool-width combination stops after
    the same window, consumes the same number of patterns, retires the
    same weight and reports the same curve as the interpreted consumer -
    widths only re-tile work, pools only re-partition it, collapse only
    deduplicates it."""
    result = _lfsr_session(engine, jobs=jobs, collapse=collapse)
    assert_same_session(result, _streaming_reference())


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

    @pytest.mark.parametrize("budget", [2.5, "8", True, -1])
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_bad_budget_rejected_where_it_enters(self, kind, budget):
        from repro.simulate import make_source

        patterns = PatternSet.random(("a", "b"), 8, seed=1)
        with pytest.raises(ValueError, match="pattern budget must be"):
            make_source(
                kind, ("a", "b"), budget,
                patterns=patterns if kind == "set" else None,
            )

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
