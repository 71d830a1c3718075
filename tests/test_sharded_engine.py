"""Worker-pool mechanics: ``jobs > 1`` and streaming windows.

Cross-engine bit-identity is held by the registry-driven differential
harness in ``test_engine_equivalence.py``; this file keeps what is
specific to the scale-out layer: the window iterator (including the
whole-set-window guarantee), the one words loop at any window width,
the window each engine streams, equivalence through a *genuine* worker
pool (``MIN_POOL_WORK = 0`` forces forking, which real calls skip for
small workloads), and pools that fail loudly instead of hanging.
"""

import os
import re
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from engine_test_utils import all_faults, differential_circuits, results_identical
from words_reference import reference_difference_words

from repro.circuits.generators import c17, domino_carry_chain
from repro.simulate import (
    Engine,
    PatternSet,
    available_engines,
    fault_simulate,
    get_engine,
    register_engine,
    registry,
    resolve_cache,
    sharded,
    streaming_coverage,
)
from repro.simulate.faultsim import (
    build_result,
    collect_words,
    engine_window,
    fault_universe,
    windowed_outcomes,
)


CIRCUITS = differential_circuits()[:6]


class TestWindowIterator:
    def test_windows_cover_the_set_with_uneven_tail(self):
        patterns = PatternSet.random(("a", "b", "c"), 1000, seed=1)
        seen = []
        for start, window in patterns.windows(256):
            assert window.count == (256 if start + 256 <= 1000 else 1000 - start)
            for name in patterns.names:
                expected = (patterns.env[name] >> start) & window.mask
                assert window.env[name] == expected
            seen.append(start)
        assert seen == [0, 256, 512, 768]

    def test_exact_division_has_no_empty_tail_window(self):
        patterns = PatternSet.random(("a",), 512, seed=7)
        windows = list(patterns.windows(128))
        assert [start for start, _w in windows] == [0, 128, 256, 384]
        assert all(window.count == 128 for _s, window in windows)

    def test_width_larger_than_set_yields_one_whole_set_window(self):
        """Regression (PR 3): a width at or past the set's size must
        yield exactly one window that *is* the whole set - never an
        empty tail window."""
        patterns = PatternSet.random(("a",), 10, seed=2)
        for width in (10, 11, 64, 1 << 20):
            windows = list(patterns.windows(width))
            assert len(windows) == 1
            start, window = windows[0]
            assert start == 0
            assert window.count == patterns.count
            assert window.env == patterns.env

    def test_empty_set_yields_one_empty_whole_set_window(self):
        """Regression (PR 3): the empty set is its own (single) window -
        consumers see one zero-pattern window, not an absent stream."""
        empty = PatternSet(("a",), {"a": 0}, 0)
        windows = list(empty.windows(16))
        assert len(windows) == 1
        start, window = windows[0]
        assert start == 0 and window.count == 0 and window.env == {"a": 0}

    def test_bad_width_raises(self):
        patterns = PatternSet.random(("a",), 8, seed=3)
        with pytest.raises(ValueError):
            list(patterns.windows(0))

    def test_slice_bounds_checked(self):
        patterns = PatternSet.random(("a",), 8, seed=4)
        with pytest.raises(ValueError):
            patterns.slice(4, 12)

    @pytest.mark.parametrize("network", CIRCUITS, ids=lambda n: n.name)
    @pytest.mark.parametrize("width", [1, 7, 64, 333])
    def test_windowed_words_bit_identical_to_whole_pass(self, network, width):
        """The one words loop over every engine's fault pass, at any
        window width, == the whole-set reference words - across
        circuits, fault kinds and uneven final windows."""
        patterns = PatternSet.random(network.inputs, 150, seed=17)
        faults = all_faults(network)
        reference = reference_difference_words(network, patterns, faults)
        for engine in available_engines():
            passes = get_engine(engine).fault_pass(
                network, faults, resolve_cache(None)
            )
            assert (
                collect_words(patterns, passes, len(faults), width) == reference
            ), engine

    def test_engine_window_reads_module_constants_at_call_time(self, monkeypatch):
        """Every engine streams the window constant, read per call (so a
        monkeypatch steers it) and clamped to the pattern count."""
        monkeypatch.setattr(sharded, "DEFAULT_WINDOW", 77)
        assert engine_window(1 << 20) == 77
        assert engine_window(5) == 5
        assert engine_window(0) == 1

    @pytest.mark.parametrize("width", [1, 5, 37, 100])
    def test_windowed_outcomes_match_whole_pass(self, width, monkeypatch):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 100, seed=9)
        universe = fault_universe(network, all_faults(network))
        reference = fault_simulate(network, patterns, universe.faults)
        monkeypatch.setattr(sharded, "DEFAULT_WINDOW", width)
        outcomes = windowed_outcomes(network, patterns, universe)
        rebuilt = build_result(network.name, patterns.count, universe.labels, outcomes)
        results_identical(rebuilt, reference)


@pytest.fixture()
def force_pool(monkeypatch):
    """Pool every ``jobs > 1`` call, however small the workload."""
    monkeypatch.setattr(sharded, "MIN_POOL_WORK", 0)


@pytest.mark.usefixtures("force_pool")
@pytest.mark.parametrize("network", CIRCUITS, ids=lambda n: n.name)
class TestPooledEquivalence:
    """Equivalence through a genuine forked worker pool (real calls
    fall back in-process for small workloads, so these force the pool
    with ``MIN_POOL_WORK = 0``)."""

    def test_pooled_identical_to_compiled(self, network):
        patterns = PatternSet.random(network.inputs, 220, seed=5)
        faults = all_faults(network)
        compiled = fault_simulate(network, patterns, faults, engine="compiled")
        for jobs in (1, 2, 3):
            pooled = fault_simulate(
                network, patterns, faults, engine="compiled", jobs=jobs
            )
            results_identical(pooled, compiled)

    def test_pooled_first_detection_identical(self, network):
        patterns = PatternSet.random(network.inputs, 400, seed=6)
        faults = all_faults(network)
        compiled = fault_simulate(
            network, patterns, faults, stop_at_first_detection=True, engine="compiled"
        )
        pooled = fault_simulate(
            network,
            patterns,
            faults,
            stop_at_first_detection=True,
            engine="compiled",
            jobs=2,
        )
        results_identical(pooled, compiled)

    def test_pooled_detection_estimates_identical(self, network):
        """The Monte-Carlo detection estimator pools through the same
        path as fault simulation and matches its in-process run."""
        from repro.protest import monte_carlo_detection_probabilities

        faults = all_faults(network)
        serial = monte_carlo_detection_probabilities(network, faults, samples=130)
        pooled = monte_carlo_detection_probabilities(
            network, faults, samples=130, jobs=2
        )
        assert list(pooled.items()) == list(serial.items())

    def test_pooled_vector_engine_identical(self, network):
        """shards x lanes: the vector engine inside pool workers."""
        patterns = PatternSet.random(network.inputs, 220, seed=8)
        faults = all_faults(network)
        compiled = fault_simulate(network, patterns, faults, engine="compiled")
        pooled = fault_simulate(
            network, patterns, faults, engine="vector", jobs=2
        )
        results_identical(pooled, compiled)


def _session_or_run(network, session, jobs=None):
    """A compiled session stopped by its target on ``network``'s 2048
    patterns (``session``), else a full counting run."""
    patterns = PatternSet.random(network.inputs, 2048, seed=9)
    if session:
        return streaming_coverage(
            network, patterns, target_coverage=0.5, confidence=0.9,
            engine="compiled", jobs=jobs,
        )
    return fault_simulate(network, patterns, engine="compiled", jobs=jobs)


class TestConcurrentPools:
    """Pooled runs in two threads at once, on the session's speculative
    block path and the plain shard path: each pool gets its context
    through ``initargs``, so neither run can see the other's faults."""

    @pytest.mark.parametrize("session", [True, False], ids=["session", "counting"])
    def test_two_threads_match_serial(self, force_pool, session):
        results = {}
        errors = []

        def run(network):
            try:
                results[network.name] = [
                    _session_or_run(network, session, jobs=2) for _ in range(6)
                ]
            except Exception as error:  # re-raised in the main thread
                errors.append(error)

        networks = [domino_carry_chain(6), c17()]
        threads = [threading.Thread(target=run, args=(n,)) for n in networks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "pooled run hung"
        if errors:
            raise errors[0]
        for network in networks:
            serial = _session_or_run(network, session)
            if session:
                assert serial.satisfied and serial.pattern_count < 2048
            for result in results[network.name]:
                if session:
                    assert result == serial
                else:
                    results_identical(result, serial)


class WorkerBoom(RuntimeError):
    """Raised inside a pool worker by :class:`TestPoolFailures`."""


def _in_worker(parent: int, failure: str) -> None:
    """Fail the way ``failure`` names - in a forked worker only."""
    if os.getpid() == parent:
        return
    if failure == "kill":
        os.kill(os.getpid(), 9)
    raise WorkerBoom("worker failed on purpose")


@pytest.mark.usefixtures("force_pool")
class TestPoolFailures:
    """A pooled run whose worker dies or raises fails in the parent,
    with a named error and within a timeout - it never hangs."""

    TIMEOUT = 60

    @pytest.fixture()
    def failing(self, monkeypatch):
        """``failing(failure)`` registers an engine whose fault pass
        fails the way ``failure`` names, in a forked worker only (the
        parent builds the pass; the workers inherit and call it)."""
        monkeypatch.setattr(registry, "_ENGINES", dict(registry._ENGINES))
        parent = os.getpid()
        compiled = get_engine("compiled")

        def register(failure: str) -> str:
            def fault_pass(*args):
                passes = compiled.fault_pass(*args)

                def failing_passes(*call):
                    _in_worker(parent, failure)
                    return passes(*call)

                return failing_passes

            return register_engine(
                Engine(
                    name="failing",
                    description="a compiled fault pass that fails in workers",
                    evaluate_bits=compiled.evaluate_bits,
                    fault_pass=fault_pass,
                )
            ).name

        return register

    def _outcome(self, engine):
        """Run a pooled fault simulation in a thread; its exception, or
        a hang."""
        raised = []
        network = domino_carry_chain(6)
        patterns = PatternSet.random(network.inputs, 1024, seed=3)

        def target():
            try:
                fault_simulate(network, patterns, engine=engine, jobs=2)
            except Exception as error:  # handed to the test thread
                raised.append(error)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=self.TIMEOUT)
        assert not thread.is_alive(), "pooled run hung"
        assert raised, "pooled run swallowed the worker failure"
        return raised[0]

    def test_killed_worker_raises_broken_pool(self, failing):
        engine = failing("kill")
        assert isinstance(self._outcome(engine), BrokenProcessPool)

    def test_raising_worker_reraises_in_parent(self, failing):
        engine = failing("raise")
        error = self._outcome(engine)
        assert isinstance(error, WorkerBoom)
        assert "worker failed on purpose" in str(error)


class TestJobsIsTheParallelismSwitch:
    """Pooling is a ``jobs`` value, not an engine name."""

    @pytest.mark.parametrize("name", ["sharded", "sharded+vector"])
    def test_folded_engine_names_are_unknown(self, name):
        network = domino_carry_chain(2)
        patterns = PatternSet.exhaustive(network.inputs)
        with pytest.raises(ValueError, match=re.escape(f"unknown engine {name!r}")):
            fault_simulate(network, patterns, engine=name, jobs=2)

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_default_jobs_never_forks(self, force_pool, monkeypatch, jobs):
        def no_pool(*args):
            raise AssertionError("jobs <= 1 must run in-process")

        monkeypatch.setattr(sharded, "_executor", no_pool)
        from repro.protest import monte_carlo_detection_probabilities

        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 300, seed=2)
        faults = all_faults(network)
        for engine in ("compiled", "interpreted", "vector"):
            fault_simulate(network, patterns, faults, engine=engine, jobs=jobs)
            monte_carlo_detection_probabilities(
                network, faults, samples=300, engine=engine, jobs=jobs
            )

    def test_difference_words_takes_no_jobs(self):
        """Detection words are in-process only: a ``jobs`` value, by
        keyword or in the old fourth position, is a ``TypeError`` -
        it can never bind to ``cache``."""
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        faults = all_faults(network)
        for engine in available_engines():
            words = get_engine(engine).difference_words
            with pytest.raises(TypeError):
                words(network, patterns, faults, jobs=2)
            with pytest.raises(TypeError):
                words(network, patterns, faults, 2)


class TestFaultEnumeration:
    def test_enumerated_fault_labels_are_unique(self):
        """The dual-rail sum cell has distinct fault classes whose
        physical labels collide ('nc' gates two transistors); the
        network-level fault list must disambiguate them."""
        from repro.circuits.generators import dual_rail_adder

        network = dual_rail_adder(1)
        faults = network.enumerate_faults()
        labels = [fault.describe() for fault in faults]
        assert len(labels) == len(set(labels))
        patterns = PatternSet.random(network.inputs, 64, seed=12)
        fault_simulate(network, patterns, faults)  # must not raise
