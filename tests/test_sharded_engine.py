"""Worker-pool mechanics: ``jobs > 1``, streaming windows, shard merge.

Cross-engine bit-identity is held by the registry-driven differential
harness in ``test_engine_equivalence.py``; this file keeps what is
specific to the scale-out layer: the window iterator (including the
whole-set-window guarantee), the one words loop at any window width,
shard bounds, the verified merge, equivalence through a *genuine* worker
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
    merge_results,
    register_engine,
    registry,
    resolve_cache,
    resolve_plan,
    sharded,
)
from repro.simulate.faultsim import (
    FaultSimResult,
    build_result,
    collect_words,
    windowed_outcomes,
)
from repro.simulate.sharded import shard_bounds


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
        """The one words loop over every engine's words kernel, at any
        window width, == the whole-set reference words - across
        circuits, fault kinds and uneven final windows."""
        patterns = PatternSet.random(network.inputs, 150, seed=17)
        faults = all_faults(network)
        reference = reference_difference_words(network, patterns, faults)
        for engine in available_engines():
            words = get_engine(engine).words_kernel(
                network, faults, None, resolve_plan(None), resolve_cache(None)
            )
            assert (
                collect_words(patterns, words, range(len(faults)), width)
                == reference
            ), engine

    @pytest.mark.parametrize("width", [1, 5, 37, 100])
    def test_windowed_outcomes_match_whole_pass(self, width):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 100, seed=9)
        faults = all_faults(network)
        outcomes = windowed_outcomes(network, patterns, faults, width)
        reference = fault_simulate(network, patterns, faults, engine="compiled")
        rebuilt = build_result(network.name, patterns.count, faults, outcomes)
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

    def test_pooled_difference_words_identical(self, network):
        patterns = PatternSet.random(network.inputs, 130, seed=7)
        faults = all_faults(network)
        assert get_engine("compiled").difference_words(
            network, patterns, faults, jobs=2
        ) == reference_difference_words(network, patterns, faults)

    def test_pooled_vector_engine_identical(self, network):
        """shards x lanes: the vector engine inside pool workers."""
        patterns = PatternSet.random(network.inputs, 220, seed=8)
        faults = all_faults(network)
        compiled = fault_simulate(network, patterns, faults, engine="compiled")
        pooled = fault_simulate(
            network, patterns, faults, engine="vector", jobs=2
        )
        results_identical(pooled, compiled)


class TestConcurrentPools:
    """Pooled runs in two threads at once, on the coverage-stopped
    block path and the plain shard path: each pool gets its context
    through ``initargs``, so neither run can see the other's faults."""

    @pytest.mark.parametrize("stop_at_coverage", [0.95, None])
    def test_two_threads_match_serial(self, force_pool, stop_at_coverage):
        results = {}
        errors = []

        def run(network):
            try:
                patterns = PatternSet.random(network.inputs, 2048, seed=9)
                results[network.name] = [
                    fault_simulate(
                        network, patterns, engine="compiled", jobs=2,
                        stop_at_coverage=stop_at_coverage,
                    )
                    for _ in range(6)
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
            patterns = PatternSet.random(network.inputs, 2048, seed=9)
            serial = fault_simulate(
                network, patterns, engine="compiled",
                stop_at_coverage=stop_at_coverage,
            )
            for result in results[network.name]:
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
        """``failing(failure)`` registers an engine whose kernels fail
        the way ``failure`` names, in a forked worker only (the parent
        builds the kernels; the workers inherit and call them)."""
        monkeypatch.setattr(registry, "_ENGINES", dict(registry._ENGINES))
        parent = os.getpid()
        compiled = get_engine("compiled")

        def register(failure: str) -> str:
            def sabotaged(build):
                def builder(*args):
                    kernel = build(*args)

                    def failing_kernel(*call):
                        _in_worker(parent, failure)
                        return kernel(*call)

                    return failing_kernel

                return builder

            return register_engine(
                Engine(
                    name="failing",
                    description="compiled kernels that fail in workers",
                    evaluate_bits=compiled.evaluate_bits,
                    block_kernel=sabotaged(compiled.block_kernel),
                    words_kernel=sabotaged(compiled.words_kernel),
                )
            ).name

        return register

    def _run_pooled(self, engine, path):
        network = domino_carry_chain(6)
        patterns = PatternSet.random(network.inputs, 1024, seed=3)
        if path == "words":
            return get_engine(engine).difference_words(
                network, patterns, network.enumerate_faults(), jobs=2
            )
        return fault_simulate(network, patterns, engine=engine, jobs=2)

    def _outcome(self, engine, path):
        """Run the pooled call in a thread; its exception, or a hang."""
        raised = []

        def target():
            try:
                self._run_pooled(engine, path)
            except Exception as error:  # handed to the test thread
                raised.append(error)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=self.TIMEOUT)
        assert not thread.is_alive(), "pooled run hung"
        assert raised, "pooled run swallowed the worker failure"
        return raised[0]

    @pytest.mark.parametrize("path", ["outcomes", "words"])
    def test_killed_worker_raises_broken_pool(self, failing, path):
        engine = failing("kill")
        assert isinstance(self._outcome(engine, path), BrokenProcessPool)

    @pytest.mark.parametrize("path", ["outcomes", "words"])
    def test_raising_worker_reraises_in_parent(self, failing, path):
        engine = failing("raise")
        error = self._outcome(engine, path)
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

    @pytest.mark.parametrize("window", [0, -3])
    def test_pooled_run_validates_window(self, force_pool, window):
        network = c17()
        patterns = PatternSet.exhaustive(network.inputs)
        with pytest.raises(
            ValueError, match=f"window width must be >= 1, got {window}"
        ):
            windowed_outcomes(
                network, patterns, all_faults(network), window, jobs=2
            )

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_default_jobs_never_forks(self, force_pool, monkeypatch, jobs):
        def no_pool(*args):
            raise AssertionError("jobs <= 1 must run in-process")

        monkeypatch.setattr(sharded, "_executor", no_pool)
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 300, seed=2)
        faults = all_faults(network)
        for engine in ("compiled", "interpreted", "vector"):
            fault_simulate(network, patterns, faults, engine=engine, jobs=jobs)
            get_engine(engine).difference_words(network, patterns, faults, jobs)


class TestShardMerge:
    def _result(self, **kw):
        base = dict(
            network_name="n",
            pattern_count=64,
            detected={},
            detection_counts={},
            undetected=[],
        )
        base.update(kw)
        return FaultSimResult(**base)

    def test_merge_preserves_indices_and_counts(self):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 96, seed=8)
        faults = all_faults(network)
        whole = fault_simulate(network, patterns, faults)
        parts = []
        for lo, hi in shard_bounds(len(faults), 3):
            parts.append(fault_simulate(network, patterns, faults[lo:hi]))
        merged = merge_results(parts)
        results_identical(merged, whole)

    def test_shard_bounds_partition(self):
        for count, shards in [(10, 3), (7, 7), (5, 16), (1, 4), (0, 2)]:
            bounds = shard_bounds(count, shards)
            covered = [i for lo, hi in bounds for i in range(lo, hi)]
            assert covered == list(range(count))
            assert len(bounds) <= max(1, min(shards, count))

    def test_merge_rejects_mismatched_pattern_counts(self):
        a = self._result(pattern_count=64)
        b = self._result(pattern_count=32)
        with pytest.raises(ValueError):
            merge_results([a, b])

    def test_merge_rejects_mismatched_networks(self):
        a = self._result()
        b = self._result(network_name="other")
        with pytest.raises(ValueError):
            merge_results([a, b])

    def test_merge_rejects_overlapping_labels(self):
        a = self._result(detected={"f": 3}, detection_counts={"f": 1})
        b = self._result(undetected=["f"])
        with pytest.raises(ValueError):
            merge_results([a, b])

    def test_merge_of_nothing_raises(self):
        with pytest.raises(ValueError):
            merge_results([])


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
