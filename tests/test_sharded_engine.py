"""Sharded engine mechanics: pools, streaming windows, shard merge.

Cross-engine bit-identity is held by the registry-driven differential
harness in ``test_engine_equivalence.py``; this file keeps what is
specific to the scale-out layer: the window iterator (including the
whole-set-window guarantee), the windowed difference-word core, shard
bounds, the verified merge, and equivalence through a *genuine* worker
pool (``min_pool_work=0`` forces forking, which the registry path
skips for small workloads).
"""

import pytest

from engine_test_utils import all_faults, differential_circuits, results_identical

from repro.circuits.generators import c17, domino_carry_chain
from repro.simulate import (
    PatternSet,
    fault_simulate,
    merge_results,
    sharded_fault_simulate,
)
from repro.simulate.faultsim import FaultSimResult, build_result
from repro.simulate.sharded import (
    shard_bounds,
    sharded_difference_words,
    windowed_difference_words,
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
        """Accumulated per-window difference words == one whole-set pass,
        across circuits, fault kinds and uneven final windows."""
        from repro.simulate.faultsim import compiled_difference_words

        patterns = PatternSet.random(network.inputs, 150, seed=17)
        faults = all_faults(network)
        whole = compiled_difference_words(network, patterns, faults)
        windowed = windowed_difference_words(network, patterns, faults, width)
        assert windowed == whole

    @pytest.mark.parametrize("width", [1, 5, 37, 100])
    def test_windowed_outcomes_match_whole_pass(self, width):
        network = domino_carry_chain(4)
        patterns = PatternSet.random(network.inputs, 100, seed=9)
        faults = all_faults(network)
        outcomes = windowed_outcomes(network, patterns, faults, width)
        reference = fault_simulate(network, patterns, faults, engine="compiled")
        rebuilt = build_result(network.name, patterns.count, faults, outcomes)
        results_identical(rebuilt, reference)

    def test_windowed_words_inner_engine_threading(self):
        """The words core accepts any single-process inner engine."""
        network = domino_carry_chain(3)
        patterns = PatternSet.random(network.inputs, 120, seed=19)
        faults = all_faults(network)
        reference = windowed_difference_words(network, patterns, faults, 64)
        for inner in ("compiled", "vector", "interpreted"):
            assert (
                windowed_difference_words(network, patterns, faults, 64, inner)
                == reference
            ), inner

    def test_unknown_inner_engine_raises(self):
        from repro.simulate.faultsim import window_difference_factory

        with pytest.raises(ValueError, match="window core"):
            window_difference_factory(domino_carry_chain(2), "sharded")

    def test_factory_vector_core_matches_compiled(self):
        """The factory's per-fault vector path (for external callers -
        the engine's own entry points use the batched cores) must agree
        with the compiled window core."""
        from repro.simulate.faultsim import window_difference_factory

        network = domino_carry_chain(3)
        patterns = PatternSet.random(network.inputs, 90, seed=23)
        faults = all_faults(network)
        compiled_of = window_difference_factory(network, "compiled")(patterns)
        vector_of = window_difference_factory(network, "vector")(patterns)
        for fault in faults:
            assert vector_of(fault) == compiled_of(fault), fault.describe()


@pytest.mark.parametrize("network", CIRCUITS, ids=lambda n: n.name)
class TestPooledEquivalence:
    """Equivalence through a genuine forked worker pool (the registry
    path falls back in-process for small workloads, so these force the
    pool with ``min_pool_work=0``)."""

    def test_pooled_identical_to_compiled(self, network):
        patterns = PatternSet.random(network.inputs, 220, seed=5)
        faults = all_faults(network)
        compiled = fault_simulate(network, patterns, faults, engine="compiled")
        for jobs in (1, 2, 3):
            pooled = sharded_fault_simulate(
                network, patterns, faults, jobs=jobs, min_pool_work=0
            )
            results_identical(pooled, compiled)

    def test_pooled_first_detection_identical(self, network):
        patterns = PatternSet.random(network.inputs, 400, seed=6)
        faults = all_faults(network)
        compiled = fault_simulate(
            network, patterns, faults, stop_at_first_detection=True, engine="compiled"
        )
        pooled = sharded_fault_simulate(
            network,
            patterns,
            faults,
            stop_at_first_detection=True,
            jobs=2,
            min_pool_work=0,
        )
        results_identical(pooled, compiled)

    def test_pooled_difference_words_identical(self, network):
        from repro.simulate.faultsim import compiled_difference_words

        patterns = PatternSet.random(network.inputs, 130, seed=7)
        faults = all_faults(network)
        assert sharded_difference_words(
            network, patterns, faults, jobs=2, min_pool_work=0
        ) == compiled_difference_words(network, patterns, faults)

    def test_pooled_vector_inner_engine_identical(self, network):
        """shards x lanes: the vector engine inside pool workers."""
        patterns = PatternSet.random(network.inputs, 220, seed=8)
        faults = all_faults(network)
        compiled = fault_simulate(network, patterns, faults, engine="compiled")
        pooled = sharded_fault_simulate(
            network, patterns, faults, jobs=2, min_pool_work=0, engine="vector"
        )
        results_identical(pooled, compiled)


class TestConcurrentPools:
    """Pooled runs in two threads at once, on the coverage-stopped
    block path and the plain shard path: each pool gets its context
    through ``initargs``, so neither run can see the other's faults."""

    @pytest.mark.parametrize("stop_at_coverage", [0.95, None])
    def test_two_threads_match_serial(self, monkeypatch, stop_at_coverage):
        import threading

        from repro.simulate import sharded as sharded_module

        monkeypatch.setattr(sharded_module, "MIN_POOL_WORK", 0)
        results = {}
        errors = []

        def run(network):
            try:
                patterns = PatternSet.random(network.inputs, 2048, seed=9)
                results[network.name] = [
                    sharded_fault_simulate(
                        network, patterns, jobs=2,
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
