"""Hypothesis property tests for estimator invariants.

Structural properties that must hold regardless of circuit, pattern
set or sharding layout:

* :func:`coverage_curve` is monotone non-decreasing in the pattern
  count - seeing more patterns can only detect more faults;
* :func:`merge_results` is order-independent over shard permutations
  (commutative) and bracketing-independent (associative): however a
  fault list is split and in whatever order the shards come back, the
  merged result is the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import all_faults

from repro.circuits.generators import random_network
from repro.simulate import (
    PatternSet,
    coverage_curve,
    fault_simulate,
    merge_results,
    partition_faults,
)


def results_order_independent(a, b):
    """Identical up to undetected-list ORDER: shard permutations may
    legitimately reorder the concatenated undetected labels (unlike the
    bit-identity helper in conftest, which compares order too)."""
    assert a.detected == b.detected
    assert a.detection_counts == b.detection_counts
    assert sorted(a.undetected) == sorted(b.undetected)
    assert a.pattern_count == b.pattern_count


@settings(max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=300),
    points=st.integers(min_value=1, max_value=48),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_coverage_curve_monotone_nondecreasing(seed, count, points, weight):
    """Property: coverage never drops as the pattern count grows."""
    network = random_network(n_inputs=5, n_gates=10, seed=seed)
    patterns = PatternSet.random(
        network.inputs, count, seed=seed ^ 0x77, probabilities={network.inputs[0]: weight}
    )
    curve = coverage_curve(network, patterns, points=points)
    assert curve, "curve must have at least one sample"
    pattern_counts = [upto for upto, _coverage in curve]
    coverages = [coverage for _upto, coverage in curve]
    assert pattern_counts == sorted(pattern_counts)
    assert pattern_counts[-1] == patterns.count
    assert all(0.0 <= c <= 1.0 for c in coverages)
    assert all(a <= b for a, b in zip(coverages, coverages[1:]))


@settings(max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=150),
    shards=st.integers(min_value=1, max_value=6),
    permutation_seed=st.randoms(use_true_random=False),
)
def test_merge_results_order_independent(seed, count, shards, permutation_seed):
    """Property: merging shard results is commutative - any permutation
    of the parts merges to the whole-list result."""
    network = random_network(n_inputs=5, n_gates=8, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x1234)
    faults = all_faults(network)
    whole = fault_simulate(network, patterns, faults)
    parts = [
        fault_simulate(network, patterns, [faults[i] for i in shard])
        for shard in partition_faults(network, faults, shards)
    ]
    permuted = parts[:]
    permutation_seed.shuffle(permuted)
    results_order_independent(merge_results(permuted), whole)


@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=150),
    split=st.integers(min_value=1, max_value=5),
)
def test_merge_results_associative(seed, count, split):
    """Property: merging is bracketing-independent - merging merged
    sub-results equals merging all parts flat."""
    network = random_network(n_inputs=5, n_gates=8, seed=seed)
    patterns = PatternSet.random(network.inputs, count, seed=seed ^ 0x4321)
    faults = all_faults(network)
    parts = [
        fault_simulate(network, patterns, [faults[i] for i in shard])
        for shard in partition_faults(network, faults, 4)
    ]
    flat = merge_results(parts)
    pivot = max(1, min(len(parts) - 1, split)) if len(parts) > 1 else 1
    if len(parts) == 1:
        nested = merge_results([merge_results(parts)])
    else:
        nested = merge_results(
            [merge_results(parts[:pivot]), merge_results(parts[pivot:])]
        )
    results_order_independent(nested, flat)
