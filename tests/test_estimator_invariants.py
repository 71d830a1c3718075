"""Hypothesis property tests for estimator invariants.

Structural properties that must hold regardless of circuit or pattern
set: :func:`coverage_curve` is monotone non-decreasing in the pattern
count - seeing more patterns can only detect more faults.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import random_network
from repro.simulate import PatternSet, coverage_curve


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
