"""Every engine against the interpreted oracle at ISCAS scale.

The differential harness (``test_engine_equivalence.py``) sweeps every
engine over small circuits, where a fanout-free
region rarely spans more than a few gates.  This file runs the same
contract once on a 10k-gate netlist parsed from ``.bench`` text:
128 sampled fault classes at 1,024 patterns, every registered engine:
its detection words in-process, and a fault simulation through a real
two-worker pool against each oracle word's first index and count.  The
oracle words are computed once for the whole file.
"""

import random

import pytest

from engine_test_utils import all_faults, bench_text
from words_reference import reference_difference_words

from repro.faults.structural import collapse_network_faults
from repro.netlist import parse_bench
from repro.simulate import (
    PatternSet,
    available_engines,
    fault_simulate,
    get_engine,
    sharded,
)

GATES = 10_000
SAMPLED_CLASSES = 128
PATTERNS = 1024


@pytest.fixture(scope="module")
def scale_case():
    """``(network, patterns, sampled faults, oracle words)``."""
    network = parse_bench(bench_text(GATES), name="scale_oracle")
    collapsed = collapse_network_faults(network, all_faults(network))
    faults = random.Random(16).sample(
        collapsed.representative_faults(), SAMPLED_CLASSES
    )
    patterns = PatternSet.random(network.inputs, PATTERNS, seed=16)
    oracle = reference_difference_words(network, patterns, faults)
    # A sample of undetectable faults would compare zeros with zeros.
    assert sum(1 for word in oracle if word) > SAMPLED_CLASSES // 2
    return network, patterns, faults, oracle


@pytest.mark.parametrize("engine", available_engines())
def test_engine_matches_oracle_at_scale(scale_case, engine):
    network, patterns, faults, oracle = scale_case
    assert get_engine(engine).difference_words(network, patterns, faults) == oracle


@pytest.mark.parametrize("engine", available_engines())
def test_pooled_engine_matches_oracle_at_scale(scale_case, engine, monkeypatch):
    network, patterns, faults, oracle = scale_case
    # The sample is far below the production pool threshold: force a
    # real fork.
    monkeypatch.setattr(sharded, "MIN_POOL_WORK", 0)
    result = fault_simulate(network, patterns, faults, engine=engine, jobs=2)
    for fault, word in zip(faults, oracle):
        label = fault.describe()
        if word:
            assert result.detected[label] == (word & -word).bit_length() - 1
            assert result.detection_counts[label] == word.bit_count()
        else:
            assert label in result.undetected
