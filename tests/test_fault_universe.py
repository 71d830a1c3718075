"""One fault universe per call, for every label-keyed consumer.

:func:`repro.simulate.faultsim.fault_universe` is the one place a fault
list is enumerated, deduplicated, checked injectable and collapsed.
These tests hold every consumer to it: the consumers that once skipped
it (deductive simulation, fault dictionaries, the optimizer) raise
``fault_simulate``'s exact errors, and the simulation entry points run
the collision policy and the pool partition once per call.
"""

import pytest

from engine_test_utils import all_faults, results_identical

from repro.circuits.generators import c17, domino_carry_chain
from repro.netlist import NetworkFault
from repro.protest import detectprob, optimize_input_probabilities, signalprob
from repro.simulate import (
    FaultDictionary,
    PatternSet,
    deductive_fault_simulate,
    fault_simulate,
)
from repro.simulate import faultsim, sharded


def wide_network():
    """Small, but wide enough that the optimizer evaluates by Monte
    Carlo."""
    network = domino_carry_chain(9)
    assert len(network.inputs) > signalprob.MAX_EXACT_INPUTS - 4
    return network


def _exhaustive(network):
    return PatternSet.exhaustive(network.inputs)


def _deductive(network, faults):
    return deductive_fault_simulate(network, _exhaustive(network), faults)


def _dictionary(network, faults):
    return FaultDictionary(network, _exhaustive(network), faults)


def _optimize(network, faults):
    return optimize_input_probabilities(network, faults, max_sweeps=1)


def _optimize_wide(network, faults):
    return optimize_input_probabilities(
        network, faults, max_sweeps=1, samples=64, grid=(0.3, 0.5)
    )


#: consumer -> (network it runs on, call)
CONSUMERS = {
    "deductive": (c17, _deductive),
    "dictionary": (c17, _dictionary),
    "optimize": (c17, _optimize),
    "optimize_monte_carlo": (wide_network, _optimize_wide),
}


def _message(call):
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


def _colliding(network):
    first, second = network.inputs[:2]
    return [
        NetworkFault.stuck_at(first, 0),
        NetworkFault(kind="stuck", net=second, value=0, label=f"s0-{first}"),
    ]


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_missing_net_raises_fault_simulates_error(consumer):
    build, call = CONSUMERS[consumer]
    network = build()
    ghost = [NetworkFault.stuck_at("nope", 0)]
    expected = _message(
        lambda: fault_simulate(network, _exhaustive(network), ghost)
    )
    assert "cannot be injected" in expected
    assert _message(lambda: call(network, ghost)) == expected


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_shared_label_raises_fault_simulates_error(consumer):
    build, call = CONSUMERS[consumer]
    network = build()
    colliding = _colliding(network)
    expected = _message(
        lambda: fault_simulate(network, _exhaustive(network), colliding)
    )
    assert "shared by two distinct faults" in expected
    assert _message(lambda: call(network, colliding)) == expected


def test_literal_duplicate_is_reported_once():
    network = c17()
    fault = network.enumerate_faults()[0]
    single, doubled = [fault], [fault, fault]

    results_identical(_deductive(network, doubled), _deductive(network, single))
    assert _deductive(network, doubled).fault_count == 1

    dictionary = _dictionary(network, doubled)
    assert dictionary.faults == single
    assert dictionary.distinguishable_pairs() == (0, 0)

    assert _optimize(network, doubled) == _optimize(network, single)


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is recorded; returns the list
    of the first argument's lengths."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1] if name == "partition_faults" else args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_collapsed_run_applies_the_collision_policy_once(monkeypatch):
    network = c17()
    faults = all_faults(network)
    calls = _count_calls(monkeypatch, faultsim, "dedupe_faults")
    result = fault_simulate(
        network, _exhaustive(network), faults, collapse="on", cache="off"
    )
    assert calls == [len(faults)]
    assert result.collapsed_classes is not None
    assert result.fault_count == len(faults)


def test_monte_carlo_optimizer_builds_one_universe(monkeypatch):
    """The Monte-Carlo evaluator reuses the universe for every
    candidate instead of deduplicating and checking per evaluation."""
    network = wide_network()
    calls = _count_calls(monkeypatch, faultsim, "dedupe_faults")
    # Where an estimator binds the policy by name, count that too.
    if hasattr(detectprob, "dedupe_faults"):
        monkeypatch.setattr(detectprob, "dedupe_faults", faultsim.dedupe_faults)
    result = _optimize_wide(network, None)
    assert calls == [len(network.enumerate_faults())]
    assert result.sweeps == 1


def test_pooled_counting_run_partitions_once(monkeypatch):
    """The pool hands its first partition to the block kernel, so a
    counting run prices the whole fault list once."""
    network = c17()
    patterns = PatternSet.random(network.inputs, 512, seed=3)
    faults = all_faults(network)
    monkeypatch.setattr(sharded, "MIN_POOL_WORK", 0)
    calls = _count_calls(monkeypatch, sharded, "partition_faults")
    pooled = fault_simulate(network, patterns, faults, jobs=2)
    assert calls == [len(faults)]
    results_identical(pooled, fault_simulate(network, patterns, faults))


def test_pooled_retiring_run_repartitions_only_live_faults(monkeypatch):
    """A retiring run re-partitions only after faults retire, and then
    only the live ones."""
    network = c17()
    patterns = PatternSet.random(network.inputs, 4096, seed=3)
    faults = all_faults(network)
    monkeypatch.setattr(sharded, "MIN_POOL_WORK", 0)
    calls = _count_calls(monkeypatch, sharded, "partition_faults")
    pooled = fault_simulate(
        network, patterns, faults, stop_at_first_detection=True, jobs=2
    )
    assert calls[0] == len(faults)
    assert all(later < earlier for earlier, later in zip(calls, calls[1:]))
    results_identical(
        pooled,
        fault_simulate(network, patterns, faults, stop_at_first_detection=True),
    )
