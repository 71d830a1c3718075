"""One fault universe per call, for every label-keyed consumer.

:func:`repro.simulate.faultsim.fault_universe` is the one place a fault
list is enumerated, deduplicated, checked injectable and collapsed.
These tests hold every consumer to it: the consumers that once skipped
it (deductive simulation, fault dictionaries, the optimizer) raise
``fault_simulate``'s exact errors, and the simulation entry points run
the collision policy and the pool partition once per call.  The
universe and its stem plan are memoised per store on the very fault
objects; the warm-path tests hold that memo to an uncached run.
"""

import pytest

from engine_test_utils import all_faults, results_identical

from repro.circuits.generators import c17, domino_carry_chain, random_network
from repro.netlist import CellFactory, NetworkFault
from repro.protest import detectprob, optimize_input_probabilities, signalprob
from repro.simulate import (
    ArtifactStore,
    FaultDictionary,
    PatternSet,
    deductive_fault_simulate,
    fault_simulate,
    resolve_cache,
)
from repro.simulate import compiled, faultsim, sharded
from repro.simulate.source import make_source


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


# -- the warm path: one derivation per store and fault list ---------------------------


def _grade(network, faults, store, collapse="on"):
    patterns = PatternSet.random(network.inputs, 200, seed=11)
    return fault_simulate(network, patterns, faults, collapse=collapse, cache=store)


def _uncached(network, faults, collapse="on"):
    return _grade(network, faults, "off", collapse)


def test_same_fault_objects_hit_the_universe():
    """A second call on the same fault objects - in a fresh list, too -
    re-derives nothing: a ``universe`` hit and no collapse fetch."""
    network = c17()
    faults = all_faults(network)
    store = ArtifactStore()
    _grade(network, faults, store)
    store.reset_counters()
    warm = _grade(network, list(faults), store)
    stats = store.stats()
    assert stats["universe"] == {"hits": 1, "misses": 0}
    assert stats["stem_plan"] == {"hits": 1, "misses": 0}
    assert "collapse" not in stats
    results_identical(warm, _uncached(network, faults))


def test_equal_but_distinct_faults_miss():
    network = c17()
    faults = all_faults(network)
    store = ArtifactStore()
    _grade(network, faults, store)
    store.reset_counters()
    copies = [NetworkFault(*fault) for fault in faults]
    assert copies == faults
    result = _grade(network, copies, store)
    assert store.stats()["universe"] == {"hits": 0, "misses": 1}
    results_identical(result, _uncached(network, faults))


def test_list_changed_in_place_misses():
    """Replacing one fault and appending another between two calls on
    one list object rebuilds the universe and reports the new faults."""
    network = c17()
    everything = all_faults(network)
    faults = everything[:-2]
    store = ArtifactStore()
    before = _grade(network, faults, store)
    dropped = faults[3].describe()
    faults[3] = everything[-2]
    faults.append(everything[-1])
    store.reset_counters()
    after = _grade(network, faults, store)
    assert store.stats()["universe"] == {"hits": 0, "misses": 1}
    results_identical(after, _uncached(network, list(faults)))
    labels = set(after.detected) | set(after.undetected)
    assert dropped not in labels
    assert {everything[-2].describe(), everything[-1].describe()} <= labels
    assert after.fault_count == before.fault_count + 1


def test_uninjectable_fault_raises_on_every_call():
    network = c17()
    faults = all_faults(network) + [NetworkFault.stuck_at("ghost", 0)]
    store = ArtifactStore()
    for _ in range(2):
        with pytest.raises(ValueError, match="'ghost' is not in the network"):
            _grade(network, faults, store)
    assert store.hits["universe"] == 0
    assert not [key for key in store._memory if key[0] == "universe"]


def test_cache_off_never_hits():
    network = c17()
    faults = all_faults(network)
    store = resolve_cache("off")
    store.reset_counters()
    first = _grade(network, faults, store)
    results_identical(first, _grade(network, faults, store))
    assert store.hits["universe"] == store.hits["stem_plan"] == 0
    assert store.misses["universe"] == 2


def test_collapse_modes_do_not_share_an_entry():
    network = c17()
    faults = all_faults(network)
    store = ArtifactStore()
    collapsed = _grade(network, faults, store, collapse="on")
    store.reset_counters()
    plain = _grade(network, faults, store, collapse="off")
    assert store.stats()["universe"] == {"hits": 0, "misses": 1}
    assert collapsed.collapsed_classes is not None
    assert plain.collapsed_classes is None
    results_identical(plain, _uncached(network, faults, collapse="off"))
    results_identical(collapsed, plain)


def _held(store, kind):
    """Snapshots held per key of ``kind``."""
    return [len(held) for key, held in store._memory.items() if key[0] == kind]


def test_fresh_lists_keep_entries_bounded():
    """A caller simulating a new, shrinking list per call (an ATPG loop)
    leaves one key per kind and mode with at most two lists, however
    many calls it makes."""
    network = c17()
    faults = all_faults(network)
    store = ArtifactStore()
    for size in range(len(faults), len(faults) - 8, -1):
        _grade(network, faults[:size], store, collapse="off")
        _grade(network, [NetworkFault(*f) for f in faults], store)
    assert _held(store, "universe") == [2, 2]
    assert _held(store, "stem_plan") == [2]
    assert store.hits["universe"] == 0


def test_alternating_collapse_modes_stay_warm():
    """The collapsed and uncollapsed lists of one network keep their
    universes and stem plans side by side."""
    network = c17()
    faults = all_faults(network)
    store = ArtifactStore()
    for collapse in ("on", "off"):
        _grade(network, faults, store, collapse)
    store.reset_counters()
    for collapse in ("on", "off", "on"):
        _grade(network, faults, store, collapse)
    assert store.stats()["universe"] == {"hits": 3, "misses": 0}
    assert store.stats()["stem_plan"] == {"hits": 3, "misses": 0}
    assert _held(store, "stem_plan") == [2]


def test_changed_network_misses():
    """The same fault objects on a network grown in place rebuild the
    universe: the memo is keyed on the network's content."""
    network = c17()
    faults = all_faults(network)
    store = ArtifactStore()
    _grade(network, faults, store)
    network.add_gate(
        "late", CellFactory("domino-CMOS").or_gate(2),
        {"i1": network.inputs[0], "i2": network.outputs[0]}, "late_out",
    )
    network.mark_output("late_out")
    store.reset_counters()
    result = _grade(network, faults, store)
    assert store.stats()["universe"] == {"hits": 0, "misses": 1}
    results_identical(result, _uncached(network, faults))


def test_session_builds_one_stem_plan_for_all_its_blocks(monkeypatch):
    """A streaming session resolves its stem plan once, however many
    speculative blocks it simulates; a second session builds none."""
    network = random_network(n_inputs=6, n_gates=14, seed=11)
    faults = all_faults(network)
    store = ArtifactStore()
    blocks = []
    original = compiled.GoodSimulation.detections

    def detections(sim, plan, active):
        blocks.append(plan)
        return original(sim, plan, active)

    monkeypatch.setattr(compiled.GoodSimulation, "detections", detections)

    def session(cache):
        return faultsim.streaming_coverage(
            network, make_source("lfsr", network.inputs, 1 << 14, seed=1),
            faults, target_coverage=1.0, confidence=0.99, collapse="on",
            cache=cache,
        )

    first = session(store)
    assert store.stats()["stem_plan"] == {"hits": 0, "misses": 1}
    (plan,) = [value for key, held in store._memory.items()
               if key[0] == "stem_plan" for _snapshot, value in held]
    # The collapse's exhaustive refinement runs one pass of its own.
    assert blocks.count(plan) == len(blocks) - 1 > 2
    blocks.clear()
    second = session(store)
    assert store.stats()["stem_plan"] == {"hits": 1, "misses": 1}
    assert blocks.count(plan) == len(blocks) > 2
    assert first == second == session("off")
