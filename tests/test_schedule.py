"""Scheduler invariants: cone costs and partitions.

Two layers of the cone-cost scheduler
(:mod:`repro.simulate.schedule`) are pinned here:

* the **cost model** - cone gate counts must match an independent BFS
  over :class:`Network` fanout (the scheduler walks the *compiled*
  program's reader lists; the two structures must agree gate for gate);
* the **LPT scheduler** - by hypothesis property, its output is an
  exact disjoint cover of the fault list (a permutation of the input:
  no loss, no duplication) with no empty shard, for arbitrary fault
  counts, shard counts and cost vectors - ``shards > count`` and the
  empty fault list included - plus the LPT balance guarantee, and no
  fanout-free-region stem is ever split across shards.

Cross-engine bit-identity of pooled runs lives in the differential
harness (``test_engine_equivalence.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_test_utils import all_faults, bench_text

from repro.circuits.figures import fig9_cell
from repro.circuits.generators import (
    and_cone,
    c17,
    domino_carry_chain,
    skewed_cone_network,
)
from repro.netlist import Network, parse_bench
from repro.simulate import fault_costs, partition_faults
from repro.simulate.compiled import compile_network
from repro.simulate.schedule import (
    cone_counts_batch,
    cone_gate_count,
    cone_gates,
    cost_schedule,
    fault_site,
)


FIXED_CIRCUITS = [
    and_cone(5),
    c17(),
    domino_carry_chain(4),
    skewed_cone_network(depth=7, islands=5),
]


def fig9_network() -> Network:
    """The Fig. 9 example cell wrapped as a one-gate network."""
    cell = fig9_cell()
    network = Network("fig9_cell")
    for name in cell.inputs:
        network.add_input(name)
    network.add_gate("u1", cell, {name: name for name in cell.inputs}, cell.output)
    network.mark_output(cell.output)
    return network


def bfs_cone_gate_names(network: Network, net: str) -> set:
    """Independent cone walk over ``Network.fanout_of`` (not the
    compiled program): every gate reachable downstream of ``net``."""
    seen: set = set()
    frontier = [net]
    while frontier:
        current = frontier.pop()
        for gate_name, _pin in network.fanout_of(current):
            if gate_name not in seen:
                seen.add(gate_name)
                frontier.append(network.gates[gate_name].output)
    return seen


# -- cone-cost metadata vs independent BFS --------------------------------------------


@pytest.mark.parametrize(
    "network", FIXED_CIRCUITS + [fig9_network()], ids=lambda n: n.name
)
class TestConeCostModel:
    def test_cone_gate_counts_match_network_fanout_bfs(self, network):
        compiled = compile_network(network)
        for net, slot in compiled.slot_of_net.items():
            expected = bfs_cone_gate_names(network, net)
            assert cone_gate_count(compiled, slot) == len(expected), net
            assert {
                compiled.gates[index].name for index in cone_gates(compiled, slot)
            } == expected, net

    def test_fault_costs_are_one_plus_cone_gates(self, network):
        faults = all_faults(network)
        costs = fault_costs(network, faults)
        assert len(costs) == len(faults)
        for fault, cost in zip(faults, costs):
            net = fault.net if fault.kind == "stuck" else (
                network.gates[fault.gate].output
            )
            assert cost == 1 + len(bfs_cone_gate_names(network, net)), (
                fault.describe()
            )

    def test_costs_are_memoised_per_compilation(self, network):
        compiled = compile_network(network)
        slot = compiled.num_slots - 1
        assert cone_gates(compiled, slot) is cone_gates(compiled, slot)

    def test_cone_counts_batch_matches_per_site_bfs(self, network):
        # The batched bit-plane sweep the pricing pass uses must agree
        # with the per-site BFS on every slot - and record counts only,
        # never materialise the sets.
        compiled = compile_network(network, cache="off")
        cone_counts_batch(compiled, list(compiled.slot_of_net.values()) + [-1])
        assert not compiled._cone_map
        assert -1 not in compiled._cone_counts
        for net, slot in compiled.slot_of_net.items():
            assert compiled._cone_counts[slot] == len(
                bfs_cone_gate_names(network, net)
            ), net
            assert cone_gate_count(compiled, slot) == compiled._cone_counts[slot]

    def test_cone_counts_batch_skips_memoised_sets(self, network):
        compiled = compile_network(network, cache="off")
        slots = list(compiled.slot_of_net.values())
        materialised = cone_gates(compiled, slots[0])
        cone_counts_batch(compiled, slots)
        assert slots[0] not in compiled._cone_counts
        assert cone_gates(compiled, slots[0]) is materialised
        assert cone_gate_count(compiled, slots[0]) == len(materialised)


def test_skewed_network_is_actually_skewed():
    """The scheduling adversary must expose the skew the cost model is
    meant to see: spine-head faults orders beyond island faults."""
    network = skewed_cone_network(depth=12, islands=6)
    compiled = compile_network(network)
    spine_head = compiled.slot_of_net["s0"]
    island_input = compiled.slot_of_net["t0a"]
    assert cone_gate_count(compiled, spine_head) == 12
    assert cone_gate_count(compiled, island_input) == 1
    assert cone_gate_count(compiled, compiled.slot_of_net["z0"]) == 0


# -- LPT partition invariants (hypothesis) ---------------------------------------------


cost_vectors = st.lists(st.integers(min_value=0, max_value=50), max_size=120)


def assert_exact_disjoint_cover(parts, count, shards):
    flat = [index for part in parts for index in part]
    assert sorted(flat) == list(range(count))  # permutation: no loss, no dup
    assert all(part for part in parts)  # no empty shard, ever
    assert len(parts) <= max(shards, 0)
    if count == 0:
        assert parts == []


@settings(max_examples=60)
@given(costs=cost_vectors, shards=st.integers(min_value=1, max_value=40))
def test_property_cost_schedule_is_an_exact_disjoint_cover(costs, shards):
    """The core contract, for arbitrary counts, shard counts and cost
    vectors - ``shards > count`` and the empty fault list included."""
    parts = cost_schedule(costs, shards)
    assert_exact_disjoint_cover(parts, len(costs), shards)


@settings(max_examples=60)
@given(costs=cost_vectors, shards=st.integers(min_value=1, max_value=40))
def test_property_lpt_balance_guarantee(costs, shards):
    """LPT's classic bound: max shard load <= min shard load + max cost."""
    parts = cost_schedule(costs, shards)
    if not parts:
        return
    loads = [sum(costs[index] for index in part) for part in parts]
    assert max(loads) <= min(loads) + max(costs)


@settings(max_examples=25)
@given(
    depth=st.integers(min_value=1, max_value=10),
    islands=st.integers(min_value=0, max_value=6),
    shards=st.integers(min_value=1, max_value=9),
)
def test_property_partition_faults_covers_real_fault_lists(depth, islands, shards):
    """partition_faults holds the same invariants against concrete
    networks, and keeps fanout-free-region stem groups - hence the
    injection-site groups nested in them - whole (splitting a stem
    across workers would pay its observability pass twice, splitting a
    site would destroy lane fill)."""
    network = skewed_cone_network(depth=depth, islands=islands)
    faults = all_faults(network)
    parts = partition_faults(network, faults, shards)
    flat = [index for part in parts for index in part]
    assert sorted(flat) == list(range(len(faults)))
    assert all(part for part in parts)
    assert len(parts) <= shards
    compiled = compile_network(network)
    shard_of_index = {
        index: shard for shard, part in enumerate(parts) for index in part
    }
    site_shards = {}
    stem_shards = {}
    for index, fault in enumerate(faults):
        site = fault_site(compiled, fault)
        site_shards.setdefault(site, set()).add(shard_of_index[index])
        stem_shards.setdefault(compiled.stem_of[site], set()).add(
            shard_of_index[index]
        )
    assert all(len(shards_) == 1 for shards_ in site_shards.values())
    assert all(len(shards_) == 1 for shards_ in stem_shards.values())


def test_partition_faults_never_hands_out_an_empty_shard():
    """No fault list yields no shards, and more workers than stems
    yields one shard per fanout-free-region stem - a worker is never
    handed nothing."""
    network = and_cone(3)
    faults = all_faults(network)
    compiled = compile_network(network)
    stems = {compiled.stem_of[fault_site(compiled, fault)] for fault in faults}
    assert partition_faults(network, [], 4) == []
    parts = partition_faults(network, faults, len(stems) + 3)
    assert len(parts) == len(stems)
    assert all(part for part in parts)


@pytest.mark.parametrize("jobs", [2, 3])
def test_no_stem_spans_two_shards_at_scale(jobs):
    """On a seeded 2k-gate netlist every fault of a fanout-free region
    lands in one shard, so each stem's observability pass runs in one
    worker only - and every shard still carries work."""
    network = parse_bench(bench_text(2000), name="stem_partition")
    faults = all_faults(network)
    compiled = compile_network(network)
    parts = partition_faults(network, faults, jobs, cache="off")
    assert len(parts) == jobs
    assert sorted(index for part in parts for index in part) == list(
        range(len(faults))
    )
    shards_of_stem = {}
    for shard, part in enumerate(parts):
        for index in part:
            stem = compiled.stem_of[fault_site(compiled, faults[index])]
            shards_of_stem.setdefault(stem, set()).add(shard)
    split = sorted(stem for stem, shards in shards_of_stem.items() if len(shards) > 1)
    assert split == []


def test_flat_cost_vector_falls_back_to_round_robin_stripes():
    costs = [7] * 12
    assert cost_schedule(costs, 4) == [
        [0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]
    ]


def test_lpt_keeps_heavy_items_apart():
    """One huge cone next to many tiny ones: the huge item gets its own
    shard instead of dragging a contiguous slice along."""
    costs = [100, 1, 1, 1, 1, 1, 1, 1]
    parts = cost_schedule(costs, 2)
    loads = sorted(sum(costs[index] for index in part) for part in parts)
    assert loads == [7, 100]


def test_zero_cost_items_never_leave_a_shard_empty():
    parts = cost_schedule([5, 0, 0, 0, 0], 3)
    assert_exact_disjoint_cover(parts, 5, 3)
