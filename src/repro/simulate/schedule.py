"""Cone-cost fault scheduling: cost-weighted partitioning plans.

A worker pool (``jobs > 1``) hands each worker a shard of the fault
list, and it loses throughput when fanout-cone sizes vary - a shard
that happens to hold the deep-cone faults straggles while the other
workers idle.  This module prices faults by cone and cuts the shards:

* **cone-cost model** - a fault's simulation cost is dominated by the
  gates downstream of its injection site (the fanout cone its stem's
  observability pass re-evaluates), so the per-fault cost is
  ``1 + cone_gate_count(site)`` (the injection-site evaluation plus the
  cone).  The cone metadata comes straight from the compiled slot
  program's reader lists (:mod:`repro.simulate.compiled`) and is
  memoised per compilation.

* :func:`cost_schedule` - LPT (longest-processing-time) greedy bin
  packing over a cost vector, falling back to round-robin striping when
  the vector is flat (every item equally expensive - LPT would add
  nothing over striping).  It returns an **exact disjoint cover** of
  the indices - a permutation of the input, no loss, no duplication,
  and *never an empty shard* (``shards > count`` produces ``count``
  shards; an empty list produces no shards at all).
  ``tests/test_schedule.py`` holds it to those invariants by hypothesis
  property.

* :func:`partition_faults` - the entry the worker pool uses: it
  prices a concrete fault list against a concrete network and bins
  whole fanout-free-region stem groups (every fault of a region shares
  the stem's one observability pass on the compiled and vector
  engines, so splitting a stem across workers would pay its pass
  twice).

Scheduling is a pure re-ordering: a pooled run scatters every outcome
back to its fault-list position, so it is bit-identical to the
in-process one, which ``tests/test_engine_equivalence.py`` enforces on
every engine.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Sequence

from ..netlist.network import Network, NetworkFault
from .artifacts import resolve_cache
from .compiled import CompiledNetwork, compile_network

__all__ = [
    "cone_counts_batch",
    "cone_gate_count",
    "cone_gates",
    "cost_schedule",
    "fault_costs",
    "partition_faults",
    "site_cost",
]


# -- cone metadata over the compiled slot program --------------------------------------


def cone_gates(compiled: CompiledNetwork, slot: int) -> FrozenSet[int]:
    """Gate indices downstream of ``slot`` - the fault's fanout cone.

    One BFS over the compiled program's reader lists per site, memoised
    on the compilation itself (``compiled._cone_map``) so the sets are
    shared by every run the artifact store hands the program to.  The
    set is the union of the stem cones the site's observability pass
    walks, so the cost model prices the work the engines do.
    """
    cones = compiled._cone_map
    cached = cones.get(slot)
    if cached is not None:
        return cached
    gate_out = compiled._gate_out
    readers = compiled.readers
    # Allocation-lean BFS: visited flags live in one reusable bytearray
    # on the compilation (reset from the visit list afterwards), and the
    # visit list doubles as the FIFO queue - at 100k gates a set-based
    # walk spends most of its time hashing and rehashing gate indices.
    seen = compiled._cone_scratch
    if seen is None:
        seen = compiled._cone_scratch = bytearray(len(gate_out))
    queue = list(readers[slot])
    for index in queue:
        seen[index] = 1
    head = 0
    while head < len(queue):
        index = queue[head]
        head += 1
        for reader in readers[gate_out[index]]:
            if not seen[reader]:
                seen[reader] = 1
                queue.append(reader)
    for index in queue:
        seen[index] = 0
    cone = frozenset(queue)
    cones[slot] = cone
    return cone


def cone_gate_count(compiled: CompiledNetwork, slot: int) -> int:
    """Number of gates in the fanout cone of ``slot``.

    Answers from whichever memo already knows: a materialised cone set
    (:func:`cone_gates`) or a batch-swept count
    (:func:`cone_counts_batch`); otherwise falls back to one BFS.
    """
    cone = compiled._cone_map.get(slot)
    if cone is not None:
        return len(cone)
    count = compiled._cone_counts.get(slot)
    if count is not None:
        return count
    return len(cone_gates(compiled, slot))


def cone_counts_batch(compiled: CompiledNetwork, slots) -> None:
    """Price the fanout cones of many sites in one levelized sweep.

    Per-site BFS is O(cone) per site, which at ISCAS scale (100k gates,
    cones spanning most of the network) turns a fault-list pricing pass
    into minutes of redundant re-walking.  Pricing only needs cone
    *sizes*, so this sweep assigns every requested site a bit, carries a
    per-slot big-int mask of "whose cones does a value here feed" down
    the compiled gate order once, and tallies each gate's memberships
    into bit-plane counters (one ripple-carry add of the whole mask per
    gate, all wide integer ops) - no per-site walk and no materialised
    sets.  Counts land in ``compiled._cone_counts``, a memo
    :func:`cone_gate_count` consults before falling back to BFS; they
    are identical to ``len(cone_gates(...))`` (property-tested).
    """
    counts = compiled._cone_counts
    todo = sorted(
        {
            slot
            for slot in slots
            if 0 <= slot and slot not in counts and slot not in compiled._cone_map
        }
    )
    if not todo:
        return
    bit_of_site = {slot: index for index, slot in enumerate(todo)}
    masks = [0] * compiled.num_slots
    for slot, bit in bit_of_site.items():
        masks[slot] = 1 << bit
    gate_out = compiled._gate_out
    # planes[i] holds bit i of every site's running count, so adding a
    # gate's membership mask to all counters at once is one ripple-carry
    # add over the planes.
    planes: List[int] = []
    for index, gate in enumerate(compiled.gates):
        mask = 0
        for slot in gate.in_slots:
            mask |= masks[slot]
        if mask:
            masks[gate_out[index]] |= mask
            for i in range(len(planes)):
                carry = planes[i] & mask
                planes[i] ^= mask
                mask = carry
                if not mask:
                    break
            if mask:
                planes.append(mask)
    for slot, bit in bit_of_site.items():
        counts[slot] = sum(
            ((plane >> bit) & 1) << i for i, plane in enumerate(planes)
        )


def site_cost(compiled: CompiledNetwork, site: int) -> int:
    """Per-fault cone cost of one injection site:
    ``1 + cone_gate_count(site)``.

    The ``1`` is the injection-site evaluation itself (a stuck force or
    one faulty-kernel call), which keeps zero-cone faults - stuck-ats
    on unread output nets - from pricing at zero.  A fault that cannot
    be injected (``site < 0``) costs 1: the engines treat it as
    zero-difference.  The one formula :func:`fault_costs` and
    :func:`partition_faults` both price with.
    """
    return 1 if site < 0 else 1 + cone_gate_count(compiled, site)


def fault_costs(
    network: Network, faults: Sequence[NetworkFault], cache=None
) -> List[int]:
    """Per-fault cone cost (:func:`site_cost` of each injection site)."""
    compiled = compile_network(network, cache=cache)
    sites = [compiled.fault_site(fault) for fault in faults]
    cone_counts_batch(compiled, sites)
    return [site_cost(compiled, site) for site in sites]


# -- the scheduler ---------------------------------------------------------------------


def cost_schedule(costs: Sequence[int], shards: int) -> List[List[int]]:
    """LPT greedy bin packing over the cost vector.

    Items are placed heaviest-first onto the least-loaded shard, which
    bounds the spread: ``max load <= min load + max cost`` (the classic
    LPT guarantee, property-tested).  Ties prefer the emptiest shard so
    no shard is ever left empty while others hold multiple items - even
    with zero-cost entries.  A flat cost vector falls back to round-robin
    striping (shard *k* gets indices ``k, k+shards, ...``), where LPT's
    sort buys nothing.
    """
    count = len(costs)
    shards = min(shards, count)
    if shards <= 0:
        return []
    if len(set(costs)) <= 1:
        return [list(range(shard, count, shards)) for shard in range(shards)]
    # (load, items, shard): the item count breaks load ties toward the
    # emptiest shard, which is what guarantees no shard stays empty.
    heap = [(0, 0, shard) for shard in range(shards)]
    parts: List[List[int]] = [[] for _ in range(shards)]
    for index in sorted(range(count), key=lambda i: (-costs[i], i)):
        load, items, shard = heappop(heap)
        parts[shard].append(index)
        heappush(heap, (load + costs[index], items + 1, shard))
    for part in parts:
        part.sort()
    return parts


# -- fault-list partitioning -----------------------------------------------------------


def partition_faults(
    network: Network,
    faults: Sequence[NetworkFault],
    shards: int,
    cache=None,
) -> List[List[int]]:
    """Shard a fault list into index lists by cone cost.

    Prices each fault's injection site (:func:`site_cost`) and LPT-packs
    **whole fanout-free-region stem groups** (group cost = the sum of
    its faults' site costs): every fault of a region is carried to the
    stem and shares one observability pass there
    (``compiled.stem_of``), so a stem split across shards would pay that
    pass in each.  Stem grouping can return
    fewer shards than requested when there are fewer stems than
    workers - never an empty shard, exactly like :func:`cost_schedule`.
    """
    store = resolve_cache(cache)
    compiled = compile_network(network, cache=store)

    def build(faults) -> List[List[int]]:
        sites = [compiled.fault_site(fault) for fault in faults]
        cone_counts_batch(compiled, sites)
        members_of_stem: Dict[int, List[int]] = {}
        cost_of_stem: Dict[int, int] = {}
        for index, site in enumerate(sites):
            stem = site if site < 0 else compiled.stem_of[site]
            members_of_stem.setdefault(stem, []).append(index)
            cost_of_stem[stem] = cost_of_stem.get(stem, 0) + site_cost(compiled, site)
        stems = sorted(members_of_stem)
        group_costs = [cost_of_stem[stem] for stem in stems]
        parts: List[List[int]] = []
        for group_part in cost_schedule(group_costs, shards):
            indices = [
                index
                for group in group_part
                for index in members_of_stem[stems[group]]
            ]
            indices.sort()
            parts.append(indices)
        return parts

    return store.fetch_identical(
        "partition", (compiled.fingerprint, int(shards)), faults, build
    )
