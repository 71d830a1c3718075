"""NumPy wide-word "vector" engine over the compiled slot program.

The compiled engine (:mod:`repro.simulate.compiled`) packs every
pattern of a set into one arbitrary-precision Python int per net.
That is unbeatable up to a few thousand patterns, but past that each
per-fault cone pass drags megabyte-wide big-ints through DRAM - and
the PROTEST estimators want millions of weighted random patterns.
This module lowers the *same* slot program onto **uint64 lane
arrays**:

* net values live in per-slot ``numpy`` lane rows - slot *s*, word
  *w*, bit *k* is the value of net *s* under pattern ``w * 64 + k``
  (the :func:`pack_words` layout; this module alone converts between
  it and the big-int columns of :class:`PatternSet`);
* the good pass runs the compiled engine's own gate lambdas, and cone
  passes bind :func:`~.compiled.compile_gate_factory` factories (one
  compilation per cell expression and hot-pin set, one binding per
  gate and hot-pin set) - one renderer lowers each minimal-SOP cell
  expression to nothing but ``&``, ``|`` and ``m ^ x`` for both
  engines, so lane arrays run vectorized uint64 SIMD ops and
  bit-identity is structural rather than a testing goal;
* per-fault patch points are lane masks: a stuck fault forces a slot
  row to the mask (or zero) lanes, a cell fault stacks the compiled
  faulty kernel's output (from the compiled engine's shared
  per-fault-class cache) into its batch row.

What makes the lane form *faster* than big-ints (whose C digit loops
are themselves auto-vectorized) is the shape of the fault pass, not
the element ops:

* **fault batching** - faults sharing an injection site (every class
  fault of a gate, both polarities of a stuck net) share one fanout
  cone, so their faulty words stack into a ``[k, n_words]`` block and
  the whole batch propagates through the cone in one kernel call per
  gate; numpy's per-call overhead is amortised k ways, which a big-int
  engine cannot do at all.  Batching also goes **cross-site**:
  underfilled groups - a stuck-at pair
  fills two lanes - coalesce with same-cone neighbours into one block
  when the cone-cost model (:mod:`repro.simulate.schedule`) prices the
  merged pass cheaper, so small sites no longer pay a whole cone pass
  each;
* **cone restriction + window convergence** - only gates downstream of
  the injection site re-evaluate, batches are filtered per window to
  the rows that actually differ from the good value (a fault inactive
  in a window costs one faulty-kernel call and drops out), and
  patterns stream through :data:`VECTOR_WINDOW`-wide windows;
* **column chunking** - inside a window the batch propagates in
  :data:`VECTOR_CHUNK`-word column chunks, so the ``[k, chunk]``
  working set of a cone stays cache-resident instead of streaming the
  full window through DRAM once per gate.

The registry entry is ``"vector"``: its one fault pass is
:func:`lane_pass`, which re-batches the live faults as they retire and
unpacks each nonzero difference row into a window word - the stream
the one window loop (:func:`repro.simulate.faultsim.drive_windows`)
reduces to outcomes and the one words loop
(:func:`repro.simulate.faultsim.collect_words`) to detection words,
over :data:`VECTOR_WINDOW`-wide windows.  With ``jobs > 1`` the worker
pool of :mod:`repro.simulate.sharded` runs the same pass in every
worker (shards across processes, lanes within each).  All engines remain
bit-identical to the interpreted oracle -
``tests/test_engine_equivalence.py`` holds every registered engine to
that contract.  The lane-array form is also the substrate a
future GPU/accelerator backend would consume unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.network import Network, NetworkError, NetworkFault
from .artifacts import fault_fingerprint, resolve_cache
from .compiled import CompiledNetwork, compile_gate_factory, compile_network
from .logicsim import PatternSet
from .registry import Engine, register_engine
from .schedule import cone_gates

__all__ = [
    "COALESCE_MAX_BATCH",
    "COALESCE_MIN_FILL",
    "COALESCE_OVERHEAD_WORDS",
    "VECTOR_CHUNK",
    "VECTOR_WINDOW",
    "VectorNetwork",
    "VectorSimulation",
    "lane_pass",
    "pack_words",
    "unpack_words",
    "vector_compile",
    "vector_evaluate_bits",
]

WORD_BITS = 64
"""Patterns per ``uint64`` lane word."""


def pack_words(bits: int, count: int) -> "np.ndarray":
    """A ``count``-bit big-int as a ``uint64`` lane array.

    Bit ``k`` of the big-int lands in bit ``k % 64`` of word ``k // 64``
    - the layout every lane row of this engine uses.  Bits at or above
    ``count`` are masked off, so the array is always an exact image of
    the masked value.
    """
    n_words = (count + WORD_BITS - 1) // WORD_BITS
    bits &= (1 << count) - 1
    raw = bits.to_bytes(n_words * 8, "little")
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)


def unpack_words(words: "np.ndarray", count: int) -> int:
    """Inverse of :func:`pack_words`: lane array back to a big-int."""
    bits = int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(), "little")
    return bits & ((1 << count) - 1)


VECTOR_WINDOW = 1 << 20
"""Patterns per streaming window (16 Ki uint64 lanes = 128 KiB per
net).  Wide enough that the per-window costs (input packing, one
faulty-kernel call per fault per window) are amortised; the cone
passes inside a window are column-chunked by :data:`VECTOR_CHUNK`, so
the window size does not bound the hot working set.  Measured best on
the ``bench_perf_vector`` workload sweep."""

VECTOR_CHUNK = 1536
"""Lane words per cone-pass column chunk.  A batched cone touches
``~cone_size`` rows of ``[batch, VECTOR_CHUNK]`` words, so the chunk
bounds the pass's working set and keeps it near-cache-resident where a
full-window pass would stream every gate through DRAM; smaller chunks
lose more to numpy's per-call overhead than they gain in residency
(measured sweep in ``bench_perf_vector``).  Read at call time, clamped
to the window's word count, and priced by the coalescer."""

COALESCE_MIN_FILL = 8
"""Site batches at least this wide run alone; narrower ones (a stuck-at
pair fills two lanes of a batch) are offered to the cross-site
coalescer."""

COALESCE_MAX_BATCH = 64
"""Upper bound on a coalesced batch's row count - wide enough to
amortise kernel dispatch, narrow enough that the ``[batch, chunk]``
working set stays cache-resident."""

COALESCE_OVERHEAD_WORDS = 2048
"""Modelled per-kernel-call overhead, in uint64-word-equivalents.  The
coalescer merges site groups only when the cone-cost model says the
merged pass is cheaper: each cone gate costs ``OVERHEAD + batch x
VECTOR_CHUNK`` words per chunk call, and a *multi-site* batch
additionally pays ``sites x batch x VECTOR_CHUNK`` to materialise the
good-or-injected row blocks.  So same-site groups (the stuck-at pair
and the cell faults of the driving gate) always merge - one shared
cone pass, no block to build - identical deep cones merge cross-site
(one OVERHEAD per shared gate dwarfs the block build), and
disjoint-cone or shallow-cone cross-site pairs never do (the merged
block would drag every row through foreign cones for no saved call)."""


def _chunk_words(n_words: int) -> int:
    """Column-chunk width of a cone pass over ``n_words`` lane words:
    :data:`VECTOR_CHUNK`, clamped to ``[1, n_words]``."""
    return max(1, min(VECTOR_CHUNK, n_words))


# -- batch-plan artifact keys ----------------------------------------------------------


def _groups_key(groups: Sequence[Tuple]) -> str:
    """Content hash of an injection-site group list (order included)."""
    digest = hashlib.sha256()
    for site, stuck_slot, members in groups:
        digest.update(f"{site},{stuck_slot},{len(members)};".encode("utf-8"))
        digest.update(
            fault_fingerprint([fault for _index, fault in members]).encode("utf-8")
        )
    return digest.hexdigest()


def _apply_positions(
    groups: Sequence[Tuple], position_plans: Sequence[Sequence[int]]
) -> List[List[Tuple]]:
    """Instantiate position plans over a concrete group list.

    A multi-group plan whose groups all share one site (the common
    merge: stuck pair + cell faults of the driving gate) is collapsed
    to one wider group here, once at planning time, so every window
    takes the optimised single-site pass directly.
    """
    plans: List[List[Tuple]] = []
    for positions in position_plans:
        selected = [groups[position] for position in positions]
        if len(selected) > 1:
            sites = {site for site, _stuck_slot, _members in selected}
            if len(sites) == 1:
                site = next(iter(sites))
                members = [
                    member
                    for _site, _stuck_slot, group_members in selected
                    for member in group_members
                ]
                selected = [(site, site, members)]
        plans.append(selected)
    return plans


class VectorNetwork:
    """The compiled slot program, executed over uint64 lane arrays."""

    __slots__ = ("compiled", "_cones", "_kernels")

    def __init__(self, compiled: CompiledNetwork):
        self.compiled = compiled
        # site slots (sorted tuple) -> (cone gate/out pairs, diff out
        # slots, read-only slots the cone consumes).  Faults sharing an
        # injection site share the cone, so this is one plan per site
        # set - one per site in the common singleton case - not one per
        # fault.
        self._cones: Dict[Tuple[int, ...], Tuple] = {}
        # (gate index, hot-pin mask) -> the gate's bound cone kernel.
        self._kernels: Dict[Tuple[int, Tuple[bool, ...]], Callable] = {}

    # -- cone geometry ----------------------------------------------------------------

    def _merged_cone(self, sites: Tuple[int, ...]):
        """The union fanout-cone plan of one or more injection sites.

        Each cone gate gets a kernel specialised to which of its input
        pins carry a batch dimension at this point of the cone: the
        cell's factory (:func:`~.compiled.compile_gate_factory`, one
        compilation per process for each cell expression and hot-pin
        set) bound to the gate's slots once per network, memoised on
        (gate index, hot-pin mask).  The kernel depends on nothing else,
        so every single-site and coalesced cone through the gate shares
        it.  No gate of the union cone may drive one of the sites -
        re-evaluating a site slot would clobber its injected rows -
        which is structurally impossible for a single site in a DAG and
        enforced by the coalescer's eligibility rule for merged ones.
        """
        cached = self._cones.get(sites)
        if cached is not None:
            return cached
        compiled = self.compiled
        gate_out = compiled._gate_out
        kernels = self._kernels
        # The union cone is the union of the per-site closures, which
        # schedule.cone_gates already memoises per compilation - the
        # cost model and the cone plans walk one shared structure.
        seen: set = set()
        for site in sites:
            seen |= cone_gates(compiled, site)
        faulty = set(sites)
        pairs = []
        outs = set()
        reads = set()
        for site in sites:
            if compiled._is_out_slot[site]:
                outs.add(site)
        for index in sorted(seen):  # levelized order
            out = gate_out[index]
            if out in sites:
                raise ValueError(
                    f"cone gate {compiled.gates[index].name!r} drives "
                    f"injection site slot {out}; these sites cannot share "
                    "a batch"
                )
            gate = compiled.gates[index]
            hot = tuple(slot in faulty for slot in gate.in_slots)
            kernel = kernels.get((index, hot))
            if kernel is None:
                pins = gate.cell.inputs
                factory = compile_gate_factory(
                    gate.expr, pins, [pin for pin, h in zip(pins, hot) if h]
                )
                kernel = kernels[index, hot] = factory(*gate.in_slots)
            pairs.append((kernel, out))
            reads.update(gate.in_slots)
            faulty.add(out)
            if compiled._is_out_slot[out]:
                outs.add(out)
        reads -= faulty
        cached = (tuple(pairs), tuple(sorted(outs)), tuple(sorted(reads)))
        self._cones[sites] = cached
        return cached

    # -- evaluation -------------------------------------------------------------------

    def good_values(self, env, mask: int):
        """Good-circuit lane pass: ``(values rows, mask row, count)``.

        ``count`` is the mask's bit *length*, not its population: a
        sparse mask (legal for ``evaluate_bits``, where it just selects
        pattern positions) keeps its positional layout - inputs are
        masked positionally and the masked-word algebra (NOT as
        ``m ^ x``) holds bit for bit, exactly like the big-int engines.
        """
        compiled = self.compiled
        count = mask.bit_length()
        mask_row = pack_words(mask, count)
        zero_row = np.zeros_like(mask_row)
        values: List = [None] * compiled.num_slots
        for slot, net in enumerate(compiled.input_nets):
            try:
                bits = env[net]
            except KeyError:
                raise NetworkError(f"no value for primary input {net!r}") from None
            values[slot] = pack_words(bits & mask, count)
        for gate in compiled.gates:
            word = gate.fn(values, mask_row)
            values[gate.out_slot] = (
                word if isinstance(word, np.ndarray) else zero_row
            )
        return values, mask_row, count

    def good_rows(self, patterns: PatternSet):
        """:meth:`good_values` over a pattern set's big-int columns."""
        return self.good_values(patterns.env, patterns.mask)

    def simulate(self, patterns: PatternSet) -> "VectorSimulation":
        """Fault-free lane simulation; the result hosts per-fault passes."""
        values, mask_row, count = self.good_rows(patterns)
        return VectorSimulation(self, values, mask_row, count)

    def evaluate_bits(self, env, mask: int) -> Dict[str, int]:
        """Drop-in for :meth:`Network.evaluate_bits` (big-int results)."""
        compiled = self.compiled
        values, _mask_row, count = self.good_values(env, mask)
        return {
            compiled.net_of_slot[slot]: unpack_words(values[slot], count)
            for slot in range(compiled.num_slots)
        }

    # -- batched fault passes ---------------------------------------------------------

    def group_faults(
        self, indexed_faults: Sequence[Tuple[int, NetworkFault]]
    ) -> List[Tuple[int, int, List[Tuple[int, NetworkFault]]]]:
        """Group ``(index, fault)`` pairs by injection site.

        Every class fault of a gate (and both polarities of a stuck
        net) lands in one batch; faults that cannot be injected (ghost
        nets/gates) are dropped, matching the compiled engine's
        zero-difference treatment.
        """
        compiled = self.compiled
        groups: Dict[Tuple[int, int], List[Tuple[int, NetworkFault]]] = {}
        for index, fault in indexed_faults:
            if fault.kind == "stuck":
                site = compiled.slot_of_net.get(fault.net, -1)
                if site < 0:
                    continue
                groups.setdefault((site, site), []).append((index, fault))
            else:
                gate_index = compiled.gate_index.get(fault.gate, -1)
                if gate_index < 0:
                    continue
                site = compiled._gate_out[gate_index]
                groups.setdefault((site, -1), []).append((index, fault))
        return [(site, stuck, members) for (site, stuck), members in groups.items()]

    def group_difference_rows(
        self, values, mask_row, group
    ) -> Tuple[List[int], Optional["np.ndarray"]]:
        """Difference lane rows of one injection-site batch.

        Returns ``(live fault indices, rows)`` where row *j* marks the
        patterns on which fault ``live[j]`` is detected; a batch none of
        whose faults activate anywhere in the window is dropped after
        the injection check (``rows`` is ``None``), and a batch that is
        mostly inactive is compressed to its active rows.  The cone
        propagates in :data:`VECTOR_CHUNK`-word column chunks to stay
        cache-resident; good rows enter the kernels as ``(chunk,)``
        broadcast operands (a ``[batch, chunk]`` materialisation was
        measured slower - the k-fold extra read traffic costs more than
        numpy's per-row broadcast dispatch saves).
        """
        site, stuck_slot, members = group
        compiled = self.compiled
        n_words = mask_row.shape[0]
        batch = len(members)
        injected = np.empty((batch, n_words), dtype=np.uint64)
        for j, (_index, fault) in enumerate(members):
            injected[j] = compiled.faulty_word(fault, values, mask_row)
        active = np.bitwise_or.reduce(injected ^ values[site], axis=1) != 0
        live_count = int(active.sum())
        if not live_count:
            return [], None
        pairs, outs, reads = self._merged_cone((site,))
        if (batch - live_count) * (len(pairs) + 1) >= batch:
            # Cone-cost call: dropping the inactive rows saves one
            # [1, chunk] row per cone gate each, re-tiling the batch
            # costs one [batch, n_words] copy - compress whenever the
            # saved cone work outweighs the copy.  (With the +1 for the
            # difference accumulation this reduces to the old
            # half-inactive rule on single-gate cones, compresses far
            # more eagerly in front of deep cones - where a coalesced
            # batch would otherwise drag dead rows through every gate -
            # and never pays the copy on zero-cone batches.)
            injected = injected[active]
            live = [members[j][0] for j in range(batch) if active[j]]
            batch = live_count
        else:
            live = [index for index, _fault in members]
        chunk_words = _chunk_words(n_words)
        rows = np.empty((batch, n_words), dtype=np.uint64)
        scratch: List = [None] * compiled.num_slots
        for start in range(0, n_words, chunk_words) if n_words else ():
            stop = min(start + chunk_words, n_words)
            mask_chunk = mask_row[start:stop]
            for slot in reads:
                scratch[slot] = values[slot][start:stop]
            scratch[site] = injected[:, start:stop]
            for kernel, out in pairs:
                # Constant kernels yield scalars; they broadcast through
                # the remaining ops and the diff just as well as rows.
                scratch[out] = kernel(scratch, mask_chunk)
            chunk = rows[:, start:stop]
            if outs:
                chunk[:] = scratch[outs[0]] ^ values[outs[0]][start:stop]
                for out in outs[1:]:
                    chunk |= scratch[out] ^ values[out][start:stop]
            else:
                chunk[:] = 0
        return live, rows

    # -- cross-site batch coalescing --------------------------------------------------

    def plan_batches(
        self,
        groups: Sequence[Tuple],
        cache=None,
        keyed: bool = True,
    ) -> List[List[Tuple]]:
        """Arrange injection-site groups into batch plans.

        A *plan* is a list of groups simulated as one ``[batch,
        n_words]`` block.  Underfilled same-cone groups coalesce
        cross-site (:data:`COALESCE_MIN_FILL`), priced by the cone-cost
        model with :data:`COALESCE_OVERHEAD_WORDS` and
        :data:`VECTOR_CHUNK`.  Planning is a pure re-grouping - plan
        membership never changes a result bit, which the differential
        harness holds.  Keyed plans live in the artifact store under
        the network, the group list and those two pricing constants.
        """
        if len(groups) <= 1:
            return [[group] for group in groups]
        if not keyed:
            # Retiring runs replan shrinking live sets between blocks:
            # content-addressing such transient plans costs more (a
            # fingerprint per live fault) than re-pricing the greedy
            # coalesce, and the run's stopping point makes the subsets
            # unlikely to recur across runs anyway.
            return _apply_positions(groups, self._coalesce_positions(groups))
        store = resolve_cache(cache)
        key = (
            self.compiled.fingerprint,
            COALESCE_OVERHEAD_WORDS,
            VECTOR_CHUNK,
            _groups_key(groups),
        )
        positions = store.fetch(
            "batchplan", key, lambda: self._coalesce_positions(groups)
        )
        return _apply_positions(groups, positions)

    def _coalesce_positions(self, groups: Sequence[Tuple]) -> List[List[int]]:
        """Greedy cost-model coalescing of underfilled site groups.

        Small groups are sorted by cone signature so identical and
        heavily-overlapping cones sit next to each other (a stuck-at
        pair and the cell faults of the driving gate share a site; the
        input pair of one gate shares that gate's cone), then merged
        while the cone-cost model prices the merged pass cheaper than
        the separate ones and the merge stays *sound*: no site may lie
        in a partner cone's output slots, or the cone would re-evaluate
        the injected rows away.

        Returns the plan as lists of *positions* into ``groups`` - the
        content-addressable form the artifact store keeps;
        :func:`_apply_positions` instantiates the group lists (and
        collapses same-site merges into one wider group).
        """
        compiled = self.compiled
        gate_out = compiled._gate_out
        alone: List[List[int]] = []
        small = []
        for position, group in enumerate(groups):
            site, _stuck_slot, members = group
            gates = cone_gates(compiled, site)
            if len(members) >= COALESCE_MIN_FILL:
                alone.append([position])
                continue
            outs = frozenset(gate_out[index] for index in gates)
            small.append((tuple(sorted(gates)), site, position, group, gates, outs))
        small.sort(key=lambda info: (info[0], info[1]))

        # Costs are per window word, in the hand-calibrated SSE-baseline
        # constants: each cone gate pays one call overhead per
        # VECTOR_CHUNK words plus one word per batch row.
        call_overhead = COALESCE_OVERHEAD_WORDS / VECTOR_CHUNK

        def call_cost(gate_count: int, batch: int) -> float:
            return gate_count * (call_overhead + batch)

        def merged_cost(gate_count: int, batch: int, sites: int) -> float:
            # Multi-site batches materialise one good-or-injected block
            # per site; a single-site batch is the stacked injected rows
            # themselves, so its block term is zero.
            blocks = sites * batch if sites > 1 else 0
            return call_cost(gate_count, batch) + blocks

        plans = alone
        current: Optional[dict] = None
        for _signature, site, position, group, gates, outs in small:
            batch = len(group[2])
            separate = call_cost(len(gates), batch)
            if current is not None:
                union_gates = current["gates"] | gates
                union_sites = current["sites"] | {site}
                total = current["batch"] + batch
                if (
                    total <= COALESCE_MAX_BATCH
                    and site not in current["outs"]
                    and not (current["sites"] & outs)
                    and merged_cost(len(union_gates), total, len(union_sites))
                    <= current["separate"] + separate
                ):
                    current["positions"].append(position)
                    current["sites"].add(site)
                    current["gates"] = union_gates
                    current["outs"] |= outs
                    current["batch"] = total
                    current["separate"] += separate
                    continue
                plans.append(current["positions"])
            current = {
                "positions": [position],
                "sites": {site},
                "gates": set(gates),
                "outs": set(outs),
                "batch": batch,
                "separate": separate,
            }
        if current is not None:
            plans.append(current["positions"])
        return plans

    def plan_difference_rows(
        self,
        values,
        mask_row,
        plan: Sequence[Tuple],
    ) -> Tuple[List[int], Optional["np.ndarray"]]:
        """Difference rows of one batch plan (single-site or coalesced).

        Same-site merges were already collapsed to one wider group by
        the coalescer, so a multi-group plan here is genuinely
        cross-site (identical deep cones) and takes the merged block
        pass; everything else is the optimised single-site path.
        """
        if len(plan) == 1:
            return self.group_difference_rows(values, mask_row, plan[0])
        return self.merged_difference_rows(values, mask_row, plan)

    def merged_difference_rows(
        self,
        values,
        mask_row,
        batch_groups: Sequence[Tuple],
    ) -> Tuple[List[int], Optional["np.ndarray"]]:
        """Difference rows of a coalesced multi-site batch.

        Every row injects at its own group's site while holding the
        *good* value at every partner site, so each row propagates
        exactly its own single-fault difference through the union cone:
        gates outside a row's own cone reproduce the good value for it
        and contribute nothing to its difference.  Rows inactive in the
        window are dropped up front (a merged batch re-tiles its site
        blocks per chunk anyway, so there is no re-tiling penalty to
        trade off as in the single-site path).
        """
        compiled = self.compiled
        n_words = mask_row.shape[0]
        live: List[int] = []
        entry_sites: List[int] = []
        entry_rows: List["np.ndarray"] = []
        for site, _stuck_slot, members in batch_groups:
            injected = np.empty((len(members), n_words), dtype=np.uint64)
            for j, (_index, fault) in enumerate(members):
                injected[j] = compiled.faulty_word(fault, values, mask_row)
            active = np.bitwise_or.reduce(injected ^ values[site], axis=1) != 0
            for j, (index, _fault) in enumerate(members):
                if active[j]:
                    live.append(index)
                    entry_sites.append(site)
                    entry_rows.append(injected[j])
        if not live:
            return [], None
        batch = len(live)
        sites = tuple(sorted(set(entry_sites)))
        pairs, outs, reads = self._merged_cone(sites)
        positions_of_site: Dict[int, List[int]] = {site: [] for site in sites}
        for position, site in enumerate(entry_sites):
            positions_of_site[site].append(position)
        injected_of_site = {
            site: (
                np.array(positions, dtype=np.intp),
                np.stack([entry_rows[position] for position in positions]),
            )
            for site, positions in positions_of_site.items()
        }
        chunk_words = _chunk_words(n_words)
        rows = np.empty((batch, n_words), dtype=np.uint64)
        scratch: List = [None] * compiled.num_slots
        for start in range(0, n_words, chunk_words):
            stop = min(start + chunk_words, n_words)
            mask_chunk = mask_row[start:stop]
            for slot in reads:
                scratch[slot] = values[slot][start:stop]
            for site in sites:
                positions, injected = injected_of_site[site]
                if len(positions) == batch:
                    # Single-site batch: the block *is* the injected rows.
                    scratch[site] = injected[:, start:stop]
                else:
                    block = np.tile(values[site][start:stop], (batch, 1))
                    block[positions] = injected[:, start:stop]
                    scratch[site] = block
            for kernel, out in pairs:
                scratch[out] = kernel(scratch, mask_chunk)
            chunk = rows[:, start:stop]
            if outs:
                chunk[:] = scratch[outs[0]] ^ values[outs[0]][start:stop]
                for out in outs[1:]:
                    chunk |= scratch[out] ^ values[out][start:stop]
            else:
                chunk[:] = 0
        return live, rows


class VectorSimulation:
    """One fault-free lane valuation plus per-fault difference passes.

    The per-fault API mirrors :class:`GoodSimulation` (a ``difference``
    word per fault); internally each call is a batch of one through the
    grouped cone pass, so single-fault and batched results are the same
    code path.
    """

    __slots__ = ("network", "values", "mask_row", "count")

    def __init__(self, network: VectorNetwork, values, mask_row, count: int):
        self.network = network
        self.values = values
        self.mask_row = mask_row
        self.count = count

    def value_of(self, net: str) -> int:
        slot = self.network.compiled.slot_of_net[net]
        return unpack_words(self.values[slot], self.count)

    def as_dict(self) -> Dict[str, int]:
        return {
            net: unpack_words(self.values[slot], self.count)
            for net, slot in self.network.compiled.slot_of_net.items()
        }

    def difference(self, fault: NetworkFault) -> int:
        """Bit word marking the patterns on which ``fault`` is detected."""
        groups = self.network.group_faults([(0, fault)])
        if not groups:
            return 0
        live, rows = self.network.group_difference_rows(
            self.values, self.mask_row, groups[0]
        )
        if not live:
            return 0
        return unpack_words(rows[0], self.count)


def vector_compile(network: Network, cache=None) -> VectorNetwork:
    """The vector view of a network's (cached) compiled slot program.

    Keyed by the compilation's content fingerprint in the resolved
    artifact store: the cone plans and specialised kernels in
    :attr:`VectorNetwork._cones` survive across calls (the PROTEST
    pipeline resolves the engine several times per run) and are shared
    by equal networks built separately.  The kernels are lambdas, so
    the entry lives in the store's memory tier only.
    """
    store = resolve_cache(cache)
    compiled = compile_network(network, cache=store)
    return store.fetch(
        "vector", (compiled.fingerprint,), lambda: VectorNetwork(compiled)
    )


# -- the engine primitives -------------------------------------------------------------


def lane_pass(network: Network, faults: Sequence[NetworkFault], cache=None):
    """The lane engine's fault pass
    (:data:`repro.simulate.faultsim.FaultPass`): ``passes(chunk,
    active)`` batches the ``active`` faults by injection site
    (:meth:`VectorNetwork.plan_batches`), runs the batched cone passes
    over ``chunk`` and unpacks each nonzero difference row into a
    window word.

    The batch plans are rebuilt whenever the live set changes, so a
    half-retired site group stacks half the rows.  The first plan is
    keyed in the artifact store; re-plans are not, because a run's live
    subsets depend on where it stops and seldom recur.
    """
    store = resolve_cache(cache)
    vector = vector_compile(network, cache=store)
    planned = None
    plans: List[List[Tuple]] = []

    def passes(chunk: PatternSet, active: Sequence[int]):
        nonlocal planned, plans
        if active != planned:
            groups = vector.group_faults([(i, faults[i]) for i in active])
            plans = vector.plan_batches(groups, cache=store, keyed=planned is None)
            planned = active
        values, mask_row, _count = vector.good_rows(chunk)
        for plan in plans:
            live, rows = vector.plan_difference_rows(values, mask_row, plan)
            for j, position in enumerate(live):
                word = unpack_words(rows[j], chunk.count)
                if word:
                    yield position, word

    return passes


def vector_evaluate_bits(
    network: Network, env, mask: int, cache=None
) -> Dict[str, int]:
    """Fault-free valuation of every net on the lane engine."""
    return vector_compile(network, cache=cache).evaluate_bits(env, mask)


register_engine(
    Engine(
        name="vector",
        description=(
            "numpy uint64 lane arrays over the compiled slot program: "
            "site-batched, cache-chunked cone passes with streaming windows"
        ),
        evaluate_bits=vector_evaluate_bits,
        fault_pass=lane_pass,
        lanes=True,
    )
)
