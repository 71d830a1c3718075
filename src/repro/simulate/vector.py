"""NumPy lane-word "vector" engine: the compiled fault pass on lane rows.

The compiled engine (:mod:`repro.simulate.compiled`) packs every
pattern of a window into one arbitrary-precision Python int per net.
This module runs the *same* slot program and the *same* fault pass on
**numpy uint64 lane rows** instead:

* net values live in per-slot lane rows - slot *s*, word *w*, bit *k*
  is the value of net *s* under pattern ``w * 64 + k`` (the
  :func:`pack_words` layout; this module alone converts between it and
  the big-int columns of :class:`PatternSet`);
* the good pass runs the compiled engine's own gate functions, which
  use nothing but ``&``, ``|`` and ``m ^ x`` and so run unchanged as
  vectorized uint64 ops;
* the fault pass is :meth:`~.compiled.GoodSimulation.detections`
  itself - each fault walked down its fanout-free region to the stem,
  one observability pass per stem - inherited by
  :class:`VectorSimulation`, which only swaps the word test for
  ``np.count_nonzero``.  Bit-identity with the compiled engine is structural: one
  pass, two word forms.

The registry entry is ``"vector"``: its fault pass, :func:`lane_pass`,
simulates each window's good rows, runs the stem pass on them and
unpacks each nonzero detection row into a window word - the stream the
one window loop (:func:`repro.simulate.faultsim.drive_windows`) reduces
to outcomes and the one words loop
(:func:`repro.simulate.faultsim.collect_words`) to detection words,
over :data:`repro.simulate.sharded.DEFAULT_WINDOW`-wide windows like
every engine.  With ``jobs > 1`` the worker pool of
:mod:`repro.simulate.sharded` runs the same pass in every worker.  All
engines remain bit-identical to the interpreted oracle -
``tests/test_engine_equivalence.py`` holds every registered engine to
that contract.

Lane rows pay numpy's per-call overhead on every gate evaluation, so on
the 4,096-pattern grading workload of ``perfbench`` the engine stays
about two and a half times slower than ``compiled``; it exists as the
lane-array substrate an accelerator backend would consume.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netlist.network import Network, NetworkError, NetworkFault
from .artifacts import resolve_cache
from .compiled import CompiledNetwork, GoodSimulation, StemPlan, compile_network, stem_plan
from .logicsim import PatternSet
from .registry import Engine, register_engine

__all__ = [
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


class VectorNetwork:
    """The compiled slot program, executed over uint64 lane rows."""

    __slots__ = ("compiled",)

    def __init__(self, compiled: CompiledNetwork):
        self.compiled = compiled

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

    def simulate(self, patterns: PatternSet) -> "VectorSimulation":
        """Fault-free lane simulation; the result hosts the fault pass."""
        values, mask_row, count = self.good_values(patterns.env, patterns.mask)
        return VectorSimulation(self.compiled, values, mask_row, count)

    def evaluate_bits(self, env, mask: int) -> Dict[str, int]:
        """Drop-in for :meth:`Network.evaluate_bits` (big-int results)."""
        compiled = self.compiled
        values, _mask_row, count = self.good_values(env, mask)
        return {
            compiled.net_of_slot[slot]: unpack_words(values[slot], count)
            for slot in range(compiled.num_slots)
        }

    def group_faults(
        self, indexed_faults: Sequence[Tuple[int, NetworkFault]]
    ) -> List[Tuple[int, List[Tuple[int, NetworkFault]]]]:
        """``(stem, members)`` per fanout-free-region stem: the groups
        :meth:`~.compiled.GoodSimulation.detections` runs one pass for,
        in first-seen order.  Faults that cannot be injected (ghost
        nets or gates) are dropped, as the pass drops them."""
        plan = StemPlan(self.compiled, [fault for _index, fault in indexed_faults])
        return [
            (stem, [indexed_faults[position] for position in positions])
            for stem, positions in zip(plan.group_stems, plan.groups)
        ]

    def plan_batches(self, groups: Sequence[Tuple], cache=None) -> List[List[Tuple]]:
        """One plan per stem group of :meth:`group_faults`: the stem
        pass needs no planning, so each group is its own pass and the
        plan count is the stem-pass count.  ``cache`` is accepted for
        the callers that pass one and unused."""
        return [[group] for group in groups]


class VectorSimulation(GoodSimulation):
    """One fault-free lane valuation hosting the compiled stem pass.

    :meth:`~.compiled.GoodSimulation.detections` yields lane rows here;
    the value and difference accessors unpack them to big-ints, like the
    compiled engine's.
    """

    __slots__ = ("count",)

    #: ``np.count_nonzero``: a C-level test, several times cheaper per
    #: call than ``np.any``, that also takes the scalar words constant
    #: kernels return.
    nonzero = staticmethod(np.count_nonzero)

    def __init__(self, compiled: CompiledNetwork, values, mask_row, count: int):
        super().__init__(compiled, values, mask_row)
        self.count = count

    def _to_int(self, word) -> int:
        return unpack_words(word, self.count)


def vector_compile(network: Network, cache=None) -> VectorNetwork:
    """The vector view of a network's (cached) compiled slot program.

    Keyed by the compilation's content fingerprint in the resolved
    artifact store, so every call on one network - and on an equal
    network built separately - shares one view and one compiled
    program, with its stem cone lists.
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
    active)`` simulates ``chunk``'s good lane rows, runs the stem pass
    on the ``active`` faults of the list's memoised
    :class:`~.compiled.StemPlan` and unpacks each nonzero detection row
    into a window word."""
    store = resolve_cache(cache)
    vector = vector_compile(network, cache=store)
    plan = stem_plan(vector.compiled, faults, store)

    def passes(chunk: PatternSet, active: Sequence[int]):
        for position, row in vector.simulate(chunk).detections(plan, active):
            yield position, unpack_words(row, chunk.count)

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
            "numpy uint64 lane rows through the compiled slot program's "
            "stem-observability fault pass"
        ),
        evaluate_bits=vector_evaluate_bits,
        fault_pass=lane_pass,
    )
)
