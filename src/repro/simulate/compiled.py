"""Compiled bit-parallel simulation engine.

:meth:`Network.evaluate_bits` is the workhorse of everything downstream
(fault simulation, PROTEST's estimators, PODEM, all twelve experiments)
- and it re-interprets expression ASTs gate by gate through per-gate
dict environments on every call, re-simulating the *entire* network
once per fault and re-running ``minimal_sop`` for every cell fault on
every pass.  This module compiles a :class:`Network` once into a flat,
slot-indexed program:

* every net gets an integer **slot**; values live in a plain Python
  list instead of a dict keyed by net names;
* every distinct (cell expression, pins) is compiled (via ``compile``)
  once per process into a slot-binding factory, and each gate binds its
  input slots into a lambda ``f(v, m)`` from it - the big-int bitwise
  operators then run at C speed with no AST walk and no per-gate
  environment construction, and a netlist of a handful of cells costs a
  handful of ``compile()`` calls however many gates it has;
* every fault's patch point is one shared function,
  :meth:`CompiledNetwork.faulty_word`: a stuck fault forces its word, a
  cell fault's faulty function is minimised and compiled once per
  (fault-class table, cell pins) and called on the gate's input words -
  nothing is bound or cached per fault.

On top of the flat program sit **stem-observability fault passes**
(:meth:`GoodSimulation.differences`).  The good circuit is simulated
once.  The program knows its fanout-free regions: every slot read by
exactly one gate (and not a primary output) leads, gate by gate, to a
*stem* (``next_slot``, ``stem_of``).  A fault's faulty word is carried
down its region to the stem, one gate re-evaluation per step; each stem
with a live difference then runs one pass with the stem complemented
on the patterns its live faults change, walking the stem's levelized
fanout-cone gate list (:meth:`CompiledNetwork.stem_cones`, built on
first use in one reverse sweep).  The fault's detection word is its
local difference AND that observability word - exact, since a fault
changes one gate or net and its region reaches the rest of the circuit
only through the stem.  The pass count drops from one per fault to one
per stem, and each pass costs O(cone) instead of O(network), which is
what makes million-pattern fault-simulation workloads routine.  The
pass only combines words with ``&``, ``|`` and ``^``, so the vector
engine (:mod:`repro.simulate.vector`) runs it unchanged on numpy lane
rows.

The interpreted path (:meth:`Network.evaluate_bits`) is kept untouched
as the reference oracle; ``tests/test_compiled_engine.py`` asserts
bit-identical results between the two engines.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..logic.expr import And, Const, Expr, Not, Or, Var
from ..logic.minimize import minimal_sop
from ..logic.truthtable import TruthTable
from ..netlist.network import Network, NetworkError, NetworkFault
from .artifacts import network_fingerprint, resolve_cache

__all__ = ["CompiledGate", "CompiledNetwork", "GoodSimulation", "compile_network"]


# -- expression -> python source -----------------------------------------------------

def _expr_source(expr: Expr, source_of_var: Mapping[str, str]) -> str:
    """Render an expression as Python source over a mask ``m``.

    ``source_of_var`` maps each variable to its source snippet (a slot
    lookup like ``v[3]`` or a positional parameter like ``p0``).  All
    values are subsets of the mask, so NOT is ``m ^ x`` (cheaper than
    ``m & ~x`` and equivalent on masked words).
    """
    if isinstance(expr, Const):
        return "m" if expr.value else "0"
    if isinstance(expr, Var):
        return source_of_var[expr.name]
    if isinstance(expr, Not):
        return f"(m ^ {_expr_source(expr.operand, source_of_var)})"
    if isinstance(expr, And):
        joiner = " & "
    elif isinstance(expr, Or):
        joiner = " | "
    else:
        raise TypeError(f"unknown expression node {expr!r}")
    return "(" + joiner.join(_expr_source(op, source_of_var) for op in expr.operands) + ")"


_CODE_CACHE: Dict[str, Callable] = {}


def _compile_source(params: str, source: str) -> Callable:
    key = f"{params}:{source}"
    function = _CODE_CACHE.get(key)
    if function is None:
        function = eval(compile(f"lambda {params}: {source}", "<compiled-gate>", "eval"))
        _CODE_CACHE[key] = function
    return function


_FACTORIES: Dict[Tuple, Callable] = {}


def compile_gate_factory(expr: Expr, pins: Sequence[str]) -> Callable:
    """Compile a cell expression to a slot-binding gate-function factory.

    ``factory(s0, s1, ...)`` returns ``f(values, mask)`` reading
    ``values[s0], values[s1], ...`` - the slots are closure cells, so
    one compiled factory serves every gate instance of the cell.  The
    factory is rendered and compiled once per process for each distinct
    (cell expression, pins).  The bound functions run on any word type
    closed under ``&``, ``|`` and ``^``: big-ints here, numpy lane rows
    in :mod:`repro.simulate.vector`.
    """
    key = (expr, tuple(pins))
    factory = _FACTORIES.get(key)
    if factory is None:
        sources = {pin: f"v[s{index}]" for index, pin in enumerate(pins)}
        params = ", ".join(f"s{index}" for index in range(len(pins)))
        source = _expr_source(expr, sources)
        factory = _FACTORIES[key] = _compile_source(params, f"lambda v, m: {source}")
    return factory


def compile_pin_function(expr: Expr, pins: Sequence[str]) -> Callable:
    """Compile a cell function to ``f(m, p0, p1, ...)`` over positional pins.

    Faulty cell functions take their pin words as arguments, so one
    compilation serves every gate instance of the cell; callers pass
    the gate's input words (:meth:`CompiledNetwork.faulty_word`).
    """
    sources = {pin: f"p{index}" for index, pin in enumerate(pins)}
    params = ", ".join(["m"] + [f"p{index}" for index in range(len(pins))])
    return _compile_source(params, _expr_source(expr, sources))


# -- minimal-SOP cache per fault-class table ------------------------------------------

_SOP_CACHE: Dict[Tuple[Tuple[str, ...], int], Expr] = {}


def minimal_sop_cached(table: TruthTable) -> Expr:
    """``minimal_sop`` memoised on the table's identity.

    Fault classes of equal cells share tables, so across a network this
    runs Quine-McCluskey once per distinct (cell, fault class) instead
    of once per fault per simulation pass.
    """
    key = (table.names, table.bits)
    expr = _SOP_CACHE.get(key)
    if expr is None:
        expr = minimal_sop(table)
        _SOP_CACHE[key] = expr
    return expr


def fault_class_expr(function) -> Expr:
    """An expression computing a :class:`LibraryFunction`, cached per table.

    The library generator already stored each class's minimal SOP as a
    string, so the common path is a parse of that string (validated
    against the table) rather than a fresh Quine-McCluskey run; only an
    inconsistent or unparsable ``sop`` falls back to
    :func:`minimal_sop_cached`.
    """
    table = function.table
    key = (table.names, table.bits)
    expr = _SOP_CACHE.get(key)
    if expr is None:
        from ..logic.parser import parse_expression

        try:
            expr = parse_expression(function.sop)
            if TruthTable.from_expr(expr, table.names) != table:
                expr = minimal_sop(table)
        except Exception:
            expr = minimal_sop(table)
        _SOP_CACHE[key] = expr
    return expr


_FAULT_PIN_FNS: Dict[Tuple[Tuple[str, ...], int, Tuple[str, ...]], Callable] = {}
"""Compiled pin-level faulty functions, shared per (fault-class table,
cell pin order) - the pin order fixes the compiled function's arity."""


# -- the compiled program --------------------------------------------------------------

class CompiledGate:
    """One gate of the flat program.

    ``in_slots`` follows ``cell.inputs`` order, which is also the
    variable order of library truth tables - parallel.py exploits this
    for direct minterm indexing.  ``expr`` keeps the minimal-SOP
    expression the function was compiled from, so consumers that reason
    about the gate's function (structural collapsing) read the exact
    same expression instead of re-deriving it.
    """

    __slots__ = ("name", "index", "out_slot", "in_slots", "fn", "cell", "expr")

    def __init__(self, name, index, out_slot, in_slots, fn, cell, expr):
        self.name = name
        self.index = index
        self.out_slot = out_slot
        self.in_slots = in_slots
        self.fn = fn
        self.cell = cell
        self.expr = expr


class CompiledNetwork:
    """A :class:`Network` flattened into a slot-indexed program."""

    def __init__(self, network: Network):
        # Only plain data is kept from the network - holding the Network
        # itself would pin it (and this compilation) in the weak-keyed
        # compile cache forever.
        self.name = network.name
        self.fingerprint = network_fingerprint(network)
        self.input_nets: Tuple[str, ...] = tuple(network.inputs)
        self.output_nets: Tuple[str, ...] = tuple(network.outputs)
        order = network.levelize()

        slot_of_net: Dict[str, int] = {}
        for net in network.inputs:
            slot_of_net[net] = len(slot_of_net)
        self.num_input_slots = len(slot_of_net)
        for gate_name in order:
            output = network.gates[gate_name].output
            slot_of_net[output] = len(slot_of_net)
        self.slot_of_net = slot_of_net
        self.num_slots = len(slot_of_net)
        self.net_of_slot: List[str] = [""] * self.num_slots
        for net, slot in slot_of_net.items():
            self.net_of_slot[slot] = net

        self.gates: List[CompiledGate] = []
        self.gate_index: Dict[str, int] = {}
        self.readers: List[List[int]] = [[] for _ in range(self.num_slots)]
        # One factory lookup per cell: gates of a cell share its
        # expression, so each gate only binds its slots.
        factory_of_cell: Dict[int, Tuple[Expr, Callable]] = {}
        for index, gate_name in enumerate(order):
            gate = network.gates[gate_name]
            connections = gate.connections
            in_slots = tuple(slot_of_net[connections[pin]] for pin in gate.cell.inputs)
            shape = factory_of_cell.get(id(gate.cell))
            if shape is None:
                expr = gate.function_expr()
                shape = (expr, compile_gate_factory(expr, gate.cell.inputs))
                factory_of_cell[id(gate.cell)] = shape
            expr, factory = shape
            compiled = CompiledGate(
                name=gate_name,
                index=index,
                out_slot=slot_of_net[gate.output],
                in_slots=in_slots,
                fn=factory(*in_slots),
                cell=gate.cell,
                expr=expr,
            )
            self.gates.append(compiled)
            self.gate_index[gate_name] = index
            for slot in set(compiled.in_slots):
                self.readers[slot].append(index)

        self.out_slots: Tuple[int, ...] = tuple(
            slot_of_net[net] for net in self.output_nets
        )
        # Parallel arrays for the hot cone-pass loop (no attribute lookups).
        self._gate_out = [gate.out_slot for gate in self.gates]
        self._gate_fn = [gate.fn for gate in self.gates]
        self._is_out_slot = bytearray(self.num_slots)
        for slot in self.out_slots:
            self._is_out_slot[slot] = 1
        # Fanout-free regions.  ``next_slot[s]`` is the output slot of the
        # one gate reading ``s``, or -1 when ``s`` is a *stem*: a primary
        # output, or a slot read by zero or by several distinct gates.
        # ``stem_of[s]`` is the stem ``s`` leads to.  Slots are numbered
        # in topological order, so one backward sweep fills both.
        self.next_slot: List[int] = [-1] * self.num_slots
        self.stem_of: List[int] = list(range(self.num_slots))
        for slot in range(self.num_slots - 1, -1, -1):
            reading = self.readers[slot]
            if len(reading) == 1 and not self._is_out_slot[slot]:
                following = self._gate_out[reading[0]]
                self.next_slot[slot] = following
                self.stem_of[slot] = self.stem_of[following]
        # Levelized fanout-cone gate lists of the non-output stems, built
        # by the first observability pass that needs them (stem_cones),
        # and the primary-output slots of each cone, noted by the first
        # observability pass through its stem.
        self._stem_cones: Optional[List[Optional[List[int]]]] = None
        self._stem_outputs: List[Optional[List[int]]] = [None] * self.num_slots
        # Fanout-cone gate sets, grown lazily by schedule.cone_gates and
        # cached alongside this program by the artifact store; the
        # scratch bytearray is its reusable visited-flag buffer (reset
        # per BFS from the visit list, never reallocated).
        self._cone_map: Dict[int, frozenset] = {}
        self._cone_scratch: Optional[bytearray] = None
        # Cone-size memo fed by schedule.cone_counts_batch: pricing needs
        # only sizes, so batch sweeps record counts here without paying
        # for materialised sets.
        self._cone_counts: Dict[int, int] = {}

    # -- fault patch points ---------------------------------------------------------

    def faulty_word(self, fault: NetworkFault, values, mask):
        """The word ``fault`` forces on its site over the valuation
        ``values`` (big-int words or lane rows): the stuck value, or the
        faulty cell function of the gate's input words.

        The pin-level function is compiled once per (fault-class table,
        cell pins) and shared by every gate instance and every fault;
        nothing is bound or cached per fault.
        """
        if fault.kind == "stuck":
            return mask if fault.value else 0
        gate = self.gates[self.gate_index[fault.gate]]
        table = fault.function.table
        pins = gate.cell.inputs
        key = (table.names, table.bits, pins)
        function = _FAULT_PIN_FNS.get(key)
        if function is None:
            if table.names == pins:
                expr = fault_class_expr(fault.function)
            else:
                # Off-library fault: re-tabulate on the gate's pins.
                expr = minimal_sop_cached(table.expand(pins))
            function = _FAULT_PIN_FNS[key] = compile_pin_function(expr, pins)
        return function(mask, *[values[slot] for slot in gate.in_slots])

    def stem_cones(self) -> List[Optional[List[int]]]:
        """Per slot, the ascending (levelized) indices of the gates
        downstream of each non-output stem; ``None`` for every other slot.

        Built once, on first use, in one reverse sweep over the slots: a
        stem's cone is the union, over its reader gates, of the gate, the
        fanout-free chain from its output and the cone of the stem that
        chain ends at - which has a higher slot, so it is already built.
        Output stems' lists are needed only during the sweep.
        """
        cones = self._stem_cones
        if cones is None:
            gate_out = self._gate_out
            readers = self.readers
            next_slot = self.next_slot
            cones = [None] * self.num_slots
            for stem in range(self.num_slots - 1, -1, -1):
                if next_slot[stem] >= 0:
                    continue
                union = set(readers[stem])
                for gi in readers[stem]:
                    slot = gate_out[gi]
                    while next_slot[slot] >= 0:
                        union.add(readers[slot][0])
                        slot = next_slot[slot]
                    union.update(cones[slot])
                cones[stem] = sorted(union)
            for slot in self.out_slots:
                cones[slot] = None
            self._stem_cones = cones
        return cones

    # -- evaluation -----------------------------------------------------------------

    def _input_values(self, env: Mapping[str, int], mask: int) -> List[int]:
        values = [0] * self.num_slots
        for slot, net in enumerate(self.input_nets):
            try:
                values[slot] = env[net] & mask
            except KeyError:
                raise NetworkError(f"no value for primary input {net!r}") from None
        return values

    def simulate(self, env: Mapping[str, int], mask: int) -> "GoodSimulation":
        """Fault-free simulation; the result hosts the fault passes."""
        values = self._input_values(env, mask)
        for gate in self.gates:
            values[gate.out_slot] = gate.fn(values, mask)
        return GoodSimulation(self, values, mask)

    def evaluate_bits(
        self,
        env: Mapping[str, int],
        mask: int,
        fault: Optional[NetworkFault] = None,
    ) -> Dict[str, int]:
        """Drop-in replacement for :meth:`Network.evaluate_bits`."""
        values = self._input_values(env, mask)
        stuck_slot = -1
        stuck_word = 0
        fault_gate = -1
        if fault is not None:
            if fault.kind == "stuck":
                stuck_slot = self.slot_of_net.get(fault.net, -1)
                stuck_word = mask if fault.value else 0
                if 0 <= stuck_slot < self.num_input_slots:
                    values[stuck_slot] = stuck_word
            else:
                fault_gate = self.gate_index.get(fault.gate, -1)
        for gate in self.gates:
            if gate.index == fault_gate:
                values[gate.out_slot] = self.faulty_word(fault, values, mask)
            else:
                values[gate.out_slot] = gate.fn(values, mask)
            if gate.out_slot == stuck_slot:
                values[gate.out_slot] = stuck_word
        return {self.net_of_slot[slot]: values[slot] for slot in range(self.num_slots)}

    def output_bits(
        self,
        env: Mapping[str, int],
        mask: int,
        fault: Optional[NetworkFault] = None,
    ) -> Dict[str, int]:
        if fault is None:
            sim = self.simulate(env, mask)
            return {net: sim.values[self.slot_of_net[net]] for net in self.output_nets}
        values = self.evaluate_bits(env, mask, fault)
        return {net: values[net] for net in self.output_nets}


class GoodSimulation:
    """One fault-free valuation plus scratch space for its fault passes:
    the walk down each fault's fanout-free region and one observability
    pass per stem over the stem's cone list (:meth:`detections`).

    The pass is independent of the word type: it only combines words
    with ``&``, ``|`` and ``^`` (never in place - a word may be the very
    object a good value or the mask is, as a numpy lane row can be) and
    tests them with :attr:`nonzero`.  Big-int words live here; the lane
    subclass (:class:`repro.simulate.vector.VectorSimulation`) runs the
    same pass on numpy ``uint64`` rows.
    """

    __slots__ = ("compiled", "values", "mask", "_scratch")

    #: Whether a word marks any pattern: ``bool`` on big-ints.
    nonzero = bool

    def __init__(self, compiled: CompiledNetwork, values: List, mask):
        self.compiled = compiled
        self.values = values
        self.mask = mask
        self._scratch = values[:]

    def _to_int(self, word) -> int:
        """A word as a big-int: the accessors below always return one."""
        return word

    def value_of(self, net: str) -> int:
        return self._to_int(self.values[self.compiled.slot_of_net[net]])

    def as_dict(self) -> Dict[str, int]:
        return {
            net: self._to_int(self.values[slot])
            for net, slot in self.compiled.slot_of_net.items()
        }

    def output_dict(self) -> Dict[str, int]:
        return {net: self.value_of(net) for net in self.compiled.output_nets}

    def difference(self, fault: NetworkFault) -> int:
        """Bit word marking the patterns on which ``fault`` is detected."""
        return self.differences([fault])[0]

    def differences(self, faults: Sequence[NetworkFault]) -> List[int]:
        """Detection words of ``faults``, in order: bit k is set when
        pattern k tells the faulty network from the good one at some
        primary output (see :meth:`detections`)."""
        words = [0] * len(faults)
        for index, word in self.detections(faults):
            words[index] = self._to_int(word)
        return words

    def detections(
        self, faults: Sequence[NetworkFault]
    ) -> Iterator[Tuple[int, object]]:
        """``(index into faults, detection word)`` of every fault with a
        nonzero detection word, stem by stem (see the module docstring).

        Each fault's *local difference* is its faulty word carried down
        its fanout-free region to the stem; each stem with a live local
        difference then runs one observability pass, and the detection
        word is ``local & observability``.  Yielding stem by stem keeps
        one stem's words and one observability word alive at a time.
        """
        compiled = self.compiled
        good = self.values
        scratch = self._scratch
        mask = self.mask
        nonzero = self.nonzero
        slot_of_net = compiled.slot_of_net
        gate_index = compiled.gate_index
        gate_out = compiled._gate_out
        gate_fn = compiled._gate_fn
        readers = compiled.readers
        next_slot = compiled.next_slot
        stem_of = compiled.stem_of
        is_out_slot = compiled._is_out_slot
        faulty_word = compiled.faulty_word

        sites = [-1] * len(faults)
        by_stem: Dict[int, List[int]] = {}
        for index, fault in enumerate(faults):
            if fault.kind == "stuck":
                slot = slot_of_net.get(fault.net, -1)
            else:
                gi = gate_index.get(fault.gate, -1)
                slot = gate_out[gi] if gi >= 0 else -1
            if slot >= 0:
                sites[index] = slot
                by_stem.setdefault(stem_of[slot], []).append(index)

        for stem, indices in by_stem.items():
            live = []
            for index in indices:
                slot = sites[index]
                word = faulty_word(faults[index], good, mask)
                # Walk the fanout-free region: each slot on the way has
                # one reader gate, so re-evaluating it with the one
                # faulty word substituted is exact.
                while slot != stem:
                    scratch[slot] = word
                    word = gate_fn[readers[slot][0]](scratch, mask)
                    scratch[slot] = good[slot]
                    slot = next_slot[slot]
                word = word ^ good[slot]
                if nonzero(word):
                    live.append((index, word))
            if live:
                if is_out_slot[stem]:
                    observability = mask
                else:
                    flip = 0
                    for _, word in live:
                        flip = flip | word
                    observability = self._observability(stem, flip)
                for index, word in live:
                    word = word & observability
                    if nonzero(word):
                        yield index, word

    def _observability(self, stem: int, flip):
        """Primary-output difference word of complementing ``stem`` on
        the patterns set in ``flip``.

        Pattern bits are independent, so flipping only the patterns
        some live fault changes gives every such fault its exact word
        while pushing no more difference than those faults need.  The
        pass walks the stem's levelized cone list
        (:meth:`CompiledNetwork.stem_cones`) once, in order, storing
        every cone gate's word; it then ORs the differences at the
        cone's primary outputs and resets the cone's slots.  The first
        pass through a stem notes those outputs as it walks, so no
        separate scan of every cone is ever paid.
        """
        compiled = self.compiled
        good = self.values
        scratch = self._scratch
        mask = self.mask
        gate_out = compiled._gate_out
        gate_fn = compiled._gate_fn
        cone = compiled.stem_cones()[stem]
        outputs = compiled._stem_outputs[stem]

        scratch[stem] = good[stem] ^ flip
        if outputs is None:
            is_out_slot = compiled._is_out_slot
            outputs = compiled._stem_outputs[stem] = []
            for gi in cone:
                slot = gate_out[gi]
                scratch[slot] = gate_fn[gi](scratch, mask)
                if is_out_slot[slot]:
                    outputs.append(slot)
        else:
            for gi in cone:
                scratch[gate_out[gi]] = gate_fn[gi](scratch, mask)
        difference = 0
        for slot in outputs:
            difference = difference | (scratch[slot] ^ good[slot])
        scratch[stem] = good[stem]
        for gi in cone:
            slot = gate_out[gi]
            scratch[slot] = good[slot]
        return difference


# -- content-addressed compile cache ---------------------------------------------------


def compile_network(network: Network, cache=None) -> CompiledNetwork:
    """Compile (or fetch the cached compilation of) a network.

    Compilations are keyed by :func:`~repro.simulate.artifacts.network_fingerprint`
    in the resolved :class:`~repro.simulate.artifacts.ArtifactStore`, so
    two equal networks built separately share one slot program and a
    mutated network (new content hash) misses cleanly.  The program
    carries its lazily-grown cone map with it.
    """
    store = resolve_cache(cache)
    return store.fetch(
        "compiled", (network_fingerprint(network),), lambda: CompiledNetwork(network)
    )
