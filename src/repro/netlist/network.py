"""Gate-level combinational networks of library cells.

PROTEST, the fault simulator and PODEM all operate on this level: a
directed acyclic network of cell instances connected by named nets.
"Since we are only dealing with combinational networks, a static fault
simulation is sufficient" (Section 5) - and Section 3 is precisely the
licence to do so for dynamic MOS: every physical fault of a gate maps
to a *combinational* cell fault, so injecting faulty cell functions (or
classical stuck-ats) is sound.

Values are big-int bit vectors: bit *k* of every net is its value under
pattern *k*, so one evaluation pass simulates arbitrarily many patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from ..cells.cell import Cell
from ..cells.library import FaultLibrary, LibraryFunction, generate_library
from ..logic.expr import Expr
from ..logic.minimize import minimal_sop


class NetworkError(ValueError):
    """Structural errors: unknown nets, cycles, multiple drivers."""


@dataclass
class GateInstance:
    """One cell instance: input nets bound to cell input names."""

    name: str
    cell: Cell
    connections: Dict[str, str]  # cell input name -> net name
    output: str  # net name driven by the cell output
    _expr_cache: Optional[Expr] = None

    def input_nets(self) -> List[str]:
        return [self.connections[pin] for pin in self.cell.inputs]

    def function_expr(self) -> Expr:
        """Cell function with cell input names (not nets) as variables."""
        if self._expr_cache is None:
            self._expr_cache = self.cell.output_function
        return self._expr_cache


class NetworkFault(NamedTuple):
    """A fault injectable at network level.

    Either a classical stuck-at on a net (``kind='stuck'``) or a cell
    fault class from a gate's fault library (``kind='cell'``).

    An immutable named tuple: equal fields compare and hash equal,
    assigning an attribute raises, it pickles by value, and a fault
    costs one object whose construction is a single tuple build - a
    100k-gate netlist has close to half a million of them.
    """

    kind: str  # 'stuck' | 'cell'
    net: Optional[str] = None
    value: Optional[int] = None
    gate: Optional[str] = None
    class_index: Optional[int] = None
    function: Optional[LibraryFunction] = None
    label: str = ""

    @classmethod
    def stuck_at(cls, net: str, value: int) -> "NetworkFault":
        return cls("stuck", net, value, None, None, None, f"s{value}-{net}")

    @classmethod
    def cell_fault(
        cls, gate: str, class_index: int, function: LibraryFunction, label: str = ""
    ) -> "NetworkFault":
        return cls(
            "cell", None, None, gate, class_index, function,
            label or f"{gate}#class{class_index}",
        )

    def describe(self) -> str:
        return self.label


def _label_suffixes(library: FaultLibrary) -> List[Tuple[int, LibraryFunction, str]]:
    """``(class index, function, label suffix)`` of every library class.

    A network fault's label is its gate name plus the suffix
    ``:<physical labels>``.  Physical fault labels need not be unique
    across classes (one literal can gate several transistors, and "nc
    closed" names all of them), but *network* fault labels key
    simulation results, so colliding class labels are disambiguated
    with ``#<class index>``.
    """
    label_uses: Dict[str, int] = {}
    for cls in library.classes:
        base = "|".join(cls.labels)
        label_uses[base] = label_uses.get(base, 0) + 1
    suffixes = []
    for cls in library.classes:
        base = "|".join(cls.labels)
        suffix = f":{base}#{cls.index}" if label_uses[base] > 1 else f":{base}"
        suffixes.append((cls.index, cls.function, suffix))
    return suffixes


class Network:
    """A combinational network: primary inputs, gates, primary outputs."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, GateInstance] = {}
        self._driver: Dict[str, str] = {}  # net -> gate name
        self._input_set: Set[str] = set()
        self._output_set: Set[str] = set()
        self._order: Optional[List[str]] = None
        self._fanout: Optional[Dict[str, List[Tuple[str, str]]]] = None
        self._depth: Optional[int] = None
        self._generation: int = 0
        """Structural revision counter; bumped on every mutation so the
        compiled-engine cache (:mod:`repro.simulate.compiled`) can tell a
        stale compilation from a current one."""

    # -- construction -----------------------------------------------------------

    def _invalidate(self) -> None:
        """Drop every derived-structure cache (one family: ``_order``,
        ``_fanout``, ``_depth``) and bump the revision counter."""
        self._order = None
        self._fanout = None
        self._depth = None
        self._generation += 1

    def add_input(self, net: str) -> str:
        if net in self._input_set:
            raise NetworkError(f"duplicate primary input {net!r}")
        if net in self._driver:
            raise NetworkError(f"net {net!r} is already driven by a gate")
        self.inputs.append(net)
        self._input_set.add(net)
        self._invalidate()
        return net

    def add_gate(
        self,
        name: str,
        cell: Cell,
        connections: Mapping[str, str],
        output: str,
    ) -> GateInstance:
        if name in self.gates:
            raise NetworkError(f"duplicate gate name {name!r}")
        # Cheap exact-cover check first (the 100k-gate construction hot
        # path); the set differences only run to build error messages.
        pins = cell.inputs
        if len(connections) != len(pins) or not all(
            map(connections.__contains__, pins)
        ):
            missing = set(cell.inputs) - set(connections)
            if missing:
                raise NetworkError(
                    f"gate {name!r}: unconnected cell inputs {sorted(missing)}"
                )
            extra = set(connections) - set(cell.inputs)
            raise NetworkError(f"gate {name!r}: unknown cell pins {sorted(extra)}")
        if output in self._driver:
            raise NetworkError(
                f"net {output!r} already driven by gate {self._driver[output]!r}"
            )
        if output in self._input_set:
            raise NetworkError(f"net {output!r} is a primary input")
        gate = GateInstance(name=name, cell=cell, connections=dict(connections), output=output)
        self.gates[name] = gate
        self._driver[output] = name
        self._invalidate()
        return gate

    def mark_output(self, net: str) -> None:
        if net not in self._output_set:
            self.outputs.append(net)
            self._output_set.add(net)
            self._invalidate()

    # -- structure ---------------------------------------------------------------

    def nets(self) -> List[str]:
        all_nets: List[str] = list(self.inputs)
        seen: Set[str] = set(self.inputs)
        for gate in self.gates.values():
            for net in list(gate.connections.values()) + [gate.output]:
                if net not in seen:
                    seen.add(net)
                    all_nets.append(net)
        return all_nets

    def driver_of(self, net: str) -> Optional[GateInstance]:
        gate_name = self._driver.get(net)
        return self.gates[gate_name] if gate_name else None

    def fanout_index(self) -> Dict[str, List[Tuple[str, str]]]:
        """net -> (gate name, cell pin) readers, built once per structure.

        Cached and invalidated alongside ``_order``; turns per-net fanout
        queries from a scan over every gate into one dict lookup.
        """
        if self._fanout is None:
            index: Dict[str, List[Tuple[str, str]]] = {}
            for gate in self.gates.values():
                for pin, connected in gate.connections.items():
                    index.setdefault(connected, []).append((gate.name, pin))
            self._fanout = index
        return self._fanout

    def fanout_of(self, net: str) -> List[Tuple[str, str]]:
        """(gate name, cell pin) pairs reading a net."""
        return list(self.fanout_index().get(net, ()))

    def levelize(self) -> List[str]:
        """Topological gate order; raises on combinational cycles.

        Kahn's algorithm over per-gate in-degree counts: every gate
        carries the number of distinct input nets not yet valued, and
        enters the order the moment its count reaches zero.  One pass
        over the structure - O(gates + connections) - where the old
        implementation rescanned every remaining gate once per level
        (quadratic on chain-shaped circuits: a 100k-gate carry chain
        did ~10^10 membership checks).
        """
        if self._order is not None:
            return self._order
        gates = self.gates
        input_set = self._input_set
        # waiting_on: net -> gates blocked on it; pending: gate -> count
        # of distinct unvalued input nets.
        waiting_on: Dict[str, List[str]] = {}
        pending: Dict[str, int] = {}
        queue: List[str] = []
        for name, gate in gates.items():
            waits = 0
            for net in set(gate.connections.values()):
                if net not in input_set:
                    waits += 1
                    waiting_on.setdefault(net, []).append(name)
            if waits:
                pending[name] = waits
            else:
                queue.append(name)
        order: List[str] = []
        head = 0
        while head < len(queue):
            name = queue[head]
            head += 1
            order.append(name)
            for reader in waiting_on.get(gates[name].output, ()):
                pending[reader] -= 1
                if not pending[reader]:
                    queue.append(reader)
        if len(order) < len(gates):
            self._diagnose_stuck(set(order))
        driver = self._driver
        for net in self.outputs:
            if net not in input_set and net not in driver:
                raise NetworkError(f"primary output {net!r} is never driven")
        self._order = order
        return order

    def _diagnose_stuck(self, placed: Set[str]) -> None:
        """Raise the structural diagnosis for a stalled levelization.

        A gate can be stuck on an undriven net, on a combinational
        cycle, or both; a malformed netlist easily has both at once, so
        the diagnosis names both in one message instead of letting the
        undriven half shadow the cycle.
        """
        remaining = {
            name: gate for name, gate in self.gates.items() if name not in placed
        }
        input_set = self._input_set
        driver = self._driver
        undriven = {
            net
            for gate in remaining.values()
            for net in gate.connections.values()
            if net not in input_set and net not in driver
        }
        if not undriven:
            raise NetworkError(
                f"combinational cycle among gates {sorted(remaining)}"
            )
        # Relax again with the undriven nets treated as available: gates
        # still stuck then depend on a genuine cycle.
        waiting_on: Dict[str, List[str]] = {}
        pending: Dict[str, int] = {}
        queue: List[str] = []
        for name, gate in remaining.items():
            waits = 0
            for net in set(gate.connections.values()):
                if net in driver and driver[net] in remaining:
                    waits += 1
                    waiting_on.setdefault(net, []).append(name)
            if waits:
                pending[name] = waits
            else:
                queue.append(name)
        head = 0
        resolved: Set[str] = set()
        while head < len(queue):
            name = queue[head]
            head += 1
            resolved.add(name)
            for reader in waiting_on.get(remaining[name].output, ()):
                pending[reader] -= 1
                if not pending[reader]:
                    queue.append(reader)
        cyclic = sorted(name for name in remaining if name not in resolved)
        if cyclic:
            raise NetworkError(
                f"undriven nets: {sorted(undriven)}; "
                f"combinational cycle among gates {cyclic}"
            )
        raise NetworkError(f"undriven nets: {sorted(undriven)}")

    def depth(self) -> int:
        """Logic depth in gate levels.

        Memoised in the ``_order`` cache family (``_order``/``_fanout``/
        ``_depth`` invalidate together on every mutation) - callers poll
        it freely without re-walking a 100k-gate order each time.
        """
        if self._depth is None:
            level: Dict[str, int] = {net: 0 for net in self.inputs}
            for name in self.levelize():
                gate = self.gates[name]
                level[gate.output] = 1 + max(
                    (level[net] for net in gate.connections.values()), default=0
                )
            self._depth = max(
                (level.get(net, 0) for net in self.outputs), default=0
            )
        return self._depth

    # -- evaluation ----------------------------------------------------------------

    def evaluate_bits(
        self,
        env: Mapping[str, int],
        mask: int,
        fault: Optional[NetworkFault] = None,
    ) -> Dict[str, int]:
        """Bit-parallel evaluation of every net.

        ``env`` maps primary inputs to bit vectors; ``mask`` has one bit
        per pattern.  A ``NetworkFault`` is injected on the fly: a stuck
        net is forced after its driver evaluates (and applies to primary
        inputs too); a cell fault replaces one gate's function.
        """
        values: Dict[str, int] = {}
        for net in self.inputs:
            try:
                values[net] = env[net] & mask
            except KeyError:
                raise NetworkError(f"no value for primary input {net!r}") from None
        if fault is not None and fault.kind == "stuck" and fault.net in values:
            values[fault.net] = mask if fault.value else 0
        for name in self.levelize():
            gate = self.gates[name]
            local_env = {
                pin: values[net] for pin, net in gate.connections.items()
            }
            if fault is not None and fault.kind == "cell" and fault.gate == name:
                expr = minimal_sop(fault.function.table)
            else:
                expr = gate.function_expr()
            values[gate.output] = expr.evaluate_bits(local_env, mask)
            if fault is not None and fault.kind == "stuck" and fault.net == gate.output:
                values[gate.output] = mask if fault.value else 0
        return values

    def evaluate(
        self, assignment: Mapping[str, int], fault: Optional[NetworkFault] = None
    ) -> Dict[str, int]:
        """Single-pattern evaluation (thin wrapper over the bit-parallel path)."""
        env = {net: (1 if assignment[net] else 0) for net in self.inputs}
        values = self.evaluate_bits(env, 1, fault)
        return {net: value & 1 for net, value in values.items()}

    def output_bits(
        self,
        env: Mapping[str, int],
        mask: int,
        fault: Optional[NetworkFault] = None,
    ) -> Dict[str, int]:
        values = self.evaluate_bits(env, mask, fault)
        return {net: values[net] for net in self.outputs}

    # -- fault universe ---------------------------------------------------------------

    def libraries(self) -> Dict[str, FaultLibrary]:
        """Fault library per gate (generated once per distinct cell)."""
        by_cell: Dict[int, FaultLibrary] = {}
        result: Dict[str, FaultLibrary] = {}
        for name, gate in self.gates.items():
            key = id(gate.cell)
            if key not in by_cell:
                by_cell[key] = generate_library(gate.cell)
            result[name] = by_cell[key]
        return result

    def enumerate_faults(
        self,
        include_cell_classes: bool = True,
        include_stuck_at: bool = False,
    ) -> List[NetworkFault]:
        """The network's fault list.

        By default: every fault class of every gate's library (the
        technology-dependent fault model of the paper).  Classical net
        stuck-ats can be added for comparison with the traditional
        model.
        """
        faults: List[NetworkFault] = []
        if include_cell_classes:
            # (class index, function, label suffix) per cell, built once
            # per cell rather than once per gate; each fault is then one
            # tuple build, the named tuple's own constructor skipped.
            suffixes: Dict[int, List[Tuple[int, LibraryFunction, str]]] = {}
            gates = self.gates
            new_fault = tuple.__new__
            append = faults.append
            for name in self.levelize():
                cell = gates[name].cell
                classes = suffixes.get(id(cell))
                if classes is None:
                    classes = suffixes[id(cell)] = _label_suffixes(
                        generate_library(cell)
                    )
                for index, function, suffix in classes:
                    append(new_fault(NetworkFault, (
                        "cell", None, None, name, index, function, name + suffix
                    )))
        if include_stuck_at:
            for net in self.nets():
                faults.append(NetworkFault.stuck_at(net, 0))
                faults.append(NetworkFault.stuck_at(net, 1))
        return faults

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.name!r}, inputs={len(self.inputs)}, "
            f"gates={len(self.gates)}, outputs={len(self.outputs)})"
        )
