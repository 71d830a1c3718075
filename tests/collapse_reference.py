"""Reference structural collapse: the oracle the shape-memoised collapse
is held to.

Every fault goes through its own canonicalisation path here, as the
collapse did before its steps were memoised per cell shape: each cell
fault re-tabulates its faulty function over the gate's input slots and
compares :class:`TruthTable` objects, each stuck-at cofactors the
reader tables slot by slot, and dominance builds two tables per class.
The semantic refinement (exhaustive class words, merge, exact
dominance) is shared with :mod:`repro.faults.structural` - it never
changed - so the oracle isolates the structural canonicaliser.

A plain module, not ``conftest.py``, like ``words_reference``; the
setup benchmark (``benchmarks/bench_perf_setup.py``) races it as the
old per-fault path.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.faults import structural
from repro.faults.structural import CollapsedFaultSet
from repro.logic.truthtable import TruthTable
from repro.simulate.faultsim import dedupe_faults

_NULL = ("null",)


def _slot_table(table: TruthTable, pins: Sequence[str], in_slots: Sequence[int]):
    """Re-express a pin-domain table over the gate's distinct input slots
    (variables ``s<slot>`` in ascending slot order; a net bound to
    several pins identifies their variables)."""
    unique = sorted(set(in_slots))
    names = tuple(f"s{slot}" for slot in unique)
    position_of = {slot: position for position, slot in enumerate(unique)}
    width = len(unique)
    shifts = [width - 1 - position_of[slot] for slot in in_slots]
    bits = 0
    for minterm in range(1 << width):
        source = 0
        for shift in shifts:
            source = (source << 1) | ((minterm >> shift) & 1)
        if (table.bits >> source) & 1:
            bits |= 1 << minterm
    return TruthTable(names, bits)


class ReferenceCollapser:
    """The per-fault canonicaliser."""

    def __init__(self, compiled):
        self.compiled = compiled
        self._good: Dict[int, TruthTable] = {}
        self._slot_tables: Dict[Tuple, TruthTable] = {}
        self.driver_of_slot = {
            out: index for index, out in enumerate(compiled._gate_out)
        }

    def slot_table(self, table: TruthTable, pins, in_slots) -> TruthTable:
        unique = sorted(set(in_slots))
        rank = {slot: position for position, slot in enumerate(unique)}
        pattern = tuple(rank[slot] for slot in in_slots)
        key = (tuple(pins), table.bits, pattern)
        collapsed = self._slot_tables.get(key)
        if collapsed is None:
            collapsed = _slot_table(table, pins, pattern)
            self._slot_tables[key] = collapsed
        return TruthTable(tuple(f"s{slot}" for slot in unique), collapsed.bits)

    def good_slot_table(self, gate_index: int) -> TruthTable:
        table = self._good.get(gate_index)
        if table is None:
            gate = self.compiled.gates[gate_index]
            pins = tuple(gate.cell.inputs)
            table = self.slot_table(
                TruthTable.from_expr(gate.expr, pins), pins, gate.in_slots
            )
            self._good[gate_index] = table
        return table

    def const_signature(self, slot: int, value: int) -> Tuple:
        compiled = self.compiled
        while True:
            if compiled._is_out_slot[slot]:
                return ("const", slot, value)
            readers = compiled.readers[slot]
            if not readers:
                return _NULL
            if len(readers) > 1:
                return ("const", slot, value)
            gate_index = readers[0]
            good = self.good_slot_table(gate_index)
            fixed = good.cofactor(f"s{slot}", value).expand(good.names)
            if fixed == good:
                return _NULL
            constant = fixed.constant_value()
            out = compiled._gate_out[gate_index]
            if constant is None:
                return ("cell", out, fixed.names, fixed.bits)
            slot = out
            value = constant

    def cell_signature(self, gate_index: int, table: TruthTable) -> Tuple:
        gate = self.compiled.gates[gate_index]
        pins = tuple(gate.cell.inputs)
        if table.names != pins:
            table = table.expand(pins)
        faulty = self.slot_table(table, pins, gate.in_slots)
        if faulty == self.good_slot_table(gate_index):
            return _NULL
        constant = faulty.constant_value()
        if constant is not None:
            return self.const_signature(gate.out_slot, constant)
        return ("cell", gate.out_slot, faulty.names, faulty.bits)

    def signature(self, index: int, fault) -> Tuple:
        compiled = self.compiled
        try:
            if fault.kind == "stuck":
                slot = compiled.slot_of_net.get(fault.net, -1)
                if slot < 0:
                    return _NULL
                return self.const_signature(slot, 1 if fault.value else 0)
            gate_index = compiled.gate_index.get(fault.gate, -1)
            if gate_index < 0:
                return _NULL
            return self.cell_signature(gate_index, fault.function.table)
        except (ValueError, KeyError, AttributeError):
            return ("opaque", index)

    def anchored_function(self, signature: Tuple):
        if signature[0] == "cell":
            _tag, out, names, bits = signature
            gate_index = self.driver_of_slot.get(out)
            if gate_index is None:
                return None
            return gate_index, TruthTable(names, bits)
        if signature[0] == "const":
            _tag, slot, value = signature
            gate_index = self.driver_of_slot.get(slot)
            if gate_index is None:
                return None
            names = self.good_slot_table(gate_index).names
            return gate_index, TruthTable.constant(names, value)
        return None


def reference_dominance_pairs(
    collapser: ReferenceCollapser, signatures: Sequence[Tuple]
) -> List[Tuple[int, int]]:
    """Structural dominance with two truth tables built per class."""
    by_gate: Dict[int, List[Tuple[int, int]]] = {}
    for class_index, signature in enumerate(signatures):
        anchored = collapser.anchored_function(signature)
        if anchored is None:
            continue
        gate_index, faulty = anchored
        good = collapser.good_slot_table(gate_index)
        activation = (faulty ^ good).bits
        by_gate.setdefault(gate_index, []).append((class_index, activation))
    pairs: List[Tuple[int, int]] = []
    for members in by_gate.values():
        for position, (a_class, a_bits) in enumerate(members):
            for b_class, b_bits in members[position + 1:]:
                if a_bits == b_bits:
                    continue
                if a_bits & ~b_bits == 0:
                    pairs.append((a_class, b_class))
                elif b_bits & ~a_bits == 0:
                    pairs.append((b_class, a_class))
    return pairs


def reference_collapse(network, faults, compiled) -> CollapsedFaultSet:
    """The collapse of ``faults`` through the per-fault canonicaliser.

    ``compiled`` is the network's compiled program; the semantic
    refinement runs under the same
    :data:`~repro.faults.structural.SEMANTIC_COLLAPSE_MAX_INPUTS` gate
    as the production collapse.
    """
    faults = dedupe_faults(faults)
    collapser = ReferenceCollapser(compiled)
    signatures: List[Tuple] = []
    class_of_signature: Dict[Tuple, int] = {}
    classes: List[List[int]] = []
    class_of: List[int] = []
    for index, fault in enumerate(faults):
        signature = collapser.signature(index, fault)
        class_index = class_of_signature.get(signature)
        if class_index is None:
            class_index = len(classes)
            class_of_signature[signature] = class_index
            classes.append([])
            signatures.append(signature)
        classes[class_index].append(index)
        class_of.append(class_index)

    if 0 < len(network.inputs) <= structural.SEMANTIC_COLLAPSE_MAX_INPUTS:
        words = structural._exhaustive_class_words(
            compiled, network, faults, classes, signatures
        )
        classes, class_of, words = structural._merge_classes_by_word(classes, words)
        null_classes = tuple(k for k, word in enumerate(words) if word == 0)
        dominance = structural._semantic_dominance(words)
    else:
        null_classes = tuple(
            k for k, signature in enumerate(signatures) if signature == _NULL
        )
        dominance = reference_dominance_pairs(collapser, signatures)

    return CollapsedFaultSet(
        network_name=network.name,
        faults=list(faults),
        classes=classes,
        class_of=class_of,
        representatives=[members[0] for members in classes],
        null_classes=null_classes,
        dominance=dominance,
    )
