"""Fault-parallel simulation - faults packed into bit positions.

The third member of the classical trio Section 1 declares broken for
static CMOS ("parallel, deductive or concurrent fault simulators"):
*parallel fault simulation* evaluates one pattern for many machines at
once, bit *f* of every net carrying the value of faulty machine *f*
(bit position ``len(faults)`` carries the good machine).  Section 3's
combinational fault model makes the technique sound for dynamic MOS,
and Python big-ints remove the historical word-size batching: all
faults ride in a single integer.

The per-pattern network pass runs on the flat slot program of
:mod:`repro.simulate.compiled` (compiled gate functions over a values
list) rather than re-walking expression ASTs through per-gate dict
environments.

Injection per machine:

* a stuck net forces its bit after the driver (or primary input)
  settles;
* a cell fault replaces the gate function in its machine only - the
  gate's output word is composed from the good-function word with the
  fault's bit patched from a scalar evaluation of the faulty function
  on that machine's input bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.network import Network, NetworkFault
from .compiled import compile_network
from .faultsim import FaultSimResult, build_result, fault_universe
from .logicsim import PatternSet


def parallel_fault_simulate(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
) -> FaultSimResult:
    """All faults per pattern in one bit-parallel network pass.

    The fault list is the :func:`~repro.simulate.faultsim.fault_universe`
    of ``faults``: a stuck fault on a net the compiled program does not
    know, or a cell fault on an absent gate, raises instead of silently
    riding along never-injected (which would report the fault
    "undetected" while its machine just mirrors the good one), and a
    literal duplicate packs one machine, not two.
    """
    faults = fault_universe(network, faults).faults
    machine_count = len(faults) + 1  # +1: the good machine (highest bit)
    good_bit = len(faults)
    mask = (1 << machine_count) - 1

    compiled = compile_network(network)
    stuck_of_slot: Dict[int, List[int]] = {}
    cells_of_gate: Dict[int, List[int]] = {}
    for index, fault in enumerate(faults):
        if fault.kind == "stuck":
            stuck_of_slot.setdefault(
                compiled.slot_of_net[fault.net], []
            ).append(index)
        else:
            cells_of_gate.setdefault(
                compiled.gate_index[fault.gate], []
            ).append(index)

    def apply_stucks(slot: int, word: int) -> int:
        for index in stuck_of_slot.get(slot, ()):
            if faults[index].value:
                word |= 1 << index
            else:
                word &= ~(1 << index)
        return word

    # Per machine-fault: (fault index, truth table, pin order as slots).
    patches_of_gate: Dict[int, List[Tuple[int, object, Tuple[int, ...]]]] = {}
    for gate_index, indices in cells_of_gate.items():
        gate = compiled.gates[gate_index]
        entries = []
        pins = tuple(gate.cell.inputs)
        for index in indices:
            table = faults[index].function.table
            if table.names != pins:
                table = table.expand(pins)  # off-library fault: re-tabulate
            entries.append((index, table, gate.in_slots))
        patches_of_gate[gate_index] = entries

    # Keyed per fault *index*; labels only at result build time.
    firsts: List[int] = [-1] * len(faults)
    fault_counts: List[int] = [0] * len(faults)
    num_inputs = compiled.num_input_slots
    for pattern_index, vector in enumerate(patterns.vectors()):
        words: List[int] = [0] * compiled.num_slots
        for slot in range(num_inputs):
            word = mask if vector[compiled.net_of_slot[slot]] else 0
            words[slot] = apply_stucks(slot, word)
        for gate in compiled.gates:
            word = gate.fn(words, mask)
            for index, table, in_slots in patches_of_gate.get(gate.index, ()):
                minterm = 0
                for slot in in_slots:
                    minterm = (minterm << 1) | ((words[slot] >> index) & 1)
                if table.value_at(minterm):
                    word |= 1 << index
                else:
                    word &= ~(1 << index)
            words[gate.out_slot] = apply_stucks(gate.out_slot, word)
        # A machine differs from the good machine on some output -> detected.
        difference = 0
        for slot in compiled.out_slots:
            word = words[slot]
            good_value = (word >> good_bit) & 1
            reference = mask if good_value else 0
            difference |= word ^ reference
        for index in range(len(faults)):
            if (difference >> index) & 1:
                fault_counts[index] += 1
                if firsts[index] < 0:
                    firsts[index] = pattern_index

    outcomes = [
        (firsts[index], fault_counts[index]) if fault_counts[index] else None
        for index in range(len(faults))
    ]
    return build_result(network.name, patterns.count, faults, outcomes)
