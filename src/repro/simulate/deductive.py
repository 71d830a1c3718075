"""Deductive fault simulation - one pass per pattern, all faults at once.

Section 1 lists the casualties of static CMOS stuck-open faults: "the
fault injection algorithms of parallel, deductive or concurrent fault
simulators doesn't work any more".  Section 3's result restores them
for dynamic MOS: every fault is a *combinational* cell fault or line
stuck-at, so the classical deductive algorithm (Armstrong) applies
unchanged.  This module implements it as a companion to the
serial-fault/parallel-pattern simulator in :mod:`repro.simulate.faultsim`
- same results, different asymptotics (one topological pass per pattern
propagating *fault lists* instead of one circuit pass per fault).

Fault list semantics: after processing a pattern, the list of net ``n``
contains exactly the faults whose presence would complement ``n`` under
that pattern.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

from ..netlist.network import Network, NetworkFault
from .faultsim import FaultSimResult, build_result, fault_universe
from .logicsim import PatternSet


def _gate_output_flips(
    gate, input_values: Mapping[str, int], flipped_pins: FrozenSet[str]
) -> bool:
    """Would complementing exactly ``flipped_pins`` complement the output?"""
    expr = gate.function_expr()
    good = expr.evaluate(input_values)
    flipped = {
        pin: (1 - value if pin in flipped_pins else value)
        for pin, value in input_values.items()
    }
    return expr.evaluate(flipped) != good


def deductive_fault_simulate(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
) -> FaultSimResult:
    """Deductive simulation of all faults over all patterns.

    Supports the library's two fault kinds:

    * ``stuck`` faults originate on their net whenever the fault-free
      value differs from the stuck value;
    * ``cell`` faults originate at their gate whenever the faulty cell
      function differs from the good one on the gate's current inputs.

    Propagation through a gate is exact for arbitrary cell functions:
    for each candidate fault, the set of its flipped input pins is known
    from the input fault lists, and one cell evaluation decides whether
    the output flips.  (This exactness is affordable because fault lists
    stay small on the cell-sized fan-ins used here; industrial deductive
    simulators approximate multi-input propagation.)

    Fault lists hold positions in the
    :func:`~repro.simulate.faultsim.fault_universe` of ``faults``.
    """
    universe = fault_universe(network, faults)
    faults = universe.faults
    stuck_by_net: Dict[str, List[int]] = {}
    cells_by_gate: Dict[str, List[int]] = {}
    for index, fault in enumerate(faults):
        if fault.kind == "stuck":
            stuck_by_net.setdefault(fault.net, []).append(index)
        else:
            cells_by_gate.setdefault(fault.gate, []).append(index)

    firsts = [-1] * len(faults)
    counts = [0] * len(faults)

    order = network.levelize()
    for pattern_index, vector in enumerate(patterns.vectors()):
        values = network.evaluate(vector)
        lists: Dict[str, Set[int]] = {}

        def originate_stuck(net: str) -> Set[int]:
            result: Set[int] = set()
            for index in stuck_by_net.get(net, ()):
                if values[net] != faults[index].value:
                    result.add(index)
            return result

        for net in network.inputs:
            lists[net] = originate_stuck(net)

        for gate_name in order:
            gate = network.gates[gate_name]
            input_values = {
                pin: values[net] for pin, net in gate.connections.items()
            }
            # Candidate faults: anything on an input list.
            candidates: Set[int] = set()
            for net in gate.connections.values():
                candidates |= lists.get(net, set())
            out_list: Set[int] = set()
            for candidate in candidates:
                flipped_pins = frozenset(
                    pin
                    for pin, net in gate.connections.items()
                    if candidate in lists.get(net, set())
                )
                if _gate_output_flips(gate, input_values, flipped_pins):
                    out_list.add(candidate)
            # Local cell faults originate here.
            for index in cells_by_gate.get(gate_name, ()):
                good = gate.function_expr().evaluate(input_values)
                bad = faults[index].function.table.value(input_values)
                if good != bad:
                    out_list.add(index)
            # Local stuck-at on the output net overrides propagation.
            out_net = gate.output
            out_list |= originate_stuck(out_net)
            for index in stuck_by_net.get(out_net, ()):
                if values[out_net] == faults[index].value:
                    out_list.discard(index)
            lists[out_net] = out_list

        observed: Set[int] = set()
        for net in network.outputs:
            observed |= lists.get(net, set())
        for index in observed:
            if not counts[index]:
                firsts[index] = pattern_index
            counts[index] += 1

    outcomes = [
        (firsts[index], counts[index]) if counts[index] else None
        for index in range(len(faults))
    ]
    return build_result(network.name, patterns.count, universe.labels, outcomes)
