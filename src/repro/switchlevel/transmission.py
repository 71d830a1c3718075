"""Symbolic transmission functions of switch networks.

"The transmission function of SN, T(i1, ..., in), is a Boolean function
being true, if a conducting path exists between S and D" (Section 2).

For the series-parallel networks the cell language produces, the
transmission function equals the cell expression by construction; this
module recovers it from the *graph*, which also works for arbitrary
bridge topologies and - crucially - for *faulted* networks, where a
stuck-closed switch contributes a constant-1 literal and a stuck-open
switch drops out.  Path enumeration over the (small) cell graphs is
exact; the paper notes results for general drain-source opens exist
elsewhere (ref. [2]), and cells in this domain stay under ~20 devices.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic.expr import And, Const, Expr, Not, Or, Var, simplify
from ..logic.truthtable import TruthTable
from .build import TERMINAL_D, TERMINAL_S, SwitchNetwork
from .network import DeviceType, FaultKind, PhysicalFault, Switch
from .simulator import _UnionFind


def switch_literal(switch: Switch) -> Expr:
    """The Boolean condition under which a switch conducts."""
    if switch.dtype in (DeviceType.ALWAYS_ON, DeviceType.DEPLETION):
        return Const(1)
    if switch.dtype is DeviceType.NEVER_ON:
        return Const(0)
    if switch.dtype is DeviceType.NMOS:
        return Var(switch.gate)
    if switch.dtype is DeviceType.PMOS:
        return Not(Var(switch.gate))
    raise AssertionError(f"unhandled device type {switch.dtype}")


def _apply_faults(
    network: SwitchNetwork, faults: Iterable[PhysicalFault]
) -> SwitchNetwork:
    """Inject physical faults into a copy of the network.

    * transistor open / closed -> channel never / always conducts;
    * terminal line open -> the switch end is re-pointed at a fresh
      dangling node (paths through it disappear);
    * gate line open -> assumption A1: the floating gate reads LOW, so
      an n-device never conducts and a p-device always conducts.
    """
    result = network.copy()
    for fault in faults:
        switch = result.switches[fault.switch]
        if fault.kind is FaultKind.TRANSISTOR_OPEN:
            replacement = Switch(
                switch.name, DeviceType.NEVER_ON, None, switch.a, switch.b, switch.resistance
            )
        elif fault.kind is FaultKind.TRANSISTOR_CLOSED:
            replacement = Switch(
                switch.name, DeviceType.ALWAYS_ON, None, switch.a, switch.b, switch.resistance
            )
        elif fault.kind is FaultKind.LINE_OPEN_TERMINAL:
            dangling = result.fresh_node()
            if fault.terminal == "a":
                replacement = Switch(
                    switch.name, switch.dtype, switch.gate, dangling, switch.b, switch.resistance
                )
            else:
                replacement = Switch(
                    switch.name, switch.dtype, switch.gate, switch.a, dangling, switch.resistance
                )
        elif fault.kind is FaultKind.LINE_OPEN_GATE:
            # A1: the floating gate node decays to logic LOW.
            dtype = (
                DeviceType.NEVER_ON
                if switch.dtype is DeviceType.NMOS
                else DeviceType.ALWAYS_ON
            )
            replacement = Switch(
                switch.name, dtype, None, switch.a, switch.b, switch.resistance
            )
        else:
            raise ValueError(
                f"transmission analysis cannot inject fault kind {fault.kind}"
            )
        result.switches[fault.switch] = replacement
    return result


def _conduction_paths(
    network: SwitchNetwork, source: str, drain: str
) -> Iterator[List[Switch]]:
    """Every simple ``source`` -> ``drain`` path, as its switches.

    A depth-first search that never expands through the drain, over an
    adjacency that lists each node's neighbours in the order their first
    switch was added and parallel switches in insertion order, so paths
    (and the transmission's terms) keep the order of the graph-library
    enumeration in ``tests/transmission_reference.py``.  A permanently
    open channel is no edge at all.
    """
    adjacency: Dict[str, Dict[str, List[Switch]]] = {}
    for switch in network.switches.values():
        if switch.dtype is DeviceType.NEVER_ON:
            continue
        parallel = adjacency.setdefault(switch.a, {}).get(switch.b)
        if parallel is None:
            parallel = adjacency[switch.a][switch.b] = []
            adjacency.setdefault(switch.b, {})[switch.a] = parallel
        parallel.append(switch)

    def edges(node: str) -> Iterator[Tuple[str, Switch]]:
        for neighbour, parallel in adjacency.get(node, {}).items():
            for switch in parallel:
                yield neighbour, switch

    nodes, path = [source], []  # the path so far, and the switch into each node
    stack = [edges(source)]
    while stack:
        for node, switch in stack[-1]:
            if node in nodes:
                continue
            if node == drain:
                yield path + [switch]
                continue
            nodes.append(node)
            path.append(switch)
            stack.append(edges(node))
            break
        else:
            stack.pop()
            if path:
                nodes.pop()
                path.pop()


def transmission_expr(
    network: SwitchNetwork,
    faults: Sequence[PhysicalFault] = (),
    source: str = TERMINAL_S,
    drain: str = TERMINAL_D,
) -> Expr:
    """Exact transmission function T(i1..in) of a (possibly faulted) network.

    Enumerates simple paths from ``source`` to ``drain``; the function is
    the OR over paths of the AND of the switch literals on the path.
    Path enumeration is exponential in the worst case but exact, and the
    cell-sized networks of this library keep it tiny.
    """
    terms: List[Expr] = []
    for path in _conduction_paths(_apply_faults(network, faults), source, drain):
        # Open channels are no edges, so a constant literal is a 1.
        literals = [
            literal
            for literal in map(switch_literal, path)
            if not isinstance(literal, Const)
        ]
        if not literals:
            return Const(1)  # an unconditional path short-circuits everything
        terms.append(literals[0] if len(literals) == 1 else And(*literals))
    if not terms:
        return Const(0)
    return simplify(terms[0] if len(terms) == 1 else Or(*terms))


def transmission_table(
    network: SwitchNetwork,
    faults: Sequence[PhysicalFault] = (),
    names: Optional[Sequence[str]] = None,
) -> TruthTable:
    """Truth table of the transmission function over a fixed input order.

    ``names`` defaults to the fault-free network's inputs so that
    fault-free and faulty tables are directly comparable.
    """
    if names is None:
        names = network.inputs()
    expr = transmission_expr(network, faults)
    return TruthTable.from_expr(expr, tuple(names))


def conducts(
    network: SwitchNetwork,
    assignment: Dict[str, int],
    faults: Sequence[PhysicalFault] = (),
) -> bool:
    """Evaluate conduction between S and D under a concrete assignment.

    Joins the nodes of every conducting switch (no symbolic step, no
    path enumeration), so it is the independent oracle the tests use to
    validate :func:`transmission_expr`.
    """
    faulted = _apply_faults(network, faults)
    components = _UnionFind(faulted.nodes)
    for switch in faulted.switches.values():
        if switch.conducts(assignment.get(switch.gate, 0) if switch.gate else 1):
            components.union(switch.a, switch.b)
    return components.find(TERMINAL_S) == components.find(TERMINAL_D)
