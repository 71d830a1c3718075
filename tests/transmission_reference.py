"""Reference transmission functions: the networkx path enumeration the
in-repo search is held to.

:func:`repro.switchlevel.transmission.transmission_expr` once built a
``networkx.MultiGraph`` of the faulted network (switch names as edge
keys) and enumerated ``networkx.all_simple_edge_paths`` over it, and
:func:`~repro.switchlevel.transmission.conducts` asked
``networkx.has_path`` of the conducting switches' graph.  Both are kept
here verbatim in effect, so the library's own depth-first search must
return the very same ``Expr`` (term order included) and the union-find
oracle the very same verdict.  networkx is a test-only dependency:
without it the modules importing this one skip.

A plain module, not ``conftest.py``, like ``collapse_reference``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest

from repro.logic.expr import And, Const, Expr, Or, simplify
from repro.switchlevel.build import TERMINAL_D, TERMINAL_S, SwitchNetwork
from repro.switchlevel.network import DeviceType, PhysicalFault
from repro.switchlevel.transmission import _apply_faults, switch_literal

nx = pytest.importorskip("networkx")


def reference_graph(network: SwitchNetwork):
    """The connectivity multigraph of the network (switch names on edges)."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(network.nodes)
    for name, switch in network.switches.items():
        if switch.dtype is DeviceType.NEVER_ON:
            continue  # a permanently open channel is no edge at all
        graph.add_edge(switch.a, switch.b, key=name, switch=switch)
    return graph


def reference_transmission_expr(
    network: SwitchNetwork,
    faults: Sequence[PhysicalFault] = (),
    source: str = TERMINAL_S,
    drain: str = TERMINAL_D,
) -> Expr:
    """T(i1..in) as the OR over networkx's simple edge paths."""
    faulted = _apply_faults(network, faults)
    graph = reference_graph(faulted)
    if source not in graph or drain not in graph:
        return Const(0)
    if not nx.has_path(graph, source, drain):
        return Const(0)
    terms: List[Expr] = []
    for edge_path in nx.all_simple_edge_paths(graph, source, drain):
        literals: List[Expr] = []
        feasible = True
        for _a, _b, key in edge_path:
            literal = switch_literal(faulted.switches[key])
            if isinstance(literal, Const):
                if literal.value == 0:
                    feasible = False
                    break
                continue
            literals.append(literal)
        if not feasible:
            continue
        if not literals:
            return Const(1)
        terms.append(literals[0] if len(literals) == 1 else And(*literals))
    if not terms:
        return Const(0)
    return simplify(terms[0] if len(terms) == 1 else Or(*terms))


def reference_conducts(
    network: SwitchNetwork,
    assignment: Dict[str, int],
    faults: Sequence[PhysicalFault] = (),
) -> bool:
    """S-D conduction under ``assignment`` by ``networkx.has_path``."""
    faulted = _apply_faults(network, faults)
    graph = nx.Graph()
    graph.add_nodes_from(faulted.nodes)
    for switch in faulted.switches.values():
        if switch.dtype is DeviceType.NEVER_ON:
            continue
        if switch.conducts(assignment.get(switch.gate, 0) if switch.gate else 1):
            graph.add_edge(switch.a, switch.b)
    return nx.has_path(graph, TERMINAL_S, TERMINAL_D)
