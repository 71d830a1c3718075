"""The in-repo path search against the networkx reference.

:func:`repro.switchlevel.transmission.transmission_expr` must return the
very ``Expr`` (``==``, term order included) the networkx enumeration
returned, and :func:`~repro.switchlevel.transmission.conducts` the same
verdict under every assignment, on every library cell's pull-down and
pull-up networks (unfaulted and under each single physical fault), on
the monotone networks of the round-trip property and on arbitrary
switch graphs (bridges, parallel switches, self-loops, dangling nodes).
Skipped when networkx is absent (``transmission_reference``).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmission_reference import reference_conducts, reference_transmission_expr

from repro.circuits import fig9_cell
from repro.logic.minimize import minimal_sop
from repro.logic.parser import parse_expression
from repro.logic.truthtable import TruthTable
from repro.netlist.builder import CellFactory
from repro.switchlevel.build import TERMINAL_D, TERMINAL_S, SwitchNetwork, dual_expr
from repro.switchlevel.network import DeviceType, FaultKind, PhysicalFault
from repro.switchlevel.transmission import conducts, transmission_expr


def library_cells():
    """The switch cells of the ``.bench`` frontend at fan-ins 1-4 (a
    NAND's or NOR's network is the AND's or OR's), the Fig. 9 cell and
    the composite cells.  A cell's networks depend on its network
    expression only, not on its technology."""
    factory = CellFactory("domino-CMOS")
    cells = [fig9_cell(), factory.buffer(), factory.and_or(2, 3), factory.carry()]
    for fan_in in range(1, 5):
        cells += [factory.and_gate(fan_in), factory.or_gate(fan_in)]
    cells.append(factory.cell("oai", "(a+b)*(c+d)+e*(a+f)", list("abcdef")))
    return cells


def cell_networks():
    """Each cell's pull-down and pull-up network, as a labelled param."""
    for cell in library_cells():
        expr = cell.network_expr
        label = f"{cell.technology}/{cell.name}"
        yield pytest.param(SwitchNetwork.from_expr(expr), id=label + "/pd")
        yield pytest.param(
            SwitchNetwork.from_expr(dual_expr(expr), DeviceType.PMOS), id=label + "/pu"
        )


def single_faults(network: SwitchNetwork):
    """No fault, then every single physical fault of every switch."""
    yield ()
    for name in network.switches:
        for kind in (
            FaultKind.TRANSISTOR_OPEN,
            FaultKind.TRANSISTOR_CLOSED,
            FaultKind.LINE_OPEN_GATE,
        ):
            yield (PhysicalFault(kind, switch=name),)
        for terminal in ("a", "b"):
            yield (
                PhysicalFault(FaultKind.LINE_OPEN_TERMINAL, switch=name, terminal=terminal),
            )


def assert_matches_reference(network: SwitchNetwork, faults=()):
    assert transmission_expr(network, faults) == reference_transmission_expr(
        network, faults
    )
    names = sorted({s.gate for s in network.switches.values() if s.gate})
    for values in itertools.product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, values))
        assert conducts(network, assignment, faults) == reference_conducts(
            network, assignment, faults
        )


@pytest.mark.parametrize("network", list(cell_networks()))
def test_library_cell_networks_match_reference(network):
    for faults in single_faults(network):
        assert_matches_reference(network, faults)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 8 - 1), st.data())
def test_round_trip_networks_match_reference(bits, data):
    """The monotone networks of ``test_transmission_round_trip_random_functions``,
    unfaulted and under one drawn physical fault."""
    closure = bits
    for m in range(8):
        if (closure >> m) & 1:
            for sup in range(8):
                if sup & m == m:
                    closure |= 1 << sup
    network = SwitchNetwork.from_expr(minimal_sop(TruthTable(("a", "b", "c"), closure)))
    assert_matches_reference(network)
    faults = list(single_faults(network))
    assert_matches_reference(network, data.draw(st.sampled_from(faults), label="fault"))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arbitrary_switch_graphs_match_reference(data):
    """Bridge topologies the cell language never builds: random
    endpoints over S, D and up to four internal nodes, parallel
    switches and self-loops included, every device type."""
    network = SwitchNetwork()
    for _ in range(data.draw(st.integers(0, 4), label="internal")):
        network.fresh_node()
    endpoint = st.sampled_from(list(network.nodes))
    dtypes = st.sampled_from(list(DeviceType))
    for _ in range(data.draw(st.integers(0, 8), label="switches")):
        dtype = data.draw(dtypes, label="dtype")
        gated = dtype in (DeviceType.NMOS, DeviceType.PMOS)
        gate = data.draw(st.sampled_from("abc"), label="gate") if gated else None
        network.add_switch(dtype, gate, data.draw(endpoint), data.draw(endpoint))
    faults = list(single_faults(network))
    assert_matches_reference(network, data.draw(st.sampled_from(faults), label="fault"))


def test_bridge_network_term_order():
    """A Wheatstone bridge: the five-switch network with a path through
    the bridge switch in both directions."""
    network = SwitchNetwork()
    left, right = network.fresh_node(), network.fresh_node()
    network.add_switch(DeviceType.NMOS, "a", TERMINAL_S, left)
    network.add_switch(DeviceType.NMOS, "b", TERMINAL_S, right)
    network.add_switch(DeviceType.NMOS, "e", left, right)
    network.add_switch(DeviceType.NMOS, "c", left, TERMINAL_D)
    network.add_switch(DeviceType.NMOS, "d", right, TERMINAL_D)
    expr = transmission_expr(network)
    assert expr == reference_transmission_expr(network)
    names = ("a", "b", "c", "d", "e")
    assert TruthTable.from_expr(expr, names) == TruthTable.from_expr(
        parse_expression("a*c+b*d+a*e*d+b*e*c"), names
    )
