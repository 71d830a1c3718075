"""Tests for switching networks and transmission functions."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.expr import all_assignments
from repro.logic.parser import parse_expression
from repro.logic.truthtable import TruthTable
from repro.switchlevel.build import TERMINAL_D, TERMINAL_S, SwitchNetwork, dual_expr
from repro.switchlevel.network import DeviceType, FaultKind, PhysicalFault
from repro.switchlevel.transmission import (
    conducts,
    transmission_expr,
    transmission_table,
)


class TestBuild:
    def test_series_chain(self):
        network = SwitchNetwork.from_expr(parse_expression("a*b*c"))
        assert network.transistor_count() == 3
        # Series: exactly one simple path with three switches.
        assert len(network.nodes) == 4  # S, D, two internal

    def test_parallel(self):
        network = SwitchNetwork.from_expr(parse_expression("a+b"))
        assert network.transistor_count() == 2
        assert len(network.nodes) == 2  # only the terminals

    def test_constant_one_is_wire(self):
        network = SwitchNetwork.from_expr(parse_expression("1"))
        assert transmission_expr(network).evaluate({}) == 1

    def test_constant_zero_is_gap(self):
        network = SwitchNetwork.from_expr(parse_expression("0"))
        assert transmission_expr(network).evaluate({}) == 0

    def test_inputs_sorted(self):
        network = SwitchNetwork.from_expr(parse_expression("c*a+b"))
        assert network.inputs() == ("a", "b", "c")

    def test_complemented_literal_flips_device(self):
        network = SwitchNetwork.from_expr(parse_expression("!a*b"), DeviceType.NMOS)
        devices = {s.gate: s.dtype for s in network.switches.values()}
        assert devices["a"] is DeviceType.PMOS
        assert devices["b"] is DeviceType.NMOS

    def test_inner_negation_rejected(self):
        with pytest.raises(ValueError):
            SwitchNetwork.from_expr(parse_expression("!(a*b)"))


class TestDual:
    def test_dual_swaps_and_or(self):
        expr = parse_expression("a*b+c")
        assert dual_expr(expr).to_paper_syntax() == "(a+b)*c"

    def test_dual_involution(self):
        expr = parse_expression("a*(b+c)+d*e")
        assert dual_expr(dual_expr(expr)) == expr

    def test_pullup_complements(self):
        # p-network built on the dual computes the complement.
        expr = parse_expression("a+b")  # NOR pull-down
        pu = SwitchNetwork.from_expr(dual_expr(expr), DeviceType.PMOS)
        table = transmission_table(pu, names=("a", "b"))
        pd = transmission_table(SwitchNetwork.from_expr(expr), names=("a", "b"))
        assert table == ~pd


EXPRESSIONS = ["a", "a*b", "a+b", "a*(b+c)", "a*b+c*d", "a*(b+c)+d*e", "a*b+a*c"]


class TestTransmission:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_transmission_equals_expression(self, text):
        expr = parse_expression(text)
        network = SwitchNetwork.from_expr(expr)
        names = tuple(sorted(expr.variables()))
        assert transmission_table(network, names=names) == TruthTable.from_expr(
            expr, names
        )

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_graph_oracle_agrees(self, text):
        expr = parse_expression(text)
        network = SwitchNetwork.from_expr(expr)
        for assignment in all_assignments(tuple(sorted(expr.variables()))):
            assert conducts(network, assignment) == bool(expr.evaluate(assignment))

    def test_stuck_open_removes_paths(self):
        network = SwitchNetwork.from_expr(parse_expression("a*b+c"))
        # first switch is T1 (gate a)
        fault = PhysicalFault(FaultKind.TRANSISTOR_OPEN, switch="T1")
        expr = transmission_expr(network, [fault])
        assert TruthTable.from_expr(expr, ("a", "b", "c")) == TruthTable.from_expr(
            parse_expression("c"), ("a", "b", "c")
        )

    def test_stuck_closed_shorts(self):
        network = SwitchNetwork.from_expr(parse_expression("a*b"))
        fault = PhysicalFault(FaultKind.TRANSISTOR_CLOSED, switch="T1")
        expr = transmission_expr(network, [fault])
        assert TruthTable.from_expr(expr, ("a", "b")) == TruthTable.from_expr(
            parse_expression("b"), ("a", "b")
        )

    def test_terminal_open(self):
        network = SwitchNetwork.from_expr(parse_expression("a+b"))
        fault = PhysicalFault(FaultKind.LINE_OPEN_TERMINAL, switch="T1", terminal="a")
        expr = transmission_expr(network, [fault])
        assert TruthTable.from_expr(expr, ("a", "b")) == TruthTable.from_expr(
            parse_expression("b"), ("a", "b")
        )

    def test_gate_open_a1(self):
        # A1: floating n-gate -> off; floating p-gate -> on.
        network = SwitchNetwork.from_expr(parse_expression("!a*b"))
        for name, switch in network.switches.items():
            if switch.dtype is DeviceType.PMOS:
                fault = PhysicalFault(FaultKind.LINE_OPEN_GATE, switch=name)
                expr = transmission_expr(network, [fault])
                # p-device conducts permanently: T = b
                assert TruthTable.from_expr(expr, ("a", "b")) == TruthTable.from_expr(
                    parse_expression("b"), ("a", "b")
                )

    def test_embed_small_capacitance(self):
        from repro.switchlevel.network import SwitchCircuit

        network = SwitchNetwork.from_expr(parse_expression("a*b"))
        circuit = SwitchCircuit()
        circuit.add_port("a")
        circuit.add_port("b")
        circuit.add_internal("top")
        circuit.add_internal("bot")
        names = network.embed(circuit, "top", "bot", prefix="sn_")
        internal = [n for n in circuit.nodes if n.startswith("sn_")]
        assert all(
            circuit.capacitance[n] == SwitchCircuit.SMALL_CAPACITANCE for n in internal
        )
        assert set(names) == set(network.switches)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 8 - 1))
def test_transmission_round_trip_random_functions(bits):
    """Property: build a network from a minimal SOP of a random positive
    function and recover exactly that function as its transmission."""
    names = ("a", "b", "c")
    # Force positivity by OR-ing the function with its monotone closure:
    # simpler - use the SOP of the random table but drop complemented
    # literals by substituting them with fresh always-on behaviour is
    # messy; instead use the table's positive projection: f | (minterms
    # above any 1-minterm).  Easiest: make it monotone by bitwise
    # closure over supersets.
    closure = bits
    for m in range(8):
        if (closure >> m) & 1:
            for sup in range(8):
                if sup & m == m:
                    closure |= 1 << sup
    table = TruthTable(names, closure)
    from repro.logic.minimize import minimal_sop

    expr = minimal_sop(table)
    network = SwitchNetwork.from_expr(expr)
    assert transmission_table(network, names=names) == table


def test_bench_to_verdict_never_imports_networkx():
    """The whole ``.bench``-to-verdict flow (parse, collapse, fault
    simulation, PROTEST analysis) runs without networkx: the path
    search and the conduction oracle are in-repo."""
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "from repro.faults.structural import collapse_network_faults\n"
        "from repro.netlist import read_bench\n"
        "from repro.protest import Protest\n"
        "from repro.simulate import PatternSet\n"
        "from repro.simulate.faultsim import fault_simulate\n"
        f"network = read_bench({str(root / 'examples' / 'c17.bench')!r})\n"
        "faults = network.enumerate_faults()\n"
        "collapse_network_faults(network, faults)\n"
        "patterns = PatternSet.random(network.inputs, 64, seed=1)\n"
        "assert fault_simulate(network, patterns, faults, collapse='on').detected\n"
        "protest = Protest(network, faults)\n"
        "protest.analyse(method='topological')\n"
        "protest.analyse(method='monte_carlo')\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'networkx'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.stdout.strip() == "[]"
