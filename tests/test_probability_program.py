"""Compiled probability programs against the recursive reference walk.

Every probability the programs produce must equal the walk's with
``==`` (never approx): :mod:`probability_reference` keeps the walk
verbatim, and the topological estimators written directly on top of it.
"""

import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probability_reference as reference
from repro.logic import probability
from repro.logic.expr import And, Const, Not, Or, Var
from repro.logic.parser import parse_expression
from repro.netlist import parse_bench
from repro.protest.cutting import cutting_signal_bounds
from repro.protest.detectprob import (
    observability_estimates,
    topological_detection_probabilities,
)
from repro.protest.signalprob import topological_signal_probabilities
from repro.protest.tool import Protest

NAMES = "abcdef"

#: Exact pins, interior values, the largest double below 1, and tiny
#: values whose products underflow to 0.0 (the walk's early-break path).
SPECIAL = [0.0, 1.0, 0.5, 1 - 1e-16, 1e-300, 1e-200, 5e-324, 1e-160]

expressions = st.recursive(
    st.one_of(
        st.sampled_from(NAMES).map(Var),
        st.sampled_from([0, 1]).map(Const),
    ),
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=1, max_size=4).map(lambda ops: And(*ops)),
        st.lists(children, min_size=1, max_size=4).map(lambda ops: Or(*ops)),
    ),
    max_leaves=14,
)
probabilities = st.fixed_dictionaries({
    name: st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))
    for name in NAMES
})


@settings(max_examples=400)
@given(expressions, probabilities)
def test_program_equals_reference_walk(expr, probs):
    assert probability.signal_probability(expr, probs) == (
        reference.signal_probability(expr, probs)
    )


@settings(max_examples=200)
@given(expressions, probabilities)
def test_cell_probability_equals_reference_walk(expr, probs):
    """The memoised path: one program per (content key, pin pattern) in
    the process-wide memo, reused across calls.  The key is the
    expression's content, so equal expressions drawn again share it."""
    key, pinned = ("test", expr), probability._pinned_inputs(probs)
    program = probability.cell_program(key, lambda: expr, pinned)
    for _ in range(2):
        assert probability.cell_program(key, lambda: expr, pinned) is program
        assert program(probs) == reference.signal_probability(expr, probs)
    assert probability._PROGRAMS[(key, pinned)] is program


def test_shared_variables_take_the_shannon_path():
    # a*b + a*c shares a; with a pinned, the expansion is skipped.
    expr = parse_expression("a*b + a*c")
    for probs in ({"a": 0.3, "b": 0.7, "c": 0.1}, {"a": 1.0, "b": 0.7, "c": 0.1}):
        assert probability.signal_probability(expr, probs) == (
            reference.signal_probability(expr, probs)
        )


def test_module_doctests():
    failures, attempted = doctest.testmod(probability)
    assert attempted and not failures


def test_scalar_probability_validated():
    with pytest.raises(ValueError, match=r"probability of 'a' must lie in \[0,1\], got 1.5"):
        probability.signal_probability(parse_expression("a*b"), 1.5)
    with pytest.raises(ValueError, match=r"must lie in \[0,1\], got nan"):
        probability.signal_probability(parse_expression("a"), float("nan"))


# -- estimator level: a parsed netlist with every two-input gate kind ----------

GATE_KINDS = ("AND", "OR", "NAND", "NOR", "XOR")


def random_bench(seed: int, gates: int = 520, inputs: int = 24) -> str:
    """A reconvergent ``.bench`` DAG cycling through every gate kind."""
    rng = random.Random(seed)
    nets = [f"i{index}" for index in range(inputs)]
    lines = [f"INPUT({net})" for net in nets]
    body, read = [], set()
    for index in range(gates):
        left, right = rng.sample(nets[-48:], 2)
        read.update((left, right))
        nets.append(f"n{index}")
        body.append(f"n{index} = {GATE_KINDS[index % 5]}({left}, {right})")
    lines += [f"OUTPUT({net})" for net in nets[inputs:] if net not in read]
    return "\n".join(lines + body) + "\n"


@pytest.fixture(scope="module")
def netlist():
    return parse_bench(random_bench(12), name="prob_program")


def _input_map(network, seed):
    """Interior probabilities plus inputs pinned at exactly 0.0 and 1.0."""
    rng = random.Random(seed)
    return {
        net: rng.choice([0.0, 1.0, rng.random(), 0.5])
        for net in network.inputs
    }


@pytest.mark.parametrize("probs", ["half", "mixed"])
def test_estimators_equal_reference(netlist, probs):
    probs = 0.5 if probs == "half" else _input_map(netlist, 3)
    faults = netlist.enumerate_faults()
    assert len(netlist.gates) >= 500
    assert len({id(gate.cell) for gate in netlist.gates.values()}) == len(GATE_KINDS)

    signal = topological_signal_probabilities(netlist, probs)
    assert signal == reference.topological_signal_probabilities(netlist, probs)
    assert observability_estimates(netlist, signal) == (
        reference.observability_estimates(netlist, signal)
    )
    assert topological_detection_probabilities(netlist, faults, probs) == (
        reference.topological_detection_probabilities(netlist, faults, probs)
    )
    assert cutting_signal_bounds(netlist, probs) == (
        reference.cutting_signal_bounds(netlist, probs)
    )


@settings(max_examples=40)
@given(
    st.integers(0, 2 ** 32),
    st.lists(st.sampled_from(SPECIAL[:4] + [0.25, 0.9]), min_size=4, max_size=4),
    st.integers(0, 15),
)
def test_property_estimators_equal_reference_pinned_and_off_library(seed, values, bits):
    """Every topological estimate ``==`` the reference walk, keys and
    order included, on small reconvergent netlists with inputs pinned at
    exactly 0.0 and 1.0 and an off-library fault (a table over the
    reversed pin order) next to the library's and the stuck-at faults."""
    from repro.cells.library import LibraryFunction
    from repro.logic.minimize import minimal_sop_string
    from repro.logic.truthtable import TruthTable
    from repro.netlist import NetworkFault

    network = parse_bench(random_bench(seed, gates=30, inputs=6), name="pinned")
    probs = dict(zip(network.inputs, [0.0, 1.0] + values))
    gate = network.gates[network.levelize()[seed % len(network.gates)]]
    table = TruthTable(tuple(reversed(gate.cell.inputs)), bits)
    assert table.names != tuple(gate.cell.inputs)
    off_library = NetworkFault.cell_fault(
        gate.name, 99, LibraryFunction("off", table, minimal_sop_string(table))
    )
    faults = network.enumerate_faults(include_stuck_at=True) + [off_library]

    signal = topological_signal_probabilities(network, probs)
    expected = reference.topological_signal_probabilities(network, probs)
    assert list(signal.items()) == list(expected.items())
    observability = observability_estimates(network, signal)
    expected = reference.observability_estimates(network, signal)
    assert list(observability.items()) == list(expected.items())
    detection = topological_detection_probabilities(network, faults, probs)
    expected = reference.topological_detection_probabilities(network, faults, probs)
    assert list(detection.items()) == list(expected.items())
    assert cutting_signal_bounds(network, probs) == (
        reference.cutting_signal_bounds(network, probs)
    )


@pytest.fixture
def builds(monkeypatch):
    """Record every (expression, pins) program build, on an empty memo."""
    built = []
    real = probability.probability_program

    def counting(expr, pinned):
        built.append((expr, tuple(sorted(pinned.items()))))
        return real(expr, pinned)

    monkeypatch.setattr(probability, "probability_program", counting)
    monkeypatch.setattr(probability, "_PROGRAMS", {})
    return built


def test_programs_built_once_per_cell_function(netlist, builds):
    """The process-wide contract: a program is built once per (cell
    function and role, pinned pattern) - never again by a later pass, a
    later call, or an equal netlist parsed and enumerated afresh."""
    gates = list(netlist.gates.values())
    cells = {id(gate.cell): gate.cell for gate in gates}
    assert len(cells) == len(GATE_KINDS)
    cell_pins = sum(len(cell.inputs) for cell in cells.values())
    faults = netlist.enumerate_faults()
    cell_faults = [fault for fault in faults if fault.kind == "cell"]
    functions = {
        (id(netlist.gates[fault.gate].cell), fault.function.table)
        for fault in cell_faults
    }

    signal = topological_signal_probabilities(netlist, 0.5)
    # No net is pinned at exactly 0 or 1, so a cell is one program.
    assert all(0.0 < p < 1.0 for p in signal.values())
    assert len(builds) == len(cells)

    observability_estimates(netlist, signal)
    assert len(builds) == len(cells) + cell_pins

    # The signal and observability programs are the memo's already.
    topological_detection_probabilities(netlist, faults, 0.5)
    assert len(builds) == len(cells) + cell_pins + len(functions)
    assert len(functions) < len(cell_faults) / 100

    cutting_signal_bounds(netlist, 0.5)
    # One build per distinct (cell function, pinned corner pattern).
    assert len(builds) == len(set(builds)) == len(probability._PROGRAMS)
    assert len(builds) <= len(cells) * 3 ** 2 + cell_pins + len(functions)

    built = len(builds)
    Protest(netlist, faults, cache="off").analyse(0.5, method="topological")
    assert len(builds) == built
    for _ in range(2):
        again = parse_bench(random_bench(12), name="prob_program")
        Protest(again, again.enumerate_faults(), cache="off").analyse(
            0.5, method="topological"
        )
        cutting_signal_bounds(again, 0.5)
        assert len(builds) == built == len(probability._PROGRAMS)


# -- the per-gate resolution of the topological estimators ---------------------


def per_fault_topological(network, faults, signal):
    """Observability and detection as they were computed before each
    gate's inputs were resolved once: a pin-probability dict, pinned
    pattern and program lookup per (gate, pin) and per fault, through
    :func:`probability.cell_program` on content keys."""
    from repro.logic.minimize import minimal_sop
    from repro.protest.detectprob import _boolean_difference

    def cell_probability(key, expr_of, pin_probs):
        pinned = probability._pinned_inputs(pin_probs)
        return probability.cell_program(key, expr_of, pinned)(pin_probs)

    observability = {net: 0.0 for net in network.nets()}
    for net in network.outputs:
        observability[net] = 1.0
    fanout = network.fanout_index()
    order = list(network.inputs) + [
        network.gates[name].output for name in network.levelize()
    ]
    for net in reversed(order):
        for gate_name, pin in fanout.get(net, ()):
            gate = network.gates[gate_name]
            pin_probs = {p: signal[n] for p, n in gate.connections.items()}
            p_sens = cell_probability(
                ("difference", gate.function_expr(), pin),
                lambda: _boolean_difference(gate.function_expr(), pin), pin_probs,
            )
            through = observability[gate.output] * p_sens
            observability[net] = 1.0 - (1.0 - observability[net]) * (1.0 - through)
    detection = {}
    for fault in faults:
        if fault.kind == "stuck":
            p_net = signal[fault.net]
            activation = p_net if fault.value == 0 else 1.0 - p_net
            detection[fault.label] = activation * observability[fault.net]
            continue
        gate = network.gates[fault.gate]
        pin_probs = {pin: signal[net] for pin, net in gate.connections.items()}
        table = fault.function.table
        activation = cell_probability(
            ("fault", gate.function_expr(), table.names, table.bits),
            lambda: gate.function_expr() ^ minimal_sop(table), pin_probs,
        )
        detection[fault.label] = activation * observability[gate.output]
    return observability, detection


@pytest.mark.parametrize("probs", ["half", "mixed"])
def test_gate_resolution_equals_per_fault_path(probs):
    """On a perfbench-shaped netlist (``perfbench/netgen.py``, stuck-at
    faults included), resolving each gate once changes no estimate."""
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "perfbench"
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from netgen import bench_text

    network = parse_bench(bench_text(7, gates=600, blocks=2), name="netgen")
    probs = 0.5 if probs == "half" else _input_map(network, 5)
    faults = network.enumerate_faults(include_stuck_at=True)
    signal = topological_signal_probabilities(network, probs)
    observability, detection = per_fault_topological(network, faults, signal)
    assert observability_estimates(network, signal) == observability
    assert topological_detection_probabilities(network, faults, probs) == detection
