"""Fault detection probabilities - PROTEST feature 2.

"Again the user has to specify the input signal probability created by
his random pattern generator.  Then for each fault the probability is
estimated, that it is detected by a random pattern."

* ``exact`` - the detection probability *is* the weighted measure of
  the difference function (good XOR faulty at the primary outputs),
  obtained by exhaustive bit-parallel simulation of both circuits.
* ``topological`` - activation-times-observability estimate in the COP
  tradition: cell-local exact activation probability, observability
  propagated through Boolean differences with an independence
  assumption.
* ``monte_carlo`` - empirical detection frequency: the detection
  counts of one counting-mode fault-simulation pass
  (:func:`repro.simulate.faultsim.windowed_outcomes`), in-process or
  across the same worker pool every pooled fault simulation uses.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..logic.expr import Expr
from ..logic.minimize import minimal_sop
from ..logic.probability import Program, cell_probability
from ..netlist.network import Network, NetworkFault
from ..simulate.compiled import compile_network
from ..simulate.faultsim import (
    FaultUniverse,
    fault_universe,
    resolve_knobs,
    windowed_outcomes,
)
from ..simulate.logicsim import PatternSet
from .signalprob import (
    MAX_EXACT_INPUTS,
    _input_probs,
    bits_to_bool_array,
    minterm_weights,
    topological_signal_probabilities,
)


def exact_detection_probabilities(
    network: Network,
    faults: Optional[Sequence[NetworkFault]],
    probs: Mapping[str, float] | float = 0.5,
    cache=None,
) -> Dict[str, float]:
    """Exact P(random pattern detects fault) per fault."""
    n = len(network.inputs)
    if n > MAX_EXACT_INPUTS:
        raise ValueError(
            f"exact detection probabilities over {n} inputs are infeasible; "
            "use the Monte-Carlo estimator"
        )
    universe = fault_universe(network, faults, store=cache)
    input_probs = _input_probs(network, probs)
    patterns = PatternSet.exhaustive(network.inputs)
    ordered = [input_probs[name] for name in reversed(network.inputs)]
    weights = minterm_weights(ordered)
    sim = compile_network(network, cache=cache).simulate(patterns.env, patterns.mask)
    return {
        label: float(weights[bits_to_bool_array(difference, patterns.count)].sum())
        for label, difference in zip(
            universe.labels, sim.differences(universe.faults)
        )
    }


def monte_carlo_detection_probabilities(
    network: Network,
    faults: Optional[Sequence[NetworkFault]],
    probs: Mapping[str, float] | float = 0.5,
    samples: int = 4096,
    seed: int = 1986,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    collapse: Optional[str] = None,
    cache=None,
) -> Dict[str, float]:
    """Empirical detection frequency per fault.

    ``engine``/``jobs`` select a registered simulation engine and the
    worker count for the per-fault detection counts (``jobs`` must be
    an ``int >= 1``; above 1 it spreads the fault list over that many
    worker processes, on any engine); results are engine- and
    jobs-independent.  ``collapse`` resolves exactly as
    in :func:`repro.simulate.faultsim.fault_simulate`: under ``"on"``
    only one representative per structural equivalence class is
    simulated, and - class members having provably identical
    difference functions - every member inherits its representative's
    count, so the estimates match the uncollapsed run exactly.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    resolved, store, mode = resolve_knobs(engine, jobs, collapse, cache)
    universe = fault_universe(network, faults, mode, store)
    frequencies = _detection_frequencies(
        network, universe, probs, samples, seed, resolved, jobs, store
    )
    return dict(zip(universe.labels, frequencies))


def _detection_frequencies(
    network: Network,
    universe: FaultUniverse,
    probs: Mapping[str, float] | float,
    samples: int,
    seed: int,
    engine,
    jobs: Optional[int],
    store,
) -> List[float]:
    """Empirical detection frequency of every fault of ``universe``, in
    its fault order: one counting-mode pass over ``samples`` random
    patterns.  The knobs arrive resolved."""
    input_probs = _input_probs(network, probs)
    patterns = PatternSet.random(
        network.inputs, samples, seed=seed, probabilities=input_probs
    )
    outcomes = windowed_outcomes(network, patterns, universe, engine, jobs, store)
    return [(0 if outcome is None else outcome[1]) / samples for outcome in outcomes]


# -- topological (COP-style) estimate -------------------------------------------------


def _boolean_difference(expr: Expr, pin: str) -> Expr:
    """d expr / d pin: where toggling ``pin`` toggles ``expr``."""
    return expr.cofactor(pin, 0) ^ expr.cofactor(pin, 1)


def observability_estimates(
    network: Network, signal_probs: Mapping[str, float]
) -> Dict[str, float]:
    """P(a change on a net is observed at some primary output), estimated.

    Observability of a primary output is 1.  Through a gate, a pin's
    observability is the gate output's observability times the
    probability that the gate is *sensitized* to that pin (the Boolean
    difference of the cell function), treating signals as independent.
    Multiple fanout branches combine with the union approximation.
    """
    observability: Dict[str, float] = {net: 0.0 for net in network.nets()}
    for net in network.outputs:
        observability[net] = 1.0
    # Reverse-topological net sweep over the cached fanout index: each
    # net's readers come from one dict lookup instead of a scan over
    # every gate, and by the time a net is processed the observability
    # of every reader's output (strictly downstream) is final.  The
    # sensitisation probability of a (cell, pin) Boolean difference is
    # one compiled program shared by every instance of the cell.
    fanout = network.fanout_index()
    order = network.levelize()
    net_order = list(network.inputs) + [network.gates[name].output for name in order]
    programs: Dict[tuple, Program] = {}
    pin_probs_of_gate: Dict[str, Dict[str, float]] = {}
    for net in reversed(net_order):
        for gate_name, pin in fanout.get(net, ()):
            gate = network.gates[gate_name]
            pin_probs = pin_probs_of_gate.get(gate_name)
            if pin_probs is None:
                pin_probs = {
                    p: signal_probs[n] for p, n in gate.connections.items()
                }
                pin_probs_of_gate[gate_name] = pin_probs
            p_sens = cell_probability(
                programs, (id(gate.cell), pin),
                lambda: _boolean_difference(gate.function_expr(), pin), pin_probs,
            )
            through = observability[gate.output] * p_sens
            # Union over fanout branches: 1 - prod(1 - o_branch).
            observability[net] = 1.0 - (1.0 - observability[net]) * (1.0 - through)
    return observability


def topological_detection_probabilities(
    network: Network,
    faults: Optional[Sequence[NetworkFault]],
    probs: Mapping[str, float] | float = 0.5,
) -> Dict[str, float]:
    """Activation x observability estimate for each fault."""
    return _topological_detection(
        network, faults, topological_signal_probabilities(network, probs)
    )


def _topological_detection(
    network: Network,
    faults: Optional[Sequence[NetworkFault]],
    signal_probs: Mapping[str, float],
    cache=None,
) -> Dict[str, float]:
    """:func:`topological_detection_probabilities` on signal
    probabilities already computed - the one topological signal pass of
    :meth:`repro.protest.tool.Protest.analyse` - with the fault universe
    built in the ``cache`` store."""
    observability = observability_estimates(network, signal_probs)
    universe = fault_universe(network, faults, store=cache)
    # One activation program per (cell, faulty truth table): the 8k
    # faults of a 2k-gate netlist share a few dozen cell functions.
    programs: Dict[tuple, Program] = {}
    result: Dict[str, float] = {}
    for label, fault in zip(universe.labels, universe.faults):
        if fault.kind == "stuck":
            p_net = signal_probs[fault.net]
            activation = p_net if fault.value == 0 else (1.0 - p_net)
            result[label] = activation * observability[fault.net]
        else:
            gate = network.gates[fault.gate]
            pin_probs = {
                pin: signal_probs[net] for pin, net in gate.connections.items()
            }
            table = fault.function.table
            activation = cell_probability(
                programs, (id(gate.cell), table),
                lambda: gate.function_expr() ^ minimal_sop(table), pin_probs,
            )
            result[label] = activation * observability[gate.output]
    return result


def detection_probabilities(
    network: Network,
    faults: Optional[Sequence[NetworkFault]] = None,
    probs: Mapping[str, float] | float = 0.5,
    method: str = "auto",
    samples: int = 4096,
    seed: int = 1986,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    collapse: Optional[str] = None,
    cache=None,
) -> Dict[str, float]:
    """Dispatch over the three estimators (``auto``: exact when feasible).

    ``engine``, ``jobs`` and ``collapse`` reach the Monte-Carlo
    estimator (the only one whose cost scales with the fault count
    times the sample count) and ``cache`` the simulation-backed
    estimators; all four are validated up front on
    every method (:func:`repro.simulate.faultsim.resolve_knobs`), so a
    bad knob raises whichever estimator dispatches.
    """
    _engine, store, _mode = resolve_knobs(engine, jobs, collapse, cache)
    if method == "auto":
        method = "exact" if len(network.inputs) <= MAX_EXACT_INPUTS else "monte_carlo"
    if method == "exact":
        return exact_detection_probabilities(network, faults, probs, cache=store)
    if method == "topological":
        return topological_detection_probabilities(network, faults, probs)
    if method == "monte_carlo":
        return monte_carlo_detection_probabilities(
            network, faults, probs, samples, seed, engine, jobs, collapse,
            cache=store,
        )
    raise ValueError(f"unknown method {method!r}")
