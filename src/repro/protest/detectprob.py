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
* ``monte_carlo`` - empirical detection frequency.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np


from ..logic.expr import Expr
from ..logic.minimize import minimal_sop
from ..logic.probability import Program, cell_probability
from ..netlist.network import Network, NetworkFault
from ..simulate.compiled import compile_network
from ..simulate.faultsim import check_injectable, dedupe_faults, resolve_knobs
from ..simulate.logicsim import PatternSet
from .signalprob import (
    MAX_EXACT_INPUTS,
    _input_probs,
    bits_to_bool_array,
    minterm_weights,
    topological_signal_probabilities,
)


def difference_bits(network: Network, fault: NetworkFault, patterns: PatternSet) -> int:
    """Bit vector marking the patterns that detect ``fault``.

    Runs on the compiled engine: each call costs one good-circuit pass
    plus one fanout-cone pass (only the compilation is cached).  When
    looping over many faults, hoist the good pass instead::

        sim = compile_network(network).simulate(patterns.env, patterns.mask)
        words = [sim.difference(fault) for fault in faults]
    """
    sim = compile_network(network).simulate(patterns.env, patterns.mask)
    return sim.difference(fault)


def exact_detection_probabilities(
    network: Network,
    faults: Sequence[NetworkFault],
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
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    input_probs = _input_probs(network, probs)
    patterns = PatternSet.exhaustive(network.inputs)
    ordered = [input_probs[name] for name in reversed(network.inputs)]
    weights = minterm_weights(ordered)
    sim = compile_network(network, cache=cache).simulate(patterns.env, patterns.mask)
    result: Dict[str, float] = {}
    for fault in faults:
        difference = sim.difference(fault)
        result[fault.describe()] = float(
            weights[bits_to_bool_array(difference, patterns.count)].sum()
        )
    return result


def monte_carlo_detection_probabilities(
    network: Network,
    faults: Sequence[NetworkFault],
    probs: Mapping[str, float] | float = 0.5,
    samples: int = 4096,
    seed: int = 1986,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    collapse: Optional[str] = None,
    cache=None,
) -> Dict[str, float]:
    """Empirical detection frequency per fault.

    ``engine``/``jobs``/``schedule``/``tune`` select a registered
    simulation engine, fault-scheduling policy and execution plan for
    the per-fault difference passes (``jobs`` must be ``>= 1``; above
    1 it spreads the fault list over that many worker processes, on
    any engine); results are engine-, schedule- and
    tuning-independent.  ``collapse`` resolves exactly as
    in :func:`repro.simulate.faultsim.fault_simulate`: under
    ``"on"``/``"report"`` only one representative per structural
    equivalence class runs a difference pass, and - class members
    having provably identical difference functions - every member
    inherits its representative's word bit for bit, so the estimates
    match the uncollapsed run exactly.
    """
    from ..faults.structural import collapse_network_faults

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    resolved, store, plan, mode = resolve_knobs(
        engine, jobs, schedule, tune, collapse, cache
    )
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    input_probs = _input_probs(network, probs)
    patterns = PatternSet.random(
        network.inputs, samples, seed=seed, probabilities=input_probs
    )
    if mode == "off" or not faults:
        words = resolved.difference_words(
            network, patterns, faults, jobs, schedule, plan, store
        )
    else:
        collapsed = collapse_network_faults(network, faults, cache=store)
        rep_words = resolved.difference_words(
            network, patterns, collapsed.representative_faults(),
            jobs, schedule, plan, store,
        )
        words = collapsed.scatter_outcomes(rep_words)
    store.flush()
    return {
        fault.describe(): word.bit_count() / samples
        for fault, word in zip(faults, words)
    }


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
    faults: Sequence[NetworkFault],
    probs: Mapping[str, float] | float = 0.5,
) -> Dict[str, float]:
    """Activation x observability estimate for each fault."""
    signal_probs = topological_signal_probabilities(network, probs)
    observability = observability_estimates(network, signal_probs)
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    # One activation program per (cell, faulty truth table): the 8k
    # faults of a 2k-gate netlist share a few dozen cell functions.
    programs: Dict[tuple, Program] = {}
    result: Dict[str, float] = {}
    for fault in faults:
        if fault.kind == "stuck":
            p_net = signal_probs[fault.net]
            activation = p_net if fault.value == 0 else (1.0 - p_net)
            result[fault.describe()] = activation * observability[fault.net]
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
            result[fault.describe()] = activation * observability[gate.output]
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
    schedule: Optional[str] = None,
    tune=None,
    collapse: Optional[str] = None,
    cache=None,
) -> Dict[str, float]:
    """Dispatch over the three estimators (``auto``: exact when feasible).

    ``engine``, ``jobs``, ``schedule``, ``tune`` and ``collapse`` reach
    the Monte-Carlo estimator (the only one whose cost scales with the
    fault count times the sample count) and ``cache`` the
    simulation-backed estimators; all six are validated up front on
    every method (:func:`repro.simulate.faultsim.resolve_knobs`), so a
    bad knob raises whichever estimator dispatches.
    """
    _engine, store, plan, _mode = resolve_knobs(
        engine, jobs, schedule, tune, collapse, cache
    )
    if faults is None:
        faults = network.enumerate_faults()
    if method == "auto":
        method = "exact" if len(network.inputs) <= MAX_EXACT_INPUTS else "monte_carlo"
    if method == "exact":
        return exact_detection_probabilities(network, faults, probs, cache=store)
    if method == "topological":
        return topological_detection_probabilities(network, faults, probs)
    if method == "monte_carlo":
        return monte_carlo_detection_probabilities(
            network, faults, probs, samples, seed, engine, jobs, schedule,
            plan, collapse, cache=store,
        )
    raise ValueError(f"unknown method {method!r}")
