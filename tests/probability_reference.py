"""Reference implementation of the exact-probability layer.

The recursive Shannon-expansion / read-once walk that
:mod:`repro.logic.probability` used to run on every call, kept here
verbatim as the oracle its compiled probability programs must equal bit
for bit, together with the topological estimators written directly on
top of it (one walk per gate, pin and fault, no program memo).

A plain module, not ``conftest.py``, for the same reason as
``engine_test_utils``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Tuple

from repro.logic.expr import And, Const, Expr, Not, Or, Var
from repro.logic.minimize import minimal_sop
from repro.protest.cutting import CORNER_BUDGET, FULL, Interval
from repro.protest.signalprob import _input_probs


# -- the walk (verbatim) ------------------------------------------------------


def _as_prob_map(expr: Expr, probs: Mapping[str, float] | float) -> Dict[str, float]:
    if isinstance(probs, (int, float)):
        return {name: float(probs) for name in expr.variables()}
    result = {}
    for name in expr.variables():
        try:
            p = float(probs[name])
        except KeyError:
            raise KeyError(f"no probability given for input {name!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {name!r} must lie in [0,1], got {p}")
        result[name] = p
    return result


def _most_shared_variable(expr: Expr, env: Mapping[str, float]) -> str | None:
    """The unpinned variable appearing in the most operand supports.

    Variables already pinned to 0/1 by an enclosing Shannon expansion
    carry no correlation and are skipped.
    """
    if not isinstance(expr, (And, Or)):
        return None
    counts: Dict[str, int] = {}
    for operand in expr.children():
        for name in operand.variables():
            if env[name] in (0.0, 1.0):
                continue
            counts[name] = counts.get(name, 0) + 1
    shared = {name: count for name, count in counts.items() if count > 1}
    if not shared:
        return None
    return max(sorted(shared), key=lambda name: shared[name])


def signal_probability(expr: Expr, probs: Mapping[str, float] | float = 0.5) -> float:
    """Exact P(expr = 1) under independent input probabilities.

    >>> from repro.logic.parser import parse_expression
    >>> signal_probability(parse_expression("a*b"), 0.5)
    0.25
    >>> signal_probability(parse_expression("a + !a"), 0.3)
    1.0
    """
    prob_map = _as_prob_map(expr, probs)
    cache: Dict[Tuple[int, Tuple[Tuple[str, float], ...]], float] = {}

    def walk(node: Expr, env: Dict[str, float]) -> float:
        if isinstance(node, Const):
            return float(node.value)
        if isinstance(node, Var):
            return env[node.name]
        key = (id(node), tuple(sorted((n, env[n]) for n in node.variables())))
        if key in cache:
            return cache[key]
        if isinstance(node, Not):
            result = 1.0 - walk(node.operand, env)
        else:
            shared = _most_shared_variable(node, env)
            if shared is not None:
                # Shannon expansion on the reconvergent variable.
                env0 = dict(env)
                env0[shared] = 0.0
                env1 = dict(env)
                env1[shared] = 1.0
                p = env[shared]
                result = (1.0 - p) * walk(node, env0) + p * walk(node, env1)
            elif isinstance(node, And):
                result = 1.0
                for operand in node.operands:
                    result *= walk(operand, env)
                    if result == 0.0:
                        break
            elif isinstance(node, Or):
                # P(or) = 1 - prod(1 - P(operand)) for independent operands.
                complement = 1.0
                for operand in node.operands:
                    complement *= 1.0 - walk(operand, env)
                    if complement == 0.0:
                        break
                result = 1.0 - complement
            else:  # pragma: no cover - exhaustiveness guard
                raise TypeError(f"unknown expression node {node!r}")
        cache[key] = result
        return result

    env = dict(prob_map)
    # Variables pinned to 0/1 probability are handled by the generic walk.
    return min(1.0, max(0.0, walk(expr, env)))


# -- the topological estimators, one walk per gate / pin / fault -------------


def _pin_probs(gate, probs: Mapping[str, float]) -> Dict[str, float]:
    return {pin: probs[net] for pin, net in gate.connections.items()}


def topological_signal_probabilities(network, probs=0.5) -> Dict[str, float]:
    estimates = dict(_input_probs(network, probs))
    for gate_name in network.levelize():
        gate = network.gates[gate_name]
        estimates[gate.output] = signal_probability(
            gate.function_expr(), _pin_probs(gate, estimates)
        )
    return estimates


def observability_estimates(network, signal_probs) -> Dict[str, float]:
    observability = {net: 0.0 for net in network.nets()}
    for net in network.outputs:
        observability[net] = 1.0
    fanout = network.fanout_index()
    order = network.levelize()
    net_order = list(network.inputs) + [network.gates[name].output for name in order]
    for net in reversed(net_order):
        for gate_name, pin in fanout.get(net, ()):
            gate = network.gates[gate_name]
            expr = gate.function_expr()
            sensitised = expr.cofactor(pin, 0) ^ expr.cofactor(pin, 1)
            p_sens = signal_probability(sensitised, _pin_probs(gate, signal_probs))
            through = observability[gate.output] * p_sens
            observability[net] = 1.0 - (1.0 - observability[net]) * (1.0 - through)
    return observability


def topological_detection_probabilities(network, faults, probs=0.5) -> Dict[str, float]:
    signal_probs = topological_signal_probabilities(network, probs)
    observability = observability_estimates(network, signal_probs)
    result: Dict[str, float] = {}
    for fault in faults:
        if fault.kind == "stuck":
            p_net = signal_probs[fault.net]
            activation = p_net if fault.value == 0 else (1.0 - p_net)
            result[fault.describe()] = activation * observability[fault.net]
        else:
            gate = network.gates[fault.gate]
            difference = gate.function_expr() ^ minimal_sop(fault.function.table)
            activation = signal_probability(difference, _pin_probs(gate, signal_probs))
            result[fault.describe()] = activation * observability[gate.output]
    return result


def cutting_signal_bounds(network, probs=0.5) -> Dict[str, Interval]:
    if isinstance(probs, (int, float)):
        probs = {net: float(probs) for net in network.inputs}
    intervals = {
        net: Interval(probs.get(net, 0.5), probs.get(net, 0.5))
        for net in network.inputs
    }
    consumed: Dict[str, int] = {}

    def read(net: str) -> Interval:
        branch = consumed.get(net, 0)
        consumed[net] = branch + 1
        return intervals[net] if branch == 0 else FULL

    for gate_name in network.levelize():
        gate = network.gates[gate_name]
        expr = gate.function_expr()
        pin_intervals = {pin: read(net) for pin, net in gate.connections.items()}
        choices = [
            (iv.low,) if iv.high == iv.low else (iv.low, iv.high)
            for iv in pin_intervals.values()
        ]
        corner_count = 1
        for values in choices:
            corner_count *= len(values)
        if corner_count > CORNER_BUDGET:
            intervals[gate.output] = FULL
            continue
        corners: List[float] = [
            signal_probability(expr, dict(zip(pin_intervals, corner)))
            for corner in itertools.product(*choices)
        ]
        intervals[gate.output] = Interval(min(corners), max(corners))
    return intervals
