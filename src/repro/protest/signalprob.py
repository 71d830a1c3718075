"""Signal probability estimation - PROTEST feature 1 (Fig. 8).

"The user has to specify for each primary input the probability, that
the input is set logical '1' by a random pattern generator (it is
usually 0.5).  For those given input signal probabilities PROTEST
estimates the signal probability at each internal node."

Three estimators, trading accuracy for scalability exactly the way the
1980s tools did:

* ``exact``      - exhaustive bit-parallel tabulation of every net, then
  weighted counting.  Exponential in the number of inputs; the ground
  truth for everything else (feasible to ~20 inputs).
* ``topological`` - COP-style propagation assuming independence of gate
  inputs.  Linear-time; exact on fanout-free circuits, biased under
  reconvergent fanout.
* ``monte_carlo`` - empirical frequencies over weighted random patterns.
"""

from __future__ import annotations


from typing import Dict, Mapping

import numpy as np

from ..logic.probability import Program, cell_probability
from ..netlist.network import Network
from ..simulate.compiled import compile_network
from ..simulate.logicsim import PatternSet
from ..simulate.registry import get_engine

MAX_EXACT_INPUTS = 20


def _input_probs(network: Network, probs: Mapping[str, float] | float) -> Dict[str, float]:
    if isinstance(probs, (int, float)):
        probs = dict.fromkeys(network.inputs, probs)
    result = {}
    for net in network.inputs:
        p = float(probs.get(net, 0.5))
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {net!r} must be in [0,1], got {p}")
        result[net] = p
    return result


def minterm_weights(input_probs_ordered: "list[float]") -> np.ndarray:
    """Probability of every minterm (first input = MSB), as a vector.

    Built iteratively: for each input, the weight vector doubles -
    the 0-half scaled by (1-p), the 1-half by p.
    """
    weights = np.array([1.0])
    for p in input_probs_ordered:
        weights = np.concatenate(((1.0 - p) * weights, p * weights))
    # Iteration order above makes the *last* processed input the MSB, so
    # process in reverse to keep "first name = MSB".
    return weights


def bits_to_bool_array(bits: int, size: int) -> np.ndarray:
    """Unpack a big-int bit vector into a numpy boolean array (bit k -> [k])."""
    raw = bits.to_bytes((size + 7) // 8, "little")
    unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return unpacked[:size].astype(bool)


def exact_signal_probabilities(
    network: Network, probs: Mapping[str, float] | float = 0.5, cache=None
) -> Dict[str, float]:
    """Exact P(net = 1) for every net by exhaustive tabulation."""
    n = len(network.inputs)
    if n > MAX_EXACT_INPUTS:
        raise ValueError(
            f"exact estimation over {n} inputs is infeasible; use the "
            "topological or Monte-Carlo estimator"
        )
    input_probs = _input_probs(network, probs)
    patterns = PatternSet.exhaustive(network.inputs)
    values = compile_network(network, cache=cache).evaluate_bits(
        patterns.env, patterns.mask
    )
    # Weight of minterm m: product over inputs of p or (1-p).
    ordered = [input_probs[name] for name in reversed(network.inputs)]
    weights = minterm_weights(ordered)
    size = patterns.count
    return {
        net: float(weights[bits_to_bool_array(bits, size)].sum())
        for net, bits in values.items()
    }


def topological_signal_probabilities(
    network: Network, probs: Mapping[str, float] | float = 0.5
) -> Dict[str, float]:
    """COP-style estimate: gate inputs treated as independent.

    Each gate's output probability is computed *exactly* from its own
    function (cell-local Shannon expansion) under the independence
    assumption; correlation error appears only across gates with
    reconvergent fanout.  Each cell's probability program is compiled
    once per call and shared by all of its instances.
    """
    estimates = dict(_input_probs(network, probs))
    programs: Dict[tuple, Program] = {}
    for gate_name in network.levelize():
        gate = network.gates[gate_name]
        pin_probs = {
            pin: estimates[net] for pin, net in gate.connections.items()
        }
        estimates[gate.output] = cell_probability(
            programs, id(gate.cell), gate.function_expr, pin_probs
        )
    return estimates


def monte_carlo_signal_probabilities(
    network: Network,
    probs: Mapping[str, float] | float = 0.5,
    samples: int = 4096,
    seed: int = 1986,
    engine: str = "compiled",
    cache=None,
) -> Dict[str, float]:
    """Empirical frequencies over weighted random patterns.

    ``engine`` names a registered simulation engine
    (:mod:`repro.simulate.registry`); all engines agree bit-exactly, so
    the choice only prices the single fault-free pass.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    input_probs = _input_probs(network, probs)
    patterns = PatternSet.random(network.inputs, samples, seed=seed, probabilities=input_probs)
    values = get_engine(engine).evaluate_bits(
        network, patterns.env, patterns.mask, cache=cache
    )
    return {net: bits.bit_count() / samples for net, bits in values.items()}


def signal_probabilities(
    network: Network,
    probs: Mapping[str, float] | float = 0.5,
    method: str = "auto",
    samples: int = 4096,
    seed: int = 1986,
    engine: str = "compiled",
    cache=None,
) -> Dict[str, float]:
    """Dispatch: ``exact``, ``topological``, ``monte_carlo`` or ``auto``
    (exact when feasible, else Monte Carlo).  ``engine`` and ``cache``
    are validated up front on every method."""
    from ..simulate.faultsim import resolve_knobs

    _engine, cache, _mode = resolve_knobs(engine, cache=cache)
    if method == "auto":
        method = "exact" if len(network.inputs) <= MAX_EXACT_INPUTS else "monte_carlo"
    if method == "exact":
        return exact_signal_probabilities(network, probs, cache=cache)
    if method == "topological":
        return topological_signal_probabilities(network, probs)
    if method == "monte_carlo":
        return monte_carlo_signal_probabilities(
            network, probs, samples, seed, engine, cache=cache
        )
    raise ValueError(f"unknown method {method!r}")
