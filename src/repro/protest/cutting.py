"""The cutting algorithm: guaranteed signal-probability *bounds*.

The topological (COP-style) estimator in
:mod:`repro.protest.signalprob` returns a point estimate that can be
arbitrarily wrong under reconvergent fanout.  The classical remedy
(Savir/Ditlow/Bareiss, the algorithm family PROTEST's generation of
tools drew on) *cuts* the extra branches of every fanout stem, assigns
the cut inputs the full interval [0, 1], and propagates intervals: the
result is a certified enclosure of the exact probability.

Implementation notes:

* every fanout branch after the first is cut - slightly looser than
  cutting only *reconvergent* branches, but always sound;
* interval propagation through an arbitrary cell function evaluates the
  exact cell-local probability at every corner of the input intervals
  and takes the min/max - exact for the (unate or not) cell functions
  used here because a multilinear polynomial on a box attains its
  extrema at the corners.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping

from ..logic.probability import Program
from ..netlist.network import Network
from .signalprob import output_program


@dataclass(frozen=True)
class Interval:
    """A closed probability interval."""

    low: float
    high: float

    def __post_init__(self):
        if not -1e-12 <= self.low <= self.high <= 1.0 + 1e-12:
            raise ValueError(f"bad interval [{self.low}, {self.high}]")

    def contains(self, value: float, tolerance: float = 1e-9) -> bool:
        return self.low - tolerance <= value <= self.high + tolerance

    @property
    def width(self) -> float:
        return self.high - self.low


FULL = Interval(0.0, 1.0)

CORNER_BUDGET = 4096
"""Most corners enumerated per cell.  A cell whose wide-interval pins
span more corners than this gets the sound fallback :data:`FULL` -
never a truncated (and therefore unsound) min/max over a corner
prefix."""


def cutting_signal_bounds(
    network: Network, probs: Mapping[str, float] | float = 0.5
) -> Dict[str, Interval]:
    """Certified [low, high] bounds on P(net = 1) for every net."""
    if isinstance(probs, (int, float)):
        probs = {net: float(probs) for net in network.inputs}
    intervals: Dict[str, Interval] = {
        net: Interval(probs.get(net, 0.5), probs.get(net, 0.5))
        for net in network.inputs
    }
    # How many times each net has been consumed so far: branch 0 keeps
    # the stem's interval, later branches are cut to [0, 1].
    consumed: Dict[str, int] = {}

    def read(net: str) -> Interval:
        branch = consumed.get(net, 0)
        consumed[net] = branch + 1
        if branch == 0:
            return intervals[net]
        return FULL

    # Corner probabilities go through one program per cell and pinned
    # 0/1 corner pattern (the cut [0, 1] inputs pin at both ends).
    resolved: Dict[tuple, Program] = {}
    for gate_name in network.levelize():
        gate = network.gates[gate_name]
        pins = list(gate.connections)
        pin_intervals = {pin: read(gate.connections[pin]) for pin in pins}
        # Point intervals contribute one corner, wide intervals two; the
        # enumeration is exact only if it is complete, so a cell past
        # the budget must widen to [0, 1] (still a certified enclosure)
        # rather than stop mid-walk with a truncated min/max.
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
        corners: List[float] = []
        for corner in itertools.product(*choices):
            corner_probs = dict(zip(pin_intervals.keys(), corner))
            corners.append(output_program(gate, corner_probs, resolved)(corner_probs))
        intervals[gate.output] = Interval(min(corners), max(corners))
    return intervals


def cutting_report(
    network: Network, probs: Mapping[str, float] | float = 0.5
) -> str:
    """Human-readable comparison: bounds vs the point estimators."""
    from .signalprob import (
        exact_signal_probabilities,
        topological_signal_probabilities,
    )

    bounds = cutting_signal_bounds(network, probs)
    topo = topological_signal_probabilities(network, probs)
    lines = [f"cutting-algorithm bounds for {network.name}:"]
    exact = None
    if len(network.inputs) <= 16:
        exact = exact_signal_probabilities(network, probs)
    for net in network.nets():
        interval = bounds[net]
        row = (
            f"  {net:<12} [{interval.low:.4f}, {interval.high:.4f}] "
            f"topo {topo[net]:.4f}"
        )
        if exact is not None:
            inside = interval.contains(exact[net])
            row += f" exact {exact[net]:.4f} {'ok' if inside else 'VIOLATION'}"
        lines.append(row)
    return "\n".join(lines)
