"""Non-linear feedback shift registers for *weighted* random patterns.

Reference [11] (Kunzmann & Wunderlich, "Design automation of random
testable circuits") adds combinational logic to an LFSR so that each
produced bit is 1 with a probability other than 1/2 - the hardware
realisation of PROTEST's optimized input signal probabilities.

ANDing ``k`` statistically independent LFSR cells yields probability
``2^-k``; an inverter on top yields ``1 - 2^-k``.  The generator below
maps each requested probability to the closest such dyadic weight and
reports the realised value, mirroring what the synthesis tool would
commit to silicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

from .lfsr import BANK_DEGREE, LfsrBank


@dataclass(frozen=True)
class WeightAssignment:
    """How one output bit is derived from the LFSR cells."""

    name: str
    cells: Tuple[int, ...]  # LFSR cell indices ANDed together
    inverted: bool
    realised_probability: float


def closest_dyadic_weight(probability: float, max_k: int = 6) -> Tuple[int, bool, float]:
    """(k, inverted, realised) with realised = 2^-k or 1 - 2^-k."""
    if not 0.0 < probability < 1.0:
        raise ValueError(f"weight must be strictly between 0 and 1, got {probability}")
    best: Tuple[int, bool, float] | None = None
    for k in range(1, max_k + 1):
        for inverted in (False, True):
            realised = (1.0 - 2.0 ** -k) if inverted else 2.0 ** -k
            if best is None or abs(realised - probability) < abs(best[2] - probability):
                best = (k, inverted, realised)
    assert best is not None
    return best


class WeightedPatternGenerator:
    """An NLFSR producing one weighted bit per circuit input.

    Each output uses its own disjoint group of LFSR cells so the bits
    are (ideally) independent.  Wide circuits need more weighted bits
    than one register provides, so the cells live in an
    :class:`~repro.selftest.lfsr.LfsrBank` of degree-``BANK_DEGREE``
    registers with different seeds and (implicitly) different phases -
    exactly what a layout would do with several parallel LFSRs.
    """

    def __init__(
        self,
        probabilities: Mapping[str, float],
        seed: int = 1,
        max_k: int = 6,
    ):
        self.assignments: List[WeightAssignment] = []
        cell = 0
        for name in probabilities:
            k, inverted, realised = closest_dyadic_weight(probabilities[name], max_k)
            # Keep a group inside one register: skip to the next one
            # when a group would straddle the boundary.
            if (cell % BANK_DEGREE) + k > BANK_DEGREE:
                cell += BANK_DEGREE - (cell % BANK_DEGREE)
            self.assignments.append(
                WeightAssignment(
                    name=name,
                    cells=tuple(range(cell, cell + k)),
                    inverted=inverted,
                    realised_probability=realised,
                )
            )
            cell += k
        registers = max(1, -(-max(2, cell) // BANK_DEGREE))
        self.bank = LfsrBank(registers * BANK_DEGREE, seed=seed)

    def realised_probabilities(self) -> Dict[str, float]:
        return {a.name: a.realised_probability for a in self.assignments}

    def pattern(self) -> Dict[str, int]:
        """One weighted pattern (clocks every register once)."""
        self.bank.step()
        cells = self.bank.bits()
        result: Dict[str, int] = {}
        for assignment in self.assignments:
            value = 1
            for cell in assignment.cells:
                value &= cells[cell]
            if assignment.inverted:
                value ^= 1
            result[assignment.name] = value
        return result

    def patterns(self, count: int) -> Iterator[Dict[str, int]]:
        for _ in range(count):
            yield self.pattern()

    def reset(self) -> None:
        self.bank.reset()

    def jump(self, steps: int) -> None:
        """Advance every register ``steps`` clocks without producing patterns."""
        self.bank.jump(steps)

    def rows(self, count: int) -> List[int]:
        """The next ``count`` patterns as one ``count``-bit int per
        assignment, in assignment order.

        Bit ``p`` of a row is the weighted bit of pattern ``p`` - the
        same step-then-read phase as the serial :meth:`pattern` path.
        Every register advances ``count`` clocks.
        """
        cells = self.bank.rows(count)
        mask = (1 << count) - 1
        rows: List[int] = []
        for assignment in self.assignments:
            value = mask
            for cell in assignment.cells:
                value &= cells[cell]
            if assignment.inverted:
                value ^= mask
            rows.append(value)
        return rows

    def empirical_probabilities(self, count: int = 4096) -> Dict[str, float]:
        """Measured 1-frequencies over a run (validates the weights)."""
        totals = {a.name: 0 for a in self.assignments}
        for pattern in self.patterns(count):
            for name, bit in pattern.items():
                totals[name] += bit
        return {name: totals[name] / count for name in totals}
