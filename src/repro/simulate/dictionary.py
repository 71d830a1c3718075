"""Fault dictionaries and diagnosis.

Once Section 3 guarantees that every physical fault of a dynamic MOS
circuit behaves as a *combinational* fault class, the classical fault
dictionary works again: simulate every class against a test set once,
store the output syndromes, and diagnose silicon by syndrome lookup.
(For static CMOS the paper's Fig. 1 pathology breaks this too - the
faulty responses depend on pattern order.)

A syndrome here is the bit-vector of output discrepancies per pattern,
concatenated over the primary outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.network import Network, NetworkFault
from .faultsim import fault_universe
from .logicsim import PatternSet


@dataclass
class Diagnosis:
    """Result of a syndrome lookup."""

    syndrome: Tuple[int, ...]
    exact_matches: List[str]
    """Fault labels whose stored syndrome equals the observed one."""

    nearest: List[Tuple[str, int]]
    """(label, Hamming distance) of the closest dictionary entries -
    useful when the observation is noisy or the defect is outside the
    modelled universe."""


class FaultDictionary:
    """Precomputed syndrome table for a network and pattern set, one
    entry per fault of the
    :func:`~repro.simulate.faultsim.fault_universe` of ``faults``."""

    def __init__(
        self,
        network: Network,
        patterns: PatternSet,
        faults: Optional[Sequence[NetworkFault]] = None,
    ):
        self.network = network
        self.patterns = patterns
        universe = fault_universe(network, faults)
        self.faults = list(universe.faults)  # the universe is shared
        self.good = network.output_bits(patterns.env, patterns.mask)
        self._syndromes: Dict[str, Tuple[int, ...]] = {}
        for label, fault in zip(universe.labels, self.faults):
            bad = network.output_bits(patterns.env, patterns.mask, fault)
            self._syndromes[label] = tuple(
                self.good[net] ^ bad[net] for net in network.outputs
            )

    # -- queries -----------------------------------------------------------

    def syndrome_of(self, label: str) -> Tuple[int, ...]:
        return self._syndromes[label]

    def distinguishable_pairs(self) -> Tuple[int, int]:
        """(distinguished, total) over all fault pairs - the dictionary's
        diagnostic resolution under this pattern set."""
        labels = list(self._syndromes)
        distinguished = 0
        total = 0
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                total += 1
                if self._syndromes[labels[i]] != self._syndromes[labels[j]]:
                    distinguished += 1
        return distinguished, total

    def syndrome_from_responses(self, responses: Mapping[str, int]) -> Tuple[int, ...]:
        """Syndrome of observed output bit-vectors (same packing as the
        pattern set)."""
        return tuple(
            self.good[net] ^ responses[net] for net in self.network.outputs
        )

    def diagnose(self, responses: Mapping[str, int], nearest: int = 3) -> Diagnosis:
        """Look up observed responses; exact matches plus nearest entries."""
        syndrome = self.syndrome_from_responses(responses)
        exact = [
            label for label, stored in self._syndromes.items() if stored == syndrome
        ]
        ranked = sorted(
            (
                (
                    label,
                    sum(
                        (a ^ b).bit_count()
                        for a, b in zip(stored, syndrome)
                    ),
                )
                for label, stored in self._syndromes.items()
            ),
            key=lambda item: item[1],
        )
        return Diagnosis(
            syndrome=syndrome, exact_matches=exact, nearest=ranked[:nearest]
        )

    def diagnose_fault(self, fault: NetworkFault, nearest: int = 3) -> Diagnosis:
        """Convenience: simulate a fault and diagnose its own responses."""
        responses = self.network.output_bits(
            self.patterns.env, self.patterns.mask, fault
        )
        return self.diagnose(responses, nearest)
