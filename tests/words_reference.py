"""Reference detection words: the oracle every words test compares to.

One full re-simulation of the faulty network per fault over the whole
pattern set, through :meth:`Network.output_bits` alone - no engine, no
kernel, no window loop - so the reference stays independent of the
words loop (``repro.simulate.faultsim.collect_words``) under test.

A plain module, not ``conftest.py``, for the same reason as
``engine_test_utils``.
"""

from __future__ import annotations

from typing import List


def reference_difference_words(network, patterns, faults) -> List[int]:
    """One whole-set detection word per fault, in fault-list order:
    bit k is set when pattern k tells the faulty network from the good
    one at some primary output."""
    good = network.output_bits(patterns.env, patterns.mask)
    words = []
    for fault in faults:
        faulty = network.output_bits(patterns.env, patterns.mask, fault)
        word = 0
        for net in network.outputs:
            word |= good[net] ^ faulty[net]
        words.append(word)
    return words
