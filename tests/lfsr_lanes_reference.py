"""Reference LFSR lane-word generator: the oracle ``Lfsr.rows`` is held
to.

This is the word-jump generator the register sources used before they
cut big-int rows from one doubled serial stream per register: each
word-boundary state is chained through the 64-step GF(2) transition
matrix, then a numpy loop clocks all boundary states 64 times and reads
each register bit into its lane.  It shares only the matrix helpers of
:mod:`repro.selftest.lfsr` (``Lfsr.jump`` still uses them).

A plain module, not ``conftest.py``, like ``words_reference``; the
stream benchmark (``benchmarks/bench_perf_stream.py``) races it as the
old generator.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.selftest.lfsr import Lfsr, _matrix_apply, _matrix_power, _transition_matrix
from repro.simulate.vector import unpack_words

_JUMP: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}


def reference_lane_words(lfsr, width: int, n_words: int) -> np.ndarray:
    """``width`` rows of ``n_words`` uint64 lane words by the word-jump
    path (bit ``k`` of word ``w`` is pattern ``w*64 + k``); advances
    ``lfsr`` ``64*n_words`` clocks."""
    if width > lfsr.degree:
        raise ValueError(
            f"cannot draw {width} bits from a degree-{lfsr.degree} LFSR"
        )
    words = np.zeros((width, n_words), dtype=np.uint64)
    if n_words == 0:
        return words
    key = (lfsr.degree, lfsr.taps)
    if key not in _JUMP:
        _JUMP[key] = _matrix_power(_transition_matrix(*key), 64)
    jump = _JUMP[key]
    boundaries = np.empty(n_words, dtype=np.uint64)
    state = lfsr.state
    for w in range(n_words):
        boundaries[w] = state
        state = _matrix_apply(jump, state)
    tap_mask = np.uint64(sum(1 << (t - 1) for t in lfsr.taps))
    mask = np.uint64((1 << lfsr.degree) - 1)
    one = np.uint64(1)
    rows = np.arange(width, dtype=np.uint64)[:, None]
    s = boundaries
    for k in range(64):
        t = s & tap_mask
        for shift in (32, 16, 8, 4, 2, 1):
            t ^= t >> np.uint64(shift)
        feedback = t & one
        s = ((s << one) | feedback) & mask
        words |= ((s[None, :] >> rows) & one) << np.uint64(k)
    lfsr.state = int(s[-1])
    return words


def reference_bank_lane_words(bank, n_words: int) -> np.ndarray:
    """Every member's :func:`reference_lane_words`, trimmed to the bank width."""
    blocks = [
        reference_lane_words(member, member.degree, n_words)
        for member in bank.members
    ]
    return np.vstack(blocks)[: bank.width]


def reference_rows(lfsr, count: int) -> List[int]:
    """``lfsr.rows(count)`` by the word-jump path: whole lane words from
    a copy of the register, cut to ``count`` patterns by
    ``unpack_words``; ``lfsr`` then advances ``count`` clocks through
    ``Lfsr.jump``."""
    copy = Lfsr(lfsr.degree, seed=lfsr.state, taps=lfsr.taps)
    words = reference_lane_words(copy, lfsr.degree, -(-count // 64))
    lfsr.jump(count)
    return [unpack_words(row, count) for row in words]


def reference_bank_rows(bank, count: int) -> List[int]:
    """``bank.rows(count)`` through :func:`reference_rows`."""
    rows: List[int] = []
    for member in bank.members:
        rows.extend(reference_rows(member, count))
    return rows[: bank.width]
