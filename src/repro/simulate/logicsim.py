"""True-value logic simulation and pattern containers.

Patterns are stored column-wise: one Python big-int per primary input,
bit *k* = value under pattern *k*.  A single network evaluation then
simulates every pattern at once - the "static fault simulation is
sufficient" workhorse of Section 5.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..logic.truthtable import minterm_column

_WEIGHTED_CHUNK = 1 << 16
"""Patterns drawn per vectorized sampling round for weighted inputs."""


def _weighted_bits(seed: int, count: int, p: float) -> int:
    """``count`` Bernoulli(p) bits as a big-int, sampled in vectorized chunks."""
    rng = np.random.default_rng(seed)
    bits = 0
    offset = 0
    while offset < count:
        width = min(_WEIGHTED_CHUNK, count - offset)
        drawn = rng.random(width) < p
        packed = np.packbits(drawn, bitorder="little").tobytes()
        bits |= int.from_bytes(packed, "little") << offset
        offset += width
    return bits


@dataclass
class PatternSet:
    """A set of input patterns in bit-parallel (column) form."""

    names: Tuple[str, ...]
    env: Dict[str, int]
    count: int

    @property
    def mask(self) -> int:
        return (1 << self.count) - 1

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_vectors(
        cls, names: Sequence[str], vectors: Iterable[Mapping[str, int]]
    ) -> "PatternSet":
        names = tuple(names)
        env = {name: 0 for name in names}
        count = 0
        for vector in vectors:
            for name in names:
                if vector[name]:
                    env[name] |= 1 << count
            count += 1
        return cls(names, env, count)

    @classmethod
    def exhaustive(cls, names: Sequence[str]) -> "PatternSet":
        """All 2^n input combinations (pattern k = binary k, first name MSB)."""
        names = tuple(names)
        n = len(names)
        if n > 24:
            raise ValueError(f"exhaustive set over {n} inputs is unreasonable")
        env = {name: minterm_column(n, position) for position, name in enumerate(names)}
        return cls(names, env, 1 << n)

    @classmethod
    def random(
        cls,
        names: Sequence[str],
        count: int,
        seed: int = 1986,
        probabilities: Optional[Mapping[str, float]] = None,
    ) -> "PatternSet":
        """Weighted random patterns.

        ``probabilities`` maps input name to P(input = 1); default 0.5
        everywhere - "it is usually 0.5" (Section 5).  This is the
        random pattern generator PROTEST drives with its optimized
        distributions.  ``count`` must be an ``int >= 0``.
        """
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        names = tuple(names)
        rng = random.Random(seed)
        probabilities = probabilities or {}
        env: Dict[str, int] = {}
        mask = (1 << count) - 1
        for name in names:
            p = probabilities.get(name, 0.5)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability of {name!r} must be in [0,1], got {p}")
            if p == 0.5:
                # One getrandbits call per input instead of one rng.random()
                # call per (input, pattern).
                env[name] = rng.getrandbits(count) if count else 0
            elif p <= 0.0:
                env[name] = 0
            elif p >= 1.0:
                env[name] = mask
            else:
                env[name] = _weighted_bits(rng.getrandbits(64), count, p)
        return cls(names, env, count)

    # -- access ----------------------------------------------------------------------

    def vector(self, index: int) -> Dict[str, int]:
        if not 0 <= index < self.count:
            raise IndexError(f"pattern index {index} out of range")
        return {name: (self.env[name] >> index) & 1 for name in self.names}

    def vectors(self) -> Iterator[Dict[str, int]]:
        for index in range(self.count):
            yield self.vector(index)

    def concat(self, other: "PatternSet") -> "PatternSet":
        if self.names != other.names:
            raise ValueError("pattern sets over different inputs")
        env = {
            name: self.env[name] | (other.env[name] << self.count)
            for name in self.names
        }
        return PatternSet(self.names, env, self.count + other.count)

    def repeat(self, times: int) -> "PatternSet":
        """The set applied ``times`` times in sequence (the paper applies
        a deterministic test set *twice* to establish A2)."""
        if times < 0:
            raise ValueError(f"cannot repeat a pattern set {times} times")
        if times == 0:
            return PatternSet(self.names, {name: 0 for name in self.names}, 0)
        result = self
        for _ in range(times - 1):
            result = result.concat(self)
        return result

    def slice(self, start: int, stop: int) -> "PatternSet":
        """Patterns ``start`` (inclusive) to ``stop`` (exclusive)."""
        if not 0 <= start <= stop <= self.count:
            raise ValueError(
                f"bad slice [{start}, {stop}) of a {self.count}-pattern set"
            )
        if start == 0 and stop == self.count:
            return self  # whole-set slice: no point copying the env
        width = stop - start
        chunk_mask = (1 << width) - 1
        env = {name: (bits >> start) & chunk_mask for name, bits in self.env.items()}
        return PatternSet(self.names, env, width)

    def windows(self, width: int) -> Iterator[Tuple[int, "PatternSet"]]:
        """Stream the set as ``(start, window)`` pairs of at most ``width``
        patterns (the last window may be narrower).

        This is the bounded-memory substrate of the streaming engines: a
        consumer touching one window at a time holds big-ints of
        ``width`` bits instead of ``count`` bits, and accumulating a
        per-window difference word ``w_k`` as ``sum(w_k << start_k)``
        reproduces the whole-set word bit-exactly.

        A width at or beyond the set's size yields exactly one window -
        the whole set itself (this includes the empty set); no empty
        tail window is ever produced.
        """
        if width < 1:
            raise ValueError(f"window width must be >= 1, got {width}")
        if width >= self.count:
            yield 0, self
            return
        for start in range(0, self.count, width):
            yield start, self.slice(start, min(start + width, self.count))


def simulate(network, patterns: PatternSet) -> Dict[str, int]:
    """Fault-free output bit-vectors of a network under a pattern set."""
    from .compiled import compile_network

    return compile_network(network).output_bits(patterns.env, patterns.mask)


def simulate_all_nets(network, patterns: PatternSet) -> Dict[str, int]:
    """Bit-vectors of *every* net (used by PROTEST's exact estimators)."""
    from .compiled import compile_network

    return compile_network(network).evaluate_bits(patterns.env, patterns.mask)
