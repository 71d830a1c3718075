"""Streaming pattern sources - lane-native BIST generators as engines
see them.

The fixed-length path materialises a whole
:class:`~repro.simulate.logicsim.PatternSet` up front.  A
:class:`PatternSource` instead *generates* patterns on demand in uint64
lane-word blocks (the :func:`~repro.simulate.logicsim.pack_words`
layout), so effectively-infinite BIST sequences - LFSR m-sequences,
weighted NLFSR streams - never exist in memory all at once.

Sources satisfy the streaming seam every engine already consumes:
``.names``, ``.count``, ``.windows(width)`` yielding ``(start,
PatternSet)`` pairs with the exact :meth:`PatternSet.windows` contract,
and ``.slice(start, stop)`` for random access (pool workers slice
their own windows).  Each block's lane words are cut from one doubled
serial stream per register (``Lfsr.lane_words``, O(log n) big-int
operations); a window that follows the previous one resumes its
advanced bank, and any other window jumps a fresh bank to its position
in O(degree^2 log n) through the GF(2) jump matrix of ``Lfsr.jump`` -
sources are functionally stateless, so fork-pool workers iterating the
same source from zero stay bit-identical to the single-process path.

A small registry mirrors the engine registry's error contract: resolve
names through :func:`get_source` / :func:`make_source`, list them with
:func:`available_sources`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..selftest.lfsr import BANK_DEGREE, LfsrBank
from ..selftest.nlfsr import WeightedPatternGenerator
from .logicsim import WORD_BITS, LanePatternSet, PatternSet, lane_window_rows

__all__ = [
    "PatternSource",
    "LfsrSource",
    "WeightedSource",
    "RandomSource",
    "PatternSetSource",
    "available_sources",
    "get_source",
    "make_source",
]


class PatternSource:
    """Base class: a finite-budget stream of patterns over named inputs.

    Subclasses implement :meth:`_lane_window` - materialise ``n_words``
    lane words starting at word ``first_word``, one row per input in
    ``names`` order - and the base class provides the ``PatternSet``
    window/slice protocol on top, bit-exact at non-word-aligned
    boundaries.
    """

    def __init__(self, names: Sequence[str], count: int):
        if count < 0:
            raise ValueError(f"pattern budget must be >= 0, got {count}")
        self.names: Tuple[str, ...] = tuple(names)
        self.count = count

    # -- subclass surface --------------------------------------------------------

    def _lane_window(self, first_word: int, n_words: int) -> "np.ndarray":
        raise NotImplementedError

    # -- the streaming seam ------------------------------------------------------

    def slice(self, start: int, stop: int) -> PatternSet:
        """Patterns ``start`` (inclusive) to ``stop`` (exclusive), materialised.

        The result is a :class:`~repro.simulate.logicsim.LanePatternSet`
        carrying the generated lane words as-is: the vector engine
        consumes the rows directly, and the big-int ``env`` only exists
        if a serial engine asks for it.
        """
        if not 0 <= start <= stop <= self.count:
            raise ValueError(
                f"bad slice [{start}, {stop}) of a {self.count}-pattern source"
            )
        width = stop - start
        if width == 0:
            return PatternSet(self.names, {name: 0 for name in self.names}, 0)
        first = start // WORD_BITS
        last = (stop + WORD_BITS - 1) // WORD_BITS
        words = self._lane_window(first, last - first)
        offset = start - first * WORD_BITS
        return LanePatternSet(
            self.names, lane_window_rows(words, offset, width), width
        )

    def windows(self, width: int) -> Iterator[Tuple[int, PatternSet]]:
        """``(start, window)`` pairs - the :meth:`PatternSet.windows` contract."""
        if width < 1:
            raise ValueError(f"window width must be >= 1, got {width}")
        if width >= self.count:
            yield 0, self.slice(0, self.count)
            return
        for start in range(0, self.count, width):
            yield start, self.slice(start, min(start + width, self.count))

    def materialise(self) -> PatternSet:
        """The whole budget as one ``PatternSet`` (tests, small budgets)."""
        return self.slice(0, self.count)


class LfsrSource(PatternSource):
    """Uniform pseudo-random patterns from a ganged LFSR bank.

    Pattern ``p`` is the bank register state after ``p + 1`` clocks -
    identical to the serial ``LfsrBank.patterns`` stream, generated 64
    patterns per lane word.

    Sequential consumers (the streaming windows of
    :func:`~repro.simulate.faultsim.streaming_coverage`) resume the
    advanced register bank from the previous window instead of
    rebuilding it and re-deriving the GF(2) jump from position zero
    every window; a non-sequential ``slice`` (pool workers jumping
    to their own windows) falls back to the positional jump, so random
    access stays exact.
    """

    def __init__(
        self,
        names: Sequence[str],
        count: int,
        seed: int = 1,
        degree: int = BANK_DEGREE,
    ):
        super().__init__(names, count)
        self.seed = seed
        self.degree = degree
        self._resume: Optional[Tuple[int, LfsrBank]] = None
        if self.names:
            LfsrBank(len(self.names), seed=seed, degree=degree)  # validate early

    def _lane_window(self, first_word: int, n_words: int) -> "np.ndarray":
        if not self.names:
            return np.zeros((0, n_words), dtype=np.uint64)
        resume = self._resume
        if resume is not None and resume[0] == first_word:
            bank = resume[1]
        else:
            bank = LfsrBank(len(self.names), seed=self.seed, degree=self.degree)
            bank.jump(first_word * WORD_BITS)
        words = bank.lane_words(n_words)  # advances the bank n_words*64 clocks
        self._resume = (first_word + n_words, bank)
        return words


class WeightedSource(PatternSource):
    """Weighted pseudo-random patterns from the NLFSR generator.

    Probabilities map input name to P(input = 1); inputs not mentioned
    default to 0.5.  Each probability is realised as the closest dyadic
    weight the NLFSR hardware model supports (see
    :mod:`repro.selftest.nlfsr`); :meth:`realised_probabilities`
    reports what was committed.
    """

    def __init__(
        self,
        names: Sequence[str],
        count: int,
        probabilities: Optional[Mapping[str, float]] = None,
        seed: int = 1,
    ):
        super().__init__(names, count)
        probabilities = probabilities or {}
        self.probabilities: Dict[str, float] = {
            name: probabilities.get(name, 0.5) for name in self.names
        }
        self.seed = seed
        if self.names:
            self._generator()  # validate the weights early

    def _generator(self) -> WeightedPatternGenerator:
        return WeightedPatternGenerator(self.probabilities, seed=self.seed)

    def realised_probabilities(self) -> Dict[str, float]:
        if not self.names:
            return {}
        return self._generator().realised_probabilities()

    def _lane_window(self, first_word: int, n_words: int) -> "np.ndarray":
        if not self.names:
            return np.zeros((0, n_words), dtype=np.uint64)
        generator = self._generator()
        generator.jump(first_word * WORD_BITS)
        return generator.lane_words(n_words)


class RandomSource(PatternSource):
    """Uniform/weighted patterns from ``PatternSet.random``.

    The numpy Bernoulli sampler has no cheap position jump, so the
    first window materialises the whole budget once and later windows
    slice it - this source keeps the registry complete (bit-identical
    to the classic fixed-length path), not memory-bounded.
    """

    def __init__(
        self,
        names: Sequence[str],
        count: int,
        seed: int = 1986,
        probabilities: Optional[Mapping[str, float]] = None,
    ):
        super().__init__(names, count)
        self.seed = seed
        self.probabilities = dict(probabilities) if probabilities else None
        self._materialised: Optional[PatternSet] = None

    def _backing_set(self) -> PatternSet:
        if self._materialised is None:
            self._materialised = PatternSet.random(
                self.names, self.count, seed=self.seed,
                probabilities=self.probabilities,
            )
        return self._materialised

    def slice(self, start: int, stop: int) -> PatternSet:
        if not 0 <= start <= stop <= self.count:
            raise ValueError(
                f"bad slice [{start}, {stop}) of a {self.count}-pattern source"
            )
        return self._backing_set().slice(start, stop)


class PatternSetSource(PatternSource):
    """An existing ``PatternSet`` behind the source protocol."""

    def __init__(self, patterns: PatternSet):
        super().__init__(patterns.names, patterns.count)
        self.patterns = patterns

    def slice(self, start: int, stop: int) -> PatternSet:
        return self.patterns.slice(start, stop)


# --- registry -------------------------------------------------------------------


def _reject_probabilities(name: str, probabilities) -> None:
    """Sources whose bits are fixed by construction must not silently
    drop a requested distribution - same explicitness as the registry
    errors."""
    if probabilities is not None:
        raise ValueError(
            f"pattern source {name!r} does not honour probabilities; "
            "sources honouring probabilities: random, weighted"
        )


def _make_lfsr(names, count, seed, probabilities, patterns):
    _reject_probabilities("lfsr", probabilities)
    return LfsrSource(names, count, seed=seed)


def _make_weighted(names, count, seed, probabilities, patterns):
    return WeightedSource(names, count, probabilities=probabilities, seed=seed)


def _make_random(names, count, seed, probabilities, patterns):
    return RandomSource(names, count, seed=seed, probabilities=probabilities)


def _make_set(names, count, seed, probabilities, patterns):
    _reject_probabilities("set", probabilities)
    if patterns is None:
        raise ValueError("pattern source 'set' needs an explicit pattern set")
    return PatternSetSource(patterns)


_SOURCES: Dict[str, Callable] = {
    "lfsr": _make_lfsr,
    "weighted": _make_weighted,
    "random": _make_random,
    "set": _make_set,
}


def get_source(name: str) -> Callable:
    """Resolve a source name, with the available names in the error."""
    factory = _SOURCES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown pattern source {name!r}; available pattern sources: "
            + ", ".join(sorted(_SOURCES))
        )
    return factory


def available_sources() -> Tuple[str, ...]:
    """The registered pattern-source names, sorted."""
    return tuple(sorted(_SOURCES))


def make_source(
    name: str,
    names: Sequence[str],
    count: int,
    *,
    seed: int = 1,
    probabilities: Optional[Mapping[str, float]] = None,
    patterns: Optional[PatternSet] = None,
) -> PatternSource:
    """Construct a registered source by name.

    ``probabilities`` is honoured by the ``weighted`` and ``random``
    sources; the uniform-by-construction sources (``lfsr``, ``set``)
    raise ``ValueError`` rather than silently simulating a distribution
    the caller did not get.  ``patterns`` is required by - and only
    consulted for - the ``set`` adapter, whose own names and count
    override the arguments.
    """
    factory = get_source(name)
    return factory(names, count, seed, probabilities, patterns)
