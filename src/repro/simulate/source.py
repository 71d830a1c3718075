"""Streaming pattern sources - BIST generators as engines see them.

The fixed-length path materialises a whole
:class:`~repro.simulate.logicsim.PatternSet` up front.  A
:class:`PatternSource` instead *generates* patterns on demand, one
window at a time, so effectively-infinite BIST sequences - LFSR
m-sequences, weighted NLFSR streams - never exist in memory all at
once.

Sources satisfy the streaming seam every engine already consumes:
``.names``, ``.count``, ``.windows(width)`` yielding ``(start,
PatternSet)`` pairs with the exact :meth:`PatternSet.windows` contract,
and ``.slice(start, stop)`` for random access (pool workers slice
their own windows).  Every window is a plain big-int column
``PatternSet``: the register sources cut its rows from one doubled
serial stream per register (``Lfsr.rows``, O(log n) big-int
operations).  A window that starts where the previous one stopped
resumes the advanced generator, and any other window jumps a fresh
generator to its position in O(degree^2 log n) through the GF(2) jump
matrix of ``Lfsr.jump`` - sources are functionally stateless, so
fork-pool workers iterating the same source from zero stay
bit-identical to the single-process path.

A small registry mirrors the engine registry's error contract: resolve
names through :func:`get_source` / :func:`make_source`, list them with
:func:`available_sources`.
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..selftest.lfsr import BANK_DEGREE, LfsrBank
from ..selftest.nlfsr import WeightedPatternGenerator
from .logicsim import PatternSet

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


def _check_budget(count) -> None:
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"pattern budget must be an int >= 0, got {count!r}")
    if count < 0:
        raise ValueError(f"pattern budget must be >= 0, got {count}")


class PatternSource:
    """Base class: a finite-budget stream of patterns over named inputs.

    Register sources implement :meth:`_generator` - a fresh generator
    at pattern 0 with ``jump(steps)`` and ``rows(count)``, one row per
    input in ``names`` order - and the base class provides the
    ``PatternSet`` window/slice protocol on top.  Sources without a
    register override :meth:`slice`.
    """

    def __init__(self, names: Sequence[str], count: int):
        _check_budget(count)
        self.names: Tuple[str, ...] = tuple(names)
        self.count = count
        self._resume: Optional[Tuple[int, object]] = None

    # -- subclass surface --------------------------------------------------------

    def _generator(self):
        raise NotImplementedError

    # -- the streaming seam ------------------------------------------------------

    def slice(self, start: int, stop: int) -> PatternSet:
        """Patterns ``start`` (inclusive) to ``stop`` (exclusive), materialised.

        The generator is kept at the pattern index it reached, so a
        slice starting at the previous one's ``stop`` resumes it; any
        other start jumps a fresh generator to ``start``.
        """
        if not 0 <= start <= stop <= self.count:
            raise ValueError(
                f"bad slice [{start}, {stop}) of a {self.count}-pattern source"
            )
        if not self.names:
            return PatternSet((), {}, stop - start)
        resume = self._resume
        if resume is not None and resume[0] == start:
            generator = resume[1]
        else:
            generator = self._generator()
            generator.jump(start)
        rows = generator.rows(stop - start)  # advances to pattern ``stop``
        self._resume = (stop, generator)
        return PatternSet(self.names, dict(zip(self.names, rows)), stop - start)

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
    identical to the serial ``LfsrBank.patterns`` stream.
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
        if self.names:
            self._generator()  # validate early

    def _generator(self) -> LfsrBank:
        return LfsrBank(len(self.names), seed=self.seed, degree=self.degree)


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
    _check_budget(count)  # overridden by the set's own count, but still a budget
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
