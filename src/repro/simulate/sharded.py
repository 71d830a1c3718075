"""The worker pool behind ``jobs > 1``: multi-process fault simulation.

Every registered engine (``interpreted``, ``compiled``, ``vector``)
runs in-process when ``jobs`` is ``None`` or 1.  With ``jobs > 1`` it
forks a pool of ``jobs`` worker processes instead - provided the
workload reaches :data:`MIN_POOL_WORK` pattern x fault bits and the
``fork`` start method exists; otherwise the same call runs in-process
(same results, no pool).  The fault list is partitioned into shards by
cost-weighted LPT over fanout-cone sizes
(:func:`repro.simulate.schedule.partition_faults`) and per-fault
results are scattered back to their original list positions, so a
pooled run is bit-identical to the in-process one.

Workers run the engine's own kernels (:mod:`repro.simulate.registry`),
built once in the parent so the forked workers inherit them warm, and
stream the engine's own window (lane or big-int,
:func:`repro.simulate.faultsim.engine_window`):

* **Fault simulation** (:func:`pooled_outcomes`) drives the one window
  loop, :func:`repro.simulate.faultsim.drive_windows`, in the parent
  with :func:`_pool_kernel` as its block kernel: one ``pool.map`` per
  block, each worker running the engine's block kernel on its shard of
  the live faults.  Full counts, first detection, coverage stops and
  streaming sessions all take that one path.
* **Detection words** (:func:`pooled_difference_words`) shard the fault
  list once; each worker runs the one words loop,
  :func:`repro.simulate.faultsim.collect_words`, over its shard.

Streaming windows are also an algorithmic win on their own: a fault
whose faulty gate function agrees with the good word on every pattern
of a window converges after a *single* gate evaluation, so
rarely-activated faults skip almost all of their fanout-cone work in
inactive windows.

Workers are forked, so the patterns, the kernels and the artifact
store the parent pre-warmed are inherited copy-on-write
through the pool's ``initializer``/``initargs`` - never pickled, never
parent module state.  The pool is a
:class:`concurrent.futures.ProcessPoolExecutor`: a worker that raises
re-raises its exception in the parent, and a worker that dies raises
:class:`~concurrent.futures.process.BrokenProcessPool` - a pooled run
fails loudly, it never hangs.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.network import Network, NetworkFault
from .faultsim import FaultOutcome, FaultSimResult, collect_words, drive_windows
from .logicsim import PatternSet
from .schedule import partition_faults

__all__ = [
    "DEFAULT_WINDOW",
    "MIN_POOL_WORK",
    "merge_results",
    "pooled_difference_words",
    "pooled_outcomes",
]

DEFAULT_WINDOW = 1 << 18
"""Patterns per big-int streaming window, read at call time by
:func:`repro.simulate.faultsim.engine_window`; bounds every big-int
pass's width (256 Ki patterns = 32 KiB per net, small enough to stay cache-resident,
wide enough to amortise the per-window interpreter overhead - measured
the sweet spot on the shard benchmark's 4M-pattern workload)."""

MIN_POOL_WORK = 1 << 25
"""Minimum patterns x faults (difference-word bits) before a worker
pool pays for itself.  Below this the fork/teardown cost dominates -
e.g. the Monte-Carlo estimators' few-thousand-sample calls inside the
optimizer's coordinate search - so smaller workloads run in-process
(same results, no pool)."""


# -- sharding and merging --------------------------------------------------------------


def merge_results(parts: Sequence[FaultSimResult]) -> FaultSimResult:
    """Merge per-shard results exactly.

    Shards carry disjoint fault sets, so the merge is a plain union -
    but it *verifies* disjointness: a label occurring in two parts means
    two distinct faults collided on a label (or a shard ran twice), and
    silently keeping one record would corrupt coverage, so it raises.
    (The engine itself now scatters per-fault outcomes back to list
    positions - exact under any partition - but this stays
    the public merge for callers who fault-simulate shards themselves.)
    """
    if not parts:
        raise ValueError("no shard results to merge")
    head = parts[0]
    detected: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    undetected: List[str] = []
    seen: set = set()
    for part in parts:
        if part.network_name != head.network_name:
            raise ValueError(
                f"cannot merge results of different networks: "
                f"{part.network_name!r} vs {head.network_name!r}"
            )
        if part.pattern_count != head.pattern_count:
            raise ValueError(
                f"cannot merge results over different pattern counts: "
                f"{part.pattern_count} vs {head.pattern_count}"
            )
        labels = set(part.detected) | set(part.undetected)
        overlap = labels & seen
        if overlap:
            raise ValueError(
                f"shard results overlap on fault labels {sorted(overlap)[:5]}"
            )
        seen |= labels
        detected.update(part.detected)
        counts.update(part.detection_counts)
        undetected.extend(part.undetected)
    return FaultSimResult(
        network_name=head.network_name,
        pattern_count=head.pattern_count,
        detected=detected,
        detection_counts=counts,
        undetected=undetected,
    )


def _scatter(shard_results, size: int, empty) -> List:
    """Scatter per-shard result lists back to fault-list positions.

    *Verifies* the partition rather than assuming it (the same policy
    :func:`merge_results` applies to labels): a scheduler that assigned
    an index twice or lost one would otherwise silently corrupt
    coverage - ``None``/``0`` are legal per-fault values, so a lost
    index would masquerade as "undetected".
    """
    values: List = [empty] * size
    seen = bytearray(size)
    for indices, part in shard_results:
        if len(part) != len(indices):
            raise ValueError(
                f"shard returned {len(part)} results for {len(indices)} faults"
            )
        for index, value in zip(indices, part):
            if seen[index]:
                raise ValueError(
                    f"schedule partition assigned fault index {index} twice"
                )
            seen[index] = 1
            values[index] = value
    missing = size - sum(seen)
    if missing:
        raise ValueError(f"schedule partition lost {missing} fault indices")
    return values


# -- the worker pool -------------------------------------------------------------------

_WORKER: Optional[Tuple] = None
"""A pool worker's context, set by :func:`_init_worker` inside the
worker process only - the parent hands it over through the pool's
``initargs`` and never touches module state, so concurrent pooled runs
cannot clobber each other.  Both paths pass ``(patterns, kernel,
width)``: the pattern set, the engine's block or words kernel and the
width each block or shard is streamed through.  Workers are forked, so
the context is inherited copy-on-write, never pickled - including the
kernels' warm programs and the store the parent resolved."""


def _init_worker(*context) -> None:
    global _WORKER
    _WORKER = context


def _words_worker(indices: Sequence[int]) -> List[int]:
    """The whole-set words of one shard (any partition the scheduler
    produced, as fault-list indices), in shard order."""
    patterns, words, width = _WORKER
    return collect_words(patterns, words, indices, width)


def _block_worker(task: Tuple[int, int, List[int]]):
    """One block ``(start, stop, fault positions)`` of one live shard,
    streamed through the engine's block kernel ``stream`` patterns at a
    time: one (first index, total count) per detected position."""
    start, stop, positions = task
    patterns, detect, stream = _WORKER
    firsts: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for offset in range(start, stop, stream):
        chunk = patterns.slice(offset, min(offset + stream, stop))
        for position, first, count in zip(*detect(offset, chunk, positions)):
            firsts.setdefault(position, first)
            counts[position] = counts.get(position, 0) + count
    return list(firsts), list(firsts.values()), list(counts.values())


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


def _pool_shards(network, patterns, faults, jobs, cache):
    """The fault shards a ``jobs``-wide pool would run, or ``None`` when
    pooling is pointless (less work than :data:`MIN_POOL_WORK`, one
    shard) or unavailable (no ``fork``).

    The cheap disqualifiers come first: below the threshold (the common
    interactive case) there is no point pricing cones for a partition
    that would be thrown away.
    """
    if patterns.count * len(faults) < MIN_POOL_WORK or _fork_context() is None:
        return None
    shards = partition_faults(network, faults, jobs, cache=cache)
    return shards if len(shards) > 1 else None


def _executor(workers: int, context: Tuple):
    # Imported on first use: the process-pool machinery adds about
    # 0.7 MB to every process that imports the package, and only a
    # pooled run needs it.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_fork_context(),
        initializer=_init_worker,
        initargs=context,
    )


class _Span:
    """``count`` patterns as the pooled driver sees them: positions and
    widths only, with the :meth:`PatternSet.windows` / ``slice``
    contract."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def slice(self, start: int, stop: int) -> "_Span":
        return _Span(stop - start)

    def windows(self, width: int):
        for start in range(0, max(self.count, 1), width):
            yield start, _Span(min(width, self.count - start))


def _pool_kernel(pool, network, faults, jobs, cache):
    """The pool's block kernel: one ``pool.map`` per driver block.

    Each block re-partitions the *live* faults across the pool (shards
    shrink as faults retire) and the workers run the engine's block
    kernel on their shard of the block (:func:`_block_worker`)."""

    def detect(start, chunk, active):
        live = [faults[position] for position in active]
        shards = partition_faults(network, live, jobs, cache=cache)
        tasks = [
            (start, start + chunk.count, [active[i] for i in shard])
            for shard in shards
        ]
        found = ([], [], [])
        for part in pool.map(_block_worker, tasks):
            for merged, column in zip(found, part):
                merged.extend(column)
        return found

    return detect


def pooled_outcomes(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    window: Optional[int],
    detect,
    weights: Sequence[int],
    on_window,
    width: int,
    jobs: int,
    cache,
) -> Optional[List[FaultOutcome]]:
    """:func:`repro.simulate.faultsim.drive_windows` over a pool kernel.

    The pooled half of :func:`repro.simulate.faultsim.windowed_outcomes`:
    ``detect`` is the engine's block kernel, built in the parent so the
    forked workers inherit it warm, and every driver mode (counting,
    retiring, coverage and session stops) runs unchanged over
    :func:`_pool_kernel`.  A counting run is one block - a barrier per
    window would idle every worker until the slowest shard caught up -
    that each worker streams through ``window``-wide windows (the
    engine's ``width`` when ``None``); a retiring run keeps the driver's
    speculative blocks, capped at ``width``, on the ``window`` grid.
    The driver walks a :class:`_Span`: the workers slice the real
    patterns, so the parent never generates them.  Returns ``None``
    when pooling is pointless or unavailable, signalling the caller to
    run in-process; a ``None`` return means ``on_window`` was never
    invoked.
    """
    shards = _pool_shards(network, patterns, faults, jobs, cache)
    if shards is None:
        return None
    window = width if window is None else window
    if window < 1:  # a counting run's driver never sees it as its grid
        raise ValueError(f"window width must be >= 1, got {window}")
    if on_window is None:
        grid, stream = max(patterns.count, 1), window
    else:
        grid, stream = window, width
    with _executor(len(shards), (patterns, detect, stream)) as pool:
        return drive_windows(
            _Span(patterns.count), len(faults), grid,
            _pool_kernel(pool, network, faults, jobs, cache),
            weights, on_window, width,
        )


def pooled_difference_words(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    words,
    width: int,
    jobs: int,
    cache,
) -> Optional[List[int]]:
    """Per-fault detection words computed across a ``jobs``-wide pool.

    ``words`` is the engine's words kernel over ``faults``; each worker
    runs :func:`repro.simulate.faultsim.collect_words` over its shard,
    ``width`` patterns at a time, and the words are scattered back to
    fault order.  Returns
    ``None`` when pooling is pointless or unavailable, like
    :func:`pooled_outcomes`.
    """
    shards = _pool_shards(network, patterns, faults, jobs, cache)
    if shards is None:
        return None
    with _executor(len(shards), (patterns, words, width)) as pool:
        return _scatter(
            zip(shards, pool.map(_words_worker, shards)), len(faults), 0
        )
