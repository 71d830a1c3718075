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

Workers run the engine's own fault pass (:mod:`repro.simulate.registry`),
built once in the parent so the forked workers inherit it warm, and
stream the engine window
(:func:`repro.simulate.faultsim.engine_window`).  There is one pooled
path, :func:`pooled_outcomes`: it drives the one window loop,
:func:`repro.simulate.faultsim.drive_windows`, in the parent with
:func:`_pool_kernel` as its block kernel - one ``pool.map`` per block,
each worker reducing the engine's pass over its shard of the live
faults (:func:`repro.simulate.faultsim.block_detections`).  Full
counts, first detection, streaming sessions and the Monte-Carlo
detection estimator all take that one path, on the grid
:func:`~repro.simulate.faultsim.windowed_outcomes` works out.

Streaming windows are also an algorithmic win on their own: a fault
whose faulty gate function agrees with the good word on every pattern
of a window converges after a *single* gate evaluation, so
rarely-activated faults skip almost all of their fanout-cone work in
inactive windows.

Workers are forked, so the patterns, the fault pass and the artifact
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
from .faultsim import FaultOutcome, block_detections, drive_windows
from .logicsim import PatternSet
from .schedule import partition_faults

__all__ = ["DEFAULT_WINDOW", "MIN_POOL_WORK", "pooled_outcomes"]

DEFAULT_WINDOW = 1 << 18
"""Patterns per streaming window on every engine, read at call time by
:func:`repro.simulate.faultsim.engine_window`; bounds every pass's
width (256 Ki patterns = 32 KiB per net, big-int or lane row, small
enough to stay cache-resident,
wide enough to amortise the per-window interpreter overhead - measured
the sweet spot on the shard benchmark's 4M-pattern workload)."""

MIN_POOL_WORK = 1 << 25
"""Minimum patterns x faults (difference-word bits) before a worker
pool pays for itself.  Below this the fork/teardown cost dominates -
e.g. the Monte-Carlo estimators' few-thousand-sample calls inside the
optimizer's coordinate search - so smaller workloads run in-process
(same results, no pool)."""


# -- the worker pool -------------------------------------------------------------------

_WORKER: Optional[Tuple] = None
"""A pool worker's context, set by :func:`_init_worker` inside the
worker process only - the parent hands it over through the pool's
``initargs`` and never touches module state, so concurrent pooled runs
cannot clobber each other.  It is ``(patterns, passes, width)``: the
pattern set, the engine's fault pass and the width each block is
streamed through.  Workers are forked, so the context is inherited
copy-on-write, never pickled - including the pass's warm programs and
the store the parent resolved."""


def _init_worker(*context) -> None:
    global _WORKER
    _WORKER = context


def _block_worker(task: Tuple[int, int, List[int]]):
    """One block ``(start, stop, fault positions)`` of one live shard,
    streamed through the engine's fault pass ``stream`` patterns at a
    time: one (first index, total count) per detected position."""
    start, stop, positions = task
    patterns, passes, stream = _WORKER
    firsts: Dict[int, int] = {}
    counts: Dict[int, int] = {}
    for offset in range(start, stop, stream):
        chunk = patterns.slice(offset, min(offset + stream, stop))
        detected = block_detections(passes, offset, chunk, positions)
        for position, first, count in zip(*detected):
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


def _pool_kernel(pool, network, faults, shards, jobs, cache):
    """The pool's block kernel: one ``pool.map`` per driver block.

    ``shards`` partitions the whole fault list; a block re-partitions
    the *live* faults across the pool only once faults have retired
    (shards shrink as they do), and the workers run the engine's block
    pass on their shard of the block (:func:`_block_worker`)."""
    partition = [len(faults), shards]

    def detect(start, chunk, active):
        # ``active`` only ever shrinks, so an unchanged size is an
        # unchanged live set.
        if len(active) != partition[0]:
            live = [faults[position] for position in active]
            partition[:] = len(active), partition_faults(
                network, live, jobs, cache=cache
            )
        tasks = [
            (start, start + chunk.count, [active[i] for i in shard])
            for shard in partition[1]
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
    grid: int,
    passes,
    weights: Sequence[int],
    on_window,
    width: int,
    jobs: int,
    cache,
) -> Optional[List[FaultOutcome]]:
    """:func:`repro.simulate.faultsim.drive_windows` over a pool kernel.

    The pooled half of :func:`repro.simulate.faultsim.windowed_outcomes`,
    on the ``grid`` it works out: ``passes`` is the engine's fault pass,
    built in the parent so the forked workers inherit it warm, and both
    driver modes run unchanged over :func:`_pool_kernel`.  A counting
    run is one block - a barrier per window would idle every worker
    until the slowest shard caught up - that each worker streams
    through the engine's ``width``-wide windows; a retiring run keeps
    the driver's speculative blocks, capped at ``width``, on ``grid``.
    The driver walks a :class:`_Span`: the workers slice the real
    patterns, so the parent never generates them.  Returns ``None``
    when pooling is pointless or unavailable, signalling the caller to
    run in-process; a ``None`` return means ``on_window`` was never
    invoked.
    """
    shards = _pool_shards(network, patterns, faults, jobs, cache)
    if shards is None:
        return None
    if on_window is None:
        grid = max(patterns.count, 1)
    with _executor(len(shards), (patterns, passes, width)) as pool:
        return drive_windows(
            _Span(patterns.count), len(faults), grid,
            _pool_kernel(pool, network, faults, shards, jobs, cache),
            weights, on_window, width,
        )
