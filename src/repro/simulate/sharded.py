"""Sharded multi-process fault simulation with streaming pattern windows.

The scale-out layer on top of the compiled slot-program engine
(:mod:`repro.simulate.compiled`): the fault list is partitioned into
shards across a ``multiprocessing`` worker pool by a named **schedule**
(:mod:`repro.simulate.schedule`: cost-weighted LPT over fanout-cone
sizes by default, contiguous and interleaved stripes as alternatives),
each worker compiles the network once and runs fault-cone-restricted
passes over its shard, and the per-fault outcomes are scattered back to
their original list positions - detection counts, first-detection
indices and fault order are bit-identical to a single-process compiled
run under *every* schedule.

Patterns stream through bounded-memory **windows**
(:meth:`PatternSet.windows`): on the fault-simulation path a worker
never materialises big-ints wider than :data:`DEFAULT_WINDOW` bits, so
million-pattern sequences simulate in constant memory (the
``difference_words`` path necessarily returns whole-set-width words -
see :func:`windowed_difference_words`).  Windowing is also an
algorithmic win on its own: a fault whose faulty gate function agrees with the good word
on every pattern of a window converges after a *single* gate
evaluation, so rarely-activated faults (the random-test-resistant
regime PROTEST exists for) skip almost all of their fanout-cone work in
inactive windows, where the whole-set pass drags full-width words
through the entire cone.

Workers are spawned through the ``fork`` start method so the network,
pattern set and fault list are inherited copy-on-write instead of
pickled; on platforms without ``fork`` the engine transparently falls
back to a single-process windowed run (same results, no scale-out).

The pass inside each worker is an **inner engine**
(``engine="compiled"`` by default): any single-process engine composes
with the shard pool.  ``"sharded+vector"`` registers the composition
with the numpy lane engine of :mod:`repro.simulate.vector` - shards
across processes, lanes within each worker.

Plain runs (and ``stop_at_first_detection``, whose outcomes do not
depend on other faults) stream each shard independently.  A coverage
or session stop is global, so those runs drive the one window loop,
:func:`repro.simulate.faultsim.drive_windows`, in the parent with
:func:`_pool_kernel` as its block kernel: one ``pool.map`` of the
inner engine's block kernel over the re-partitioned live faults per
speculative block.  The pool gets its context through
``initializer``/``initargs``, never through parent module state.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.network import Network, NetworkFault
from .artifacts import resolve_cache
from .compiled import compile_network
from .faultsim import (
    FIRST_DETECTION_CHUNK,
    FaultOutcome,
    FaultSimResult,
    block_cap,
    block_kernel,
    build_result,
    check_injectable,
    check_jobs,
    check_stop_at_coverage,
    dedupe_faults,
    drive_windows,
    resolve_coverage_weights,
    stop_predicate,
    windowed_outcomes,
)
from .logicsim import PatternSet
from .registry import Engine, register_engine
from .schedule import contiguous_schedule, get_schedule, partition_faults
from .tuning import resolve_plan

__all__ = [
    "DEFAULT_WINDOW",
    "merge_results",
    "shard_bounds",
    "sharded_difference_words",
    "sharded_fault_simulate",
    "windowed_difference_words",
    "windowed_outcomes",
]

DEFAULT_WINDOW = 1 << 18
"""Patterns per streaming window; bounds every worker's big-int width
(256 Ki patterns = 32 KiB per net, small enough to stay cache-resident,
wide enough to amortise the per-window interpreter overhead - measured
the sweet spot on the shard benchmark's 4M-pattern workload)."""

MIN_POOL_WORK = 1 << 25
"""Minimum patterns x faults (difference-word bits) before a worker
pool pays for itself.  Below this the fork/teardown cost dominates -
e.g. the Monte-Carlo estimators' few-thousand-sample calls inside the
optimizer's coordinate search - so smaller workloads run in-process
(same results, no pool)."""


# -- the windowed words core -----------------------------------------------------------


def windowed_difference_words(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    window: Optional[int] = None,
    engine: str = "compiled",
    schedule: Optional[str] = None,
    tune=None,
    cache=None,
) -> List[int]:
    """Whole-set detection words assembled from per-window words.

    ``engine`` picks the single-process window core (compiled, vector
    or interpreted); ``schedule`` reaches the vector core's batch
    planner (``"cost"`` coalesces underfilled same-cone site batches);
    ``tune`` names the execution plan, which also sizes the window when
    ``window`` is ``None``.  Note: the *result* is one
    whole-set-width big-int per fault by construction (callers want the
    full detection words), so only the per-window simulation is
    bounded-memory here - unlike
    :func:`repro.simulate.faultsim.windowed_outcomes`, which stays
    constant-memory end to end.
    """
    if engine == "vector":
        from .vector import vector_difference_words

        return vector_difference_words(
            network, patterns, faults, window=window, schedule=schedule,
            tune=tune, cache=cache,
        )
    store = resolve_cache(cache)
    plan = resolve_plan(tune, cache=store)
    if window is None:
        window = plan.bigint_window(
            patterns.count, compile_network(network, cache=store).num_slots
        )
    from .faultsim import window_difference_factory

    for_window = window_difference_factory(network, engine, cache=store)
    words = [0] * len(faults)
    for start, chunk in patterns.windows(window):
        difference_of = for_window(chunk)
        for index, fault in enumerate(faults):
            word = difference_of(fault)
            if word:
                words[index] |= word << start
    return words


# -- sharding and merging --------------------------------------------------------------


def shard_bounds(count: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``count`` faults into at most ``shards`` contiguous ranges.

    The ``(lo, hi)`` view of :func:`repro.simulate.schedule.
    contiguous_schedule` (one source of truth for the split), so no
    range is ever empty: ``shards > count`` yields ``count`` one-fault
    ranges and ``count == 0`` yields no ranges at all (a worker is
    never handed an empty shard).
    """
    return [
        (part[0], part[-1] + 1)
        for part in contiguous_schedule([1] * count, max(1, shards))
    ]


def merge_results(parts: Sequence[FaultSimResult]) -> FaultSimResult:
    """Merge per-shard results exactly.

    Shards carry disjoint fault sets, so the merge is a plain union -
    but it *verifies* disjointness: a label occurring in two parts means
    two distinct faults collided on a label (or a shard ran twice), and
    silently keeping one record would corrupt coverage, so it raises.
    (The engine itself now scatters per-fault outcomes back to list
    positions - exact under any schedule's partition - but this stays
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


def _scatter(sharded, size: int, empty) -> List:
    """Scatter per-shard result lists back to fault-list positions.

    *Verifies* the partition rather than assuming it (the same policy
    :func:`merge_results` applies to labels): a scheduler that assigned
    an index twice or lost one would otherwise silently corrupt
    coverage - ``None``/``0`` are legal per-fault values, so a lost
    index would masquerade as "undetected".
    """
    values: List = [empty] * size
    seen = bytearray(size)
    for indices, part in sharded:
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
cannot clobber each other.  The plain paths pass ``(network, patterns,
faults, window, stop, engine, schedule, tune, cache)`` (``engine`` is
the inner single-process window core) and give each worker its shard
as a list of fault-list indices (any partition the scheduler produced,
not just contiguous slices); the block path passes ``(patterns,
detect)``, the inner engine's block kernel.  Workers are forked, so
the context is inherited copy-on-write, never pickled - including the
store the parent pre-warmed and any ``"auto"`` plan it calibrated."""


def _init_worker(*context) -> None:
    global _WORKER
    _WORKER = context


def _outcomes_worker(indices: Sequence[int]) -> List[FaultOutcome]:
    network, patterns, faults, window, stop, engine, schedule, tune, cache = _WORKER
    subset = [faults[index] for index in indices]
    return windowed_outcomes(
        network, patterns, subset, window, stop, engine, schedule, tune,
        cache=cache,
    )


def _words_worker(indices: Sequence[int]) -> List[int]:
    network, patterns, faults, window, _stop, engine, schedule, tune, cache = _WORKER
    subset = [faults[index] for index in indices]
    return windowed_difference_words(
        network, patterns, subset, window, engine, schedule, tune, cache
    )


def _block_worker(task: Tuple[int, int, List[int]]):
    """One speculative block ``(start, stop, fault positions)`` of one
    live shard, through the inner engine's block kernel."""
    start, stop, positions = task
    patterns, detect = _WORKER
    return detect(start, patterns.slice(start, stop), positions)


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


def _resolve_jobs(jobs: Optional[int]) -> int:
    check_jobs(jobs)
    return jobs or os.cpu_count() or 1


def _prewarm_store(network, cache, engine) -> None:
    """Materialise the inner engine's programs in the store pre-fork.

    Workers inherit the resolved store copy-on-write, so artifacts the
    parent builds (or loads from the disk tier) once are shared by
    every worker instead of re-derived per fork.
    """
    store = resolve_cache(cache)
    compile_network(network, cache=store)
    if engine == "vector":
        from .vector import vector_compile

        vector_compile(network, cache=store)


def _map_shards(
    worker, network, patterns, faults, window, stop, jobs, min_pool_work,
    engine="compiled", schedule=None, tune=None, cache=None,
):
    """Run ``worker`` over fault shards; (indices, results) per shard.

    Shards come from :func:`repro.simulate.schedule.partition_faults`
    under the named ``schedule`` (cost-weighted LPT by default).
    Returns ``None`` when pooling is pointless (one shard, or less
    total work than ``min_pool_work``) or unavailable (no ``fork``),
    signalling the caller to run in-process.
    """
    if min_pool_work is None:
        min_pool_work = MIN_POOL_WORK
    # The cheap disqualifiers come first: below min_pool_work (the
    # common interactive case) or without fork there is no point
    # pricing cones and packing shards for a partition that would be
    # thrown away.
    context = _fork_context()
    if (
        jobs <= 1
        or context is None
        or patterns.count * len(faults) < min_pool_work
    ):
        return None
    shards = partition_faults(network, faults, jobs, schedule, cache=cache)
    if len(shards) <= 1:
        return None
    _prewarm_store(network, cache, engine)
    with context.Pool(
        processes=len(shards),
        initializer=_init_worker,
        initargs=(
            network, patterns, faults, window, stop, engine, schedule, tune,
            cache,
        ),
    ) as pool:
        return list(zip(shards, pool.map(worker, shards)))


def _pool_kernel(pool, network, faults, jobs, schedule, cache):
    """The pool's block kernel: one ``pool.map`` per driver block.

    Each block re-partitions the *live* faults across the pool (shards
    shrink as classes retire) and the workers run the inner engine's
    kernel on their shard of the block."""

    def detect(start, chunk, active):
        live = [faults[position] for position in active]
        shards = partition_faults(network, live, jobs, schedule, cache=cache)
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


def _coverage_sharded_outcomes(
    network, patterns, faults, weights, stop_at_coverage, jobs,
    min_pool_work, engine, schedule, tune, cache=None, on_window=None,
) -> Optional[List[FaultOutcome]]:
    """The pooled path of the retiring stops.

    A coverage (or session) stop is a *global* decision - whether a
    block runs depends on every shard's detections before it - so
    shards cannot stream independently as on the plain path.  Instead
    :func:`repro.simulate.faultsim.drive_windows` runs in the parent on
    the :data:`repro.simulate.faultsim.FIRST_DETECTION_CHUNK` grid with
    :func:`_pool_kernel` as its block kernel, so the pooled run is
    bit-identical to the single-process one.  ``on_window`` is the
    session seam of :func:`repro.simulate.faultsim.windowed_outcomes`;
    ``stop_at_coverage`` may be ``None`` when only it decides.  Returns
    ``None`` when pooling is pointless or unavailable (same
    disqualifiers as :func:`_map_shards`), signalling the caller to run
    in-process; a ``None`` return means ``on_window`` was never
    invoked.
    """
    if min_pool_work is None:
        min_pool_work = MIN_POOL_WORK
    context = _fork_context()
    if (
        jobs <= 1
        or context is None
        or patterns.count * len(faults) < min_pool_work
        or len(partition_faults(network, faults, jobs, schedule, cache=cache)) <= 1
    ):
        return None
    _prewarm_store(network, cache, engine)
    plan = resolve_plan(tune, cache=cache)
    inner = block_kernel(network, faults, engine, schedule, plan, cache)
    with context.Pool(
        processes=jobs, initializer=_init_worker, initargs=(patterns, inner)
    ) as pool:
        return drive_windows(
            patterns, len(faults), FIRST_DETECTION_CHUNK,
            _pool_kernel(pool, network, faults, jobs, schedule, cache),
            weights, stop_predicate(True, stop_at_coverage, on_window, weights),
            block_cap(network, engine, plan, patterns.count, cache),
        )


# -- the engine ------------------------------------------------------------------------


def sharded_fault_simulate(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
    stop_at_first_detection: bool = False,
    jobs: Optional[int] = None,
    window: Optional[int] = None,
    min_pool_work: Optional[int] = None,
    engine: str = "compiled",
    schedule: Optional[str] = None,
    tune=None,
    stop_at_coverage=None,
    coverage_weights: Optional[Sequence[int]] = None,
    cache=None,
) -> FaultSimResult:
    """Fault simulation sharded across ``jobs`` worker processes.

    Bit-identical to ``fault_simulate(..., engine="compiled")`` on
    every field; ``jobs=None`` uses one worker per CPU.  Workloads
    under ``min_pool_work`` (default :data:`MIN_POOL_WORK` pattern x
    fault bits) run in-process, where the pool would cost more than it
    saves.  ``engine`` names the inner single-process window core each
    worker runs (``"compiled"``, ``"vector"`` or ``"interpreted"``);
    ``schedule`` names the fault-partitioning policy
    (:mod:`repro.simulate.schedule`; cost-weighted LPT by default);
    ``tune`` the execution plan, which sizes the streaming window when
    ``window`` is ``None`` (:data:`DEFAULT_WINDOW` under the default
    plan, cache-derived per-inner-engine widths under tuned ones).
    Per-fault outcomes are scattered back to original list positions
    before one :func:`build_result` assembles the result, so every
    schedule - contiguous or not - reproduces the single-process result
    bit for bit, label order included.

    ``stop_at_coverage`` retires detected faults between
    :data:`repro.simulate.faultsim.FIRST_DETECTION_CHUNK`-wide windows
    and stops the run once the covered (``coverage_weights``-weighted)
    fraction reaches the threshold; the window is pinned to that grid
    (any explicit ``window`` is ignored) because the stopping point
    depends on the grid and every engine must stream the same one to
    stay bit-identical.  The pooled path runs the one window driver
    over a pool kernel that re-partitions the shrinking live fault set
    for every speculative block.
    """
    get_schedule(schedule)  # reject bad names on every path, pooled or not
    store = resolve_cache(cache)
    plan = resolve_plan(tune, cache=store)  # resolve/calibrate before any fork
    check_stop_at_coverage(stop_at_coverage)
    if faults is None:
        faults = network.enumerate_faults()
    # Dedupe up front (one shared collision policy with build_result) so
    # the scattered outcomes key one record per distinct fault.
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    weights = resolve_coverage_weights(faults, coverage_weights)
    jobs = _resolve_jobs(jobs)
    if stop_at_coverage is not None:
        window = FIRST_DETECTION_CHUNK
        outcomes = _coverage_sharded_outcomes(
            network, patterns, faults, weights, stop_at_coverage, jobs,
            min_pool_work, engine, schedule, tune, cache=store,
        )
    else:
        if window is None:
            window = plan.shard_window(
                patterns.count, compile_network(network, cache=store).num_slots,
                engine,
            )
        sharded = _map_shards(
            _outcomes_worker, network, patterns, faults,
            window, stop_at_first_detection, jobs, min_pool_work, engine,
            schedule, tune, cache=store,
        )
        outcomes = None if sharded is None else _scatter(sharded, len(faults), None)
    if outcomes is None:
        outcomes = windowed_outcomes(
            network, patterns, faults, window, stop_at_first_detection,
            engine, schedule, tune,
            stop_at_coverage=stop_at_coverage,
            coverage_weights=weights,
            cache=store,
        )
    return build_result(network.name, patterns.count, faults, outcomes)


def sharded_difference_words(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    jobs: Optional[int] = None,
    window: Optional[int] = None,
    min_pool_work: Optional[int] = None,
    engine: str = "compiled",
    schedule: Optional[str] = None,
    tune=None,
    cache=None,
) -> List[int]:
    """Per-fault detection words computed across the worker pool
    (in-process below ``min_pool_work``, like
    :func:`sharded_fault_simulate`); words are scattered back to fault
    order whatever partition ``schedule`` produced."""
    get_schedule(schedule)  # reject bad names on every path, pooled or not
    store = resolve_cache(cache)
    plan = resolve_plan(tune, cache=store)  # resolve/calibrate before any fork
    faults = list(faults)
    if window is None:
        window = plan.shard_window(
            patterns.count, compile_network(network, cache=store).num_slots, engine
        )
    jobs = _resolve_jobs(jobs)
    sharded = _map_shards(
        _words_worker, network, patterns, faults, window, False, jobs,
        min_pool_work, engine, schedule, tune, cache=store,
    )
    if sharded is None:
        return windowed_difference_words(
            network, patterns, faults, window, engine, schedule, tune, store
        )
    return _scatter(sharded, len(faults), 0)


def _sharded_simulate_faults(inner: str):
    """The registry ``simulate_faults`` of a shard pool over ``inner``."""

    def simulate_faults(
        network: Network,
        patterns: PatternSet,
        faults: Sequence[NetworkFault],
        stop_at_first_detection: bool = False,
        jobs: Optional[int] = None,
        schedule: Optional[str] = None,
        tune=None,
        stop_at_coverage=None,
        coverage_weights: Optional[Sequence[int]] = None,
        cache=None,
    ) -> FaultSimResult:
        return sharded_fault_simulate(
            network,
            patterns,
            faults,
            stop_at_first_detection=stop_at_first_detection,
            jobs=jobs,
            engine=inner,
            schedule=schedule,
            tune=tune,
            stop_at_coverage=stop_at_coverage,
            coverage_weights=coverage_weights,
            cache=cache,
        )

    return simulate_faults


def _sharded_difference_words(inner: str):
    def difference_words(
        network: Network,
        patterns: PatternSet,
        faults: Sequence[NetworkFault],
        jobs: Optional[int] = None,
        schedule: Optional[str] = None,
        tune=None,
        cache=None,
    ) -> List[int]:
        return sharded_difference_words(
            network, patterns, faults, jobs=jobs, engine=inner,
            schedule=schedule, tune=tune, cache=cache,
        )

    return difference_words


def _sharded_evaluate_bits(network: Network, env, mask, cache=None) -> Dict[str, int]:
    # A single fault-free pass has nothing to shard; the compiled slot
    # program is the right tool and keeps the engine drop-in for the
    # signal-probability estimators.
    return compile_network(network, cache=cache).evaluate_bits(env, mask)


def _sharded_vector_evaluate_bits(
    network: Network, env, mask, cache=None
) -> Dict[str, int]:
    from .vector import vector_evaluate_bits

    return vector_evaluate_bits(network, env, mask, cache=cache)


register_engine(
    Engine(
        name="sharded",
        description=(
            "compiled engine over a multi-process fault-shard pool with "
            "streaming pattern windows"
        ),
        simulate_faults=_sharded_simulate_faults("compiled"),
        difference_words=_sharded_difference_words("compiled"),
        evaluate_bits=_sharded_evaluate_bits,
    )
)

register_engine(
    Engine(
        name="sharded+vector",
        description=(
            "vector lane engine inside a multi-process fault-shard pool "
            "(shards x lanes)"
        ),
        simulate_faults=_sharded_simulate_faults("vector"),
        difference_words=_sharded_difference_words("vector"),
        evaluate_bits=_sharded_vector_evaluate_bits,
    )
)
