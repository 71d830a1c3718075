"""Static fault simulation - serial fault, parallel pattern.

"Since we are only dealing with combinational networks, a static fault
simulation is sufficient, if the user wants to validate the predictions
of PROTEST, before integrating some self test logic into the chip"
(Section 5).  Section 3 is what makes this *sound* for dynamic MOS: the
fault universe consists of combinational cell faults, so classical
fault injection works - unlike static CMOS, where stuck-open faults
defeat "the fault injection algorithms of parallel, deductive or
concurrent fault simulators".

One pass evaluates the fault-free network over all patterns at once
(big-int bit-parallel).  The per-fault passes are priced by the engine
registry (:mod:`repro.simulate.registry`):

* ``engine="compiled"`` (default) - the flat slot program of
  :mod:`repro.simulate.compiled`: the good circuit is simulated once
  and each fault re-evaluates only the gates in its fanout cone,
  event-driven, with early exit on convergence.
* ``engine="interpreted"`` - the original reference path through
  :meth:`Network.evaluate_bits`, one full network pass per fault.
  Kept as the oracle the equivalence suite checks the other engines
  against; all engines produce bit-identical results.
* ``engine="vector"`` - :mod:`repro.simulate.vector`: the same slot
  program lowered onto numpy ``uint64`` lane arrays; the gate kernels
  run as vectorized SIMD ops, which wins past a few thousand patterns
  per pass.

``jobs`` is the only parallelism switch: every engine runs in-process
when it is ``None`` or 1 and fans its faults out across a ``jobs``-wide
worker pool (:mod:`repro.simulate.sharded`) above that, once the
workload is big enough to pay for the fork.

Every engine's per-fault outcomes come out of one window loop,
:func:`drive_windows`.  An engine supplies only a per-block kernel
(:data:`BlockKernel`): the big-int kernel of :func:`block_kernel` for
compiled and interpreted, the lane kernel of
:func:`repro.simulate.vector.lane_kernel`; a pooled run wraps either in
the pool kernel of :mod:`repro.simulate.sharded`.  The three stops
(first detection, coverage, a session's ``on_window``) are one boundary
predicate (:func:`stop_predicate`).

Results are keyed by fault *label* (``fault.describe()``) but computed
per fault: a fault list in which two **distinct** faults share a label
raises instead of silently merging their detection records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..netlist.network import Network, NetworkFault
from .artifacts import resolve_cache
from .compiled import compile_network
from .logicsim import PatternSet
from .registry import Engine, get_engine, register_engine
from .schedule import get_schedule
from .tuning import resolve_plan

#: The stopping grid of every retiring run (``stop_at_first_detection``,
#: ``stop_at_coverage``, streaming sessions): a fault detected in window
#: k retires at its end, and runs stop only at window boundaries.
FIRST_DETECTION_CHUNK = 256

#: Per-fault outcome: ``None`` when undetected, else
#: ``(first detecting pattern index, number of detecting patterns)``.
FaultOutcome = Optional[Tuple[int, int]]


@dataclass
class FaultSimResult:
    """Outcome of a fault simulation run."""

    network_name: str
    pattern_count: int
    detected: Dict[str, int]
    """fault label -> index of the first detecting pattern."""

    detection_counts: Dict[str, int]
    """fault label -> number of detecting patterns (empirical detection
    probability = count / pattern_count)."""

    undetected: List[str]

    collapsed_classes: Optional[int] = None
    """Number of structural equivalence classes actually simulated when
    the run collapsed the fault list (``collapse="on"``); ``None`` for
    an uncollapsed run.  Informational only - every other field is
    bit-identical either way."""

    @property
    def fault_count(self) -> int:
        return len(self.detected) + len(self.undetected)

    @property
    def coverage(self) -> float:
        if self.fault_count == 0:
            return 1.0
        return len(self.detected) / self.fault_count

    def empirical_detection_probability(self, label: str) -> float:
        return self.detection_counts.get(label, 0) / max(1, self.pattern_count)

    def format_summary(self) -> str:
        lines = [
            f"fault simulation of {self.network_name}: "
            f"{len(self.detected)}/{self.fault_count} faults detected "
            f"({100.0 * self.coverage:.2f}%) with {self.pattern_count} patterns"
        ]
        if self.collapsed_classes is not None:
            lines.append(
                f"collapse: {self.collapsed_classes}/{self.fault_count} "
                "classes/faults simulated"
            )
        if self.undetected:
            lines.append("undetected: " + ", ".join(self.undetected[:20]))
            if len(self.undetected) > 20:
                lines.append(f"  ... and {len(self.undetected) - 20} more")
        return "\n".join(lines)


def _register_label(seen: Dict[str, NetworkFault], fault: NetworkFault) -> bool:
    """Claim a fault's label: ``True`` if new, ``False`` for a literal
    duplicate of an already-seen fault, ``ValueError`` when a *distinct*
    fault already holds the label (its results would silently merge)."""
    label = fault.describe()
    prior = seen.get(label)
    if prior is not None:
        if prior == fault:
            return False
        raise ValueError(
            f"fault label {label!r} is shared by two distinct faults; "
            "their results would silently merge - give them unique labels"
        )
    seen[label] = fault
    return True


def dedupe_faults(faults: Sequence[NetworkFault]) -> List[NetworkFault]:
    """Drop literal duplicates; raise when distinct faults share a label.

    The one collision policy every label-keyed consumer shares - the
    fault-simulation engines, the pooled shards, the detection
    estimators.  Every colliding label is reported in one message, not
    just the first, so a large (possibly collapsed) fault list fails
    with a single actionable error."""
    seen: Dict[str, NetworkFault] = {}
    result: List[NetworkFault] = []
    collisions: List[str] = []
    for fault in faults:
        label = fault.describe()
        prior = seen.get(label)
        if prior is not None:
            if prior != fault and label not in collisions:
                collisions.append(label)
            continue
        seen[label] = fault
        result.append(fault)
    if collisions:
        if len(collisions) == 1:
            raise ValueError(
                f"fault label {collisions[0]!r} is shared by two distinct "
                "faults; their results would silently merge - give them "
                "unique labels"
            )
        listed = ", ".join(repr(label) for label in collisions)
        raise ValueError(
            f"{len(collisions)} fault labels ({listed}) are each shared by "
            "two distinct faults; their results would silently merge - give "
            "them unique labels"
        )
    return result


def check_injectable(network: Network, faults: Sequence[NetworkFault]) -> None:
    """Raise when a fault cannot be injected into ``network``.

    A stuck fault on a net the network does not drive (or a cell fault
    on an absent gate) would otherwise ride along never-injected and be
    reported "undetected", silently deflating coverage.  Shared by
    every engine, by parallel fault simulation and by the
    detection-probability estimators so they agree on the error instead
    of each tolerating ghosts differently.  *All* offending faults are
    listed in one message, so a large collapsed set fails with a single
    actionable error instead of one fault per run.
    """
    injectable: Optional[set] = None
    offenders: List[Tuple[NetworkFault, str]] = []
    for fault in faults:
        if fault.kind == "stuck":
            if injectable is None:
                injectable = set(network.inputs)
                injectable.update(gate.output for gate in network.gates.values())
            if fault.net not in injectable:
                offenders.append(
                    (fault, f"net {fault.net!r} is not in the network")
                )
        elif fault.gate not in network.gates:
            offenders.append(
                (fault, f"gate {fault.gate!r} is not in the network")
            )
    if not offenders:
        return
    if len(offenders) == 1:
        fault, reason = offenders[0]
        raise ValueError(
            f"fault {fault.describe()!r} cannot be injected: {reason}"
        )
    listed = "; ".join(
        f"{fault.describe()!r} ({reason})" for fault, reason in offenders
    )
    raise ValueError(
        f"{len(offenders)} faults cannot be injected: {listed}"
    )


def check_jobs(jobs: Optional[int]) -> None:
    """Validate a worker count (``None`` means 1: in-process)."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def check_stop_at_coverage(stop_at_coverage) -> None:
    """Validate a ``stop_at_coverage`` threshold (``None`` disables it).

    Shared by every engine entry point, mirroring the ``samples >= 1``
    checks of the detection-probability estimators.
    """
    if stop_at_coverage is None:
        return
    if not (0 < stop_at_coverage <= 1):
        raise ValueError(
            f"stop_at_coverage must be in (0, 1], got {stop_at_coverage}"
        )


def build_result(
    network_name: str,
    pattern_count: int,
    faults: Sequence[NetworkFault],
    outcomes: Sequence[FaultOutcome],
) -> FaultSimResult:
    """Assemble a :class:`FaultSimResult` from per-fault outcomes.

    Results are computed per fault and only *keyed* by label here, so a
    label shared by two distinct faults is detected and raised instead
    of silently collapsing both faults into one record.  A literal
    duplicate of the same fault is tolerated (its outcome is identical
    by construction) and reported once.
    """
    detected: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    undetected: List[str] = []
    seen: Dict[str, NetworkFault] = {}
    for fault, outcome in zip(faults, outcomes):
        if not _register_label(seen, fault):
            continue
        label = fault.describe()
        if outcome is None:
            undetected.append(label)
        else:
            first, count = outcome
            detected[label] = first
            counts[label] = count
    return FaultSimResult(
        network_name=network_name,
        pattern_count=pattern_count,
        detected=detected,
        detection_counts=counts,
        undetected=undetected,
    )


# -- the interpreted and compiled engines ---------------------------------------------


def _difference_interpreted(
    network: Network,
    env: Dict[str, int],
    mask: int,
    good: Dict[str, int],
    fault: NetworkFault,
) -> int:
    faulty = network.output_bits(env, mask, fault)
    difference = 0
    for net in network.outputs:
        difference |= good[net] ^ faulty[net]
    return difference


def interpreted_difference_words(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    cache=None,
) -> List[int]:
    """One detection word per fault via full interpreted re-simulation.

    Serial fault-by-fault passes have nothing to schedule, tune or
    cache, but ``schedule``, ``tune`` and ``cache`` are still validated
    so every registry engine rejects bad names identically - on this
    entry point too, not only through ``fault_simulate``.  ``jobs > 1``
    shards the faults across a worker pool (:func:`pooled_words`).
    """
    get_schedule(schedule)
    store = resolve_cache(cache)
    resolve_plan(tune, cache=store)
    pooled = pooled_words(
        network, patterns, faults, "interpreted", jobs, schedule, tune, store
    )
    if pooled is not None:
        return pooled
    good = network.output_bits(patterns.env, patterns.mask)
    return [
        _difference_interpreted(network, patterns.env, patterns.mask, good, fault)
        for fault in faults
    ]


def compiled_difference_words(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    cache=None,
) -> List[int]:
    """One detection word per fault via cone-restricted compiled passes
    (``jobs > 1``: across a worker pool, :func:`pooled_words`)."""
    get_schedule(schedule)
    store = resolve_cache(cache)
    resolve_plan(tune, cache=store)
    pooled = pooled_words(
        network, patterns, faults, "compiled", jobs, schedule, tune, store
    )
    if pooled is not None:
        return pooled
    sim = compile_network(network, cache=store).simulate(patterns.env, patterns.mask)
    return [sim.difference(fault) for fault in faults]


def pooled_words(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    engine: str,
    jobs: Optional[int],
    schedule: Optional[str],
    tune,
    cache,
) -> Optional[List[int]]:
    """The pooled half of every engine's ``difference_words``.

    Validates ``jobs``; ``None`` (run in-process) unless ``jobs > 1``
    and :func:`repro.simulate.sharded.pooled_difference_words` finds the
    workload worth a pool.
    """
    check_jobs(jobs)
    if jobs is None or jobs <= 1:
        return None
    from .sharded import pooled_difference_words

    return pooled_difference_words(
        network, patterns, faults, engine, jobs, schedule, tune, cache
    )


def _simulate_faults(engine_name: str):
    """Build an engine's registry ``simulate_faults`` callable.

    Every mode streams through :func:`windowed_outcomes`, in-process or
    pooled by ``jobs``.  Without a stop the execution plan sizes the
    window; either stop pins the stopping grid to
    :data:`FIRST_DETECTION_CHUNK` on every engine - where a
    coverage-stopped run ends depends on the grid, so all engines must
    stop on the same one to stay bit-identical.
    """

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
        retire = stop_at_first_detection or stop_at_coverage is not None
        outcomes = windowed_outcomes(
            network, patterns, faults, FIRST_DETECTION_CHUNK if retire else None,
            stop_at_first_detection, engine_name, schedule, tune,
            stop_at_coverage=stop_at_coverage,
            coverage_weights=coverage_weights,
            cache=cache,
            jobs=jobs,
        )
        return build_result(network.name, patterns.count, faults, outcomes)

    return simulate_faults


def _compiled_evaluate_bits(network: Network, env, mask, cache=None) -> Dict[str, int]:
    return compile_network(network, cache=cache).evaluate_bits(env, mask)


register_engine(
    Engine(
        name="interpreted",
        description="gate-by-gate AST walk (reference oracle)",
        simulate_faults=_simulate_faults("interpreted"),
        difference_words=interpreted_difference_words,
        evaluate_bits=lambda network, env, mask, cache=None: network.evaluate_bits(
            env, mask
        ),
    )
)

register_engine(
    Engine(
        name="compiled",
        description="flat slot program with fault-cone-restricted passes",
        simulate_faults=_simulate_faults("compiled"),
        difference_words=compiled_difference_words,
        evaluate_bits=_compiled_evaluate_bits,
    )
)


# -- the public entry points ----------------------------------------------------------


def fault_simulate(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
    stop_at_first_detection: bool = False,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    collapse: Optional[str] = None,
    stop_at_coverage=None,
    cache=None,
) -> FaultSimResult:
    """Simulate every fault against every pattern.

    ``stop_at_first_detection`` semantics: a fault retires at the end
    of its first detecting :data:`FIRST_DETECTION_CHUNK`-wide window and
    leaves the simulation at the end of that speculative block
    (:func:`drive_windows`).  ``detected`` still records the exact index
    of the first detecting pattern, but ``detection_counts`` is pinned
    to 1 per detected fault and is *not* the empirical detection count;
    leave the flag off when empirical detection probabilities are
    wanted.

    ``engine`` names a registered engine (``"compiled"`` by default,
    ``"interpreted"``, ``"vector"``; see
    :mod:`repro.simulate.registry`); all engines are bit-identical.
    ``jobs`` is the worker count, ``>= 1`` on every engine: ``None``
    or 1 runs in-process, ``jobs > 1`` forks a pool of that many
    workers (:mod:`repro.simulate.sharded`) once patterns x faults
    reaches :data:`repro.simulate.sharded.MIN_POOL_WORK` - smaller
    workloads, and hosts without ``fork``, stay in-process.
    ``schedule`` names a fault-scheduling policy
    (:mod:`repro.simulate.schedule`: ``"cost"`` by default,
    ``"contiguous"``, ``"interleaved"``); it steers how a pool
    partitions the fault list and how the vector engine batches
    injection sites, and never changes a single result bit.  Unknown
    names raise here with the list of available schedules, on every
    engine - including the serial ones that have nothing to schedule.
    ``tune`` names an execution plan (:mod:`repro.simulate.tuning`:
    ``"default"`` - the historical constants - by default, ``"auto"``
    for a host-calibrated profile, or a path to a profile JSON); like
    schedules, plans size chunks and windows and never change a result
    bit.  Unknown plan names and malformed profiles raise the tuning
    module's error here, on every engine.
    ``collapse`` names a structural-collapsing mode
    (:mod:`repro.faults.structural`: ``"off"`` - the historical full
    universe - by default, ``"on"`` / ``"report"`` to simulate one
    representative per difference-equivalence class and scatter the
    outcomes back over the members).  Like schedules and plans it never
    changes a result bit - the collapsed run is bit-identical - but it
    multiplies throughput by the class/fault ratio on every engine,
    which all see the shorter representative list.  Unknown modes raise
    here with the list of available modes.
    ``cache`` selects the artifact store everything derivable from the
    network alone (compiled slot programs, cone metadata, batch plans,
    collapse classes, fault partitions, tuning profiles) is keyed in by
    content fingerprint (:mod:`repro.simulate.artifacts`: ``None`` -
    the process-wide in-memory store, honouring ``$REPRO_CACHE_DIR`` -
    by default, ``"memory"``, ``"off"``, a directory path for the
    persistent disk tier, or an :class:`ArtifactStore`).  Caching never
    changes a result bit - warm and cold runs are bit-identical - and
    unknown modes raise here with the list of available modes, on every
    engine.
    ``stop_at_coverage`` (a fraction in ``(0, 1]``) retires detected
    faults between :data:`FIRST_DETECTION_CHUNK`-wide streaming windows
    - like ``stop_at_first_detection`` - and additionally stops the
    whole run at the end of the first window where the covered fraction
    of the fault universe reaches the threshold; faults the run never
    reached are reported undetected and counts are pinned to 1.  Under
    ``collapse="on"`` classes are weighted by their member counts, so
    the stopping window (and every result bit) matches the uncollapsed
    run exactly.
    """
    resolved = get_engine(engine)
    get_schedule(schedule)  # reject bad names before any engine runs
    store = resolve_cache(cache)
    resolve_plan(tune, cache=store)
    from ..faults.structural import collapse_network_faults, get_collapse_mode

    mode = get_collapse_mode(collapse)
    check_stop_at_coverage(stop_at_coverage)
    check_jobs(jobs)
    if faults is None:
        faults = network.enumerate_faults()
    # Validate up front - a bad fault list should raise before the
    # simulation burns time, not in build_result afterwards.
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    if mode == "off" or not faults:
        result = resolved.simulate_faults(
            network,
            patterns,
            faults,
            stop_at_first_detection=stop_at_first_detection,
            jobs=jobs,
            schedule=schedule,
            tune=tune,
            stop_at_coverage=stop_at_coverage,
            coverage_weights=None,
            cache=store,
        )
        store.flush()
        return result
    collapsed = collapse_network_faults(network, faults, cache=store)
    rep_result = resolved.simulate_faults(
        network,
        patterns,
        collapsed.representative_faults(),
        stop_at_first_detection=stop_at_first_detection,
        jobs=jobs,
        schedule=schedule,
        tune=tune,
        stop_at_coverage=stop_at_coverage,
        coverage_weights=collapsed.class_sizes(),
        cache=store,
    )
    class_outcomes: List[FaultOutcome] = []
    for rep_index in collapsed.representatives:
        label = faults[rep_index].describe()
        if label in rep_result.detected:
            class_outcomes.append(
                (rep_result.detected[label], rep_result.detection_counts[label])
            )
        else:
            class_outcomes.append(None)
    result = build_result(
        network.name,
        patterns.count,
        faults,
        collapsed.scatter_outcomes(class_outcomes),
    )
    result.collapsed_classes = collapsed.class_count
    store.flush()
    return result


def window_difference_factory(network: Network, engine: str, cache=None):
    """``window -> (fault -> difference word)`` for a one-process engine.

    The per-window pass behind the big-int block kernel
    (:func:`block_kernel`) and the pooled words path; ``engine`` picks
    the pass (``"compiled"`` slot program, ``"vector"`` numpy lane
    arrays, ``"interpreted"`` full AST re-simulation); ``cache`` selects
    the artifact store the compiled/vector programs resolve through.
    """
    if engine == "compiled":
        compiled = compile_network(network, cache=cache)

        def for_window(window: PatternSet):
            return compiled.simulate(window.env, window.mask).difference

    elif engine == "vector":
        from .vector import vector_compile

        vector = vector_compile(network, cache=cache)

        def for_window(window: PatternSet):
            return vector.simulate(window).difference

    elif engine == "interpreted":

        def for_window(window: PatternSet):
            good = network.output_bits(window.env, window.mask)
            return lambda fault: _difference_interpreted(
                network, window.env, window.mask, good, fault
            )

    else:
        raise ValueError(
            f"engine {engine!r} has no single-process window core; "
            "expected one of: compiled, interpreted, vector"
        )

    return for_window


def resolve_coverage_weights(
    faults: Sequence[NetworkFault], coverage_weights: Optional[Sequence[int]]
) -> List[int]:
    """Per-fault coverage weights (``None`` means one per fault).

    Under ``collapse="on"`` the engines simulate one representative per
    equivalence class, so a representative's detection covers
    class-size faults of the original universe; weighting the coverage
    fraction by class size keeps the ``stop_at_coverage`` stopping
    window - hence every result bit - identical to the uncollapsed run.
    """
    if coverage_weights is None:
        return [1] * len(faults)
    if len(coverage_weights) != len(faults):
        raise ValueError(
            f"got {len(coverage_weights)} coverage weights for "
            f"{len(faults)} faults"
        )
    return list(coverage_weights)


# -- the window driver ----------------------------------------------------------------

#: ``detect(start, chunk, active) -> (positions, first indices, counts)``
#: - one engine's pass over the pattern block ``chunk`` (which begins at
#: pattern ``start``) for the fault-list positions in ``active``,
#: reporting every detected fault's position, absolute first detecting
#: index and number of detecting patterns in the block.  Parallel lists
#: of ints rather than a tuple per detection: each tuple is a GC-tracked
#: allocation, and thousands per block trigger full collections mid-run.
BlockKernel = Callable[
    [int, PatternSet, List[int]], Tuple[List[int], List[int], List[int]]
]

SESSION_BLOCK_RAMP = 8
"""Grid windows in a retiring run's first speculative block.

Below roughly this many 256-pattern windows a batched pass is all
fixed cost - pattern generation, plan build, per-cone kernel dispatch
all outweigh the lane arithmetic - so simulating one grid window costs
nearly as much as simulating eight.  Starting the doubling ramp here
loses almost nothing when the run stops at the very first boundary and
saves whole blocks' worth of fixed costs on every longer run."""


def session_block_size(grid: int, engine_window: int) -> Tuple[int, int]:
    """``(first block, cap)`` for a retiring run's speculative blocks.

    Blocks start at :data:`SESSION_BLOCK_RAMP` grid windows and double
    up to the engine's streaming window rounded down to a grid
    multiple: a run stopped at boundary ``b`` has then simulated at
    most about twice ``b`` patterns (plus the first block), bounding
    the speculation waste, while long runs reach full batched-sweep
    widths.
    """
    cap = max(grid, engine_window // grid * grid)
    return min(SESSION_BLOCK_RAMP * grid, cap), cap


def fold_session_block(
    detections: List[Tuple[int, int]],
    block_start: int,
    block_stop: int,
    grid: int,
    firsts: List[int],
    counts: List[int],
    weights: Sequence[int],
    covered_weight: int,
    active_count: int,
    on_window,
) -> Tuple[int, int, bool]:
    """Replay one speculative block against the pinned window grid.

    ``detections`` holds ``(first index, fault position)`` pairs found
    anywhere in the block ``[block_start, block_stop)`` - *uncommitted*:
    nothing has been written to ``firsts``/``counts`` yet.  The fold
    walks every ``grid`` boundary of the block in order, commits the
    detections whose first index falls before the boundary (count
    pinned to 1, weight added), then applies the retire-then-stop rule:
    ``on_window`` first, then the no-active-faults stop.  Detections
    past a stopping boundary are never committed, so a speculatively
    simulated block reports bit-identical outcomes to a run that never
    simulated beyond the stop.

    Returns ``(covered_weight, committed, stopped)`` - the updated
    weight, how many detections were committed, and whether the run
    ends at this block.
    """
    detections.sort()
    position = 0
    boundary = block_start
    while boundary < block_stop:
        boundary = min(boundary + grid, block_stop)
        while position < len(detections) and detections[position][0] < boundary:
            first, index = detections[position]
            firsts[index] = first
            counts[index] = 1
            covered_weight += weights[index]
            position += 1
        if not on_window(boundary, covered_weight):
            return covered_weight, position, True
        if active_count == position:
            return covered_weight, position, True
    return covered_weight, position, False


def drive_windows(
    patterns: PatternSet,
    size: int,
    grid: int,
    detect: BlockKernel,
    weights: Sequence[int],
    on_window,
    block_cap: int,
) -> List[FaultOutcome]:
    """Per-fault outcomes of ``size`` faults: the one window loop.

    Every engine runs this loop and supplies only its per-block
    ``detect`` kernel (:data:`BlockKernel`).  Two modes:

    * **counting** (``on_window`` is ``None``): ``grid``-wide windows
      stream through ``detect``; the first detecting window fixes each
      fault's first index and the per-window counts add up to the
      whole-set count.
    * **retiring** (``on_window(consumed, covered_weight) -> bool``):
      speculative doubling blocks (:func:`session_block_size`, capped
      near ``block_cap``) are replayed against the ``grid`` boundaries
      by :func:`fold_session_block`.  A detected fault retires (count
      pinned to 1, its weight covered) at the end of its first
      detecting grid window, and the run ends at the first boundary
      where ``on_window`` returns ``False`` or no fault is left -
      faults never reached come back ``None``.  Every stopping point
      and outcome is bit-identical to a window-at-a-time run.
    """
    if grid < 1:
        raise ValueError(f"window width must be >= 1, got {grid}")
    firsts = [-1] * size
    counts = [0] * size
    active = list(range(size))
    if on_window is None:
        for start, chunk in patterns.windows(grid):
            for position, first, count in zip(*detect(start, chunk, active)):
                if firsts[position] < 0:
                    firsts[position] = first
                counts[position] += count
    else:
        covered_weight = 0
        block, cap = session_block_size(grid, block_cap)
        start = 0
        while start < patterns.count:
            stop = min(start + block, patterns.count)
            positions, block_firsts, _counts = detect(
                start, patterns.slice(start, stop), active
            )
            detections = list(zip(block_firsts, positions))
            covered_weight, committed, stopped = fold_session_block(
                detections, start, stop, grid, firsts, counts, weights,
                covered_weight, len(active), on_window,
            )
            if stopped:
                break
            if committed:
                active = [position for position in active if not counts[position]]
            start = stop
            block = min(2 * block, cap)
    return [
        (firsts[index], counts[index]) if counts[index] else None
        for index in range(size)
    ]


def stop_predicate(
    stop_at_first_detection: bool,
    stop_at_coverage,
    on_window,
    weights: Sequence[int],
):
    """The three stops as one :func:`drive_windows` predicate.

    ``None`` (counting mode) when no stop is asked for;
    ``stop_at_first_detection`` alone always continues (retirement
    only), ``stop_at_coverage`` continues while the covered weight is
    below its fraction of the total, and ``on_window`` passes through.
    """
    if stop_at_coverage is not None:
        threshold = stop_at_coverage * sum(weights)
        if on_window is None:
            return lambda consumed, covered: covered < threshold
        return lambda consumed, covered: (
            on_window(consumed, covered) and covered < threshold
        )
    if on_window is None and stop_at_first_detection:
        return lambda consumed, covered: True
    return on_window


def block_kernel(
    network: Network,
    faults: Sequence[NetworkFault],
    engine: str,
    schedule: Optional[str] = None,
    plan=None,
    cache=None,
) -> BlockKernel:
    """One engine's :data:`BlockKernel` over ``faults``.

    ``engine="vector"`` is the lane kernel
    (:func:`repro.simulate.vector.lane_kernel`, where ``schedule`` and
    ``plan`` shape the batches); the big-int engines share one kernel
    over :func:`window_difference_factory`.
    """
    if engine == "vector":
        from .vector import lane_kernel

        return lane_kernel(network, faults, schedule, plan, cache)
    for_window = window_difference_factory(network, engine, cache=cache)

    def detect(start: int, chunk: PatternSet, active: List[int]):
        difference_of = for_window(chunk)
        positions, firsts, counts = [], [], []
        for position in active:
            word = difference_of(faults[position])
            if word:
                positions.append(position)
                firsts.append(start + (word & -word).bit_length() - 1)
                counts.append(word.bit_count())
        return positions, firsts, counts

    return detect


def block_cap(network: Network, engine: str, plan, count: int, cache=None) -> int:
    """Widest speculative block an engine's kernel simulates at once."""
    if engine == "vector":
        return plan.lane_window(count, compile_network(network, cache=cache).num_slots)
    return plan.bigint_window(count)


def windowed_outcomes(
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    window: Optional[int],
    stop_at_first_detection: bool = False,
    engine: str = "compiled",
    schedule: Optional[str] = None,
    tune=None,
    stop_at_coverage=None,
    coverage_weights: Optional[Sequence[int]] = None,
    cache=None,
    on_window=None,
    jobs: Optional[int] = None,
) -> List[FaultOutcome]:
    """Per-fault (first index, count) outcomes on one engine.

    :func:`drive_windows` over the engine's :func:`block_kernel` - or,
    when ``jobs > 1`` and the workload pays for a pool, over the pool
    kernel that runs it in ``jobs`` forked workers
    (:func:`repro.simulate.sharded.pooled_outcomes`).
    ``window`` is the window width - the stopping grid when a stop is
    asked for - and ``None`` lets the execution plan (``tune``) size it.
    ``stop_at_first_detection`` retires a fault at the end of its first
    detecting window (count pinned to 1); ``stop_at_coverage``
    additionally stops the run at the first window boundary where the
    ``coverage_weights``-weighted covered fraction
    (:func:`resolve_coverage_weights`) reaches the threshold; and
    ``on_window(consumed, covered_weight) -> bool`` is the streaming
    session seam - returning ``False`` ends the run, which is how
    :func:`streaming_coverage` plugs in its Wilson-bound stop.
    ``schedule`` reaches the vector kernel's batch planner.
    """
    store = resolve_cache(cache)
    plan = resolve_plan(tune, cache=store)
    check_stop_at_coverage(stop_at_coverage)
    check_jobs(jobs)
    weights = resolve_coverage_weights(faults, coverage_weights)
    stop = stop_predicate(
        stop_at_first_detection, stop_at_coverage, on_window, weights
    )
    detect = block_kernel(network, faults, engine, schedule, plan, store)
    cap = block_cap(network, engine, plan, patterns.count, store)
    if jobs is not None and jobs > 1:
        from .sharded import pooled_outcomes

        outcomes = pooled_outcomes(
            network, patterns, faults, window, detect, weights, stop, cap,
            jobs, engine, schedule, plan, store,
        )
        if outcomes is not None:
            return outcomes
    if window is None:
        if engine == "vector":
            window = cap
        elif engine == "compiled":
            window = plan.serial_window(
                patterns.count, compile_network(network, cache=store).num_slots
            )
        else:
            window = max(patterns.count, 1)
    return drive_windows(patterns, len(faults), window, detect, weights, stop, cap)


@dataclass
class StreamingCoverage:
    """Outcome of a confidence-bounded streaming coverage session.

    The session consumed ``pattern_count`` of the source's
    ``pattern_budget`` patterns; ``detected_weight`` of ``total_weight``
    fault weight fell (weights are class sizes under collapsing, one
    per fault otherwise); ``lower_bound`` is the Wilson-score lower
    confidence bound on coverage at ``confidence`` when the session
    ended, and ``satisfied`` says it cleared ``target_coverage``.
    ``exhausted`` marks a session that ran out of patterns (or ran out
    of undetected faults) before the bound cleared the target.
    ``curve`` samples ``(patterns consumed, empirical coverage)`` at
    every streaming window boundary.
    """

    network_name: str
    pattern_count: int
    pattern_budget: int
    fault_count: int
    detected_weight: int
    total_weight: int
    target_coverage: float
    confidence: float
    lower_bound: float
    satisfied: bool
    exhausted: bool
    curve: List[Tuple[int, float]]
    collapsed_classes: Optional[int] = None

    @property
    def coverage(self) -> float:
        if self.total_weight == 0:
            return 1.0
        return self.detected_weight / self.total_weight

    def format_summary(self) -> str:
        if self.satisfied:
            verdict = f"confidence target met after {self.pattern_count} patterns"
        elif self.detected_weight == self.total_weight:
            # No active faults remain - this holds whether the last one
            # fell mid-budget or in the very last window, so a session
            # that detects everything exactly at the budget boundary is
            # not misreported as "budget exhausted".
            verdict = (
                f"every fault detected after {self.pattern_count} patterns, "
                "but the fault universe is too small for the confidence target"
            )
        else:
            verdict = (
                f"budget of {self.pattern_budget} patterns exhausted "
                "before the confidence target"
            )
        lines = [
            f"streaming session on {self.network_name}: {verdict}",
            f"coverage {100.0 * self.coverage:.2f}% "
            f"(lower bound {100.0 * self.lower_bound:.2f}% at "
            f"confidence {self.confidence}, target "
            f"{100.0 * self.target_coverage:.2f}%)",
            f"fault universe: {self.fault_count} faults"
            + (
                f" in {self.collapsed_classes} collapsed classes"
                if self.collapsed_classes is not None
                else ""
            ),
        ]
        return "\n".join(lines)


def streaming_coverage(
    network: Network,
    patterns,
    faults: Optional[Sequence[NetworkFault]] = None,
    target_coverage: float = 0.99,
    confidence: float = 0.99,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    collapse: Optional[str] = None,
    cache=None,
) -> StreamingCoverage:
    """Consume a pattern source incrementally until the coverage lower
    bound clears the target - "how many patterns for 99% coverage at
    confidence c?" answered by simulating until the interval tightens.

    ``patterns`` is anything with the streaming seam - a
    :class:`~repro.simulate.source.PatternSource` (the point: LFSR and
    weighted NLFSR sequences stream as lane-word windows without ever
    materialising) or a plain :class:`PatternSet`.  Between
    :data:`FIRST_DETECTION_CHUNK`-wide windows, detected faults retire
    exactly as under ``stop_at_coverage``, the observed detected-of-
    total counts feed :func:`repro.protest.testlength.coverage_lower_bound`,
    and the session stops at the first window boundary where the Wilson
    lower bound on coverage reaches ``target_coverage`` - so a
    ``satisfied`` session guarantees bound >= target at the demanded
    confidence, with empirical coverage at or above the bound.

    ``engine``, ``jobs``, ``schedule``, ``tune``, ``collapse`` and
    ``cache`` resolve exactly as in :func:`fault_simulate` - unknown
    names raise the same registry errors.  There is no private session
    loop: the session is the ``on_window`` predicate of
    :func:`drive_windows`, so a stopped session costs what the engines
    cost per pattern.  The window grid is pinned to
    :data:`FIRST_DETECTION_CHUNK` on every engine, so the stopping
    point is engine-independent.  ``jobs > 1`` fans each block's live
    faults out across a ``jobs``-wide worker pool (falling back
    in-process when pooling is pointless - tiny workloads, one shard,
    no ``fork``).  Under ``collapse="on"`` classes weight the observed
    counts by their member sizes, keeping the stopping window identical
    to the uncollapsed run.
    """
    from ..faults.structural import collapse_network_faults, get_collapse_mode
    from ..protest.testlength import coverage_lower_bound

    get_engine(engine)  # same error contract as fault_simulate
    get_schedule(schedule)
    store = resolve_cache(cache)
    resolve_plan(tune, cache=store)
    mode = get_collapse_mode(collapse)
    check_jobs(jobs)
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError(
            f"target_coverage must be in (0, 1], got {target_coverage}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    if faults is None:
        faults = network.enumerate_faults()
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    fault_count = len(faults)
    collapsed_classes: Optional[int] = None
    if mode != "off" and faults:
        collapsed = collapse_network_faults(network, faults, cache=store)
        simulated = collapsed.representative_faults()
        weights = resolve_coverage_weights(simulated, collapsed.class_sizes())
        collapsed_classes = collapsed.class_count
    else:
        simulated = list(faults)
        weights = resolve_coverage_weights(simulated, None)
    total_weight = sum(weights)
    curve: List[Tuple[int, float]] = []
    state = {
        "consumed": 0,
        "covered": 0,
        "bound": coverage_lower_bound(0, total_weight, confidence),
        "satisfied": False,
    }
    if state["bound"] >= target_coverage:
        # Vacuously covered (empty universe) - consume nothing.
        state["satisfied"] = True
        curve.append((0, 1.0 if total_weight == 0 else 0.0))
    else:

        def on_window(consumed: int, covered_weight: int) -> bool:
            """The Wilson-bound stop as a window-boundary predicate."""
            bound = coverage_lower_bound(covered_weight, total_weight, confidence)
            state["consumed"] = consumed
            state["covered"] = covered_weight
            state["bound"] = bound
            curve.append(
                (consumed, covered_weight / total_weight if total_weight else 1.0)
            )
            if bound >= target_coverage:
                state["satisfied"] = True
                return False
            return True

        windowed_outcomes(
            network, patterns, simulated, FIRST_DETECTION_CHUNK,
            False, engine, schedule, tune,
            coverage_weights=weights, cache=store, on_window=on_window,
            jobs=jobs,
        )
        if not curve:
            curve.append((0, 1.0 if total_weight == 0 else 0.0))
    store.flush()
    return StreamingCoverage(
        network_name=network.name,
        pattern_count=state["consumed"],
        pattern_budget=patterns.count,
        fault_count=fault_count,
        detected_weight=state["covered"],
        total_weight=total_weight,
        target_coverage=target_coverage,
        confidence=confidence,
        lower_bound=state["bound"],
        satisfied=state["satisfied"],
        exhausted=not state["satisfied"],
        curve=curve,
        collapsed_classes=collapsed_classes,
    )


def coverage_curve(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
    points: int = 32,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    collapse: Optional[str] = None,
    cache=None,
    stop_at_confidence: Optional[float] = None,
    target_coverage: float = 0.99,
) -> List[Tuple[int, float]]:
    """(pattern count, fault coverage) samples along a pattern sequence.

    Used for the random-vs-deterministic comparison of experiment E8:
    run once over the full set, then read off when each fault first
    fell.  ``collapse`` and ``cache`` resolve exactly as in
    :func:`fault_simulate` (first-detection indices are bit-identical
    either way, so the curve is too - collapse and caching only
    multiply throughput).

    ``stop_at_confidence`` switches the curve to the incremental
    consumer of :func:`streaming_coverage`: the sequence (any pattern
    source) is simulated window by window and the run stops early once
    the Wilson lower confidence bound on coverage - at that confidence
    - clears ``target_coverage``.  The curve is then sampled at every
    streaming window boundary (``points`` does not apply) and ends at
    the stopping point.
    """
    if stop_at_confidence is not None:
        return streaming_coverage(
            network, patterns, faults,
            target_coverage=target_coverage,
            confidence=stop_at_confidence,
            engine=engine, jobs=jobs, schedule=schedule, tune=tune,
            collapse=collapse, cache=cache,
        ).curve
    result = fault_simulate(
        network, patterns, faults, engine=engine, jobs=jobs, schedule=schedule,
        tune=tune, collapse=collapse, cache=cache,
    )
    total = result.fault_count
    if total == 0:
        return [(patterns.count, 1.0)]
    first_detections = sorted(result.detected.values())
    curve: List[Tuple[int, float]] = []
    step = max(1, patterns.count // points)
    for upto in range(step, patterns.count + step, step):
        upto = min(upto, patterns.count)
        covered = sum(1 for f in first_detections if f < upto)
        curve.append((upto, covered / total))
        if upto == patterns.count:
            break
    return curve
