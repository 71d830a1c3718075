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
workload is big enough to pay for the fork.  Every knob is validated
once, by :func:`resolve_knobs`, at every public entry point.

An engine is only its kernels (:class:`~repro.simulate.registry.Engine`):
every engine's per-fault outcomes come out of one window loop,
:func:`drive_windows`, over the engine's per-block kernel
(:data:`BlockKernel`), and every engine's detection words out of one
words loop, :func:`collect_words`, over its per-window kernel
(:data:`WordsKernel`).  Compiled and interpreted build both kernels
from their per-window big-int difference pass through one adapter,
:func:`bigint_engine`; a pooled run hands the same kernels to the
workers.  Each engine streams the execution plan's window of its own
kind (lane or big-int) in every mode.  The three stops (first
detection, coverage, a session's ``on_window``) are one boundary
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


# -- the run knobs --------------------------------------------------------------------


def resolve_knobs(
    engine="compiled",
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    collapse: Optional[str] = None,
    cache=None,
):
    """Validate and resolve the run knobs once: ``(engine, store, plan,
    collapse mode)``.

    ``engine`` is a registered name (an :class:`Engine` passes
    through), ``jobs`` must be ``>= 1`` (``None`` means 1),
    ``schedule`` a registered schedule, ``cache`` an artifact-store
    spec, ``tune`` an execution-plan spec - resolved against that
    store, so ``"auto"`` calibrates at most once per host and store -
    and ``collapse`` a collapsing mode.  Every public entry point calls
    this before doing any work, so a bad knob raises the same error on
    every engine and every estimator method; handing the resolved
    store and plan on down (as ``cache`` and ``tune``) makes every
    later resolution a pass-through.
    """
    from ..faults.structural import get_collapse_mode

    if not isinstance(engine, Engine):
        engine = get_engine(engine)
    check_jobs(jobs)
    get_schedule(schedule)
    store = resolve_cache(cache)
    plan = resolve_plan(tune, cache=store)
    return engine, store, plan, get_collapse_mode(collapse)


# -- the kernels and the big-int adapter ----------------------------------------------

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

#: ``words(chunk, active) -> (positions, words)`` - one engine's pass
#: over the pattern window ``chunk`` for the fault-list positions in
#: ``active``, reporting every position whose detection word in the
#: window is nonzero, with that word (bit k is pattern k of the window).
WordsKernel = Callable[[PatternSet, List[int]], Tuple[List[int], List[int]]]


def bigint_engine(name: str, description: str, evaluate_bits, window_pass) -> Engine:
    """An :class:`Engine` over a per-window big-int difference pass.

    ``window_pass(network, store)`` returns ``chunk -> (fault ->
    difference word)``: one good pass over the window, then one word
    per fault asked for.  The block kernel reduces each word to its
    first index and count, the words kernel hands it on, so the
    big-int engines differ in the pass alone.
    """

    def block_kernel(network, faults, schedule, plan, store) -> BlockKernel:
        for_window = window_pass(network, store)

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

    def words_kernel(network, faults, schedule, plan, store) -> WordsKernel:
        for_window = window_pass(network, store)

        def words(chunk: PatternSet, active: List[int]):
            difference_of = for_window(chunk)
            positions, found = [], []
            for position in active:
                word = difference_of(faults[position])
                if word:
                    positions.append(position)
                    found.append(word)
            return positions, found

        return words

    return Engine(name, description, evaluate_bits, block_kernel, words_kernel)


def _interpreted_pass(network: Network, store):
    def for_window(window: PatternSet):
        env, mask = window.env, window.mask
        good = network.output_bits(env, mask)

        def difference_of(fault: NetworkFault) -> int:
            faulty = network.output_bits(env, mask, fault)
            difference = 0
            for net in network.outputs:
                difference |= good[net] ^ faulty[net]
            return difference

        return difference_of

    return for_window


def _compiled_pass(network: Network, store):
    compiled = compile_network(network, cache=store)
    return lambda window: compiled.simulate(window.env, window.mask).difference


register_engine(
    bigint_engine(
        "interpreted",
        "gate-by-gate AST walk (reference oracle)",
        lambda network, env, mask, cache=None: network.evaluate_bits(env, mask),
        _interpreted_pass,
    )
)

register_engine(
    bigint_engine(
        "compiled",
        "flat slot program with fault-cone-restricted passes",
        lambda network, env, mask, cache=None: compile_network(
            network, cache=cache
        ).evaluate_bits(env, mask),
        _compiled_pass,
    )
)


def engine_window(engine: Engine, network: Network, plan, count: int, store) -> int:
    """Patterns per window ``engine`` streams over ``count`` patterns of
    ``network``: the plan's lane or big-int window, by engine kind."""
    width = plan.lane_window if engine.lanes else plan.bigint_window
    return width(count, compile_network(network, cache=store).num_slots)


# -- the words loop -------------------------------------------------------------------


def collect_words(
    patterns: PatternSet, words: WordsKernel, active: Sequence[int], width: int
) -> List[int]:
    """Whole-set detection words of the faults at ``active``, in that
    order: the one words loop, in-process and in every pool worker.

    The result is one whole-set-width big-int per fault by construction
    (callers want the full words), so only the per-window simulation is
    bounded-memory - unlike :func:`drive_windows`, which stays
    constant-memory end to end.
    """
    slot_of = {position: slot for slot, position in enumerate(active)}
    found = [0] * len(active)
    for start, chunk in patterns.windows(width):
        for position, word in zip(*words(chunk, active)):
            found[slot_of[position]] |= word << start
    return found


def difference_words(
    engine,
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    jobs: Optional[int] = None,
    schedule: Optional[str] = None,
    tune=None,
    cache=None,
) -> List[int]:
    """:meth:`Engine.difference_words`: :func:`collect_words` over the
    engine's words kernel, streamed through the engine's window - across
    a ``jobs``-wide pool when the workload pays for one
    (:func:`repro.simulate.sharded.pooled_difference_words`)."""
    engine, store, plan, _mode = resolve_knobs(
        engine, jobs, schedule, tune, None, cache
    )
    faults = list(faults)
    words = engine.words_kernel(network, faults, schedule, plan, store)
    width = engine_window(engine, network, plan, patterns.count, store)
    if jobs is not None and jobs > 1:
        from .sharded import pooled_difference_words

        pooled = pooled_difference_words(
            network, patterns, faults, words, width, jobs, schedule, store
        )
        if pooled is not None:
            return pooled
    return collect_words(patterns, words, range(len(faults)), width)


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
    resolved, store, plan, mode = resolve_knobs(
        engine, jobs, schedule, tune, collapse, cache
    )
    check_stop_at_coverage(stop_at_coverage)
    if faults is None:
        faults = network.enumerate_faults()
    # Validate up front - a bad fault list should raise before the
    # simulation burns time, not in build_result afterwards.
    faults = dedupe_faults(faults)
    check_injectable(network, faults)
    # Either stop pins the stopping grid to FIRST_DETECTION_CHUNK on
    # every engine: where a coverage-stopped run ends depends on the
    # grid, so all engines must stop on the same one to stay
    # bit-identical.  Without a stop the engine's own window applies.
    retire = stop_at_first_detection or stop_at_coverage is not None

    def outcomes(simulated, weights):
        return windowed_outcomes(
            network, patterns, simulated, FIRST_DETECTION_CHUNK if retire else None,
            stop_at_first_detection, resolved, schedule, plan,
            stop_at_coverage=stop_at_coverage, coverage_weights=weights,
            cache=store, jobs=jobs,
        )

    if mode == "off" or not faults:
        result = build_result(
            network.name, patterns.count, faults, outcomes(faults, None)
        )
    else:
        from ..faults.structural import collapse_network_faults

        collapsed = collapse_network_faults(network, faults, cache=store)
        class_outcomes = outcomes(
            collapsed.representative_faults(), collapsed.class_sizes()
        )
        result = build_result(
            network.name,
            patterns.count,
            faults,
            collapsed.scatter_outcomes(class_outcomes),
        )
        result.collapsed_classes = collapsed.class_count
    store.flush()
    return result


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

SESSION_BLOCK_RAMP = 8
"""Grid windows in a retiring run's first speculative block.

Below roughly this many 256-pattern windows a batched pass is all
fixed cost - pattern generation, plan build, per-cone kernel dispatch
all outweigh the lane arithmetic - so simulating one grid window costs
nearly as much as simulating eight.  Starting the doubling ramp here
loses almost nothing when the run stops at the very first boundary and
saves whole blocks' worth of fixed costs on every longer run."""


def session_block_size(grid: int, width: int) -> Tuple[int, int]:
    """``(first block, cap)`` for a retiring run's speculative blocks.

    Blocks start at :data:`SESSION_BLOCK_RAMP` grid windows and double
    up to the engine's streaming window ``width`` rounded down to a grid
    multiple: a run stopped at boundary ``b`` has then simulated at
    most about twice ``b`` patterns (plus the first block), bounding
    the speculation waste, while long runs reach full batched-sweep
    widths.
    """
    cap = max(grid, width // grid * grid)
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
    width: int,
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
      near the engine's window ``width``) are replayed against the ``grid`` boundaries
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
        block, cap = session_block_size(grid, width)
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

    :func:`drive_windows` over the engine's block kernel - or, when
    ``jobs > 1`` and the workload pays for a pool, over the pool kernel
    that runs it in ``jobs`` forked workers
    (:func:`repro.simulate.sharded.pooled_outcomes`).  ``engine`` is a
    registered name or an :class:`Engine`.  ``window`` is the window
    width - the stopping grid when a stop is asked for - and ``None``
    streams the engine's own window (:func:`engine_window`), which also
    caps a retiring run's speculative blocks.
    ``stop_at_first_detection`` retires a fault at the end of its first
    detecting window (count pinned to 1); ``stop_at_coverage``
    additionally stops the run at the first window boundary where the
    ``coverage_weights``-weighted covered fraction
    (:func:`resolve_coverage_weights`) reaches the threshold; and
    ``on_window(consumed, covered_weight) -> bool`` is the streaming
    session seam - returning ``False`` ends the run, which is how
    :func:`streaming_coverage` plugs in its Wilson-bound stop.
    ``schedule`` reaches the engine's batch planner.
    """
    engine, store, plan, _mode = resolve_knobs(
        engine, jobs, schedule, tune, None, cache
    )
    check_stop_at_coverage(stop_at_coverage)
    weights = resolve_coverage_weights(faults, coverage_weights)
    stop = stop_predicate(
        stop_at_first_detection, stop_at_coverage, on_window, weights
    )
    detect = engine.block_kernel(network, faults, schedule, plan, store)
    width = engine_window(engine, network, plan, patterns.count, store)
    if jobs is not None and jobs > 1:
        from .sharded import pooled_outcomes

        outcomes = pooled_outcomes(
            network, patterns, faults, window, detect, weights, stop, width,
            jobs, schedule, store,
        )
        if outcomes is not None:
            return outcomes
    grid = width if window is None else window
    return drive_windows(patterns, len(faults), grid, detect, weights, stop, width)


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
    from ..faults.structural import collapse_network_faults
    from ..protest.testlength import coverage_lower_bound

    resolved, store, plan, mode = resolve_knobs(
        engine, jobs, schedule, tune, collapse, cache
    )
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
            False, resolved, schedule, plan,
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
