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
(big-int bit-parallel).  The fault passes are priced by the engine
registry (:mod:`repro.simulate.registry`):

* ``engine="compiled"`` (default) - the flat slot program of
  :mod:`repro.simulate.compiled`: the good circuit is simulated once,
  each fault is carried to the stem of its fanout-free region, and each
  stem runs one event-driven pass over its fanout cone.
* ``engine="interpreted"`` - the original reference path through
  :meth:`Network.evaluate_bits`, one full network pass per fault.
  Kept as the oracle the equivalence suite checks the other engines
  against; all engines produce bit-identical results.
* ``engine="vector"`` - :mod:`repro.simulate.vector`: the same slot
  program and stem pass on numpy ``uint64`` lane rows - slower than
  ``compiled`` on every workload measured so far (see the ROADMAP).

``jobs`` is the only parallelism switch: every engine runs in-process
when it is ``None`` or 1 and fans its faults out across a ``jobs``-wide
worker pool (:mod:`repro.simulate.sharded`) above that, once the
workload is big enough to pay for the fork.  Every knob is validated
once, by :func:`resolve_knobs`, at every public entry point.

An engine is only its one fault pass
(:class:`~repro.simulate.registry.Engine`, :data:`FaultPass`): a
stream of the nonzero difference words of a window.  That stream is
reduced in two places and nowhere else: :func:`block_detections`
folds it to per-fault first indices and counts for the one window
loop, :func:`drive_windows` (in-process and in every pool worker), and
the one words loop, :func:`collect_words`, ORs it into whole-set
detection words.  Every engine streams the same window in every
mode (:func:`engine_window`).  A run retires or stops
through one seam, the ``on_window`` predicate of
:func:`windowed_outcomes`: without one the run counts, with one it
retires detected faults on the :data:`FIRST_DETECTION_CHUNK` grid and
ends where the predicate says so (:func:`streaming_coverage`'s
Wilson-bound stop; ``stop_at_first_detection`` always continues).

Every label-keyed consumer - the entry points here, parallel and
deductive fault simulation, fault dictionaries, the PROTEST estimators
and the optimizer - builds one :class:`FaultUniverse`
(:func:`fault_universe`): the fault list enumerated when none is given,
literal duplicates dropped, every fault checked injectable and, under
``collapse="on"``, the equivalence classes the engines simulate.
Results are keyed by fault *label* (``fault.describe()``) but computed
per fault: a fault list in which two **distinct** faults share a label
raises instead of silently merging their detection records.

The warm path: a call on fault objects seen before re-derives nothing
per list - the universe and the stem plan of its simulated list
(:func:`repro.simulate.compiled.stem_plan`) are memoised in the store
by element identity (kinds ``universe`` and ``stem_plan``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..netlist.network import Network, NetworkFault
from .artifacts import network_fingerprint, resolve_cache
from .compiled import compile_network, stem_plan
from .logicsim import PatternSet
from .registry import Engine, get_engine, register_engine

if TYPE_CHECKING:
    from ..faults.structural import CollapsedFaultSet

#: The grid of every run with an ``on_window`` predicate
#: (``stop_at_first_detection``, streaming sessions), on every engine and
#: read at call time: a fault detected in window k retires at its end,
#: and runs stop only at window boundaries.
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


def dedupe_faults(faults: Sequence[NetworkFault]) -> List[NetworkFault]:
    """Drop literal duplicates; raise when distinct faults share a label.

    The one collision policy every label-keyed consumer shares, applied
    by :func:`fault_universe` (and by the public entry of
    :func:`repro.faults.structural.collapse_network_faults`).  Every
    colliding label is reported in one message, not just the first, so
    a large (possibly collapsed) fault list fails with a single
    actionable error."""
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
    reported "undetected", silently deflating coverage.  Applied by
    :func:`fault_universe`, so every label-keyed consumer agrees on the
    error instead of each tolerating ghosts differently.  *All*
    offending faults are listed in one message, so a large collapsed
    set fails with a single actionable error instead of one fault per
    run.
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


@dataclass(frozen=True)
class FaultUniverse:
    """One fault list as every label-keyed consumer sees it.

    ``faults`` is the list with literal duplicates dropped and every
    fault checked injectable, ``labels`` their labels (the result keys,
    unique by construction), and ``collapsed`` the difference-equivalence
    classes under ``collapse="on"`` (``None`` otherwise).  ``simulated``
    is the list the engines run - one representative per class when
    collapsed, else ``faults`` - with one coverage weight per simulated
    fault in ``weights`` (its class size), and :meth:`scatter` maps the
    outcomes of ``simulated`` back over ``faults``.  Built only by
    :func:`fault_universe`.
    """

    faults: List[NetworkFault]
    labels: List[str]
    simulated: List[NetworkFault]
    weights: List[int]
    collapsed: Optional["CollapsedFaultSet"] = None

    @property
    def class_count(self) -> Optional[int]:
        """Classes simulated under collapsing, ``None`` without."""
        return None if self.collapsed is None else self.collapsed.class_count

    def scatter(self, outcomes: Sequence) -> List:
        """Per-fault values from per-``simulated``-fault ``outcomes``."""
        if self.collapsed is None:
            return list(outcomes)
        return self.collapsed.scatter_outcomes(outcomes)


def fault_universe(
    network: Network,
    faults: Optional[Sequence[NetworkFault]] = None,
    collapse: str = "off",
    store=None,
) -> FaultUniverse:
    """The :class:`FaultUniverse` of ``faults`` (``None``: every fault
    :meth:`Network.enumerate_faults` yields) under the resolved
    ``collapse`` mode, collapse classes fetched through ``store``.

    The one place the collision policy (:func:`dedupe_faults`), the
    injectability check (:func:`check_injectable`) and the collapse
    decision run, so a bad fault list raises the same error from every
    consumer before any simulation work.

    Memoised in the store (kind ``universe``, read only) on the network
    fingerprint and the mode for the two latest lists of fault objects
    (:meth:`~repro.simulate.artifacts.ArtifactStore.fetch_identical`: equal
    copies, a changed list or network miss); ``faults=None`` needs no list.
    """
    from ..faults.structural import collapse_unique_faults

    store = resolve_cache(store)

    def build(faults) -> FaultUniverse:
        faults = dedupe_faults(faults)
        check_injectable(network, faults)
        labels = [fault.describe() for fault in faults]
        if collapse == "on" and faults:
            collapsed = collapse_unique_faults(network, faults, store)
            return FaultUniverse(
                faults, labels, collapsed.representative_faults(),
                collapsed.class_sizes(), collapsed,
            )
        return FaultUniverse(faults, labels, faults, [1] * len(faults))

    key = (network_fingerprint(network), collapse, faults is None)
    if faults is None:
        return store.fetch("universe", key, lambda: build(network.enumerate_faults()))
    return store.fetch_identical("universe", key, faults, build)


def check_jobs(jobs: Optional[int]) -> None:
    """Validate a worker count (``None`` means 1: in-process).

    Only an ``int`` of at least 1 passes - a ``bool``, a float such as
    ``2.0`` or a numeric string would otherwise slip through to the
    pool and fail there.
    """
    if jobs is None:
        return
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral):
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def check_coverage(value, name: str) -> None:
    """Validate a coverage fraction: only a real, non-bool number in
    ``(0, 1]`` passes, and the error names the value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number in (0, 1], got {value!r}")
    if not (0 < value <= 1):
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def build_result(
    network_name: str,
    pattern_count: int,
    labels: Sequence[str],
    outcomes: Sequence[FaultOutcome],
) -> FaultSimResult:
    """Assemble a :class:`FaultSimResult` from per-fault outcomes keyed
    by the fault labels a :class:`FaultUniverse` already computed (its
    ``labels``, unique by construction)."""
    detected: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    undetected: List[str] = []
    for label, outcome in zip(labels, outcomes):
        if outcome is None:
            undetected.append(label)
        else:
            detected[label], counts[label] = outcome
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
    collapse: Optional[str] = None,
    cache=None,
):
    """Validate and resolve the run knobs once: ``(engine, store,
    collapse mode)``.

    ``engine`` is a registered name (an :class:`Engine` passes
    through), ``jobs`` an ``int >= 1`` (``None`` means 1), ``collapse``
    a collapsing mode and ``cache`` an artifact-store spec.  Every
    public entry point calls this before doing any work, so a bad knob
    raises the same error on every engine and every estimator method;
    handing the resolved store on down (as ``cache``) makes every later
    resolution a pass-through.
    """
    from ..faults.structural import get_collapse_mode

    if not isinstance(engine, Engine):
        engine = get_engine(engine)
    check_jobs(jobs)
    store = resolve_cache(cache)
    return engine, store, get_collapse_mode(collapse)


# -- the fault pass -------------------------------------------------------------------

#: ``passes(chunk, active) -> stream of (position, word)`` - one
#: engine's fault pass over the pattern window ``chunk`` for the
#: fault-list positions in ``active``: every position whose difference
#: word in the window is nonzero, with that word (bit k is pattern k of
#: the window), in any order.  A stream, so only the words in flight are
#: alive - a wide window never holds every fault's word at once.
FaultPass = Callable[[PatternSet, List[int]], Iterator[Tuple[int, int]]]

#: ``detect(start, chunk, active) -> (positions, first indices, counts)``
#: - a fault pass over the block ``chunk`` (which begins at pattern
#: ``start``) reduced by :func:`block_detections`, or the pool's
#: sharded equivalent.  Parallel lists of ints rather than a tuple per
#: detection: each tuple is a GC-tracked allocation, and thousands per
#: block trigger full collections mid-run.
BlockKernel = Callable[
    [int, PatternSet, List[int]], Tuple[List[int], List[int], List[int]]
]


def block_detections(
    passes: FaultPass, start: int, chunk: PatternSet, active: List[int]
) -> Tuple[List[int], List[int], List[int]]:
    """The :data:`BlockKernel` reduction of one fault pass: each
    detected position with its absolute first detecting index and its
    number of detecting patterns in the block."""
    positions, firsts, counts = [], [], []
    for position, word in passes(chunk, active):
        positions.append(position)
        firsts.append(start + (word & -word).bit_length() - 1)
        counts.append(word.bit_count())
    return positions, firsts, counts


def _interpreted_pass(network: Network, faults, store) -> FaultPass:
    def passes(chunk: PatternSet, active: List[int]):
        env, mask = chunk.env, chunk.mask
        good = network.output_bits(env, mask)
        for position in active:
            faulty = network.output_bits(env, mask, faults[position])
            difference = 0
            for net in network.outputs:
                difference |= good[net] ^ faulty[net]
            if difference:
                yield position, difference

    return passes


def _compiled_pass(network: Network, faults, store) -> FaultPass:
    compiled = compile_network(network, cache=store)
    plan = stem_plan(compiled, faults, store)
    return lambda chunk, active: compiled.simulate(chunk.env, chunk.mask).detections(
        plan, active
    )


register_engine(
    Engine(
        "interpreted",
        "gate-by-gate AST walk (reference oracle)",
        lambda network, env, mask, cache=None: network.evaluate_bits(env, mask),
        _interpreted_pass,
    )
)

register_engine(
    Engine(
        "compiled",
        "flat slot program with stem-observability fault passes",
        lambda network, env, mask, cache=None: compile_network(
            network, cache=cache
        ).evaluate_bits(env, mask),
        _compiled_pass,
    )
)


def engine_window(count: int) -> int:
    """Patterns per window every engine streams over ``count`` patterns:
    :data:`repro.simulate.sharded.DEFAULT_WINDOW`, read at call time and
    clamped to ``[1, count]``."""
    from . import sharded

    return max(1, min(sharded.DEFAULT_WINDOW, count))


# -- the words loop -------------------------------------------------------------------


def collect_words(
    patterns: PatternSet, passes: FaultPass, size: int, width: int
) -> List[int]:
    """Whole-set detection words of ``size`` faults, in fault-list
    order: the one words loop, streaming ``width``-pattern windows.

    The result is one whole-set-width big-int per fault by construction
    (callers want the full words), so only the per-window simulation is
    bounded-memory - unlike :func:`drive_windows`, which stays
    constant-memory end to end.
    """
    active = list(range(size))
    found = [0] * size
    for start, chunk in patterns.windows(width):
        for position, word in passes(chunk, active):
            found[position] |= word << start
    return found


def difference_words(
    engine,
    network: Network,
    patterns: PatternSet,
    faults: Sequence[NetworkFault],
    *,
    cache=None,
) -> List[int]:
    """:meth:`Engine.difference_words`: :func:`collect_words` over the
    engine's fault pass, streamed through the engine's window."""
    engine, store, _mode = resolve_knobs(engine, None, None, cache)
    faults = list(faults)
    passes = engine.fault_pass(network, faults, store)
    width = engine_window(patterns.count)
    return collect_words(patterns, passes, len(faults), width)


# -- the public entry points ----------------------------------------------------------


def fault_simulate(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
    stop_at_first_detection: bool = False,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    collapse: Optional[str] = None,
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
    workloads, and hosts without ``fork``, stay in-process.  A pool
    partitions the fault list by cone cost
    (:func:`repro.simulate.schedule.partition_faults`), which never
    changes a single result bit.
    ``collapse`` names a structural-collapsing mode
    (:mod:`repro.faults.structural`: ``"off"`` - the historical full
    universe - by default, ``"on"`` to simulate one representative per
    difference-equivalence class and scatter the outcomes back over the
    members).  It never changes a result bit -
    the collapsed run is bit-identical - but it multiplies throughput by
    the class/fault ratio on every engine, which all see the shorter
    representative list.  Unknown modes raise
    here with the list of available modes.
    ``cache`` selects the artifact store everything derivable from the
    network alone (compiled slot programs, cone metadata, collapse
    classes, fault partitions) is keyed in by
    content fingerprint (:mod:`repro.simulate.artifacts`: ``None`` or
    ``"memory"`` - the process-wide in-memory store - by default,
    ``"off"``, or an :class:`ArtifactStore`).  Caching never
    changes a result bit - warm and cold runs are bit-identical - and
    unknown modes raise here with the list of available modes, on every
    engine.
    """
    resolved, store, mode = resolve_knobs(engine, jobs, collapse, cache)
    universe = fault_universe(network, faults, mode, store)
    outcomes = windowed_outcomes(
        network, patterns, universe, resolved, jobs, store,
        _always_continue if stop_at_first_detection else None,
    )
    result = build_result(network.name, patterns.count, universe.labels, outcomes)
    result.collapsed_classes = universe.class_count
    return result


# -- the window driver ----------------------------------------------------------------

SESSION_BLOCK_RAMP = 8
"""Grid windows in a retiring run's first speculative block.

Below roughly this many 256-pattern windows a pass is all fixed cost -
pattern generation, the good pass and one call per cone gate all
outweigh the word arithmetic - so simulating one grid window costs
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

    Every engine runs this loop; ``detect`` (:data:`BlockKernel`) is
    the engine's fault pass under :func:`block_detections`, or the
    pool's sharded equivalent.  Two modes:

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


def _always_continue(consumed: int, covered_weight: int) -> bool:
    """The ``on_window`` of ``stop_at_first_detection``: retire only."""
    return True


def windowed_outcomes(
    network: Network,
    patterns: PatternSet,
    universe: FaultUniverse,
    engine="compiled",
    jobs: Optional[int] = None,
    cache=None,
    on_window=None,
) -> List[FaultOutcome]:
    """Per-fault (first index, count) outcomes over ``universe.faults``.

    :func:`drive_windows` over the engine's fault pass on
    ``universe.simulated`` reduced by :func:`block_detections` - or,
    when ``jobs > 1`` and the workload pays for a pool, over the pool
    kernel that runs that reduction in ``jobs`` forked workers
    (:func:`repro.simulate.sharded.pooled_outcomes`) - scattered back
    over the universe's faults.  ``engine`` is a registered name or an
    :class:`Engine`.  ``on_window(consumed, covered_weight) -> bool``
    is the one stop seam: without it the run counts every detection on
    the engine window (:func:`engine_window`); with it detected
    faults retire (count pinned to 1, their class weight covered) on the
    :data:`FIRST_DETECTION_CHUNK` grid - the same on every engine, so
    every stopping point is engine-independent - and returning
    ``False`` ends the run, which is how :func:`streaming_coverage`
    plugs in its Wilson-bound stop.
    """
    engine, store, _mode = resolve_knobs(engine, jobs, None, cache)
    faults, weights = universe.simulated, universe.weights
    passes = engine.fault_pass(network, faults, store)
    width = engine_window(patterns.count)
    grid = width if on_window is None else FIRST_DETECTION_CHUNK
    outcomes = None
    if jobs is not None and jobs > 1:
        from .sharded import pooled_outcomes

        outcomes = pooled_outcomes(
            network, patterns, faults, grid, passes, weights, on_window, width,
            jobs, store,
        )
    if outcomes is None:
        detect = partial(block_detections, passes)
        outcomes = drive_windows(
            patterns, len(faults), grid, detect, weights, on_window, width
        )
    return universe.scatter(outcomes)


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
    collapse: Optional[str] = None,
    cache=None,
) -> StreamingCoverage:
    """Consume a pattern source incrementally until the coverage lower
    bound clears the target - "how many patterns for 99% coverage at
    confidence c?" answered by simulating until the interval tightens.

    ``patterns`` is anything with the streaming seam - a
    :class:`~repro.simulate.source.PatternSource` (the point: LFSR and
    weighted NLFSR sequences stream window by window without ever
    materialising) or a plain :class:`PatternSet`.  Between
    :data:`FIRST_DETECTION_CHUNK`-wide windows, detected faults retire
    exactly as under ``stop_at_first_detection``, the observed detected-of-
    total counts feed :func:`repro.protest.testlength.coverage_lower_bound`,
    and the session stops at the first window boundary where the Wilson
    lower bound on coverage reaches ``target_coverage`` - so a
    ``satisfied`` session guarantees bound >= target at the demanded
    confidence, with empirical coverage at or above the bound.

    ``engine``, ``jobs``, ``collapse`` and ``cache`` resolve exactly
    as in :func:`fault_simulate` - unknown
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
    from ..protest.testlength import check_confidence, coverage_lower_bound

    resolved, store, mode = resolve_knobs(engine, jobs, collapse, cache)
    check_coverage(target_coverage, "target_coverage")
    check_confidence(confidence)
    universe = fault_universe(network, faults, mode, store)
    total_weight = sum(universe.weights)
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
            network, patterns, universe, resolved, jobs, store, on_window
        )
        if not curve:
            curve.append((0, 1.0 if total_weight == 0 else 0.0))
    return StreamingCoverage(
        network_name=network.name,
        pattern_count=state["consumed"],
        pattern_budget=patterns.count,
        fault_count=len(universe.faults),
        detected_weight=state["covered"],
        total_weight=total_weight,
        target_coverage=target_coverage,
        confidence=confidence,
        lower_bound=state["bound"],
        satisfied=state["satisfied"],
        exhausted=not state["satisfied"],
        curve=curve,
        collapsed_classes=universe.class_count,
    )


def coverage_curve(
    network: Network,
    patterns: PatternSet,
    faults: Optional[Sequence[NetworkFault]] = None,
    points: int = 32,
    engine: str = "compiled",
    jobs: Optional[int] = None,
    collapse: Optional[str] = None,
    cache=None,
) -> List[Tuple[int, float]]:
    """(pattern count, fault coverage) samples along a pattern sequence.

    Used for the random-vs-deterministic comparison of experiment E8:
    run once over the full set, then read off when each fault first
    fell.  ``collapse`` and ``cache`` resolve exactly as in
    :func:`fault_simulate` (first-detection indices are bit-identical
    either way, so the curve is too - collapse and caching only
    multiply throughput).  The curve of a confidence-bounded session is
    :func:`streaming_coverage`'s ``curve``.
    """
    if isinstance(points, bool) or not isinstance(points, numbers.Integral):
        raise ValueError(f"points must be an int >= 1, got {points!r}")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    result = fault_simulate(
        network, patterns, faults, engine=engine, jobs=jobs,
        collapse=collapse, cache=cache,
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
