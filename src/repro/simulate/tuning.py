"""Adaptive execution planning: calibrated chunk/window autotuning.

PROTEST's whole premise (Wunderlich, DAC'86) is replacing brute-force
simulation with cheap cost models.  PR 4 extended that idea from the
paper's probability estimates to *who runs where* (cone-cost LPT
partitioning, cross-site batch coalescing); this module extends it to
*how wide each pass runs*.  The vector engine's column chunk
(:data:`~repro.simulate.vector.VECTOR_CHUNK`), the streaming window
widths (:data:`~repro.simulate.vector.VECTOR_WINDOW`,
:data:`~repro.simulate.sharded.DEFAULT_WINDOW`) and the coalescer's
pricing constants
(:data:`~repro.simulate.vector.COALESCE_OVERHEAD_WORDS`) were all
hand-calibrated on one SSE-baseline host; a deep spine cone and a
shallow island want *different* chunk widths, and a different host
wants different constants altogether.

Three pieces:

* :class:`TuningProfile` - four host calibration constants (per-word
  kernel cost, per-call numpy overhead, block-build cost, effective
  cache budget), JSON round-trippable so a profile measured once can be
  shipped with a deployment.  :func:`calibrate_profile` measures them
  with a sub-second suite of micro-probes; :meth:`TuningProfile.default`
  is the no-calibration fallback mirroring the hand-tuned constants.

* :class:`ExecutionPlan` - the decisions the engines consume:
  ``chunk_words`` (per-site-group column chunk: deep cones get narrow
  chunks that keep the ``[batch, chunk]`` cone working set
  cache-resident, shallow islands get wide ones that amortise numpy's
  per-call overhead), ``lane_window``/``bigint_window`` (patterns per
  streaming window, sized to the slot program's width - each engine
  names its window kind, and streams that one window in every mode:
  in-process, pooled, retiring and words), and the re-derived
  coalescer pricing terms.  :class:`DefaultPlan` reproduces
  the historical global constants exactly - it reads them from the
  engine modules *at call time*, so monkeypatching
  ``vector.VECTOR_CHUNK`` keeps working; :class:`TunedPlan` derives
  everything from a profile.

* :func:`resolve_plan` - the name resolution behind the ``--tune``
  knob (which :func:`repro.simulate.faultsim.resolve_knobs` applies at
  every public entry point, against the run's artifact store),
  mirroring how ``--engine``/``--schedule`` resolve:
  ``"default"`` (or ``None``), ``"auto"`` (calibrate once per process,
  memoised; ``$REPRO_TUNE_PROFILE`` names a JSON path to persist/reuse
  the host profile), or a path to a profile JSON.  Unknown names and
  malformed profiles raise this module's exact messages on every entry
  point - drift-tested like the engine and schedule registries.

Planning never changes a result bit: chunks and windows are pure
tilings of the same pass, which the differential harness
(``tests/test_engine_equivalence.py``) holds across every engine x
schedule x tuning-plan combination.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = [
    "DEFAULT_TUNING",
    "DefaultPlan",
    "ExecutionPlan",
    "TunedPlan",
    "TuningProfile",
    "available_tunings",
    "calibrate_profile",
    "resolve_plan",
]

DEFAULT_TUNING = "default"
"""The plan engines resolve when the caller passes ``None``."""

TUNINGS = ("auto", "default")
"""The built-in plan names (any other string is a profile JSON path)."""

OVERHEAD_AMORTISE = 14
"""A chunked kernel call must carry at least this many times its own
per-call overhead in real word work (``batch * chunk`` words) - the
dominant term on measured sweeps: narrow chunks dissolve a cone pass
into numpy dispatch cost long before residency pays, so wide-batch
sites can afford narrow chunks and thin-batch sites cannot."""

REUSE_SPAN = 8
"""How many downstream consumers the residency term keeps a produced
row resident for.  A cone pass *streams* - each scratch row is written
once and read by its few reader gates shortly after - so the working
set that wants cache residency is the producer-consumer span, not the
whole cone; the span saturates quickly, which is also what keeps deep
cones' chunks narrower than shallow islands' without collapsing them."""

WINDOW_AMORTISE = 24
"""A streaming window must carry at least this many times the per-call
overhead per fault (each window pays one faulty-kernel injection call
and one activation filter per live fault)."""

WINDOW_CACHE_MULT = 4
"""The good-values block of a window (``num_slots`` lane rows) may span
this many cache budgets: the good pass streams each row once, only the
per-cone chunk loop needs residency."""

MAX_CHUNK_WORDS = 1 << 16
"""Upper bound on a planned column chunk (64 Ki words = 512 KiB per
row): past this even a one-gate cone streams through DRAM and wider
chunks only delay the activation filter."""

MIN_LANE_WINDOW_WORDS = 1
MAX_LANE_WINDOW_WORDS = 1 << 14
"""Planned lane-window width bounds, in uint64 words per net.  The
upper bound is 1M patterns - the measured plateau: by then the
per-window costs (input packing, one injection call per fault) are
fully amortised, and wider windows only grow the difference-row blocks
the cone passes carry."""

MIN_BIGINT_WINDOW_WORDS = 64
MAX_BIGINT_WINDOW_WORDS = 1 << 14
"""Planned big-int window bounds in 64-bit words per net (4 Ki - the
historical :data:`~repro.simulate.sharded.DEFAULT_WINDOW` - is the
measured sweet spot's order of magnitude; the windowed big-int pass
wins by convergence early-exit, which narrower windows sharpen)."""

ASSUMED_SLOTS = 64
"""Slot-program width assumed when a window is planned without a
compiled program at hand."""


# -- the host profile ------------------------------------------------------------------


@dataclass(frozen=True)
class TuningProfile:
    """Host calibration constants, the currency every plan prices in.

    All times are nanoseconds; ``cache_words`` is the effective
    fast-memory budget in uint64 words (the largest streaming working
    set the probe suite measured at near-resident per-word cost).  The
    absolute scale never matters - plans only consume the *ratios*
    (calls per word, block builds per word) and the cache budget - so a
    profile measured with a coarse clock still plans correctly.
    """

    name: str
    word_ns: float
    """Per-uint64-word cost of a streaming bitwise kernel op."""

    call_ns: float
    """Per-kernel-call overhead (numpy dispatch + slicing)."""

    block_ns: float
    """Per-word cost of materialising a good-or-injected block
    (``np.tile`` + scatter), the coalescer's multi-site term."""

    cache_words: int
    """Effective cache budget in uint64 words."""

    def __post_init__(self) -> None:
        costs = (self.word_ns, self.call_ns, self.block_ns)
        # json happily parses NaN/Infinity literals, and neither compares
        # <= 0 - without the finiteness check they would pass validation
        # and blow up mid-simulation with a non-ValueError.
        if not all(math.isfinite(cost) and cost > 0 for cost in costs):
            raise ValueError(
                "tuning profile costs must be positive finite numbers, got "
                f"word_ns={self.word_ns}, call_ns={self.call_ns}, "
                f"block_ns={self.block_ns}"
            )
        if self.cache_words < 1:
            raise ValueError(
                f"tuning profile cache_words must be >= 1, got {self.cache_words}"
            )

    @property
    def call_overhead_words(self) -> int:
        """Per-call overhead expressed in word-equivalents - the tuned
        counterpart of :data:`~repro.simulate.vector.COALESCE_OVERHEAD_WORDS`."""
        return max(1, round(self.call_ns / self.word_ns))

    @property
    def block_build_factor(self) -> float:
        """Cost of one block-build word relative to one kernel word."""
        return self.block_ns / self.word_ns

    @classmethod
    def default(cls) -> "TuningProfile":
        """The no-calibration fallback: the hand-tuned constants of the
        vector engine, restated as a profile (2048-word call overhead,
        block builds at kernel-word cost, and a cache budget that makes
        the planner reproduce the 1536-word chunk on the benchmark
        cones it was measured on)."""
        return cls(
            name="default",
            word_ns=1.0,
            call_ns=2048.0,
            block_ns=1.0,
            cache_words=1 << 19,
        )

    # -- JSON round-trip ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict, source: str = "<dict>") -> "TuningProfile":
        if not isinstance(data, dict):
            raise ValueError(
                f"invalid tuning profile {source!r}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        fields = ("name", "word_ns", "call_ns", "block_ns", "cache_words")
        missing = [field for field in fields if field not in data]
        if missing:
            raise ValueError(
                f"invalid tuning profile {source!r}: missing fields "
                + ", ".join(missing)
            )
        try:
            return cls(
                name=str(data["name"]),
                word_ns=float(data["word_ns"]),
                call_ns=float(data["call_ns"]),
                block_ns=float(data["block_ns"]),
                cache_words=int(data["cache_words"]),
            )
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"invalid tuning profile {source!r}: {error}"
            ) from None

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TuningProfile":
        source = str(path)
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise ValueError(
                f"invalid tuning profile {source!r}: {error}"
            ) from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"invalid tuning profile {source!r}: not valid JSON ({error})"
            ) from None
        return cls.from_dict(data, source=source)


# -- calibration probes ----------------------------------------------------------------


def _best_seconds(run, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate_profile(name: str = "auto") -> TuningProfile:
    """Measure the four profile constants with micro-probes (<~0.5s).

    * **per-word kernel cost** - streaming ``a & b | c`` over arrays
      comfortably past cache, per word;
    * **per-call overhead** - the same kernel over 8-word operands,
      where dispatch dominates;
    * **block-build cost** - ``np.tile`` + scatter of injected rows into
      a good block, per word (the coalescer's multi-site term);
    * **effective cache budget** - the largest streaming working set
      whose per-word cost stays within 1.6x of the smallest probe's.
    """
    import numpy as np

    rng = np.random.default_rng(1986)

    # Per-word kernel cost on a decidedly DRAM-resident working set.
    big = 1 << 21  # 3 arrays x 16 MiB
    a = rng.integers(0, 1 << 63, size=big, dtype=np.uint64)
    b = rng.integers(0, 1 << 63, size=big, dtype=np.uint64)
    c = rng.integers(0, 1 << 63, size=big, dtype=np.uint64)
    stream_ns = _best_seconds(lambda: a & b | c) * 1e9 / big

    # Per-call overhead on 8-word operands, amortised over many calls
    # (the loop is timed best-of-N too - interpreter jitter on the tiny
    # calls is the noisiest probe, and the chunk floor scales with it).
    tiny_a, tiny_b, tiny_c = a[:8], b[:8], c[:8]
    calls = 4096

    def tiny_calls():
        for _ in range(calls):
            tiny_a & tiny_b | tiny_c

    call_ns = max(1e-3, _best_seconds(tiny_calls) * 1e9 / calls - 16 * stream_ns)

    # Cache knee: per-word cost of the 3-operand kernel as the working
    # set grows; the budget is the largest size still near the floor.
    sizes = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    per_word = {}
    for size in sizes:
        xs, ys, zs = a[:size], b[:size], c[:size]
        repeats = max(1, (1 << 18) // size)

        def sized():
            for _ in range(repeats):
                xs & ys | zs

        seconds = _best_seconds(sized)
        per_word[size] = max(
            1e-3, seconds * 1e9 / (repeats * size) - call_ns / size
        )
    floor = min(per_word.values())
    cache_words = sizes[0]
    for size in sizes:
        if per_word[size] <= 1.6 * floor:
            cache_words = size
    word_ns = max(1e-3, per_word[cache_words])

    # Block build: tile the good row and scatter injected rows in.
    rows, width = 16, 1 << 12
    good = a[:width]
    injected = rng.integers(0, 1 << 63, size=(rows // 2, width), dtype=np.uint64)
    positions = np.arange(rows // 2, dtype=np.intp) * 2

    def build_block():
        block = np.tile(good, (rows, 1))
        block[positions] = injected

    block_ns = max(1e-3, _best_seconds(build_block) * 1e9 / (rows * width))

    return TuningProfile(
        name=name,
        word_ns=word_ns,
        call_ns=call_ns,
        block_ns=block_ns,
        cache_words=int(cache_words),
    )


# -- execution plans -------------------------------------------------------------------


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


class ExecutionPlan:
    """The decisions an engine consumes; subclasses pick the policy.

    All widths are deterministic pure functions of the plan's profile
    and the arguments - never of ambient state - so a plan can be
    resolved once and shared across windows, shards and forked workers.
    Every method clamps into the caller's physical bounds: chunks into
    ``[1, n_words]``, windows into ``[1, n_patterns]``.
    """

    name: str
    profile: TuningProfile

    def chunk_words(self, cone_gates: int, batch: int, n_words: int) -> int:
        """Column-chunk width (words) for one site-group cone pass."""
        raise NotImplementedError

    def lane_window(self, n_patterns: int, num_slots: Optional[int] = None) -> int:
        """Patterns per streaming window on a lane engine (vector) - in
        every mode: in-process, pooled, retiring block cap and words."""
        raise NotImplementedError

    def bigint_window(self, n_patterns: int, num_slots: Optional[int] = None) -> int:
        """Patterns per streaming window on a big-int engine (compiled,
        interpreted) - in every mode, like :meth:`lane_window`."""
        raise NotImplementedError

    def coalesce_overhead_words(self) -> int:
        """Per-kernel-call overhead in word-equivalents (coalescer)."""
        raise NotImplementedError

    def block_build_factor(self) -> float:
        """Multi-site block-build cost relative to one kernel word."""
        raise NotImplementedError

    def pricing_chunk(self, cone_gates: int, batch: int) -> int:
        """The chunk width the coalescer prices a configuration at
        (its :meth:`chunk_words` unconstrained by a concrete window)."""
        return self.chunk_words(cone_gates, batch, MAX_CHUNK_WORDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class DefaultPlan(ExecutionPlan):
    """The historical constants, exactly.

    Reads :data:`~repro.simulate.vector.VECTOR_CHUNK` and friends from
    their modules *at call time* rather than snapshotting them: the
    constants remain the single knob they always were (tests monkeypatch
    ``vector.VECTOR_CHUNK`` to force chunk-boundary coverage, and that
    must keep steering every chunk read now that the engines route
    through the plan object).
    """

    def __init__(self) -> None:
        self.name = "default"
        self.profile = TuningProfile.default()

    def chunk_words(self, cone_gates: int, batch: int, n_words: int) -> int:
        from . import vector

        return _clamp(vector.VECTOR_CHUNK, 1, max(1, n_words))

    def lane_window(self, n_patterns: int, num_slots: Optional[int] = None) -> int:
        from . import vector

        return _clamp(vector.VECTOR_WINDOW, 1, max(1, n_patterns))

    def bigint_window(self, n_patterns: int, num_slots: Optional[int] = None) -> int:
        from . import sharded

        return _clamp(sharded.DEFAULT_WINDOW, 1, max(1, n_patterns))

    def coalesce_overhead_words(self) -> int:
        from . import vector

        return vector.COALESCE_OVERHEAD_WORDS

    def block_build_factor(self) -> float:
        return 1.0

    def pricing_chunk(self, cone_gates: int, batch: int) -> int:
        from . import vector

        return vector.VECTOR_CHUNK


class TunedPlan(ExecutionPlan):
    """Widths derived from a :class:`TuningProfile`.

    The chunk model, shaped by the measured sweeps (see
    ``bench_perf_tuning``): a cone pass *streams* its scratch rows -
    each ``[batch, chunk]`` row is produced once and consumed by its
    few reader gates shortly after - so the pass is dominated by (a)
    numpy's per-call overhead, amortised over ``batch * chunk`` words
    per kernel call, and (b) residency of the producer-to-consumer span
    (:data:`REUSE_SPAN` rows plus the injected block), *not* of the
    whole cone.  The chunk is therefore the overhead-amortisation floor
    (:data:`OVERHEAD_AMORTISE` calls' worth of work per call, so
    wide-batch sites afford narrow chunks and thin-batch sites get wide
    ones) raised to the span-residency width when cache allows.  Deep
    cones never get wider chunks than shallow islands (the span term is
    non-increasing in cone size - property-tested), and every width
    stays inside ``[1, n_words]``.
    """

    def __init__(self, profile: TuningProfile, name: Optional[str] = None):
        self.profile = profile
        self.name = profile.name if name is None else name

    def chunk_words(self, cone_gates: int, batch: int, n_words: int) -> int:
        batch = max(1, batch)
        span = min(max(0, cone_gates) + 2, REUSE_SPAN)
        resident = self.profile.cache_words // ((batch + 1) * span)
        floor = -(-OVERHEAD_AMORTISE * self.profile.call_overhead_words // batch)
        chunk = max(floor, resident)
        return _clamp(chunk, 1, max(1, min(n_words, MAX_CHUNK_WORDS)))

    def _window_words(self, num_slots: Optional[int], lo: int, hi: int) -> int:
        slots = ASSUMED_SLOTS if not num_slots or num_slots < 1 else num_slots
        words = max(
            WINDOW_AMORTISE * self.profile.call_overhead_words,
            WINDOW_CACHE_MULT * self.profile.cache_words // slots,
        )
        return _clamp(words, lo, hi)

    def lane_window(self, n_patterns: int, num_slots: Optional[int] = None) -> int:
        words = self._window_words(
            num_slots, MIN_LANE_WINDOW_WORDS, MAX_LANE_WINDOW_WORDS
        )
        return _clamp(64 * words, 1, max(1, n_patterns))

    def bigint_window(self, n_patterns: int, num_slots: Optional[int] = None) -> int:
        words = self._window_words(
            num_slots, MIN_BIGINT_WINDOW_WORDS, MAX_BIGINT_WINDOW_WORDS
        )
        return _clamp(64 * words, 1, max(1, n_patterns))

    def coalesce_overhead_words(self) -> int:
        return self.profile.call_overhead_words

    def block_build_factor(self) -> float:
        return self.profile.block_build_factor


# -- resolution ------------------------------------------------------------------------


_DEFAULT_PLAN = DefaultPlan()
_AUTO_PLAN: Optional[TunedPlan] = None
_LOADED_PLANS: Dict[str, TunedPlan] = {}

PROFILE_ENV = "REPRO_TUNE_PROFILE"
"""Environment variable naming a JSON path where ``"auto"`` persists
(and reuses) the host profile; unset means calibrate once per process,
in memory only."""


def available_tunings() -> tuple:
    """The built-in plan names, sorted (profile paths resolve too)."""
    return tuple(sorted(TUNINGS))


_STORE_AUTO_PLANS: Dict[str, TunedPlan] = {}
"""Per-cache-directory memo of store-backed ``"auto"`` plans (the
in-memory/env-path plan keeps living in :data:`_AUTO_PLAN`)."""


def _auto_plan(store=None) -> TunedPlan:
    """The host-calibrated plan, cached by host fingerprint.

    ``$REPRO_TUNE_PROFILE`` remains the explicit override: when set, the
    profile loads from (or calibrates into) that JSON path exactly as
    before.  Otherwise, when the resolved artifact store has a disk
    tier, the calibrated profile persists there keyed by
    :func:`~repro.simulate.artifacts.host_fingerprint` - so
    ``--tune auto`` calibrates once per host, not once per process.
    With neither, calibration happens once per process, in memory.
    """
    global _AUTO_PLAN
    path = os.environ.get(PROFILE_ENV)
    if path is None and store is not None and store.directory is not None:
        directory = str(store.directory)
        plan = _STORE_AUTO_PLANS.get(directory)
        if plan is None:
            from .artifacts import host_fingerprint

            host = host_fingerprint()
            payload = store.fetch(
                "profile",
                (host,),
                lambda: asdict(calibrate_profile()),
                persist=True,
            )
            try:
                profile = TuningProfile.from_dict(
                    payload, source=f"cached host profile {host}"
                )
            except (ValueError, TypeError):
                # A malformed persisted payload degrades to a fresh
                # calibration - the store contract: never an error.
                profile = calibrate_profile()
            plan = TunedPlan(profile, name="auto")
            _STORE_AUTO_PLANS[directory] = plan
        return plan
    if _AUTO_PLAN is not None:
        return _AUTO_PLAN
    if path and Path(path).exists():
        profile = TuningProfile.load(path)
    else:
        profile = calibrate_profile()
        if path:
            profile.save(path)
    _AUTO_PLAN = TunedPlan(profile, name="auto")
    return _AUTO_PLAN


def resolve_plan(
    tune: Union[None, str, TuningProfile, ExecutionPlan] = None,
    cache=None,
) -> ExecutionPlan:
    """Resolve a ``tune`` spec into an :class:`ExecutionPlan`.

    Mirrors ``get_engine``/``get_schedule``: ``None`` means
    :data:`DEFAULT_TUNING`; ``"default"`` is the historical constants;
    ``"auto"`` calibrates this host once per process (persisted by host
    fingerprint to the artifact store's disk tier when ``cache``
    resolves to one, or to ``$REPRO_TUNE_PROFILE`` when that is set);
    any other string is a profile JSON path.  A :class:`TuningProfile`
    or :class:`ExecutionPlan` is accepted directly.  Unknown
    names/paths and malformed profiles raise ``ValueError`` with this
    module's message - the single error contract every entry point
    (``fault_simulate``, the estimators, the facade, the CLI) surfaces
    unchanged.
    """
    if tune is None:
        tune = DEFAULT_TUNING
    if isinstance(tune, ExecutionPlan):
        return tune
    if isinstance(tune, TuningProfile):
        return TunedPlan(tune)
    if not isinstance(tune, str):
        raise ValueError(
            f"unknown tuning plan {tune!r}; available plans: "
            + ", ".join(available_tunings())
            + " (or a tuning-profile JSON path)"
        )
    if tune == "default":
        return _DEFAULT_PLAN
    if tune == "auto":
        if cache is None:
            return _auto_plan()
        from .artifacts import resolve_cache

        return _auto_plan(resolve_cache(cache))
    cached = _LOADED_PLANS.get(tune)
    if cached is not None:
        return cached
    if not Path(tune).exists():
        raise ValueError(
            f"unknown tuning plan {tune!r}; available plans: "
            + ", ".join(available_tunings())
            + " (or a tuning-profile JSON path)"
        )
    plan = TunedPlan(TuningProfile.load(tune), name=tune)
    _LOADED_PLANS[tune] = plan
    return plan
