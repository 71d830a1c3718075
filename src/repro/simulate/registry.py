"""The simulation-engine registry: the one seam an engine plugs into.

Every consumer that used to branch on an ad-hoc ``engine: str`` -
:func:`repro.simulate.faultsim.fault_simulate`, the Monte-Carlo
estimators of :mod:`repro.protest`, the PROTEST facade, the CLI -
resolves the name through this registry, and nothing outside an
:class:`Engine` knows which engine it is running.  An engine supplies
only what really differs between engines:

* ``evaluate_bits`` - fault-free bit-parallel valuation of every net
  (the Monte-Carlo signal estimator's primitive);
* ``block_kernel`` - builds the per-block kernel
  (:data:`~repro.simulate.faultsim.BlockKernel`) that the one window
  loop, :func:`~repro.simulate.faultsim.drive_windows`, runs for fault
  simulation and streaming sessions;
* ``words_kernel`` - builds the per-window kernel
  (:data:`~repro.simulate.faultsim.WordsKernel`) that the one words
  loop, :func:`~repro.simulate.faultsim.collect_words`, runs for
  detection words (the Monte-Carlo detection estimator's primitive);
* ``lanes`` - whether it streams the execution plan's lane windows
  (numpy ``uint64`` rows) or its big-int windows.

Everything else - knob validation, window sizing, the in-process and
pooled drivers, retirement, coverage and session stops - is shared, so
a new engine (or a new fault-pass strategy) is one ``Engine`` value.

Three engines register themselves on import:

* ``"interpreted"`` - the gate-by-gate AST walk through
  :meth:`Network.evaluate_bits`; the reference oracle.
* ``"compiled"`` - the flat slot program of
  :mod:`repro.simulate.compiled` with cone-restricted fault passes.
* ``"vector"`` - :mod:`repro.simulate.vector`: the same slot program
  lowered onto numpy ``uint64`` lane arrays; the gate kernels run as
  vectorized SIMD ops over streamed pattern windows.

The first two share one big-int adapter
(:func:`repro.simulate.faultsim.bigint_engine`) over their per-window
difference passes; vector registers its lane kernels.

Parallelism is not an engine: every engine takes ``jobs``, runs
in-process when it is ``None`` or 1 and forks a ``jobs``-wide worker
pool (:mod:`repro.simulate.sharded`) above that, once the workload is
big enough to pay for it - the workers run the engine's own kernels.

The other knobs resolve next to the engine name, once, through
:func:`repro.simulate.faultsim.resolve_knobs`: a **schedule**
(:mod:`repro.simulate.schedule`) only re-orders work, a **tune** spec
(:mod:`repro.simulate.tuning`) only re-tiles it, and a **cache** spec
(:mod:`repro.simulate.artifacts`) only skips re-derivation.

All engines are bit-identical on every result - across every schedule,
every tuning plan and every cache mode; they differ only in cost.
``tests/test_engine_equivalence.py`` is the registry-driven
differential harness holding every registered engine - including any
future one - to that contract against the interpreted oracle, over the
full engine x schedule x tuning sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Engine", "register_engine", "get_engine", "available_engines"]


@dataclass(frozen=True)
class Engine:
    """One registered simulation engine: its kernels and window kind.

    ``evaluate_bits(network, env, mask, cache=None)`` returns the
    fault-free valuation of every net.  ``block_kernel(network, faults,
    schedule, plan, store)`` and ``words_kernel(network, faults,
    schedule, plan, store)`` build the engine's kernels over
    ``faults`` (``schedule`` and the resolved execution ``plan`` shape
    its batches and chunks, ``store`` is the resolved artifact store);
    ``lanes`` picks which of the plan's windows the engine streams.
    """

    name: str
    description: str
    evaluate_bits: Callable = field(repr=False)
    block_kernel: Callable = field(repr=False)
    words_kernel: Callable = field(repr=False)
    lanes: bool = False

    def difference_words(
        self,
        network,
        patterns,
        faults,
        jobs: Optional[int] = None,
        schedule: Optional[str] = None,
        tune=None,
        cache=None,
    ) -> List[int]:
        """One whole-set detection word per fault, in fault-list order.

        ``jobs`` must be ``>= 1`` (``None`` means 1) and pools the fault
        passes above 1; ``schedule``, ``tune`` and ``cache`` resolve as
        in :func:`repro.simulate.faultsim.fault_simulate`, and bad
        values raise the same errors on every engine.
        """
        from .faultsim import difference_words

        return difference_words(
            self, network, patterns, faults, jobs, schedule, tune, cache
        )


_ENGINES: Dict[str, Engine] = {}


def register_engine(engine: Engine) -> Engine:
    """Register (or idempotently re-register) an engine by name."""
    _ENGINES[engine.name] = engine
    return engine


def _ensure_builtin_engines() -> None:
    # The built-in engines register themselves as a side effect of
    # import; importing here (not at module load) avoids a cycle with
    # faultsim, which imports this module at its top.
    from . import faultsim, vector  # noqa: F401


def get_engine(name: str) -> Engine:
    """Resolve an engine name, with the available names in the error."""
    _ensure_builtin_engines()
    engine = _ENGINES.get(name)
    if engine is None:
        raise ValueError(
            f"unknown engine {name!r}; available engines: "
            + ", ".join(sorted(_ENGINES))
        )
    return engine


def available_engines() -> Tuple[str, ...]:
    """The registered engine names, sorted."""
    _ensure_builtin_engines()
    return tuple(sorted(_ENGINES))
