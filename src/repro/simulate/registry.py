"""The simulation-engine registry.

Every consumer that used to branch on an ad-hoc ``engine: str`` -
:func:`repro.simulate.faultsim.fault_simulate`, the Monte-Carlo
estimators of :mod:`repro.protest`, the PROTEST facade, the CLI -
now resolves the name through this registry.  An engine bundles the
three primitives the rest of the system needs:

* ``simulate_faults`` - a full fault-simulation run returning a
  :class:`~repro.simulate.faultsim.FaultSimResult`;
* ``difference_words`` - one detection bit-word per fault (the
  Monte-Carlo detection estimator's primitive);
* ``evaluate_bits`` - fault-free bit-parallel valuation of every net
  (the Monte-Carlo signal estimator's primitive).

Three engines register themselves on import:

* ``"interpreted"`` - the gate-by-gate AST walk through
  :meth:`Network.evaluate_bits`; the reference oracle.
* ``"compiled"`` - the flat slot program of
  :mod:`repro.simulate.compiled` with cone-restricted fault passes.
* ``"vector"`` - :mod:`repro.simulate.vector`: the same slot program
  lowered onto numpy ``uint64`` lane arrays; the gate kernels run as
  vectorized SIMD ops over streamed pattern windows.

Parallelism is not an engine: every engine takes ``jobs``, runs
in-process when it is ``None`` or 1 and forks a ``jobs``-wide worker
pool (:mod:`repro.simulate.sharded`) above that, once the workload is
big enough to pay for it.

Engines also accept a **schedule** name (resolved through
:mod:`repro.simulate.schedule`, the registry's sibling for fault
scheduling policies): ``"cost"`` (the default) prices faults by
fanout-cone size to LPT-balance shards and coalesce underfilled vector
batches, ``"contiguous"`` and ``"interleaved"`` are the mechanical
partitions.  Scheduling only re-orders work.  They further accept a
**tune** spec (resolved through :mod:`repro.simulate.tuning`):
``"default"`` keeps the hand-calibrated global chunk/window constants,
``"auto"`` derives per-cone chunk widths, window sizes and coalescer
pricing from a host calibration profile, and a path loads a saved
profile JSON.  Tuning only re-tiles work.  And they accept a **cache**
spec (resolved through :mod:`repro.simulate.artifacts`): the artifact
store everything derivable from the network alone - compiled slot
programs, cone metadata, batch plans, collapse classes, fault
partitions, tuning profiles - is keyed in by content fingerprint
(``None`` for the process-wide in-memory store, ``"memory"``,
``"off"``, a directory path for the persistent disk tier, or an
``ArtifactStore``).  Caching only skips re-derivation.

All engines are bit-identical on every result - across every schedule,
every tuning plan and every cache mode; they differ only in cost.
``tests/test_engine_equivalence.py`` is the registry-driven
differential harness holding every registered engine - including any
future one - to that contract against the interpreted oracle, over the
full engine x schedule x tuning sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

__all__ = ["Engine", "register_engine", "get_engine", "available_engines"]


@dataclass(frozen=True)
class Engine:
    """One registered simulation engine.

    ``simulate_faults(network, patterns, faults, *,
    stop_at_first_detection=False, jobs=None, schedule=None,
    tune=None, stop_at_coverage=None, coverage_weights=None,
    cache=None)`` returns a ``FaultSimResult`` (``stop_at_coverage``
    retires detected faults between ``FIRST_DETECTION_CHUNK``-wide
    windows and stops the run at the coverage threshold;
    ``coverage_weights`` weights each fault's contribution - class
    sizes under structural collapsing); ``difference_words(network,
    patterns, faults, jobs=None, schedule=None, tune=None,
    cache=None)`` returns one detection word per fault in fault-list
    order; ``evaluate_bits(network, env, mask, cache=None)`` returns
    the fault-free valuation of every net.  ``jobs`` must be ``>= 1``
    (``None`` means 1) and pools the fault passes above 1.  Engines
    that cannot use ``schedule``, ``tune`` or ``cache`` accept and
    ignore them (``fault_simulate`` validates the schedule, tuning and
    cache names up front so every engine rejects bad names
    identically).
    """

    name: str
    description: str
    simulate_faults: Callable = field(repr=False)
    difference_words: Callable = field(repr=False)
    evaluate_bits: Callable = field(repr=False)


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
