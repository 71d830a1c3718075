"""The simulation-engine registry: the one seam an engine plugs into.

Every consumer that used to branch on an ad-hoc ``engine: str`` -
:func:`repro.simulate.faultsim.fault_simulate`, the Monte-Carlo
estimators of :mod:`repro.protest`, the PROTEST facade, the CLI -
resolves the name through this registry, and nothing outside an
:class:`Engine` knows which engine it is running.  An engine supplies
only what really differs between engines:

* ``evaluate_bits`` - fault-free bit-parallel valuation of every net
  (the Monte-Carlo signal estimator's primitive);
* ``fault_pass`` - builds the engine's one fault pass
  (:data:`~repro.simulate.faultsim.FaultPass`): a stream of nonzero
  per-window difference words, which the one window loop,
  :func:`~repro.simulate.faultsim.drive_windows`, reduces to outcomes
  for fault simulation and streaming sessions, and the one words loop,
  :func:`~repro.simulate.faultsim.collect_words`, ORs into whole-set
  detection words.  Every window is a big-int ``PatternSet`` of
  :data:`~repro.simulate.sharded.DEFAULT_WINDOW` patterns at most; the
  lane engine packs its own rows.

Everything else - knob validation, window sizing, the in-process and
pooled drivers, retirement, coverage and session stops - is shared, so
a new engine (or a new fault-pass strategy) is one ``Engine`` value.

Three engines register themselves on import:

* ``"interpreted"`` - the gate-by-gate AST walk through
  :meth:`Network.evaluate_bits`; the reference oracle.
* ``"compiled"`` - the flat slot program of
  :mod:`repro.simulate.compiled` with one observability pass per
  fanout-free-region stem.
* ``"vector"`` - :mod:`repro.simulate.vector`: the same slot program
  and the same stem pass on numpy ``uint64`` lane rows; the gate
  functions run as vectorized ops.

The first two share one big-int adapter
(:func:`repro.simulate.faultsim.bigint_engine`) over their per-window
difference passes; vector registers its lane pass.

Parallelism is not an engine: every engine takes ``jobs``, runs
in-process when it is ``None`` or 1 and forks a ``jobs``-wide worker
pool (:mod:`repro.simulate.sharded`) above that, once the workload is
big enough to pay for it - the workers run the engine's own pass.

The other knobs resolve next to the engine name, once, through
:func:`repro.simulate.faultsim.resolve_knobs`: a **collapse** mode
(:mod:`repro.faults.structural`) only deduplicates work, and a
**cache** spec (:mod:`repro.simulate.artifacts`) only skips
re-derivation.

All engines are bit-identical on every result - in-process and pooled,
collapsed or not, on every cache mode; they differ only in cost.
``tests/test_engine_equivalence.py`` is the registry-driven
differential harness holding every registered engine - including any
future one - to that contract against the interpreted oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

__all__ = ["Engine", "register_engine", "get_engine", "available_engines"]


@dataclass(frozen=True)
class Engine:
    """One registered simulation engine: its valuation and fault pass.

    ``evaluate_bits(network, env, mask, cache=None)`` returns the
    fault-free valuation of every net.  ``fault_pass(network, faults,
    store)`` builds the engine's fault pass over ``faults`` (``store``
    is the resolved artifact store).
    """

    name: str
    description: str
    evaluate_bits: Callable = field(repr=False)
    fault_pass: Callable = field(repr=False)

    def difference_words(self, network, patterns, faults, *, cache=None) -> List[int]:
        """One whole-set detection word per fault, in fault-list order,
        computed in-process; ``cache`` resolves as in
        :func:`repro.simulate.faultsim.fault_simulate`, and bad values
        raise the same errors on every engine."""
        from .faultsim import difference_words

        return difference_words(self, network, patterns, faults, cache=cache)


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
