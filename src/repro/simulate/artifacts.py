"""Content-addressed compile-artifact store.

Everything the engine stack derives from a network alone - the compiled
slot program (:mod:`repro.simulate.compiled`), fanout-cone metadata and
LPT fault partitions (:mod:`repro.simulate.schedule`), the vector
engine's lane view (:mod:`repro.simulate.vector`) and structural
collapse classes
(:mod:`repro.faults.structural`) - is an immutable function of network
*content*; a fault list's ``universe`` and ``stem_plan`` are held by
element identity (:meth:`ArtifactStore.fetch_identical`).  This module
gives those derivations one shared mechanism:

* :func:`network_fingerprint` - a canonical SHA-256 over the network's
  inputs, outputs, cells, connections and levelized slot order.  Two
  networks built separately but describing the same circuit share one
  fingerprint; any single gate, connection or marking change produces a
  different one (property-tested in ``tests/test_artifacts.py``).  The
  per-object ``_generation`` counter only scopes the *memo* of the hash
  - it is never itself a cache key, so artifact identity survives
  object identity games.

* :class:`ArtifactStore` - one bounded in-process LRU shared by every
  derivation kind.  Artifacts are reused within a process, never
  across processes: nothing is written to disk or unpickled.

* :func:`resolve_cache` - the ``cache=`` knob every entry point
  accepts, with the registry-style error contract: ``None`` and
  ``"memory"`` mean the process-global store, ``"off"`` disables reuse
  entirely, and a ready :class:`ArtifactStore` passes through.

Per-kind hit/miss counters (:meth:`ArtifactStore.stats`) make cache
behaviour assertable: a warm run on a seen network and fault list does
no flattening, cone BFS, vector-view, universe or stem grouping work,
which ``tests/test_artifacts.py`` holds as the headline contract.
"""

from __future__ import annotations

import hashlib
import operator
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

from ..netlist.network import Network, NetworkFault

__all__ = [
    "CACHE_MODES",
    "ArtifactStore",
    "available_cache_modes",
    "fault_fingerprint",
    "network_fingerprint",
    "resolve_cache",
]

CACHE_MODES = ("memory", "off")
"""The cache modes ``resolve_cache`` accepts by name."""

_MISSING = object()
_SEPARATOR = b"\x1f"
_TERMINATOR = b"\x1e"


def available_cache_modes() -> tuple:
    """The named cache modes, sorted (mirrors ``available_engines``)."""
    return tuple(sorted(CACHE_MODES))


# -- content fingerprints --------------------------------------------------------------

_CELL_SIGNATURES: Dict[int, Tuple[Any, str]] = {}
"""Cell content signatures, keyed by ``id(cell)`` with the cell itself
retained in the value (cells are module-level constants shared across
networks, so pinning them is free and keeps ids from being recycled)."""

_NETWORK_FINGERPRINTS: "WeakKeyDictionary[Network, Tuple[int, str]]" = (
    WeakKeyDictionary()
)
"""Per-object memo of the content hash.  The generation counter only
invalidates this memo when the same object mutates - the fingerprint
itself is pure content, shared across objects."""


def _cell_signature(cell) -> str:
    cached = _CELL_SIGNATURES.get(id(cell))
    if cached is not None and cached[0] is cell:
        return cached[1]
    digest = hashlib.sha256()
    for part in (
        cell.technology,
        cell.output,
        ",".join(cell.inputs),
        cell.output_function.to_paper_syntax(),
        cell.network_expr.to_paper_syntax(),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(_SEPARATOR)
    signature = digest.hexdigest()
    _CELL_SIGNATURES[id(cell)] = (cell, signature)
    return signature


def network_fingerprint(network: Network) -> str:
    """Canonical content hash of a network.

    Covers the primary input order, output markings, every gate's name,
    cell function (technology, pins, gate-model and output expressions),
    pin connections and driven net - walked in levelized order, so the
    compiled program's *slot order* is part of the identity.  Memoised
    per object and generation; equal-content networks built separately
    hash equal.
    """
    generation = getattr(network, "_generation", 0)
    cached = _NETWORK_FINGERPRINTS.get(network)
    if cached is not None and cached[0] == generation:
        return cached[1]
    # Every part is followed by the separator; the parts are hashed as
    # one joined string.
    parts = ["repro-network-v1"]
    parts += ["in:" + net for net in network.inputs]
    parts += ["out:" + net for net in network.outputs]
    gates = network.gates
    for gate_name in network.levelize():
        gate = gates[gate_name]
        connections = gate.connections
        parts.append("gate:" + gate_name)
        parts.append("cell:" + _cell_signature(gate.cell))
        parts += [f"pin:{pin}={connections[pin]}" for pin in sorted(connections)]
        parts.append("drives:" + gate.output)
    parts.append("")
    fingerprint = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    _NETWORK_FINGERPRINTS[network] = (generation, fingerprint)
    return fingerprint


def _function_bytes(function) -> bytes:
    """The fingerprint bytes of a cell fault's faulty function: name,
    table variables and SOP, then the table bits as raw bytes (a
    decimal ``str()`` is quadratic in the table width and blows
    CPython's int-to-str digit limit past 14 inputs)."""
    bits = function.table.bits
    text = f"{function.name}\x1f{','.join(function.table.names)}\x1f{function.sop}\x1f"
    return (
        text.encode("utf-8")
        + bits.to_bytes(bits.bit_length() // 8 + 1, "little")
        + _SEPARATOR
    )


def fault_fingerprint(faults: Sequence[NetworkFault]) -> str:
    """Content hash of an ordered fault list.

    Covers every field that shapes simulation or labelling - kind, net,
    forced value, gate, class index, label and (for cell faults) the
    faulty function's truth table and SOP - so two separately-built but
    equal fault lists key the same collapse/partition artifacts.  The
    list is hashed as one joined byte string; a library function's
    bytes are built once per call, since a netlist's faults share a few
    cells' functions.
    """
    # The list is joined as one string and encoded once.  A function's
    # bytes (raw table bits among them) enter it decoded with
    # "surrogateescape", which that encode reverses byte for byte.
    parts = ["repro-faults-v1"]
    function_text: Dict[int, str] = {}
    for kind, net, value, gate, class_index, function, label in faults:
        if function is None:
            tail = "\x1e"
        else:
            tail = function_text.get(id(function))
            if tail is None:
                tail = function_text[id(function)] = (
                    _function_bytes(function) + _TERMINATOR
                ).decode("utf-8", "surrogateescape")
        value = "" if value is None else value
        index = "" if class_index is None else class_index
        parts.append(
            f"{kind}\x1f{net or ''}\x1f{value}\x1f{gate or ''}\x1f{index}\x1f"
            f"{label}\x1f{tail}"
        )
    text = "".join(parts)
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


# -- the store -------------------------------------------------------------------------


class ArtifactStore:
    """Bounded in-process LRU of compile artifacts, keyed by content.

    ``caching=False`` builds the "off" store: every fetch rebuilds (and
    counts a miss), nothing is retained.
    """

    def __init__(self, caching: bool = True, max_entries: int = 4096):
        self.caching = caching
        self.max_entries = max_entries
        self._memory: "OrderedDict[Tuple, Any]" = OrderedDict()
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    # -- counters ---------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind ``{"hits": ..., "misses": ...}`` since the last reset."""
        kinds = sorted(set(self.hits) | set(self.misses))
        return {
            kind: {"hits": self.hits[kind], "misses": self.misses[kind]}
            for kind in kinds
        }

    def reset_counters(self) -> None:
        self.hits.clear()
        self.misses.clear()

    # -- fetch ------------------------------------------------------------------------

    def fetch(self, kind: str, key: Tuple, build: Callable[[], Any]) -> Any:
        """The cached value of ``(kind, key)``, building on miss."""
        full = (kind,) + tuple(key)
        if not self.caching:
            self.misses[kind] += 1
            return build()
        cached = self._memory.get(full, _MISSING)
        if cached is not _MISSING:
            self._memory.move_to_end(full)
            self.hits[kind] += 1
            return cached
        value = build()
        self.misses[kind] += 1
        self._keep(full, value)
        return value

    def fetch_identical(self, kind: str, key: Tuple, items, build: Callable) -> Any:
        """``build(tuple(items))``, memoised for the two latest snapshots
        under ``(kind, key)`` (so two alternating lists both stay warm): a
        hit needs every item to be the very object a held snapshot has, a
        miss displaces the older one, and a raising build stores nothing."""
        full, snapshot = (kind,) + tuple(key), tuple(items)
        held = self._memory.get(full, ()) if self.caching else ()
        for entry in held:
            if len(entry[0]) == len(snapshot) and all(map(operator.is_, entry[0], snapshot)):
                self._keep(full, (entry,) + tuple(e for e in held if e is not entry))
                self.hits[kind] += 1
                return entry[1]
        value = build(snapshot)
        self.misses[kind] += 1
        if self.caching:
            self._keep(full, ((snapshot, value),) + held[:1])
        return value

    def _keep(self, full: Tuple, value: Any) -> None:
        self._memory[full] = value
        self._memory.move_to_end(full)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)


# -- cache-spec resolution -------------------------------------------------------------

_NAMED_STORES = {"memory": ArtifactStore(), "off": ArtifactStore(caching=False)}


def resolve_cache(spec: Union[str, ArtifactStore, None] = None) -> ArtifactStore:
    """Resolve a ``cache=`` spec to a store (the registry contract).

    ``None`` and ``"memory"`` are the process-global store, ``"off"``
    rebuilds everything, and a ready :class:`ArtifactStore` passes
    through - which is also how internal layers thread one resolved
    store instead of re-resolving.  Anything else raises.
    """
    if isinstance(spec, ArtifactStore):
        return spec
    if spec is None:
        spec = "memory"
    if isinstance(spec, str) and spec in _NAMED_STORES:
        return _NAMED_STORES[spec]
    raise ValueError(
        f"unknown cache mode {spec!r}; available cache modes: "
        + ", ".join(available_cache_modes())
    )
