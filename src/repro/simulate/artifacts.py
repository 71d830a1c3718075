"""Content-addressed compile-artifact store.

Everything the engine stack derives from a network alone - the compiled
slot program (:mod:`repro.simulate.compiled`), fanout-cone metadata and
LPT fault partitions (:mod:`repro.simulate.schedule`), the vector
engine's kernel specialisations and site-batch plans
(:mod:`repro.simulate.vector`) and structural collapse classes
(:mod:`repro.faults.structural`) - is an immutable function of network
*content*.  This module gives those derivations one shared mechanism:

* :func:`network_fingerprint` - a canonical SHA-256 over the network's
  inputs, outputs, cells, connections and levelized slot order.  Two
  networks built separately but describing the same circuit share one
  fingerprint; any single gate, connection or marking change produces a
  different one (property-tested in ``tests/test_artifacts.py``).  The
  per-object ``_generation`` counter only scopes the *memo* of the hash
  - it is never itself a cache key, so artifact identity survives
  process boundaries and object identity games.

* :class:`ArtifactStore` - a two-tier cache.  The in-process tier is a
  bounded LRU shared by every derivation kind; the optional on-disk
  tier (``ArtifactStore(directory)``) persists the picklable kinds
  under a schema-versioned layout::

      <directory>/v<SCHEMA_VERSION>/<kind>-<sha256-of-key>.pkl

  Disk entries are tagged ``(tag, schema, kind, key, payload)`` and
  verified on load: a corrupted file, a stale schema version or a key
  collision is a **miss, never an error** - the artifact is simply
  rebuilt cold.  Writes are atomic (temp file + rename) and wrapped so
  an unwritable or full disk degrades to memory-only operation.

* :func:`resolve_cache` - the ``cache=`` knob every entry point
  accepts, with the registry-style error contract: ``None`` means the
  process-global memory store (or a disk store at ``$REPRO_CACHE_DIR``
  when that is set), ``"off"`` disables reuse entirely, ``"memory"``
  forces the in-process store, and any other string is a cache
  directory path.

Per-kind hit/miss counters (:meth:`ArtifactStore.stats`) make cache
behaviour assertable: a warm run on an already-seen network performs no
flattening, cone BFS, kernel specialisation or collapse work, which
``tests/test_artifacts.py`` holds as the store's headline contract.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

from ..netlist.network import Network, NetworkFault

__all__ = [
    "CACHE_ENV",
    "CACHE_MODES",
    "SCHEMA_VERSION",
    "ArtifactStore",
    "available_cache_modes",
    "fault_fingerprint",
    "network_fingerprint",
    "resolve_cache",
]

SCHEMA_VERSION = 1
"""On-disk layout version; entries written under any other version are
cold misses, so schema changes never need a migration."""

CACHE_ENV = "REPRO_CACHE_DIR"
"""When set (and no explicit ``cache=`` is given), the default store
persists to this directory - how CI keeps artifacts warm across steps."""

CACHE_MODES = ("memory", "off")
"""The named cache modes; any other string is a cache directory path."""

_TAG = "repro-artifact"
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
itself is pure content, shared across objects and processes."""


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
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(_SEPARATOR)

    feed("repro-network-v1")
    for net in network.inputs:
        feed("in:" + net)
    for net in network.outputs:
        feed("out:" + net)
    for gate_name in network.levelize():
        gate = network.gates[gate_name]
        feed("gate:" + gate_name)
        feed("cell:" + _cell_signature(gate.cell))
        for pin in sorted(gate.connections):
            feed(f"pin:{pin}={gate.connections[pin]}")
        feed("drives:" + gate.output)
    fingerprint = digest.hexdigest()
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
    equal fault lists key the same collapse/partition artifacts.  Each
    fault feeds one joined byte string; a library function's bytes are
    built once per call, since a netlist's faults share a few cells'
    functions.
    """
    digest = hashlib.sha256(b"repro-faults-v1")
    function_bytes: Dict[int, bytes] = {}
    for fault in faults:
        function = fault.function
        if function is None:
            tail = _TERMINATOR
        else:
            tail = function_bytes.get(id(function))
            if tail is None:
                tail = function_bytes[id(function)] = (
                    _function_bytes(function) + _TERMINATOR
                )
        value = "" if fault.value is None else str(fault.value)
        index = "" if fault.class_index is None else str(fault.class_index)
        text = (
            f"{fault.kind}\x1f{fault.net or ''}\x1f{value}\x1f"
            f"{fault.gate or ''}\x1f{index}\x1f{fault.label}\x1f"
        )
        digest.update(text.encode("utf-8") + tail)
    return digest.hexdigest()


# -- the store -------------------------------------------------------------------------


class ArtifactStore:
    """Two-tier content-addressed cache of compile artifacts.

    ``directory=None`` is memory-only; otherwise picklable kinds also
    persist under ``<directory>/v<SCHEMA_VERSION>/``.  ``caching=False``
    builds the "off" store: every fetch rebuilds (and counts a miss),
    nothing is retained.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        caching: bool = True,
        max_entries: int = 4096,
    ):
        self.directory = None if directory is None else Path(directory)
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

    def fetch(
        self,
        kind: str,
        key: Tuple,
        build: Callable[[], Any],
        persist: bool = False,
    ) -> Any:
        """The cached value of ``(kind, key)``, building on miss.

        ``persist=True`` marks the kind as picklable: a miss in the
        memory tier consults the disk tier (when one is configured) and
        a cold build is written back to it.  Memory-only kinds
        (compiled programs, vector kernels - both hold lambdas) never
        touch disk.
        """
        full = (kind,) + tuple(key)
        if not self.caching:
            self.misses[kind] += 1
            return build()
        cached = self._memory.get(full, _MISSING)
        if cached is not _MISSING:
            self._memory.move_to_end(full)
            self.hits[kind] += 1
            return cached
        if persist and self.directory is not None:
            payload = self._disk_load(kind, full)
            if payload is not _MISSING:
                self._remember(full, payload)
                self.hits[kind] += 1
                return payload
        value = build()
        self.misses[kind] += 1
        self._remember(full, value)
        if persist and self.directory is not None:
            self._disk_store(kind, full, value)
        return value

    def _remember(self, full: Tuple, value: Any) -> None:
        self._memory[full] = value
        self._memory.move_to_end(full)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    # -- cone-map piggyback -----------------------------------------------------------

    def seed_cones(self, compiled) -> None:
        """Seed a compilation's cone map from the disk tier, once.

        Cone sets accrete lazily as :func:`repro.simulate.schedule.cone_gates`
        walks sites, so they ride on the compiled program rather than
        being fetched whole; a malformed payload is discarded silently.
        """
        if self.directory is None or not self.caching:
            return
        if getattr(compiled, "_cones_seeded", False):
            return
        compiled._cones_seeded = True
        payload = self._disk_load("cones", ("cones", compiled.fingerprint))
        if payload is _MISSING:
            self.misses["cones"] += 1
            return
        try:
            cones = compiled._cone_map
            for slot, gates in payload.items():
                slot = int(slot)
                if slot not in cones:
                    cones[slot] = frozenset(int(gate) for gate in gates)
        except Exception:
            self.misses["cones"] += 1
            return
        self.hits["cones"] += 1
        compiled._cones_persisted = len(compiled._cone_map)

    def flush(self) -> None:
        """Write grown cone maps back to the disk tier (no-op otherwise)."""
        if self.directory is None or not self.caching:
            return
        for full, value in list(self._memory.items()):
            if full[0] != "compiled":
                continue
            cones = getattr(value, "_cone_map", None)
            if not cones:
                continue
            if len(cones) == getattr(value, "_cones_persisted", -1):
                continue
            payload = {slot: sorted(gates) for slot, gates in cones.items()}
            self._disk_store("cones", ("cones", value.fingerprint), payload)
            value._cones_persisted = len(cones)

    # -- the disk tier ----------------------------------------------------------------

    def _entry_path(self, kind: str, full: Tuple) -> Path:
        key_hash = hashlib.sha256(
            "\x1f".join(str(part) for part in full).encode("utf-8")
        ).hexdigest()[:32]
        return self.directory / f"v{SCHEMA_VERSION}" / f"{kind}-{key_hash}.pkl"

    def _disk_load(self, kind: str, full: Tuple) -> Any:
        """A verified payload, or ``_MISSING`` - never an exception."""
        try:
            with open(self._entry_path(kind, full), "rb") as handle:
                tag, version, stored_kind, stored_key, payload = pickle.load(handle)
            if tag != _TAG or version != SCHEMA_VERSION:
                return _MISSING
            if stored_kind != kind or tuple(stored_key) != full:
                return _MISSING
            return payload
        except Exception:
            return _MISSING

    def _disk_store(self, kind: str, full: Tuple, payload: Any) -> None:
        """Atomic, best-effort write; failures degrade to memory-only."""
        temp = None
        try:
            blob = pickle.dumps((_TAG, SCHEMA_VERSION, kind, full, payload))
            path = self._entry_path(kind, full)
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            temp.write_bytes(blob)
            os.replace(temp, path)
        except Exception:
            if temp is not None:
                try:
                    temp.unlink()
                except Exception:
                    pass


# -- cache-spec resolution -------------------------------------------------------------

_MEMORY_STORE = ArtifactStore()
_OFF_STORE = ArtifactStore(caching=False)
_DIRECTORY_STORES: Dict[str, ArtifactStore] = {}


def _directory_store(path: str) -> ArtifactStore:
    resolved = str(Path(path))
    store = _DIRECTORY_STORES.get(resolved)
    if store is None:
        target = Path(resolved)
        if target.exists() and not target.is_dir():
            raise ValueError(
                f"invalid cache directory {path!r}: exists and is not a directory"
            )
        store = ArtifactStore(directory=resolved)
        _DIRECTORY_STORES[resolved] = store
    return store


def resolve_cache(spec: Union[str, Path, "ArtifactStore", None] = None) -> ArtifactStore:
    """Resolve a ``cache=`` spec to a store (the registry contract).

    ``None`` is the default: the process-global memory store, or a disk
    store at ``$REPRO_CACHE_DIR`` when that is set.  ``"off"`` rebuilds
    everything, ``"memory"`` forces the in-process store, any other
    string or path is a cache directory, and a ready
    :class:`ArtifactStore` passes through - which is also how internal
    layers thread one resolved store instead of re-resolving.
    """
    if isinstance(spec, ArtifactStore):
        return spec
    if spec is None:
        env = os.environ.get(CACHE_ENV)
        return _directory_store(env) if env else _MEMORY_STORE
    if isinstance(spec, Path):
        return _directory_store(str(spec))
    if isinstance(spec, str):
        if spec == "off":
            return _OFF_STORE
        if spec == "memory":
            return _MEMORY_STORE
        return _directory_store(spec)
    raise ValueError(
        f"unknown cache mode {spec!r}; available cache modes: "
        + ", ".join(available_cache_modes())
        + " (or a cache directory path)"
    )
