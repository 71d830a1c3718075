"""Network-level structural fault collapsing over the compiled slot program.

:mod:`repro.faults.collapse` builds *per-gate* truth-table equivalence
classes ("fault equivalent classes are constructed" - Section 5), and
:meth:`Network.enumerate_faults` already emits one network fault per
class.  This module is the network-level layer on top: it walks the
compiled slot program's reader metadata (:mod:`repro.simulate.compiled`,
the same structure the cone-cost scheduler prices with) and merges
faults whose **difference functions are provably identical through the
netlist**, so the engines simulate one representative per class and
scatter the outcome back over the members:

* every fault is canonicalised to the *faulty function of its injection
  slot* over the driving gate's input slots - a cell fault directly, a
  stuck-at as a constant; two faults with the same canonical function
  produce bit-identical faulty circuits, hence bit-identical difference
  words, detection counts and first-detection indices;
* a **constant** faulty slot (a stuck-at, or a cell class whose table is
  constant) is *forward-propagated* while its slot is unobserved (not a
  primary output) and fanout-free (single reader gate): forcing the slot
  rewrites the reader to its cofactored function, which may again be
  constant and propagate further.  This yields the classical collapses -
  an input stuck-at merges with the driving gate's cofactor class, a
  stuck output merges with the driver's constant class, and inverter or
  buffer chains collapse end to end;
* a fault whose faulty slot function equals the good one (or whose slot
  reaches no primary output) lands in the **null class**: its difference
  is provably zero on every pattern, matching the engines' treatment;
* on networks with at most :data:`SEMANTIC_COLLAPSE_MAX_INPUTS` primary
  inputs a **semantic refinement** pass then evaluates every structural
  class representative's difference function *exhaustively* (one
  compiled cone pass over the 2^n input patterns - cheap next to any
  realistic random-test run) and merges classes whose words are
  bit-identical.  Equal exhaustive words prove equal difference
  *functions*, so the merge preserves bit-identity on every pattern
  set, and every truly-undetectable fault provably folds into the null
  class.  Wider networks keep the purely structural classes.

Canonicalisation is memoised per *cell shape* (pins, pin-repeat
pattern, good function), not per gate or fault: a netlist of a handful
of cells builds a handful of faulty slot tables however many gates it
has, and each fault only assembles its signature tuple (see
:class:`_Collapser`).  ``tests/collapse_reference.py`` keeps the
per-fault canonicaliser as the oracle the memoised one must equal,
dominance order included.

Equivalence is deliberately *strict* - only provably-identical
difference functions share a class - because the engine contract is a
bit-identical :class:`~repro.simulate.faultsim.FaultSimResult`.
Classical **dominance** (stuck faults on a fanout-free stem dominate
their branch faults) cannot preserve detection counts or first-detection
indices, so it is computed and *reported* here (``dominance`` pairs,
property-tested for soundness in ``tests/test_structural_collapse.py``)
but never used to drop faults from the exact simulation path.

The collapse mode knob (``off`` / ``on``) resolves exactly
like engine names do
(:func:`repro.simulate.registry.get_engine` et al.), and the CLI reuses
the error message.  Collapsed sets are content-addressed artifacts:
keyed by the network and fault-list fingerprints in the artifact store
(:mod:`repro.simulate.artifacts`) and shared across equal networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable
from ..netlist.intlists import IntLists
from ..netlist.network import Network, NetworkFault

__all__ = [
    "COLLAPSE_MODES",
    "DEFAULT_COLLAPSE",
    "SEMANTIC_COLLAPSE_MAX_INPUTS",
    "CollapsedFaultSet",
    "available_collapse_modes",
    "collapse_network_faults",
    "get_collapse_mode",
]

COLLAPSE_MODES = ("off", "on")
"""The collapse modes every library entry point resolves: ``off``
simulates the full fault universe (the historical behaviour), ``on``
simulates one representative per equivalence class and scatters the
outcomes back.  Printing the collapse report is the CLI's business
(``--collapse report`` runs ``on`` and prints
:meth:`CollapsedFaultSet.format_report`)."""

DEFAULT_COLLAPSE = "off"
"""The mode resolved when the caller passes ``None``."""

SEMANTIC_COLLAPSE_MAX_INPUTS = 12
"""Networks with at most this many primary inputs get the semantic
refinement pass on top of the structural one: each structural class
representative's difference word is computed exhaustively and classes
with bit-identical words merge.  2^12 patterns is one short compiled
pass per class; beyond that the exhaustive proof stops being a cheap
pre-engine step and collapsing stays purely structural."""


def available_collapse_modes() -> tuple:
    """The recognised collapse-mode names, sorted."""
    return tuple(sorted(COLLAPSE_MODES))


def get_collapse_mode(name: Optional[str]) -> str:
    """Resolve a collapse mode (``None`` means :data:`DEFAULT_COLLAPSE`).

    Mirrors :func:`repro.simulate.registry.get_engine`: bad names raise
    with the sorted list of available modes, and the CLI reuses the
    exact message.
    """
    if name is None:
        name = DEFAULT_COLLAPSE
    if name not in COLLAPSE_MODES:
        raise ValueError(
            f"unknown collapse mode {name!r}; available collapse modes: "
            + ", ".join(sorted(COLLAPSE_MODES))
        )
    return name


# -- canonical faulty-slot signatures ---------------------------------------------------

_NULL = ("null",)
"""Signature of faults with a provably-zero difference function."""


def _slot_bits(bits: int, pattern: Sequence[int]) -> int:
    """Re-express a pin-domain table's bits over the gate's distinct slots.

    ``pattern[k]`` is the rank of pin ``k``'s slot among the gate's
    distinct input slots - the slot domain's variables are ``s<slot>``
    in ascending slot order, so faulty functions of different cells
    (and cofactored stuck-at rewrites) compare directly.  A net bound
    to several pins identifies the corresponding variables.  Both
    layouts are MSB-first over their variables (``minterm_index``), so
    each pin contributes the bit of its slot's variable, read straight
    off the collapsed minterm.
    """
    width = len(set(pattern))
    shifts = [width - 1 - rank for rank in pattern]
    collapsed = 0
    for minterm in range(1 << width):
        source = 0
        for shift in shifts:
            source = (source << 1) | ((minterm >> shift) & 1)
        if (bits >> source) & 1:
            collapsed |= 1 << minterm
    return collapsed


class _Collapser:
    """One collapse pass over a compiled network's fault list.

    Canonicalisation depends on a gate's *shape* - its pins, its
    pin-repeat pattern (which pins share a slot) and its good function -
    not on its slot numbers, and a netlist has a handful of shapes
    however many gates it has.  So every step is memoised on its shape:
    a cell fault's outcome (null, constant, or faulty bits) on (shape,
    fault table), the good slot-domain table on (expression, pins,
    pattern), a stuck-at rewrite on the reader's good bits and the
    forced position, and a whole propagated constant on (slot, value).
    Each fault then only assembles its signature tuple: ``("cell",
    slot, bits)`` for a faulty function of the gate driving ``slot``
    (its variables are that gate's distinct input slots, so the slot
    fixes them), ``("const", slot, value)``, :data:`_NULL` or
    ``("opaque", fault index)``.
    """

    def __init__(self, compiled):
        self.compiled = compiled
        self._gates: List[Optional[Tuple]] = [None] * len(compiled._gate_out)
        self._good: Dict[Tuple, int] = {}
        self._shapes: Dict[Tuple, int] = {}
        self._outcomes: Dict[Tuple, Tuple] = {}
        self._cofactors: Dict[Tuple, int] = {}
        self._consts: Dict[int, Tuple] = {}  # keyed 2 * slot + value

    def gate(self, gate_index: int) -> Tuple:
        """``(shape id, pins, pattern, slots, good bits)`` of a gate.

        ``slots`` are its distinct input slots, ascending - the
        variables of the slot domain - and ``good bits`` its fault-free
        function over them.
        """
        entry = self._gates[gate_index]
        if entry is None:
            gate = self.compiled.gates[gate_index]
            slots = tuple(sorted(set(gate.in_slots)))
            pattern = tuple(map(slots.index, gate.in_slots))
            pins = tuple(gate.cell.inputs)
            # The program holds every gate's expression, so its id is a
            # key for the whole pass (hashing the expression is not free).
            good_key = (id(gate.expr), pins, pattern)
            good = self._good.get(good_key)
            if good is None:
                pin_bits = TruthTable.from_expr(gate.expr, pins).bits
                good = self._good[good_key] = _slot_bits(pin_bits, pattern)
            shape = self._shapes.setdefault((pins, pattern, good), len(self._shapes))
            entry = self._gates[gate_index] = (shape, pins, pattern, slots, good)
        return entry

    def const_signature(self, slot: int, value: int) -> Tuple:
        """Canonical signature of "slot forced to ``value``", propagated
        (memoised per ``(slot, value)``).

        While the forced slot is unobserved (not a primary output) and
        fanout-free (exactly one reader gate), the force rewrites that
        reader to its cofactored function - the only faulty path runs
        through it.  A cofactor that is again constant keeps
        propagating; a dead end (no readers, no output) is the null
        class.  Multi-reader slots and primary outputs anchor the
        signature where it stands.
        """
        key = 2 * slot + value
        signature = self._consts.get(key)
        if signature is None:
            signature = self._consts[key] = self._propagate(slot, value)
        return signature

    def _propagate(self, slot: int, value: int) -> Tuple:
        compiled = self.compiled
        while True:
            if compiled._is_out_slot[slot]:
                return ("const", slot, value)
            following = compiled.next_slot[slot]
            if following < 0:  # read by several gates, or by none
                return ("const", slot, value) if compiled.readers.size(slot) else _NULL
            # The one reader drives the next slot; gate outputs follow
            # the input slots in gate order.
            gate_index = following - compiled.num_input_slots
            _shape, _pins, _pattern, slots, good = self.gate(gate_index)
            width = len(slots)
            key = (good, slots.index(slot), width, value)
            fixed = self._cofactors.get(key)
            if fixed is None:
                names = tuple(f"x{position}" for position in range(width))
                table = TruthTable(names, good)
                fixed = table.cofactor(names[key[1]], value).expand(names).bits
                self._cofactors[key] = fixed
            if fixed == good:
                return _NULL
            out = compiled._gate_out[gate_index]
            if 0 < fixed < (1 << (1 << width)) - 1:
                return ("cell", out, fixed)
            slot = out
            value = 1 if fixed else 0

    def signature(self, index: int, fault: NetworkFault) -> Tuple:
        """Canonical signature of ``fault``; a cell fault's is that of
        its faulty gate function."""
        compiled = self.compiled
        try:
            if fault.kind == "stuck":
                slot = compiled.slot_of_net.get(fault.net, -1)
                if slot < 0:
                    return _NULL  # ghost net: zero difference on every engine
                return self.const_signature(slot, 1 if fault.value else 0)
            gate_index = compiled.gate_index.get(fault.gate, -1)
            if gate_index < 0:
                return _NULL  # ghost gate: same zero-difference treatment
            table = fault.function.table
            shape, pins, pattern, slots, good = (
                self._gates[gate_index] or self.gate(gate_index)
            )
            # The faults hold their tables for the whole pass, so a
            # table's id is a key for it (equal tables held twice just
            # miss once).
            key = (shape, id(table))
            outcome = self._outcomes.get(key)
            if outcome is None:
                if table.names != pins:
                    table = table.expand(pins)
                bits = _slot_bits(table.bits, pattern)
                if bits == good:
                    outcome = _NULL
                elif 0 < bits < (1 << (1 << len(slots))) - 1:
                    outcome = ("bits", bits)
                else:
                    outcome = ("const", 1 if bits else 0)
                self._outcomes[key] = outcome
            if outcome is _NULL:
                return _NULL
            out = compiled._gate_out[gate_index]
            if outcome[0] == "const":
                return self.const_signature(out, outcome[1])
            return ("cell", out, outcome[1])
        except (ValueError, KeyError, AttributeError):
            # A fault the canonicaliser cannot align (foreign table
            # variables, malformed function) collapses with nothing:
            # its singleton class simulates the fault exactly as the
            # uncollapsed run would, errors included.
            return ("opaque", index)

    def activation(self, signature: Tuple) -> Optional[Tuple[int, int]]:
        """``(gate index, activation bits)`` of a class, where known.

        The activation is faulty XOR good over the anchor gate's slot
        domain.  Cell signatures anchor at the driver of their output
        slot; a constant signature anchors there too when the slot is
        gate-driven (the force *is* the driver's constant function).
        Constants on primary-input slots have no gate-local function to
        compare, so they take no part in dominance analysis.
        """
        tag = signature[0]
        if tag not in ("cell", "const"):
            return None
        # Gate outputs follow the input slots in gate order.
        gate_index = signature[1] - self.compiled.num_input_slots
        if gate_index < 0:
            return None
        _shape, _pins, _pattern, slots, good = self.gate(gate_index)
        if tag == "cell":
            faulty = signature[2]
        else:
            faulty = (1 << (1 << len(slots))) - 1 if signature[2] else 0
        return gate_index, faulty ^ good


class _Deferred:
    """A dataclass field that may be given as a zero-argument callable:
    the first read calls it and keeps the value it returns."""

    def __set_name__(self, owner, name: str) -> None:
        self._key = "_deferred_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self._key)  # no class-level default
        value = obj.__dict__[self._key]
        if callable(value):
            value = obj.__dict__[self._key] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._key] = value


@dataclass
class CollapsedFaultSet:
    """A fault list partitioned into difference-equivalence classes.

    ``classes[k]`` lists the member indices (into ``faults``) of class
    ``k`` and ``representatives[k]`` is the first member - the one fault
    an engine simulates for the whole class.  ``class_of[i]`` maps every
    fault back to its class, which is the scatter map
    :meth:`scatter_outcomes` applies.  ``null_classes`` mark classes
    whose difference function is provably zero (their representative
    converges after a single gate evaluation on every engine).
    ``dominance`` records ``(dominator, dominated)`` class-index pairs:
    every pattern detecting the dominator provably detects the
    dominated fault too (the dominated class's detecting patterns are a
    superset) - reported, never used to drop exact simulations.

    ``classes`` is held flat (:class:`~repro.netlist.intlists.IntLists`;
    a list of lists passed in is converted), and ``dominance`` may be
    passed as a callable: only the report reads it, so it is computed
    on first read.
    """

    network_name: str
    faults: List[NetworkFault]
    classes: IntLists
    class_of: List[int]
    representatives: List[int]
    null_classes: Tuple[int, ...]
    dominance: List[Tuple[int, int]] = _Deferred()

    def __post_init__(self) -> None:
        if not isinstance(self.classes, IntLists):
            self.classes = IntLists.of(self.classes)

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def ratio(self) -> float:
        """Fault-count multiplier: faults simulated without / with collapse."""
        if not self.classes:
            return 1.0
        return len(self.faults) / len(self.classes)

    def representative_faults(self) -> List[NetworkFault]:
        """One fault per class, in class order - the list engines simulate."""
        return [self.faults[index] for index in self.representatives]

    def class_sizes(self) -> List[int]:
        """Member count per class - the coverage weight of each representative."""
        return self.classes.sizes()

    def scatter_outcomes(self, class_outcomes: Sequence) -> List:
        """Expand per-class outcomes back over the original fault list."""
        if len(class_outcomes) != len(self.classes):
            raise ValueError(
                f"got {len(class_outcomes)} class outcomes for "
                f"{len(self.classes)} classes"
            )
        return [class_outcomes[class_index] for class_index in self.class_of]
    def format_report(self, limit: int = 20) -> str:
        """Human-readable collapse report (the CLI's ``--collapse report``)."""
        lines = [
            f"structural fault collapse of {self.network_name}: "
            f"{self.fault_count} faults -> {self.class_count} classes "
            f"({self.ratio:.2f}x fewer fault simulations)"
        ]
        merged = [
            (self.faults[self.representatives[k]].describe(), members)
            for k, members in enumerate(self.classes)
            if len(members) > 1 and k not in self.null_classes
        ]
        if merged:
            lines.append("equivalence classes with several members:")
            for rep_label, members in merged[:limit]:
                others = ", ".join(
                    self.faults[index].describe() for index in members[1:]
                )
                lines.append(f"  {rep_label} == {others}")
            if len(merged) > limit:
                lines.append(f"  ... and {len(merged) - limit} more classes")
        null_members = [
            self.faults[index].describe()
            for k in self.null_classes
            for index in self.classes[k]
        ]
        if null_members:
            lines.append(
                "provably undetectable (zero difference function): "
                + ", ".join(null_members[:limit])
            )
            if len(null_members) > limit:
                lines.append(f"  ... and {len(null_members) - limit} more")
        if self.dominance:
            lines.append(
                "dominance (a test for the left fault also detects the right):"
            )
            for dominator, dominated in self.dominance[:limit]:
                lines.append(
                    f"  {self.faults[self.representatives[dominator]].describe()}"
                    f" -> {self.faults[self.representatives[dominated]].describe()}"
                )
            if len(self.dominance) > limit:
                lines.append(f"  ... and {len(self.dominance) - limit} more pairs")
        return "\n".join(lines)


# -- the collapse pass ------------------------------------------------------------------


def _dominance_pairs(
    collapser: _Collapser, signatures: Sequence[Tuple]
) -> List[Tuple[int, int]]:
    """Sound structural dominance between classes sharing an anchor gate.

    Two faulty functions of the *same* gate flip its output slot on the
    patterns of their activation sets (faulty XOR good, over the gate's
    input slots).  When class A's activation set is a subset of class
    B's, every pattern on which A flips the slot has B flipping it to
    the identical value, so the two faulty circuits coincide wherever A
    is active: every pattern detecting A detects B.  A is the
    *dominator*, B the *dominated* - dominated detecting patterns are a
    superset of the dominator's.
    """
    by_gate: Dict[int, List[Tuple[int, int]]] = {}
    for class_index, signature in enumerate(signatures):
        anchored = collapser.activation(signature)
        if anchored is not None:
            gate_index, activation = anchored
            by_gate.setdefault(gate_index, []).append((class_index, activation))
    pairs: List[Tuple[int, int]] = []
    for members in by_gate.values():
        for position, (a_class, a_bits) in enumerate(members):
            for b_class, b_bits in members[position + 1:]:
                if a_bits == b_bits:
                    continue  # equal activations would be one class
                if a_bits & ~b_bits == 0:
                    pairs.append((a_class, b_class))
                elif b_bits & ~a_bits == 0:
                    pairs.append((b_class, a_class))
    return pairs


def _structural_dominance(
    compiled, faults: Sequence[NetworkFault], representatives: Sequence[int]
) -> List[Tuple[int, int]]:
    """:func:`_dominance_pairs` of a structural collapse, from its
    representatives' signatures (a class's members share its
    signature), recomputed when first asked for so the collapse keeps
    no per-class signature alive."""
    collapser = _Collapser(compiled)
    return _dominance_pairs(
        collapser,
        [collapser.signature(index, faults[index]) for index in representatives],
    )


def _exhaustive_class_words(
    compiled,
    network: Network,
    faults: Sequence[NetworkFault],
    classes: Sequence[List[int]],
    signatures: Sequence[Tuple],
) -> List[Optional[int]]:
    """Per-class exhaustive difference words, ``None`` where unprovable.

    Structural null classes are provably zero without simulating;
    opaque classes (faults the canonicaliser could not align) stay
    ``None`` so they merge with nothing and keep failing - or passing -
    exactly as the uncollapsed run would.
    """
    from ..simulate.logicsim import PatternSet

    patterns = PatternSet.exhaustive(network.inputs)
    sim = compiled.simulate(patterns.env, patterns.mask)
    words: List[Optional[int]] = [
        0 if signature == _NULL else None for signature in signatures
    ]
    simulated = [
        index for index, signature in enumerate(signatures)
        if signature != _NULL and signature[0] != "opaque"
    ]
    representatives = [faults[classes[index][0]] for index in simulated]
    try:
        found = sim.differences(representatives)
    except (ValueError, KeyError, AttributeError):
        # A representative the engine cannot inject spoils the batch:
        # redo it fault by fault so only that class stays ``None``.
        found = []
        for fault in representatives:
            try:
                found.append(sim.difference(fault))
            except (ValueError, KeyError, AttributeError):
                found.append(None)
    for index, word in zip(simulated, found):
        words[index] = word
    return words


def _merge_classes_by_word(
    classes: Sequence[List[int]], words: Sequence[Optional[int]]
) -> Tuple[List[List[int]], List[int], List[Optional[int]]]:
    """Merge structural classes whose exhaustive words coincide.

    Merged member lists stay in ascending fault order and classes are
    re-numbered by their first member, preserving the partition
    invariants (``representatives[k] == members[0]``).
    """
    grouped: Dict[Tuple, List[int]] = {}
    for class_index, word in enumerate(words):
        key = ("solo", class_index) if word is None else ("word", word)
        grouped.setdefault(key, []).append(class_index)
    merged = sorted(
        (
            sorted(i for k in group for i in classes[k]),
            None if key[0] == "solo" else key[1],
        )
        for key, group in grouped.items()
    )
    new_classes = [members for members, _word in merged]
    new_words = [word for _members, word in merged]
    class_of = [0] * sum(len(members) for members in new_classes)
    for class_index, members in enumerate(new_classes):
        for index in members:
            class_of[index] = class_index
    return new_classes, class_of, new_words


def _semantic_dominance(words: Sequence[Optional[int]]) -> List[Tuple[int, int]]:
    """Exact dominance between classes with known difference words.

    ``(a, b)`` when every pattern detecting ``a`` detects ``b``
    (``word_a`` a strict non-empty subset of ``word_b``); the null
    class's vacuous domination of everything is excluded.
    """
    pairs: List[Tuple[int, int]] = []
    for a, word_a in enumerate(words):
        if not word_a:
            continue
        for b, word_b in enumerate(words):
            if b == a or word_b is None:
                continue
            if word_a & word_b == word_a:
                pairs.append((a, b))
    return pairs


def collapse_network_faults(
    network: Network,
    faults: Optional[Sequence[NetworkFault]] = None,
    cache=None,
) -> CollapsedFaultSet:
    """Collapse a fault list into difference-equivalence classes.

    Faults sharing a class have provably identical difference functions
    through the whole netlist, so simulating the class representative
    and scattering its outcome reproduces every member's result bit for
    bit - the contract ``fault_simulate(..., collapse="on")`` rides on.
    Results are keyed by the *content* fingerprints of the network and
    fault list in the artifact store (two equal networks built
    separately share one entry), replacing the old per-compilation
    identity memo.
    """
    from ..simulate.faultsim import dedupe_faults

    if faults is None:
        faults = network.enumerate_faults()
    return collapse_unique_faults(network, dedupe_faults(faults), cache)


def collapse_unique_faults(
    network: Network, faults: Sequence[NetworkFault], cache=None
) -> CollapsedFaultSet:
    """:func:`collapse_network_faults` of a list already free of
    duplicates - the collapse step of
    :func:`repro.simulate.faultsim.fault_universe`, which has applied
    the collision policy once already."""
    from ..simulate.artifacts import fault_fingerprint, resolve_cache
    from ..simulate.compiled import compile_network

    store = resolve_cache(cache)
    compiled = compile_network(network, cache=store)

    def build() -> CollapsedFaultSet:
        collapser = _Collapser(compiled)
        signature = collapser.signature
        fault_list = list(faults)
        class_of_signature: Dict[Tuple, int] = {}
        class_of: List[int] = []
        representatives: List[int] = []
        for index, fault in enumerate(fault_list):
            key = signature(index, fault)
            class_index = class_of_signature.get(key)
            if class_index is None:
                class_index = class_of_signature[key] = len(representatives)
                representatives.append(index)
            class_of.append(class_index)
        classes = IntLists.grouped(class_of, range(len(class_of)), len(representatives))

        if 0 < len(network.inputs) <= SEMANTIC_COLLAPSE_MAX_INPUTS:
            words = _exhaustive_class_words(
                compiled, network, fault_list, classes, list(class_of_signature)
            )
            classes, class_of, words = _merge_classes_by_word(classes, words)
            representatives = [members[0] for members in classes]
            null_classes = tuple(k for k, word in enumerate(words) if word == 0)

            def dominance():
                return _semantic_dominance(words)
        else:
            null_class = class_of_signature.get(_NULL)
            null_classes = () if null_class is None else (null_class,)

            def dominance():
                return _structural_dominance(compiled, fault_list, representatives)

        return CollapsedFaultSet(
            network_name=network.name,
            faults=fault_list,
            classes=classes,
            class_of=class_of,
            representatives=representatives,
            null_classes=null_classes,
            dominance=dominance,
        )

    key = (compiled.fingerprint, fault_fingerprint(faults))
    return store.fetch("collapse", key, build)
