"""Artifact-store contracts: fingerprints, cache tiers, warm runs.

The content-addressed artifact store (:mod:`repro.simulate.artifacts`)
keys everything derivable from a network alone - compiled slot
programs, cone metadata, batch plans, collapse classes and fault
partitions - by canonical content fingerprint.  Four
contracts are pinned here:

* **fingerprints** - equal networks built separately hash equal; by
  hypothesis property, any single gate, connection or output-marking
  mutation produces a different fingerprint (so a mutated network
  misses cleanly - ``Network._generation`` only scopes the memo, never
  the identity);
* **warm runs** - a second ``fault_simulate`` of an already-seen
  network performs no flattening, kernel specialisation, collapse or
  partitioning work, on every registered engine, asserted through the
  store's per-kind miss counters - and stays bit-identical to the cold
  run, on every cache mode including ``"off"``;
* **the bound** - the in-process store is an LRU of bounded size;
* **the knob** - ``resolve_cache`` accepts ``None``, ``"memory"``,
  ``"off"`` or a store and follows the registry error contract for
  anything else, paths included.
"""

import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from engine_test_utils import BENCH_ZOO, all_faults, results_identical

from repro.circuits.generators import c17, random_network
from repro.cells.library import LibraryFunction
from repro.logic.truthtable import TruthTable
from repro.netlist import CellFactory, Network, NetworkFault, parse_bench
from repro.simulate import (
    ArtifactStore,
    PatternSet,
    available_cache_modes,
    available_engines,
    fault_fingerprint,
    fault_simulate,
    network_fingerprint,
    resolve_cache,
)
from repro.simulate.artifacts import CACHE_MODES

#: The artifact kinds a warm run must not rebuild - the store-counter
#: form of "no flattening, no vector view, no collapse, no partitioning,
#: no fault-universe or stem-grouping work on a warm cache".
DERIVATION_KINDS = (
    "compiled", "vector", "collapse", "partition", "universe", "stem_plan",
)


def part_by_part_fingerprint(faults) -> str:
    """The fault fingerprint's byte stream, one digest update per part."""
    digest = hashlib.sha256(b"repro-faults-v1")
    for fault in faults:
        for part in (
            fault.kind, fault.net or "",
            "" if fault.value is None else str(fault.value), fault.gate or "",
            "" if fault.class_index is None else str(fault.class_index),
            fault.label,
        ):
            digest.update(part.encode("utf-8") + b"\x1f")
        function = fault.function
        if function is not None:
            for part in (function.name, ",".join(function.table.names), function.sop):
                digest.update(part.encode("utf-8") + b"\x1f")
            bits = function.table.bits
            digest.update(bits.to_bytes(bits.bit_length() // 8 + 1, "little") + b"\x1f")
        digest.update(b"\x1e")
    return digest.hexdigest()


def perfbench_network():
    """perfbench's 2,000-gate netlist at seed 1 (``perfbench/netgen.py``)."""
    root = Path(__file__).resolve().parent.parent / "perfbench"
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from netgen import bench_text

    return parse_bench(bench_text(1), name="perfbench")


def small_workload():
    network = c17()
    patterns = PatternSet.random(network.inputs, 96, seed=3)
    return network, patterns, all_faults(network)


# -- fingerprints ----------------------------------------------------------------------


def build_network(n_inputs, gates, extra_output=False):
    """Deterministic network from a pure-data spec.

    ``gates`` is a sequence of ``(kind, source_indices)`` where sources
    index the nets available so far (inputs first, then gate outputs) -
    always a valid DAG by construction.
    """
    factory = CellFactory("domino-CMOS")
    network = Network("spec")
    nets = [network.add_input(f"x{k}") for k in range(n_inputs)]
    for position, (kind, sources) in enumerate(gates):
        maker = factory.and_gate if kind == "and" else factory.or_gate
        cell = maker(len(sources))
        connections = dict(zip(cell.inputs, [nets[s] for s in sources]))
        network.add_gate(f"gate{position}", cell, connections, f"n{position}")
        nets.append(f"n{position}")
    network.mark_output(nets[-1])
    if extra_output:
        network.mark_output("n0")
    return network


@st.composite
def network_specs(draw):
    n_inputs = draw(st.integers(2, 4))
    n_gates = draw(st.integers(2, 5))
    gates = []
    for position in range(n_gates):
        available = n_inputs + position
        fan_in = draw(st.integers(2, 3))
        kind = draw(st.sampled_from(["and", "or"]))
        sources = tuple(
            draw(st.integers(0, available - 1)) for _ in range(fan_in)
        )
        gates.append((kind, sources))
    return n_inputs, tuple(gates)


class TestNetworkFingerprint:
    def test_equal_networks_built_separately_share_fingerprint(self):
        assert network_fingerprint(c17()) == network_fingerprint(c17())
        assert network_fingerprint(
            random_network(n_inputs=5, n_gates=9, seed=7)
        ) == network_fingerprint(random_network(n_inputs=5, n_gates=9, seed=7))

    def test_different_seeds_differ(self):
        assert network_fingerprint(
            random_network(n_inputs=5, n_gates=9, seed=7)
        ) != network_fingerprint(random_network(n_inputs=5, n_gates=9, seed=8))

    def test_fingerprint_tracks_in_place_mutation(self):
        """Growing a network invalidates the memoised hash (the
        generation counter scopes the memo, not the identity)."""
        network = build_network(2, (("and", (0, 1)),))
        before = network_fingerprint(network)
        factory = CellFactory("domino-CMOS")
        network.add_gate("late", factory.or_gate(2), {"i1": "x0", "i2": "n0"}, "z")
        network.mark_output("z")
        assert network_fingerprint(network) != before

    @given(spec=network_specs(), data=st.data())
    def test_any_single_mutation_changes_fingerprint(self, spec, data):
        n_inputs, gates = spec
        baseline = network_fingerprint(build_network(n_inputs, gates))
        mutation = data.draw(
            st.sampled_from(["kind", "source", "output", "drop"]),
            label="mutation",
        )
        mutated = list(gates)
        extra_output = False
        if mutation == "kind":
            index = data.draw(st.integers(0, len(gates) - 1), label="gate")
            kind, sources = gates[index]
            mutated[index] = ("or" if kind == "and" else "and", sources)
        elif mutation == "source":
            index = data.draw(st.integers(0, len(gates) - 1), label="gate")
            kind, sources = gates[index]
            available = n_inputs + index
            assume(available > 1)
            position = data.draw(
                st.integers(0, len(sources) - 1), label="pin"
            )
            shift = data.draw(st.integers(1, available - 1), label="shift")
            rewired = list(sources)
            rewired[position] = (sources[position] + shift) % available
            mutated[index] = (kind, tuple(rewired))
        elif mutation == "output":
            extra_output = True  # mark one more primary output
        else:  # drop the last gate entirely
            mutated.pop()
        variant = build_network(n_inputs, tuple(mutated), extra_output)
        assert network_fingerprint(variant) != baseline

    def test_fault_fingerprint_shared_across_equal_lists(self):
        assert fault_fingerprint(all_faults(c17())) == fault_fingerprint(
            all_faults(c17())
        )
        # Order is part of the identity: partitions are index lists.
        faults = all_faults(c17())
        assert fault_fingerprint(faults) != fault_fingerprint(
            list(reversed(faults))
        )

    def test_fault_fingerprint_digests_are_pinned(self):
        """Collapse and partition keys embed these digests: a change to
        the hashed byte stream must be deliberate, never a silent
        drift."""
        assert fault_fingerprint(all_faults(c17())) == (
            "4b89f3769cdd25062c6bd66fe2493a8fa62caf691230cf6dbfde939f67860787"
        )
        zoo = parse_bench(BENCH_ZOO, name="zoo")
        assert fault_fingerprint(all_faults(zoo)) == (
            "46b75794fa61bee97057d611be884a7250361729320bf19036833714e3b1af19"
        )
        assert fault_fingerprint([]) == (
            "a665991698cfeb276869553cd6077ca1b169c5ca3e2628d43e1d0165c4623daa"
        )
        perfbench = perfbench_network()
        assert fault_fingerprint(perfbench.enumerate_faults()) == (
            "c7d811a2e66a3784e76bf4310c9104813189973916838b579be2c3e1a6a1c419"
        )

    def test_fault_fingerprint_is_the_part_by_part_hash(self):
        """One joined string, encoded once, hashes the same bytes as
        feeding every part on its own - labels outside ASCII and table
        bytes above 0x7f included."""
        wide = LibraryFunction(
            name="wide", table=TruthTable(("a", "b", "c", "d"), 0xBEEF), sop="a"
        )
        faults = all_faults(parse_bench(BENCH_ZOO, name="zoo")) + [
            NetworkFault.cell_fault("g\u2192", 7, wide, label="g\u2192\u00fc"),
            NetworkFault.stuck_at("n\u00e9t", 1),
        ]
        assert fault_fingerprint(faults) == part_by_part_fingerprint(faults)

    def test_network_fingerprint_digests_are_pinned(self):
        """Every artifact key starts with the network digest: the
        compiled program, cones, collapse and partitions of a netlist
        must keep theirs."""
        assert network_fingerprint(c17()) == (
            "31d1a08cd15d77c20cc3406971095173d3d11e922ea380599bf563868c7e6e10"
        )
        assert network_fingerprint(parse_bench(BENCH_ZOO, name="zoo")) == (
            "7098634a6957db92e3601819fe7db979911642bdd48ba13e3cb7137c4576794d"
        )
        assert network_fingerprint(perfbench_network()) == (
            "9cebccd651d23a97c492ab29a9bd67ed862c87c9cb4af6c5eb016cde2b14530f"
        )


# -- warm-run guarantees ---------------------------------------------------------------


class TestWarmRuns:
    @pytest.mark.parametrize("engine", available_engines())
    def test_warm_run_rederives_nothing(self, engine):
        """The headline contract: on a warm store the second run is a
        pure cache read - zero misses on every derivation kind - and
        bit-identical to the cold run.  The same fault objects hit the
        memoised universe, so the warm run never reaches the collapse
        classes at all (nor, on the interpreted engine, the compiled
        program they are refined on)."""
        network, patterns, faults = small_workload()
        store = ArtifactStore()
        cold = fault_simulate(
            network, patterns, faults, engine=engine, collapse="on",
            cache=store,
        )
        store.reset_counters()
        warm = fault_simulate(
            network, patterns, faults, engine=engine, collapse="on",
            cache=store,
        )
        results_identical(cold, warm)
        for kind in DERIVATION_KINDS:
            assert store.misses[kind] == 0, (kind, store.stats())
        assert store.hits["universe"] == 1
        assert "collapse" not in store.stats()
        if engine != "interpreted":
            assert store.hits["compiled"] > 0

    def test_equal_network_built_separately_is_warm(self):
        """Content addressing, not object identity: a second network
        describing the same circuit reuses the first one's artifacts."""
        store = ArtifactStore()
        network, patterns, faults = small_workload()
        cold = fault_simulate(
            network, patterns, faults, engine="vector", collapse="on",
            cache=store,
        )
        store.reset_counters()
        twin = c17()
        assert twin is not network
        warm = fault_simulate(
            twin, patterns, all_faults(twin), engine="vector", collapse="on",
            cache=store,
        )
        results_identical(cold, warm)
        assert store.misses["compiled"] == 0
        assert store.misses["collapse"] == 0

    def test_mutated_network_misses_cleanly(self):
        """A network that changed content must rebuild, not reuse."""
        store = ArtifactStore()
        patterns = PatternSet.random(["x0", "x1", "x2"], 64, seed=5)
        base = build_network(3, (("and", (0, 1)), ("or", (2, 3))))
        fault_simulate(base, patterns, all_faults(base), cache=store)
        store.reset_counters()
        variant = build_network(3, (("and", (0, 2)), ("or", (2, 3))))
        fault_simulate(variant, patterns, all_faults(variant), cache=store)
        # Exactly one rebuild: the variant's program (further fetches of
        # the variant within the run are hits, never the base's entry).
        assert store.misses["compiled"] == 1

    def test_cache_off_retains_nothing(self):
        network, patterns, faults = small_workload()
        store = resolve_cache("off")
        assert store.caching is False
        first = fault_simulate(network, patterns, faults, cache="off")
        second = fault_simulate(network, patterns, faults, cache="off")
        results_identical(first, second)
        assert not store._memory

    def test_every_cache_mode_is_bit_identical(self):
        network, patterns, faults = small_workload()
        reference = fault_simulate(network, patterns, faults, cache="off")
        for spec in (None, "memory", "off", ArtifactStore()):
            result = fault_simulate(
                network, patterns, faults, collapse="on", cache=spec
            )
            assert result.detected == reference.detected
            assert result.detection_counts == reference.detection_counts
            assert result.undetected == reference.undetected


# -- the LRU bound ---------------------------------------------------------------------


class TestMemoryTier:
    def test_memory_tier_is_lru_bounded(self):
        store = ArtifactStore(max_entries=2)
        for value in range(5):
            store.fetch("demo", (value,), lambda value=value: value)
        assert len(store._memory) == 2
        assert store.fetch("demo", (4,), lambda: "rebuilt") == 4
        assert store.fetch("demo", (0,), lambda: "rebuilt") == "rebuilt"


# -- collapse sharing (the rekeyed memo) -----------------------------------------------


class TestCollapseSharing:
    def test_collapse_shared_across_equal_networks(self):
        from repro.faults.structural import collapse_network_faults

        store = ArtifactStore()
        first = collapse_network_faults(c17(), cache=store)
        store.reset_counters()
        second = collapse_network_faults(c17(), cache=store)
        assert store.hits["collapse"] == 1
        assert store.misses["collapse"] == 0
        assert second.class_of == first.class_of
        assert second.representatives == first.representatives


# -- the cache knob --------------------------------------------------------------------


class TestResolveCache:
    def test_store_passes_through(self):
        store = ArtifactStore()
        assert resolve_cache(store) is store

    def test_default_is_the_process_store(self):
        assert resolve_cache(None) is resolve_cache("memory")
        assert resolve_cache(None).caching is True

    def test_unknown_spec_uses_registry_error_contract(self):
        with pytest.raises(ValueError) as error:
            resolve_cache(123)
        assert str(error.value) == (
            "unknown cache mode 123; available cache modes: "
            + ", ".join(available_cache_modes())
        )

    def test_paths_are_not_cache_modes(self, tmp_path, monkeypatch):
        """There is no disk tier: a relative name, an existing directory
        or a ``Path`` is an unknown mode, and nothing is created."""
        monkeypatch.chdir(tmp_path)
        for spec in ("of", "MEMORY", str(tmp_path), tmp_path):
            with pytest.raises(ValueError) as error:
                resolve_cache(spec)
            assert str(error.value).startswith(f"unknown cache mode {spec!r};")
        assert not any(tmp_path.iterdir())

    def test_mode_listing_is_sorted(self):
        assert available_cache_modes() == tuple(sorted(CACHE_MODES))
