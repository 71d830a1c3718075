"""Parameterised benchmark circuit families.

The paper's quantitative claims are parameterised ("orders of
magnitude", "no sequential behaviour for all faults"), so the harness
exercises them over families rather than one netlist:

* wide AND/OR cones - the classic random-pattern-resistant structures
  that motivate optimized input probabilities,
* dual-rail domino parity/XOR trees - domino logic is monotone in its
  rails, so non-monotone functions are built dual-rail (both the signal
  and its complement are computed from complemented rail inputs),
* domino carry chains (ripple-carry adder carry logic is monotone),
* c17 in an inverting technology (dynamic nMOS NAND cells),
* random cell networks for fuzz-style testing.

All generators return gate-level :class:`~repro.netlist.network.Network`
objects whose cells carry the technology tag, so the fault universe is
the technology-dependent one throughout.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..cells.cell import Cell
from ..netlist.builder import CellFactory
from ..netlist.network import Network


def and_cone(
    width: int, technology: str = "domino-CMOS", with_bypass: bool = True
) -> Network:
    """A ``width``-input AND feeding an OR with a bypass input.

    The AND output has signal probability 2^-width under uniform inputs:
    the standard random-resistant cone.  The bypass input keeps the cone
    poorly observable as well (it masks the AND whenever it is 1).
    """
    factory = CellFactory(technology)
    network = Network(f"and_cone_{width}_{technology}")
    for k in range(width):
        network.add_input(f"a{k}")
    network.add_input("bypass")
    network.add_gate(
        "cone",
        factory.and_gate(width),
        {f"i{k + 1}": f"a{k}" for k in range(width)},
        "w",
    )
    if with_bypass:
        network.add_gate("top", factory.or_gate(2), {"i1": "w", "i2": "bypass"}, "z")
        network.mark_output("z")
    else:
        network.mark_output("w")
    return network


def or_cone(width: int, technology: str = "domino-CMOS") -> Network:
    """Dual structure: a wide OR (hard-to-test stuck-at-1 side)."""
    factory = CellFactory(technology)
    network = Network(f"or_cone_{width}_{technology}")
    for k in range(width):
        network.add_input(f"a{k}")
    network.add_input("mask")
    network.add_gate(
        "cone",
        factory.or_gate(width),
        {f"i{k + 1}": f"a{k}" for k in range(width)},
        "w",
    )
    network.add_gate("top", factory.and_gate(2), {"i1": "w", "i2": "mask"}, "z")
    network.mark_output("z")
    return network


# -- dual-rail domino structures -----------------------------------------------------


def _xor_cells(factory: CellFactory) -> Tuple[Cell, Cell]:
    """Dual-rail XOR: true rail ``a*nb + na*b``, false rail ``a*b + na*nb``."""
    true_rail = factory.cell("xor_t", "a*nb+na*b", ["a", "na", "b", "nb"])
    false_rail = factory.cell("xor_f", "a*b+na*nb", ["a", "na", "b", "nb"])
    return true_rail, false_rail


def dual_rail_parity_tree(width: int, technology: str = "domino-CMOS") -> Network:
    """A balanced parity tree in dual-rail domino logic.

    Inputs are rails ``x{k}`` and ``nx{k}`` (the environment supplies
    complemented lines, as real domino systems do); each tree node
    computes both rails of the XOR with positive-unate cells.  Primary
    output is the true rail of the parity.
    """
    if width < 2:
        raise ValueError("parity tree needs at least 2 inputs")
    factory = CellFactory(technology)
    xor_t, xor_f = _xor_cells(factory)
    network = Network(f"parity_{width}_{technology}")
    rails: List[Tuple[str, str]] = []
    for k in range(width):
        t = network.add_input(f"x{k}")
        f = network.add_input(f"nx{k}")
        rails.append((t, f))
    level = 0
    while len(rails) > 1:
        next_rails: List[Tuple[str, str]] = []
        for pair_index in range(0, len(rails) - 1, 2):
            (at, af), (bt, bf) = rails[pair_index], rails[pair_index + 1]
            out_t = f"p{level}_{pair_index}_t"
            out_f = f"p{level}_{pair_index}_f"
            connections = {"a": at, "na": af, "b": bt, "nb": bf}
            network.add_gate(f"g{level}_{pair_index}_t", xor_t, connections, out_t)
            network.add_gate(f"g{level}_{pair_index}_f", xor_f, connections, out_f)
            next_rails.append((out_t, out_f))
        if len(rails) % 2 == 1:
            next_rails.append(rails[-1])
        rails = next_rails
        level += 1
    network.mark_output(rails[0][0])
    network.mark_output(rails[0][1])
    return network


def domino_carry_chain(width: int, technology: str = "domino-CMOS") -> Network:
    """Ripple-carry chain: ``c{k+1} = g{k} + p{k}*c{k}`` (monotone).

    ``g{k}``/``p{k}`` are generate/propagate inputs; the carry-out of
    every position is an output.  Deep domino chains like this are what
    single-clock domino pipelines were invented for.
    """
    factory = CellFactory(technology)
    network = Network(f"carry_chain_{width}_{technology}")
    network.add_input("c0")
    carry = "c0"
    cell = factory.cell("carry_step", "g+p*c", ["g", "p", "c"])
    for k in range(width):
        g = network.add_input(f"g{k}")
        p = network.add_input(f"p{k}")
        out = f"c{k + 1}"
        network.add_gate(f"stage{k}", cell, {"g": g, "p": p, "c": carry}, out)
        network.mark_output(out)
        carry = out
    return network


def dual_rail_adder(width: int, technology: str = "domino-CMOS") -> Network:
    """A ripple-carry adder with dual-rail sums and monotone carries.

    Inputs: rails ``a{k}``/``na{k}``, ``b{k}``/``nb{k}`` and carry rails
    ``c0``/``nc0``.  Outputs: sum rails and the final carry rails.
    """
    factory = CellFactory(technology)
    network = Network(f"adder_{width}_{technology}")
    sum_t = factory.cell(
        "sum_t", "a*nb*nc+na*b*nc+na*nb*c+a*b*c", ["a", "na", "b", "nb", "c", "nc"]
    )
    sum_f = factory.cell(
        "sum_f", "a*b*nc+a*nb*c+na*b*c+na*nb*nc", ["a", "na", "b", "nb", "c", "nc"]
    )
    carry_t = factory.cell("carry_t", "a*b+a*c+b*c", ["a", "b", "c"])
    carry_f = factory.cell("carry_f", "na*nb+na*nc+nb*nc", ["na", "nb", "nc"])
    ct = network.add_input("c0")
    cf = network.add_input("nc0")
    for k in range(width):
        at = network.add_input(f"a{k}")
        af = network.add_input(f"na{k}")
        bt = network.add_input(f"b{k}")
        bf = network.add_input(f"nb{k}")
        rails = {"a": at, "na": af, "b": bt, "nb": bf, "c": ct, "nc": cf}
        s_t, s_f = f"s{k}", f"ns{k}"
        network.add_gate(f"sum{k}_t", sum_t, rails, s_t)
        network.add_gate(f"sum{k}_f", sum_f, rails, s_f)
        network.mark_output(s_t)
        network.mark_output(s_f)
        new_ct, new_cf = f"c{k + 1}", f"nc{k + 1}"
        network.add_gate(
            f"carry{k}_t", carry_t, {"a": at, "b": bt, "c": ct}, new_ct
        )
        network.add_gate(
            f"carry{k}_f", carry_f, {"na": af, "nb": bf, "nc": cf}, new_cf
        )
        ct, cf = new_ct, new_cf
    network.mark_output(ct)
    network.mark_output(cf)
    return network


def adder_environment(width: int) -> List[Dict[str, int]]:
    """Well-formed dual-rail vectors for :func:`dual_rail_adder`."""


    vectors: List[Dict[str, int]] = []
    for a in range(1 << width):
        for b in range(1 << width):
            for c0 in (0, 1):
                vector: Dict[str, int] = {"c0": c0, "nc0": 1 - c0}
                for k in range(width):
                    abit = (a >> k) & 1
                    bbit = (b >> k) & 1
                    vector[f"a{k}"] = abit
                    vector[f"na{k}"] = 1 - abit
                    vector[f"b{k}"] = bbit
                    vector[f"nb{k}"] = 1 - bbit
                vectors.append(vector)
    return vectors


# -- inverting-technology circuits -----------------------------------------------------


def c17(technology: str = "dynamic-nMOS") -> Network:
    """The ISCAS c17 benchmark: six NAND2 gates.

    Needs an inverting technology (NAND cells); dynamic nMOS is the
    natural fit - exactly the kind of network Fig. 7 clocks with two
    phases.
    """
    factory = CellFactory(technology)
    nand2 = factory.cell("nand2", "i1*i2", ["i1", "i2"])  # output = !(i1*i2)
    network = Network(f"c17_{technology}")
    for name in ("n1", "n2", "n3", "n6", "n7"):
        network.add_input(name)
    network.add_gate("g10", nand2, {"i1": "n1", "i2": "n3"}, "n10")
    network.add_gate("g11", nand2, {"i1": "n3", "i2": "n6"}, "n11")
    network.add_gate("g16", nand2, {"i1": "n2", "i2": "n11"}, "n16")
    network.add_gate("g19", nand2, {"i1": "n11", "i2": "n7"}, "n19")
    network.add_gate("g22", nand2, {"i1": "n10", "i2": "n16"}, "n22")
    network.add_gate("g23", nand2, {"i1": "n16", "i2": "n19"}, "n23")
    network.mark_output("n22")
    network.mark_output("n23")
    return network


def skewed_cone_network(
    depth: int = 12, islands: int = 8, technology: str = "domino-CMOS"
) -> Network:
    """One huge fanout cone next to many tiny ones - the scheduling
    adversary.

    A ``depth``-gate spine chain (faults near its head re-evaluate the
    whole chain, so their cone cost is ~``depth``) sits beside
    ``islands`` independent two-input single-gate islands (cone cost 1
    for their inputs, 0 for their outputs).  Contiguous fault sharding
    lands the entire expensive spine in one worker while the island
    workers idle - exactly what cost-weighted scheduling fixes.  Gates
    alternate AND/OR so
    neither constant saturates the chain.
    """
    if depth < 1:
        raise ValueError("the spine needs at least 1 gate")
    factory = CellFactory(technology)
    network = Network(f"skewed_{depth}x{islands}_{technology}")
    spine = network.add_input("s0")
    shared = network.add_input("u")
    for k in range(depth):
        cell = factory.and_gate(2) if k % 2 == 0 else factory.or_gate(2)
        out = f"c{k + 1}"
        network.add_gate(f"spine{k}", cell, {"i1": spine, "i2": shared}, out)
        spine = out
    network.mark_output(spine)
    for j in range(islands):
        a = network.add_input(f"t{j}a")
        b = network.add_input(f"t{j}b")
        cell = factory.or_gate(2) if j % 2 == 0 else factory.and_gate(2)
        network.add_gate(f"island{j}", cell, {"i1": a, "i2": b}, f"z{j}")
        network.mark_output(f"z{j}")
    return network


def large_random_network(
    n_gates: int = 10000,
    n_inputs: int = 64,
    technology: str = "domino-CMOS",
    seed: int = 1986,
    locality: int = 64,
    n_outputs: int = 8,
) -> Network:
    """A scan-sized random DAG: the 10k-100k-gate tier.

    :func:`random_network` draws every source uniformly, which at scale
    produces shallow, shapeless networks; real ISCAS-class circuits are
    deep with mostly-local wiring and occasional long reconvergent
    jumps.  Here each gate reads one net from the trailing ``locality``
    window (depth ~ ``n_gates/locality`` levels) and one drawn globally
    (reconvergence), from a fixed pool of two-input cells - O(1) work
    per gate, so construction itself scales to 100k gates.  The last
    ``n_outputs`` nets are the primary outputs.  This is the generator
    behind the ``e_iscas_scale`` benchmark's levelize/compile/cone
    numbers.
    """
    if n_gates < 1:
        raise ValueError("the network needs at least 1 gate")
    rng = random.Random(seed)
    factory = CellFactory(technology)
    cells = (factory.and_gate(2), factory.or_gate(2), factory.and_or(2, 2))
    network = Network(f"large_{n_inputs}x{n_gates}_{technology}_{seed}")
    nets: List[str] = [network.add_input(f"x{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        cell = cells[rng.randrange(len(cells))]
        window_start = max(0, len(nets) - locality)
        sources = [
            nets[rng.randrange(window_start, len(nets))],
            nets[rng.randrange(len(nets))],
        ]
        while len(sources) < len(cell.inputs):
            sources.append(nets[rng.randrange(len(nets))])
        output = f"n{g}"
        network.add_gate(
            f"g{g}", cell, dict(zip(cell.inputs, sources)), output
        )
        nets.append(output)
    for net in nets[-max(1, n_outputs):]:
        network.mark_output(net)
    return network


def random_network(
    n_inputs: int = 8,
    n_gates: int = 12,
    technology: str = "domino-CMOS",
    seed: int = 1986,
    max_fan_in: int = 3,
) -> Network:
    """A random DAG of AND/OR/AO cells - fuzz fodder for the simulators."""
    rng = random.Random(seed)
    factory = CellFactory(technology)
    network = Network(f"random_{n_inputs}x{n_gates}_{technology}_{seed}")
    nets = [network.add_input(f"x{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        fan_in = rng.randint(2, max_fan_in)
        kind = rng.choice(("and", "or", "ao"))
        if kind == "and":
            cell = factory.and_gate(fan_in)
        elif kind == "or":
            cell = factory.or_gate(fan_in)
        else:
            cell = factory.and_or(2, 2)
        sources = [rng.choice(nets) for _ in range(len(cell.inputs))]
        output = f"g{g}"
        network.add_gate(
            f"gate{g}", cell, dict(zip(cell.inputs, sources)), output
        )
        nets.append(output)
    # The last few gates are the observable outputs.
    for net in nets[-max(1, n_gates // 4):]:
        network.mark_output(net)
    return network
