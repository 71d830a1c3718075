"""Seeded ISCAS85-shaped ``.bench`` netlist generator.

The benchmark hands the program only the text this module writes; the
program sees it through ``repro.netlist.parse_bench`` like any user
netlist.  Shape:

* ``inputs`` primary inputs ``x0 ..`` shared by ``blocks`` modules of
  ``gates / blocks`` two-input gates each (gates ``n0 ..``), as larger
  ISCAS85 circuits are built from modules;
* inside a module each gate reads one net from the trailing
  ``locality``-net window (depth) and one net drawn from the module's
  nets and the primary inputs so far (reconvergent fanout), never the
  same net twice;
* gate types AND, OR, NAND, NOR and XOR, so all three technology
  mappings of the ``.bench`` frontend (domino CMOS, dynamic nMOS,
  bipolar) appear;
* every gate output that no gate reads is an ``OUTPUT``, as in ISCAS85.

How much a fault-simulation call costs depends on how much of a
netlist is redundant, which varies a lot between random netlists.
Independent modules make the cost a sum over modules, so it varies
between seeds about ``sqrt(blocks)`` times less.

The same arguments always give the same text.
"""

from __future__ import annotations

import random

GATE_KINDS = ("AND", "OR", "NAND", "NOR", "XOR")


def bench_text(seed: int, gates: int = 2000, inputs: int = 64,
               locality: int = 64, blocks: int = 4) -> str:
    """The ``.bench`` text of one seeded netlist."""
    if gates < blocks or inputs < 2 or blocks < 1:
        raise ValueError("need at least one gate per block and two inputs")
    rng = random.Random(seed)
    primary = [f"x{k}" for k in range(inputs)]
    read = set()
    created = []
    body = []
    for block in range(blocks):
        nets = list(primary)
        for _ in range(gates // blocks + (block < gates % blocks)):
            window_start = max(0, len(nets) - locality)
            a = nets[rng.randrange(window_start, len(nets))]
            b = a
            while b == a:
                b = nets[rng.randrange(len(nets))]
            kind = GATE_KINDS[rng.randrange(len(GATE_KINDS))]
            out = f"n{len(created)}"
            body.append(f"{out} = {kind}({a}, {b})")
            read.update((a, b))
            nets.append(out)
            created.append(out)
    lines = [f"# perfbench seed={seed} gates={gates} inputs={inputs} "
             f"locality={locality} blocks={blocks}"]
    lines += [f"INPUT({net})" for net in primary]
    lines += [f"OUTPUT({net})" for net in created if net not in read]
    return "\n".join(lines + body) + "\n"
