"""ISCAS85-style ``.bench`` netlist frontend.

The PROTEST reproduction grew up on generated cell DAGs, but the 1986
tool was built for real benchmark circuits, and the interchange format
those circuits survive in is the ISCAS85 ``.bench`` netlist::

    # c17
    INPUT(n1)
    OUTPUT(n22)
    n10 = NAND(n1, n3)

This module reads and writes the combinational subset
(INPUT/OUTPUT/AND/NAND/OR/NOR/XOR/NOT/BUFF) and maps each gate type
onto the existing :class:`~repro.netlist.builder.CellFactory` cells in
the technology whose polarity matches:

* ``AND``/``OR``/``BUFF`` are non-inverting - domino CMOS cells
  (output = switching network);
* ``NAND``/``NOR``/``NOT`` are inverting - dynamic nMOS cells (output
  = complement of the switching network), the same ``nand2`` cell
  :func:`repro.circuits.generators.c17` builds, so a parsed
  ``c17.bench`` is structurally identical to the generated network;
* ``XOR`` is neither - switch technologies forbid inner negations, so
  it becomes a bipolar (functional) odd-parity sum-of-products cell.

Parsed networks are ordinary :class:`~repro.netlist.network.Network`
objects: every engine, collapse mode and fault model downstream works
on them unchanged.  Errors raise :class:`BenchFormatError` with the
offending line number, in the registry-error message style the CLI
reuses verbatim.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cells.cell import Cell
from .builder import CellFactory
from .network import Network, NetworkError

__all__ = [
    "BenchFormatError",
    "FAN_IN_LIMITS",
    "GATE_TYPES",
    "parse_bench",
    "read_bench",
    "resolve_netlist",
    "write_bench",
]

GATE_TYPES = ("AND", "BUFF", "NAND", "NOR", "NOT", "OR", "XOR")
"""The supported ``.bench`` gate types, sorted (error messages quote
this tuple, mirroring the registries' sorted available-name lists)."""

_SINGLE_INPUT = ("BUFF", "NOT")

FAN_IN_LIMITS = {"AND": 14, "NAND": 14, "NOR": 14, "OR": 14, "XOR": 9}
"""The widest gate of each multi-input type ``parse_bench`` accepts.

A gate's fault library is generated over its full truth table, so its
build time grows with every input: measured on a 2-CPU x86-64 host
(CPython 3.11), an XOR library takes 0.46 s at 9 inputs and 1.3 s at
10, and an AND/NAND/NOR/OR library 0.33-0.41 s at 14 inputs and
2.7-3.3 s at 16, each input multiplying the time about 2.7-3x.  Each
limit is the widest gate whose library builds in about half a second;
a wider gate would parse and then stall fault enumeration for minutes
to hours, so it is rejected at its line instead.  ISCAS85 circuits
stay well inside these limits."""


class BenchFormatError(ValueError):
    """Malformed ``.bench`` input: syntax, duplicate drivers, unknown
    gate types, over-wide gates, undeclared nets, combinational
    cycles, or unwritable cells."""


class _BenchCells:
    """One factory per technology the ``.bench`` gate types map onto,
    and the cell of each (gate type, fan-in), built once."""

    def __init__(self) -> None:
        self._domino = CellFactory("domino-CMOS")
        self._dynamic = CellFactory("dynamic-nMOS")
        self._bipolar = CellFactory("bipolar")
        self._cells: Dict[Tuple[str, int], Cell] = {}

    def cell(self, kind: str, fan_in: int) -> Cell:
        key = (kind, fan_in)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self._build(kind, fan_in)
        return cell

    def _build(self, kind: str, fan_in: int) -> Cell:
        inputs = [f"i{k}" for k in range(1, fan_in + 1)]
        if kind == "AND":
            return self._domino.and_gate(fan_in)
        if kind == "OR":
            return self._domino.or_gate(fan_in)
        if kind == "BUFF":
            return self._domino.buffer()
        if kind == "NAND":
            return self._dynamic.cell(f"nand{fan_in}", "*".join(inputs), inputs)
        if kind == "NOR":
            return self._dynamic.cell(f"nor{fan_in}", "+".join(inputs), inputs)
        if kind == "NOT":
            return self._dynamic.cell("inv", "i1", inputs)
        # XOR: odd parity needs literal negations, which the switch
        # technologies reject - build the functional (bipolar) SOP over
        # the odd-parity minterms.
        terms = []
        for minterm in range(1 << fan_in):
            if bin(minterm).count("1") % 2 == 1:
                terms.append(
                    "*".join(
                        pin if (minterm >> index) & 1 else f"!{pin}"
                        for index, pin in enumerate(inputs)
                    )
                )
        return self._bipolar.cell(f"xor{fan_in}", "+".join(terms), inputs)


_CELLS = _BenchCells()

_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s(),=]+)\s*\)$")
_GATE_RE = re.compile(r"^([^\s(),=]+)\s*=\s*([A-Za-z]+)\s*\(([^()]*)\)$")
_ARGS_RE = re.compile(r"\s*[^\s(),=]+(?:\s*,\s*[^\s(),=]+)*\s*")
"""A non-empty argument list: nets free of blanks, parentheses, commas
and ``=``, separated by commas."""
_ARG_SEPARATOR_RE = re.compile(r"\s*,\s*")


def parse_bench(text: str, name: str = "bench") -> Network:
    """Parse ``.bench`` text into a :class:`Network`.

    ``#`` starts a comment; blank lines are skipped; gates may appear
    in any order (forward references are the norm in ISCAS files) -
    levelization orders them.  Gate instances are named ``g_<net>``
    after the net they drive, deterministically, so re-parsing the same
    text fingerprints identically.  One pass over the lines checks each
    and builds the network as it goes; undeclared nets, known only once
    every line is read, are checked after it.
    """
    network = Network(name)
    outputs: List[Tuple[int, str]] = []
    driven: Dict[str, int] = {}  # net -> line of its INPUT or gate
    io_match = _IO_RE.match
    gate_match = _GATE_RE.match
    args_match = _ARGS_RE.fullmatch
    split_args = _ARG_SEPARATOR_RE.split
    cell_of = _CELLS.cell
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = gate_match(line)
        if match is None:
            match = io_match(line)
            if match is None:
                raise BenchFormatError(f"line {lineno}: cannot parse {line!r}")
            keyword, net = match.groups()
            if keyword == "INPUT":
                if net in driven:
                    raise BenchFormatError(
                        f"line {lineno}: duplicate driver for net {net!r}"
                    )
                driven[net] = lineno
                network.add_input(net)
            else:
                outputs.append((lineno, net))
                network.mark_output(net)
            continue
        output, kind_raw, args_text = match.groups()
        kind = kind_raw.upper()
        if kind not in GATE_TYPES:
            raise BenchFormatError(
                f"line {lineno}: unknown gate type {kind_raw!r}; "
                "supported gate types: " + ", ".join(GATE_TYPES)
            )
        if args_text.strip():
            if args_match(args_text) is None:
                raise BenchFormatError(f"line {lineno}: cannot parse {line!r}")
            args = split_args(args_text.strip())
        else:
            args = []
        if kind in _SINGLE_INPUT:
            if len(args) != 1:
                raise BenchFormatError(
                    f"line {lineno}: gate type {kind} takes exactly one input, "
                    f"got {len(args)}"
                )
        elif len(args) < 2:
            raise BenchFormatError(
                f"line {lineno}: gate type {kind} needs at least two inputs, "
                f"got {len(args)}"
            )
        elif len(args) > FAN_IN_LIMITS[kind]:
            raise BenchFormatError(
                f"line {lineno}: gate type {kind} with fan-in {len(args)} "
                f"exceeds the fan-in limit of {FAN_IN_LIMITS[kind]}"
            )
        if output in driven:
            raise BenchFormatError(
                f"line {lineno}: duplicate driver for net {output!r}"
            )
        driven[output] = lineno
        cell = cell_of(kind, len(args))
        network.add_gate("g_" + output, cell, dict(zip(cell.inputs, args)), output)
    for gate in network.gates.values():
        for net in gate.connections.values():
            if net not in driven:
                raise BenchFormatError(
                    f"line {driven[gate.output]}: undeclared net {net!r}"
                )
    for lineno, net in outputs:
        if net not in driven:
            raise BenchFormatError(f"line {lineno}: undeclared net {net!r}")
    try:
        network.levelize()
    except NetworkError:
        raise _cycle_error(network, driven) from None
    return network


def _cycle_error(network: Network, driven: Dict[str, int]) -> BenchFormatError:
    """The error for gates levelization cannot order.

    Undeclared nets are rejected before levelization, so a stalled
    order always means a combinational cycle.  Peeling every gate with
    no unordered input (forwards), then every gate no unordered gate
    reads (backwards), leaves the gates on a cycle or between cycles;
    they are named by the nets they drive, with the line of each.
    """
    gates = network.gates.values()
    line_of = {gate.output: driven[gate.output] for gate in gates}
    inputs_of = {
        gate.output: {net for net in gate.connections.values() if net in line_of}
        for gate in gates
    }
    readers_of: Dict[str, set] = {output: set() for output in line_of}
    for output, nets in inputs_of.items():
        for net in nets:
            readers_of[net].add(output)
    remaining = set(line_of)
    for edges, reverse in ((inputs_of, readers_of), (readers_of, inputs_of)):
        degree = {gate: len(edges[gate] & remaining) for gate in remaining}
        queue = [gate for gate in remaining if not degree[gate]]
        while queue:
            gate = queue.pop()
            remaining.discard(gate)
            for other in reverse[gate]:
                if other in remaining:
                    degree[other] -= 1
                    if not degree[other]:
                        queue.append(other)
    cyclic = sorted(remaining, key=line_of.__getitem__)
    named = ", ".join(f"{gate} (line {line_of[gate]})" for gate in cyclic)
    return BenchFormatError(
        f"line {line_of[cyclic[0]]}: combinational cycle among gates {named}"
    )


def read_bench(path) -> Network:
    """Parse a ``.bench`` file; the network is named after the file."""
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)


def resolve_netlist(path) -> Network:
    """Resolve a ``--netlist`` argument: read and parse, or raise one
    :class:`BenchFormatError` naming the file (the CLI reuses the exact
    message, like the engine/schedule registries)."""
    try:
        return read_bench(path)
    except OSError as error:
        raise BenchFormatError(
            f"cannot read netlist {str(path)!r}: {error}"
        ) from None
    except BenchFormatError as error:
        raise BenchFormatError(f"netlist {str(path)!r}: {error}") from None


def _kind_of_cell(cell: Cell) -> Optional[str]:
    """The ``.bench`` gate type a cell corresponds to, or ``None``.

    Recognition is structural, not by name: the cell must match what
    :meth:`_BenchCells.cell` would build for that type and fan-in
    (technology, pin list, switching network and output function).
    """
    fan_in = len(cell.inputs)
    candidates = _SINGLE_INPUT if fan_in == 1 else ("AND", "NAND", "NOR", "OR", "XOR")
    for kind in candidates:
        reference = _CELLS.cell(kind, fan_in)
        if (
            cell.technology == reference.technology
            and tuple(cell.inputs) == tuple(reference.inputs)
            and cell.network_expr.to_paper_syntax()
            == reference.network_expr.to_paper_syntax()
            and cell.output_function.to_paper_syntax()
            == reference.output_function.to_paper_syntax()
        ):
            return kind
    return None


def write_bench(network: Network) -> str:
    """Serialise a network as ``.bench`` text.

    Inputs and outputs keep their declaration order; gates are emitted
    in levelized order with their connections in cell pin order.  Cells
    that do not correspond to a ``.bench`` gate type raise
    :class:`BenchFormatError` (the format has no vocabulary for complex
    cells like AND-OR or carry gates).
    """
    lines = [f"# {network.name}"]
    for net in network.inputs:
        lines.append(f"INPUT({net})")
    for net in network.outputs:
        lines.append(f"OUTPUT({net})")
    for name in network.levelize():
        gate = network.gates[name]
        kind = _kind_of_cell(gate.cell)
        if kind is None:
            raise BenchFormatError(
                f"gate {name!r}: cell {gate.cell.name!r} "
                f"({gate.cell.technology}) has no .bench gate type; "
                "supported gate types: " + ", ".join(GATE_TYPES)
            )
        args = ", ".join(gate.connections[pin] for pin in gate.cell.inputs)
        lines.append(f"{gate.output} = {kind}({args})")
    return "\n".join(lines) + "\n"
