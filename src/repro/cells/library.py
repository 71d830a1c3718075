"""The fault library generator - the centrepiece of Section 5.

"In the following we are concerned with the functional library, which
must contain the fault free functions and all possible faulty functions
of the used cells.  All these functions are automatically generated
using both a structural and a behavioural description of the cell."

Given a :class:`~repro.cells.cell.Cell`, :func:`generate_library`
produces the fault-free function plus every distinguishable faulty
function according to the technology's fault model:

* **domino-CMOS** - per SN transistor: closed/open (occurrence-level
  substitution with 1/0), plus CMOS-2/CMOS-3 (``u = 0``) and CMOS-4
  (``u = 1``); CMOS-1 is recorded as possibly undetectable.
* **dynamic-nMOS** - nMOS-1..n (transistor open, ``!E`` with the
  occurrence forced 0), nMOS-(n+1)..2n (closed), nMOS-(2n+1)/(2n+2)
  (``u = 0``), and the S(n+2)/S(n+3) line opens (``u = 1``).
* **nMOS** (static pull-down) - transistor open/closed on ``!E``, plus
  the load-open ``u = 0``.
* **static-CMOS** and **bipolar** - "the common stuck-at fault model"
  on the cell's inputs and output (static CMOS additionally needs the
  two-pattern test-set modification, flagged on the library).

Faulty functions identical to each other form one fault-equivalence
class; functions identical to the fault-free one are undetectable.
Every function is stored in minimal disjunctive form and as a compiled
Python callable - the analogue of the paper's generated PASCAL program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..logic.expr import (
    Const,
    Expr,
    Not,
    literal_occurrences,
    simplify,
    substitute_occurrence,
)
from ..logic.minimize import minimal_sop_string
from ..logic.truthtable import TruthTable
from .cell import Cell


@dataclass(frozen=True)
class LibraryFunction:
    """One executable function of the library (fault-free or faulty)."""

    name: str
    table: TruthTable
    sop: str  # minimal disjunctive form in the paper's syntax

    def callable(self) -> Callable[..., int]:
        """A plain Python function of the cell inputs - the paper's
        'PASCAL program performing the fault free and faulty functions'."""
        table = self.table

        def function(**values: int) -> int:
            return table.value(values)

        function.__name__ = self.name
        return function

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return self.table.value(assignment)


@dataclass
class LibraryClass:
    """A fault-equivalence class: several physical faults, one function."""

    index: int
    labels: List[str]
    function: LibraryFunction
    ratio_dependent: bool = False
    """True when at least one member is only guaranteed to look like
    this function under maximum-speed testing (domino CMOS-3 etc.)."""

    notes: str = ""


@dataclass
class FaultLibrary:
    """The generated functional library of one cell."""

    cell: Cell
    fault_free: LibraryFunction
    classes: List[LibraryClass]
    undetectable: List[Tuple[str, str]]  # (label, reason)
    requires_two_pattern_tests: bool = False
    """Static CMOS: stuck-open faults need two-pattern sequences
    (refs. [16], [18]); the library's functions alone do not cover them."""

    def class_count(self) -> int:
        return len(self.classes)

    def total_faults(self) -> int:
        return sum(len(c.labels) for c in self.classes) + len(self.undetectable)

    def detection_probabilities(
        self, input_probs: Mapping[str, float] | float = 0.5
    ) -> Dict[int, float]:
        """P(random pattern distinguishes class k from fault-free), exact.

        This is the *local* detection probability (perfect observability
        at the cell output); PROTEST combines it with circuit-level
        signal and observation probabilities.
        """
        result: Dict[int, float] = {}
        for cls in self.classes:
            difference = self.fault_free.table ^ cls.function.table
            result[cls.index] = difference.probability(input_probs)
        return result

    def format_table(self) -> str:
        """The paper's fault-class table layout (Fig. 9 example)."""
        lines = ["Class  Fault                      Faulty function"]
        for cls in self.classes:
            for position, label in enumerate(cls.labels):
                index = f"{cls.index:>5}  " if position == 0 else "       "
                func = (
                    f"{self.cell.output} = {cls.function.sop}" if position == 0 else ""
                )
                lines.append(f"{index}{label:<26} {func}".rstrip())
        if self.undetectable:
            lines.append("")
            for label, reason in self.undetectable:
                lines.append(f"  (undetectable) {label}: {reason}")
        return "\n".join(lines)

    def to_python_source(self) -> str:
        """Emit the library as a standalone Python module.

        The 1986 tool compiled the library to a PASCAL program; this is
        the same artefact in today's lingua franca.
        """
        cell = self.cell
        args = ", ".join(cell.inputs)
        lines = [
            f'"""Functional fault library for cell {cell.name!r} '
            f"({cell.technology}), generated by repro.",
            "",
            "Each function returns the cell output under one fault class;",
            '``FAULT_CLASSES`` maps class index to (labels, function)."""',
            "",
            "",
            f"def fault_free({args}):",
            f"    return {_python_from_sop(self.fault_free.sop)}",
            "",
        ]
        for cls in self.classes:
            label_comment = "; ".join(cls.labels)
            lines.append(f"def fault_class_{cls.index}({args}):")
            lines.append(f"    # {label_comment}")
            lines.append(f"    return {_python_from_sop(cls.function.sop)}")
            lines.append("")
        lines.append("FAULT_CLASSES = {")
        for cls in self.classes:
            lines.append(
                f"    {cls.index}: ({cls.labels!r}, fault_class_{cls.index}),"
            )
        lines.append("}")
        lines.append("")
        return "\n".join(lines)


def _python_from_sop(sop: str) -> str:
    """Render an already-minimised SOP string as Python."""
    from ..logic.parser import parse_expression

    return _python_of(parse_expression(sop))


def _python_of(expr: Expr) -> str:
    from ..logic.expr import And, Or, Var

    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Not):
        return f"(1 - {_python_of(expr.operand)})"
    if isinstance(expr, And):
        return "(" + " & ".join(_python_of(op) for op in expr.operands) + ")"
    if isinstance(expr, Or):
        return "(" + " | ".join(_python_of(op) for op in expr.operands) + ")"
    raise TypeError(f"unknown expression node {expr!r}")


def _function(cell: Cell, name: str, expr: Expr) -> LibraryFunction:
    simplified = simplify(expr)
    table = TruthTable.from_expr(simplified, cell.inputs)
    # Unate fast path (switching networks are unate trees); falls back
    # to Quine-McCluskey on the table for binate (bipolar) cells.
    from ..logic.minimize import minimal_sop_string_of_expr

    sop = minimal_sop_string_of_expr(simplified, cell.inputs)
    return LibraryFunction(name=name, table=table, sop=sop)


def _constant_function(cell: Cell, name: str, value: int) -> LibraryFunction:
    table = TruthTable.constant(cell.inputs, value)
    return LibraryFunction(name=name, table=table, sop=minimal_sop_string(table))


def generate_library(cell: Cell) -> FaultLibrary:
    """Generate the complete fault library of a cell."""
    technology = cell.technology
    if technology == "domino-CMOS":
        raw = _domino_faults(cell)
        two_pattern = False
    elif technology == "dynamic-nMOS":
        raw = _dynamic_nmos_faults(cell)
        two_pattern = False
    elif technology == "nMOS":
        raw = _static_nmos_faults(cell)
        two_pattern = False
    elif technology in ("static-CMOS", "bipolar"):
        raw = _stuck_at_faults(cell)
        two_pattern = technology == "static-CMOS"
    else:  # pragma: no cover - parse_cell validated
        raise ValueError(f"unknown technology {technology!r}")

    fault_free = _function(cell, "fault_free", cell.output_function)
    classes: List[LibraryClass] = []
    by_table: Dict[TruthTable, LibraryClass] = {}
    undetectable: List[Tuple[str, str]] = []
    for label, function, ratio, note in raw:
        if function is None:
            undetectable.append((label, note))
            continue
        if function.table == fault_free.table:
            undetectable.append(
                (label, note or "faulty function equals the fault-free function")
            )
            continue
        existing = by_table.get(function.table)
        if existing is None:
            existing = LibraryClass(
                index=len(classes) + 1,
                labels=[],
                function=LibraryFunction(
                    name=f"fault_class_{len(classes) + 1}",
                    table=function.table,
                    sop=function.sop,
                ),
            )
            classes.append(existing)
            by_table[function.table] = existing
        existing.labels.append(label)
        existing.ratio_dependent = existing.ratio_dependent or ratio
        if note and note not in existing.notes:
            existing.notes = (existing.notes + "; " + note).strip("; ")
    return FaultLibrary(
        cell=cell,
        fault_free=fault_free,
        classes=classes,
        undetectable=undetectable,
        requires_two_pattern_tests=two_pattern,
    )


_RawFault = Tuple[str, Optional[LibraryFunction], bool, str]


def _occurrence_faults(
    cell: Cell, closed_first: bool = True, invert: bool = False, label_style: str = "name"
) -> List[_RawFault]:
    """Closed/open faults for every transistor (literal occurrence) of SN."""
    expr = cell.network_expr
    occurrences = literal_occurrences(expr)
    n = len(occurrences)
    result: List[_RawFault] = []
    for index, input_name in enumerate(occurrences):
        variants = []
        closed_expr = substitute_occurrence(expr, index, Const(1))
        open_expr = substitute_occurrence(expr, index, Const(0))
        if invert:
            closed_expr, open_expr = Not(closed_expr), Not(open_expr)
        if label_style == "nmos":
            open_label = f"nMOS-{index + 1} ({input_name} open)"
            closed_label = f"nMOS-{n + index + 1} ({input_name} closed)"
        else:
            open_label = f"{input_name} open"
            closed_label = f"{input_name} closed"
        closed_entry = (closed_label, _function(cell, closed_label, closed_expr), False, "")
        open_entry = (open_label, _function(cell, open_label, open_expr), False, "")
        if closed_first:
            variants = [closed_entry, open_entry]
        else:
            variants = [open_entry, closed_entry]
        result.extend(variants)
    return result


def _domino_faults(cell: Cell) -> List[_RawFault]:
    faults = _occurrence_faults(cell, closed_first=True, invert=False)
    faults.append(("CMOS-2", _constant_function(cell, "CMOS-2", 0), False, "s0-z"))
    faults.append(
        (
            "CMOS-3",
            _constant_function(cell, "CMOS-3", 0),
            True,
            "s0-z if the precharge device is strong; otherwise a delay "
            "fault, detected as s0-z at maximum speed",
        )
    )
    faults.append(("CMOS-4", _constant_function(cell, "CMOS-4", 1), False, "s1-z"))
    faults.append(
        (
            "CMOS-1",
            None,
            False,
            "T2 closed exists for timing reasons only and may stay "
            "undetected; rely on a most reliable design of T2 (Section 3)",
        )
    )
    return faults


def _dynamic_nmos_faults(cell: Cell) -> List[_RawFault]:
    n = len(literal_occurrences(cell.network_expr))
    faults = _occurrence_faults(cell, closed_first=False, invert=True, label_style="nmos")
    faults.append(
        (
            f"nMOS-{2 * n + 1} (T(n+1) open)",
            _constant_function(cell, "precharge_open", 0),
            False,
            "s0-z",
        )
    )
    faults.append(
        (
            f"nMOS-{2 * n + 2} (T(n+1) closed)",
            _constant_function(cell, "precharge_closed", 0),
            False,
            "s0-z - same class as the open precharge device",
        )
    )
    faults.append(
        (
            "S(n+2) open",
            _constant_function(cell, "terminal_open_top", 1),
            False,
            "s1-z: the SN terminal line to z is cut",
        )
    )
    faults.append(
        (
            "S(n+3) open",
            _constant_function(cell, "terminal_open_bottom", 1),
            False,
            "s1-z: the SN terminal line to the clock is cut",
        )
    )
    return faults


def _static_nmos_faults(cell: Cell) -> List[_RawFault]:
    faults = _occurrence_faults(cell, closed_first=False, invert=True)
    faults.append(
        (
            "load open",
            _constant_function(cell, "load_open", 0),
            False,
            "s0-z by A1: the output is only ever pulled down",
        )
    )
    return faults


def _stuck_at_faults(cell: Cell) -> List[_RawFault]:
    """The common stuck-at model on cell inputs and output."""
    function = cell.output_function
    faults: List[_RawFault] = []
    for input_name in cell.inputs:
        for value in (0, 1):
            label = f"s{value}-{input_name}"
            faults.append(
                (label, _function(cell, label, function.cofactor(input_name, value)), False, "")
            )
    for value in (0, 1):
        label = f"s{value}-{cell.output}"
        faults.append((label, _constant_function(cell, label, value), False, ""))
    return faults
