"""Multi-valued logic primitives shared by the simulators.

Two value systems appear in the reproduction:

* **Ternary** ``{0, 1, X}`` for switch-level and gate-level simulation
  with unknowns (``X`` = unknown / uninitialised).  The switch-level
  simulator additionally tracks *drive* separately (see
  :mod:`repro.switchlevel.state`), so a floating-but-charged node is
  "value 1, undriven" rather than a separate ``Z`` value; this mirrors
  the paper's charge-based reasoning (assumptions A1/A2).
* **Five-valued D-calculus** ``{0, 1, X, D, D'}`` used only inside the
  PODEM implementation (:mod:`repro.atpg.dcalc`).

Ternary constants are small ints with ``X = 2`` so they can index
lookup tables quickly.
"""

from __future__ import annotations

from typing import Iterable

ZERO = 0
ONE = 1
X = 2

_NOT_TABLE = (ONE, ZERO, X)

_AND_TABLE = (
    (ZERO, ZERO, ZERO),
    (ZERO, ONE, X),
    (ZERO, X, X),
)

_OR_TABLE = (
    (ZERO, ONE, X),
    (ONE, ONE, ONE),
    (X, ONE, X),
)


def t_not(value: int) -> int:
    """Ternary NOT."""
    return _NOT_TABLE[value]


def t_and(*values: int) -> int:
    """Ternary AND of one or more values."""
    result = ONE
    for value in values:
        result = _AND_TABLE[result][value]
        if result == ZERO:
            return ZERO
    return result


def t_or(*values: int) -> int:
    """Ternary OR of one or more values."""
    result = ZERO
    for value in values:
        result = _OR_TABLE[result][value]
        if result == ONE:
            return ONE
    return result


def t_and_all(values: Iterable[int]) -> int:
    """Ternary AND over an iterable."""
    return t_and(*values) if values else ONE


def t_or_all(values: Iterable[int]) -> int:
    """Ternary OR over an iterable."""
    return t_or(*values) if values else ZERO


def to_char(value: int) -> str:
    """Render a ternary value as ``0``, ``1`` or ``X``."""
    return "01X"[value]


def from_char(char: str) -> int:
    """Parse ``0``/``1``/``X`` (case-insensitive) to a ternary value."""
    try:
        return {"0": ZERO, "1": ONE, "X": X, "x": X}[char]
    except KeyError:
        raise ValueError(f"not a ternary value character: {char!r}") from None
