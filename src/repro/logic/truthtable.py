"""Truth tables as big-int bitmaps - the canonical function representation.

The fault library generator (Section 5 of the paper) must decide when
two faulty functions are *identical* in order to build fault-equivalence
classes, and must emit each function in minimal disjunctive form.  A
truth table over an explicit, ordered variable list is the canonical
form used for both.

A table over ``n`` variables is stored as a single Python integer whose
bit ``m`` holds the function value on minterm ``m``.  Minterm index
convention: the *first* variable in ``names`` is the most significant
bit, so row order matches the function tables printed in the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .expr import Expr, all_assignments

MAX_TABLE_VARS = 24
"""Guard against accidentally materialising astronomically large tables."""


def minterm_column(n: int, position: int) -> int:
    """Variable ``position``'s bits over all ``2**n`` minterms (first MSB).

    The column is periodic: ``block = 2**(n-1-position)`` zeros then
    ``block`` ones, repeating.  Closed form: one marker bit per period
    (exact division - the period divides ``2**n``), each multiplied into
    a block of ones in the period's upper half.
    """
    block = 1 << (n - 1 - position)
    markers = ((1 << (1 << n)) - 1) // ((1 << (2 * block)) - 1)
    return markers * (((1 << block) - 1) << block)


class TruthTable:
    """An explicit Boolean function over an ordered tuple of variables."""

    __slots__ = ("names", "bits")

    def __init__(self, names: Sequence[str], bits: int):
        names = tuple(names)
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate variable names in {names!r}")
        if len(names) > MAX_TABLE_VARS:
            raise ValueError(
                f"refusing to build a truth table over {len(names)} variables "
                f"(limit {MAX_TABLE_VARS})"
            )
        size = 1 << len(names)
        if not 0 <= bits < (1 << size):
            raise ValueError("bits outside the range of the table size")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, *args):
        raise AttributeError("TruthTable is immutable")

    def __reduce__(self):
        # The immutable __setattr__ breaks the default slot-state
        # restore, so pickling re-runs the constructor instead - which
        # also re-validates entries read back from an artifact store.
        return (type(self), (self.names, self.bits))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_expr(cls, expr: Expr, names: Sequence[str] | None = None) -> "TruthTable":
        """Tabulate an expression.

        ``names`` fixes the variable order (and may include variables
        outside the support, which is how two functions are compared on
        a common domain); by default the sorted support is used.
        """
        if names is None:
            names = tuple(sorted(expr.variables()))
        names = tuple(names)
        missing = expr.variables() - set(names)
        if missing:
            raise ValueError(f"expression uses variables not in names: {sorted(missing)}")
        n = len(names)
        if n > MAX_TABLE_VARS:
            raise ValueError(f"too many variables ({n}) for an explicit table")
        env = {name: minterm_column(n, position) for position, name in enumerate(names)}
        bits = expr.evaluate_bits(env, (1 << (1 << n)) - 1)
        return cls(names, bits)

    @classmethod
    def from_function(cls, names: Sequence[str], function) -> "TruthTable":
        """Tabulate ``function(assignment_dict) -> 0/1`` over all minterms."""
        names = tuple(names)
        bits = 0
        for minterm, assignment in enumerate(all_assignments(names)):
            if function(assignment):
                bits |= 1 << minterm
        return cls(names, bits)

    @classmethod
    def constant(cls, names: Sequence[str], value: int) -> "TruthTable":
        names = tuple(names)
        size = 1 << len(names)
        return cls(names, ((1 << size) - 1) if value else 0)

    # -- queries -----------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def size(self) -> int:
        return 1 << len(self.names)

    def minterm_index(self, assignment: Mapping[str, int]) -> int:
        index = 0
        for name in self.names:
            index = (index << 1) | (assignment[name] & 1)
        return index

    def value(self, assignment: Mapping[str, int]) -> int:
        """Function value under an assignment dict."""
        return (self.bits >> self.minterm_index(assignment)) & 1

    def value_at(self, minterm: int) -> int:
        """Function value at a raw minterm index."""
        if not 0 <= minterm < self.size:
            raise IndexError(f"minterm {minterm} out of range for {self.n_vars} vars")
        return (self.bits >> minterm) & 1

    def minterms(self) -> Iterator[int]:
        """Indices where the function is 1, ascending."""
        bits = self.bits
        index = 0
        while bits:
            if bits & 1:
                yield index
            bits >>= 1
            index += 1

    def ones_count(self) -> int:
        return self.bits.bit_count()

    def constant_value(self) -> int | None:
        """0 or 1 if the function is constant, else ``None``."""
        if self.bits == 0:
            return 0
        if self.bits == (1 << self.size) - 1:
            return 1
        return None

    # -- algebra -------------------------------------------------------------

    def _check_compatible(self, other: "TruthTable") -> None:
        if self.names != other.names:
            raise ValueError(
                f"incompatible variable orders {self.names!r} vs {other.names!r}; "
                "re-tabulate on a common name tuple first"
            )

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.names, ((1 << self.size) - 1) & ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.names, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self.names, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        """The *difference function* - 1 exactly on tests that distinguish
        ``self`` from ``other``.  Central to fault-detection probability."""
        self._check_compatible(other)
        return TruthTable(self.names, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.names == other.names and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.names, self.bits))

    def expand(self, names: Sequence[str]) -> "TruthTable":
        """Re-tabulate over a superset/reordering of variables."""
        names = tuple(names)
        if names == self.names:
            return self
        if not set(self.names) <= set(names):
            raise ValueError(f"{names!r} does not cover {self.names!r}")
        positions = {name: index for index, name in enumerate(names)}
        n_new = len(names)
        bits = 0
        for new_minterm in range(1 << n_new):
            old_minterm = 0
            for name in self.names:
                bit = (new_minterm >> (n_new - 1 - positions[name])) & 1
                old_minterm = (old_minterm << 1) | bit
            if (self.bits >> old_minterm) & 1:
                bits |= 1 << new_minterm
        return TruthTable(names, bits)

    def cofactor(self, name: str, value: int) -> "TruthTable":
        """Table with ``name`` fixed (the variable is removed)."""
        if name not in self.names:
            raise ValueError(f"{name!r} not among {self.names!r}")
        position = self.names.index(name)
        shift = len(self.names) - 1 - position
        remaining = tuple(n for n in self.names if n != name)
        bits = 0
        out = 0
        for minterm in range(self.size):
            if ((minterm >> shift) & 1) != value:
                continue
            if (self.bits >> minterm) & 1:
                bits |= 1 << out
            out += 1
        return TruthTable(remaining, bits)

    def depends_on(self, name: str) -> bool:
        """True if the function value actually depends on ``name``."""
        return self.cofactor(name, 0).bits != self.cofactor(name, 1).bits

    def support(self) -> Tuple[str, ...]:
        """Variables the function genuinely depends on."""
        return tuple(name for name in self.names if self.depends_on(name))

    def parity_split(self) -> Tuple[Tuple[str, ...], "TruthTable"]:
        """``(parity, rest)`` with ``self`` the XOR of the ``parity``
        variables and ``rest``: every variable ``x`` with ``f|x=1 == not
        f|x=0`` is peeled off in order (``f = x ^ f|x=0``), and ``rest``,
        over the same names, depends on none of them."""
        n = len(self.names)
        full = (1 << self.size) - 1
        bits = self.bits
        parity = []
        for position, name in enumerate(self.names):
            ones = minterm_column(n, position)
            block = 1 << (n - 1 - position)
            low = bits & ~ones
            if ((bits & ones) >> block) ^ low == full & ~ones:
                parity.append(name)
                bits = low | (low << block)
        return tuple(parity), TruthTable(self.names, bits)

    # -- probability ------------------------------------------------------------

    def probability(self, input_probs: Mapping[str, float] | float = 0.5) -> float:
        """Exact signal probability given independent input probabilities.

        ``input_probs`` maps each variable to P(input = 1); a bare float
        applies the same probability to every input.  Sums the product
        probabilities of all minterms - exact, exponential in n, and fine
        for the cell- and small-circuit-sized tables this library uses.
        """
        if isinstance(input_probs, (int, float)):
            input_probs = {name: float(input_probs) for name in self.names}
        for name in self.names:
            p = input_probs[name]
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability of {name!r} must be in [0,1], got {p}")
        n = len(self.names)
        total = 0.0
        for minterm in self.minterms():
            product = 1.0
            for position, name in enumerate(self.names):
                bit = (minterm >> (n - 1 - position)) & 1
                p = input_probs[name]
                product *= p if bit else (1.0 - p)
            total += product
        return total

    # -- rendering --------------------------------------------------------------

    def rows(self) -> Iterator[Tuple[Dict[str, int], int]]:
        """Yield ``(assignment, value)`` for every row in paper order."""
        for minterm, assignment in enumerate(all_assignments(self.names)):
            yield assignment, (self.bits >> minterm) & 1

    def format_table(self) -> str:
        """Plain-text function table like the one printed for Fig. 1."""
        header = " ".join(self.names) + " | f"
        lines = [header, "-" * len(header)]
        for assignment, value in self.rows():
            row = " ".join(str(assignment[name]) for name in self.names)
            lines.append(f"{row} | {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TruthTable(names={self.names!r}, bits={self.bits:#x})"


def tables_on_common_names(
    tables: Iterable[TruthTable],
) -> List[TruthTable]:
    """Re-tabulate a collection of tables over the union of their variables."""
    tables = list(tables)
    names = sorted(set().union(*(set(t.names) for t in tables)) or set())
    return [t.expand(tuple(names)) for t in tables]
