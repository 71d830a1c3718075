"""Boolean expression AST used throughout the reproduction.

The paper describes switching networks with a tiny algebra: ``*`` for
series connection (AND), ``+`` for parallel connection (OR), and
negation for the output inverter of a gate.  This module provides an
immutable expression tree with exactly those operators plus constants,
together with the evaluation modes the rest of the library needs:

* scalar evaluation over ``{0, 1}`` assignments,
* bit-parallel evaluation over Python big-ints (bit *k* of every value
  is pattern *k*; a single pass evaluates arbitrarily many patterns),
* structural queries (support, substitution, cofactors).

Expressions are deliberately plain and explicit - no hash-consing, no
hidden canonicalisation beyond cheap local simplifications in the
constructor helpers.  Canonical forms live in
:mod:`repro.logic.truthtable` and :mod:`repro.logic.minimize`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Mapping, Sequence, Tuple


class Expr:
    """Base class of all Boolean expression nodes.

    Instances are immutable value objects.  Subclasses implement
    :meth:`evaluate`, :meth:`evaluate_bits`, :meth:`variables` and
    :meth:`substitute`.
    """

    __slots__ = ()

    # -- construction helpers (operator overloading) -------------------

    def __and__(self, other: "Expr") -> "Expr":
        return And(self, _coerce(other))

    def __rand__(self, other: "Expr") -> "Expr":
        return And(_coerce(other), self)

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, _coerce(other))

    def __ror__(self, other: "Expr") -> "Expr":
        return Or(_coerce(other), self)

    def __invert__(self) -> "Expr":
        return Not(self)

    def __xor__(self, other: "Expr") -> "Expr":
        other = _coerce(other)
        return Or(And(self, Not(other)), And(Not(self), other))

    # -- core protocol --------------------------------------------------

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate under a ``{name: 0/1}`` assignment, returning 0 or 1."""
        raise NotImplementedError

    def evaluate_bits(self, env: Mapping[str, int], mask: int) -> int:
        """Evaluate bit-parallel.

        ``env`` maps each variable to an integer whose bit *k* is the
        variable's value under pattern *k*; ``mask`` has one bit set per
        valid pattern (it implements bitwise NOT on a finite width).
        """
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        """The support of the expression (set of variable names)."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace variables by sub-expressions, returning a new tree."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions (empty for leaves)."""
        return ()

    # -- derived operations ---------------------------------------------

    def cofactor(self, name: str, value: int) -> "Expr":
        """Shannon cofactor: the expression with ``name`` fixed to ``value``."""
        return self.substitute({name: Const(value)})

    def iter_nodes(self) -> Iterator["Expr"]:
        """Depth-first iteration over every node in the tree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())

    def size(self) -> int:
        """Number of nodes in the tree (a crude complexity measure)."""
        return sum(1 for _ in self.iter_nodes())

    def to_paper_syntax(self) -> str:
        """Render using the paper's cell-language syntax (``*``, ``+``, ``!``)."""
        return _render(self, _PREC_OR)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_paper_syntax()!r})"


def _coerce(value) -> Expr:
    """Allow 0/1/bool literals in operator expressions."""
    if isinstance(value, Expr):
        return value
    if value in (0, 1, False, True):
        return Const(int(value))
    raise TypeError(f"cannot use {value!r} as a Boolean expression")


class Const(Expr):
    """A Boolean constant, 0 or 1."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if value not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {value!r}")
        object.__setattr__(self, "value", int(value))

    def __setattr__(self, *args):  # immutability guard
        raise AttributeError("Const is immutable")

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return self.value

    def evaluate_bits(self, env: Mapping[str, int], mask: int) -> int:
        return mask if self.value else 0

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


TRUE = Const(1)
FALSE = Const(0)


class Var(Expr):
    """A named input variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError(f"variable name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *args):
        raise AttributeError("Var is immutable")

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        try:
            value = assignment[self.name]
        except KeyError:
            raise KeyError(f"no value for variable {self.name!r}") from None
        if value not in (0, 1):
            raise ValueError(f"value of {self.name!r} must be 0/1, got {value!r}")
        return int(value)

    def evaluate_bits(self, env: Mapping[str, int], mask: int) -> int:
        try:
            return env[self.name] & mask
        except KeyError:
            raise KeyError(f"no bit-vector for variable {self.name!r}") from None

    def variables(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


class Not(Expr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", _coerce(operand))

    def __setattr__(self, *args):
        raise AttributeError("Not is immutable")

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        return 1 - self.operand.evaluate(assignment)

    def evaluate_bits(self, env: Mapping[str, int], mask: int) -> int:
        return mask & ~self.operand.evaluate_bits(env, mask)

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Not(self.operand.substitute(mapping))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("Not", self.operand))


class _NaryOp(Expr):
    """Shared implementation of the n-ary AND/OR nodes."""

    __slots__ = ("operands",)
    _identity: int = 0  # value that leaves the operation unchanged

    def __init__(self, *operands):
        if len(operands) < 1:
            raise ValueError(f"{type(self).__name__} needs at least one operand")
        flattened = []
        for op in operands:
            op = _coerce(op)
            # Flatten nested nodes of the same type: And(And(a,b),c) -> And(a,b,c)
            if type(op) is type(self):
                flattened.extend(op.operands)
            else:
                flattened.append(op)
        object.__setattr__(self, "operands", tuple(flattened))

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for op in self.operands:
            result |= op.variables()
        return result

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.operands))


class And(_NaryOp):
    """n-ary conjunction - series connection in a switching network."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        for op in self.operands:
            if not op.evaluate(assignment):
                return 0
        return 1

    def evaluate_bits(self, env: Mapping[str, int], mask: int) -> int:
        result = mask
        for op in self.operands:
            result &= op.evaluate_bits(env, mask)
            if not result:
                break
        return result

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return And(*(op.substitute(mapping) for op in self.operands))


class Or(_NaryOp):
    """n-ary disjunction - parallel connection in a switching network."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        for op in self.operands:
            if op.evaluate(assignment):
                return 1
        return 0

    def evaluate_bits(self, env: Mapping[str, int], mask: int) -> int:
        result = 0
        for op in self.operands:
            result |= op.evaluate_bits(env, mask)
            if result == mask:
                break
        return result

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Or(*(op.substitute(mapping) for op in self.operands))


# -- simplification ------------------------------------------------------

def simplify(expr: Expr) -> Expr:
    """Cheap constant-folding and local identities.

    This is *not* minimisation (see :mod:`repro.logic.minimize`); it only
    removes constants introduced by fault injection, e.g. replacing an
    input with 0/1 when a transistor is stuck open/closed:

    * ``a * 0 -> 0``, ``a * 1 -> a``, ``a + 1 -> 1``, ``a + 0 -> a``
    * ``!!a -> a``, ``!0 -> 1``, ``!1 -> 0``
    * duplicate operands of AND/OR are merged.
    """
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        inner = simplify(expr.operand)
        if isinstance(inner, Const):
            return Const(1 - inner.value)
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)
    if isinstance(expr, And):
        kept = []
        seen = set()
        for op in expr.operands:
            op = simplify(op)
            if isinstance(op, Const):
                if op.value == 0:
                    return FALSE
                continue  # drop the identity 1
            ops = op.operands if isinstance(op, And) else (op,)
            for sub in ops:
                if sub not in seen:
                    seen.add(sub)
                    kept.append(sub)
        if not kept:
            return TRUE
        if len(kept) == 1:
            return kept[0]
        return And(*kept)
    if isinstance(expr, Or):
        kept = []
        seen = set()
        for op in expr.operands:
            op = simplify(op)
            if isinstance(op, Const):
                if op.value == 1:
                    return TRUE
                continue
            ops = op.operands if isinstance(op, Or) else (op,)
            for sub in ops:
                if sub not in seen:
                    seen.add(sub)
                    kept.append(sub)
        if not kept:
            return FALSE
        if len(kept) == 1:
            return kept[0]
        return Or(*kept)
    raise TypeError(f"unknown expression node {expr!r}")


# -- rendering -------------------------------------------------------------

_PREC_OR = 0
_PREC_AND = 1
_PREC_NOT = 2


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Not):
        return "!" + _render(expr.operand, _PREC_NOT)
    if isinstance(expr, And):
        body = "*".join(_render(op, _PREC_AND) for op in expr.operands)
        return f"({body})" if parent_prec > _PREC_AND else body
    if isinstance(expr, Or):
        body = "+".join(_render(op, _PREC_OR) for op in expr.operands)
        return f"({body})" if parent_prec > _PREC_OR else body
    raise TypeError(f"unknown expression node {expr!r}")


def all_assignments(names: Sequence[str]) -> Iterator[Dict[str, int]]:
    """Yield every 0/1 assignment over ``names`` in binary counting order.

    The first name is the most significant bit, matching the row order of
    function tables in the paper (e.g. the Fig. 1 table counts A B as
    00, 01, 10, 11).
    """
    names = list(names)
    for index in range(1 << len(names)):
        yield {
            name: (index >> (len(names) - 1 - position)) & 1
            for position, name in enumerate(names)
        }


def vars_(*names: str) -> Tuple[Var, ...]:
    """Convenience constructor: ``a, b = vars_('a', 'b')``."""
    return tuple(Var(name) for name in names)


def literal_occurrences(expr: Expr) -> Tuple[str, ...]:
    """Variable names of every ``Var`` leaf, left to right.

    In a switching-network expression each leaf corresponds to one
    transistor, so the k-th occurrence *is* transistor ``T(k+1)`` in the
    paper's numbering.  A variable gating several transistors appears
    several times.
    """
    if isinstance(expr, Var):
        return (expr.name,)
    if isinstance(expr, Const):
        return ()
    result: list = []
    for child in expr.children():
        result.extend(literal_occurrences(child))
    return tuple(result)


def substitute_occurrence(expr: Expr, index: int, replacement: Expr) -> Expr:
    """Replace the ``index``-th ``Var`` leaf (left-to-right) by ``replacement``.

    This is *occurrence-level* substitution: it models a fault of one
    transistor, not of the whole input line.  For an input gating a
    single transistor the two coincide - the situation of every gate in
    the paper - but a fanout inside the switching network makes them
    differ, and the faulty function is then still computed correctly.
    """
    counter = [0]

    def walk(node: Expr) -> Expr:
        if isinstance(node, Var):
            current = counter[0]
            counter[0] += 1
            return replacement if current == index else node
        if isinstance(node, Const):
            return node
        if isinstance(node, Not):
            return Not(walk(node.operand))
        if isinstance(node, And):
            return And(*(walk(op) for op in node.operands))
        if isinstance(node, Or):
            return Or(*(walk(op) for op in node.operands))
        raise TypeError(f"unknown expression node {node!r}")

    result = walk(expr)
    if index < 0 or index >= counter[0]:
        raise IndexError(f"occurrence index {index} out of range (0..{counter[0] - 1})")
    return result
