"""Exact signal probability of Boolean expressions, as compiled programs.

PROTEST's first job (Section 5) is "estimating signal probabilities":
given independent per-input probabilities P(input = 1), compute
P(f = 1).  For cell-sized expressions this module computes the *exact*
value; circuit-level estimation (topological propagation, Monte Carlo,
exact-by-truth-table) lives in :mod:`repro.protest.signalprob`.

The algorithm is Shannon expansion on shared variables with a
read-once shortcut: when the operands of an AND/OR have
pairwise-disjoint support the probability factorises (inputs are
independent), which keeps the common series/parallel cell expressions
linear-time.  Variables whose probability is exactly 0.0 or 1.0 carry
no correlation and are never expanded on.

Which operations that walk performs depends only on the expression and
on *which* inputs are pinned at exactly 0.0 or 1.0 - never on the other
probability values.  :func:`probability_program` therefore runs the
walk once, symbolically, and emits a straight-line Python function
(``compile()``, like the gate lambdas of
:mod:`repro.simulate.compiled`) that performs the walk's float
operations in the walk's order.  Programs live in one process-wide
memo (:func:`cell_program`, the policy of the faulty pin functions of
:mod:`repro.simulate.compiled`) keyed by content - a cell's function
plus its role, never an object's identity - and the pinned 0/1
pattern: a program is compiled once per process, equal netlists parsed
twice share every program, and each gate or fault costs a dict lookup
and one straight-line call.

Results are bit-identical to the walk because the generator

* folds only literal-with-literal operations (pins and constants), and
  folds them with the same float operation the walk performs;
* drops only the exact identity ``1.0 * x``;
* emits the walk's sub-results once and reuses them exactly where the
  walk's memo would;
* keeps AND/OR's ``== 0.0`` early exits only where they are decided by
  literals.  A product of non-negative finite probabilities that is
  already 0.0 stays 0.0 (up to the sign of zero, which the final
  ``min``/``max`` clamp erases), so running the remaining factors
  cannot change the value - which is why probabilities are validated
  to lie in [0, 1] before any program runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping, Tuple

from .expr import And, Const, Expr, Not, Or, Var

Program = Callable[[Mapping[str, float]], float]


def _as_prob_map(expr: Expr, probs: Mapping[str, float] | float) -> Dict[str, float]:
    if isinstance(probs, (int, float)):
        probs = dict.fromkeys(expr.variables(), probs)
    result = {}
    for name in sorted(expr.variables()):
        try:
            p = float(probs[name])
        except KeyError:
            raise KeyError(f"no probability given for input {name!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {name!r} must lie in [0,1], got {p}")
        result[name] = p
    return result


def _pinned_inputs(probs: Mapping[str, float]) -> Tuple[Tuple[str, float], ...]:
    """The ``(name, 0.0|1.0)`` pairs of ``probs`` pinned at exactly 0 or 1.

    Validates every value like :func:`signal_probability` does; the
    result is the pin half of a program key.
    """
    pins = []
    for name, p in probs.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {name!r} must lie in [0,1], got {p}")
        if p == 0.0 or p == 1.0:
            pins.append((name, 0.0 if p == 0.0 else 1.0))
    return tuple(pins)


def _most_shared_variable(expr: Expr, env: Mapping[str, float | None]) -> str | None:
    """The unpinned variable appearing in the most operand supports.

    Variables pinned to 0/1 by an enclosing Shannon expansion (or by
    the caller) carry no correlation and are skipped.
    """
    if not isinstance(expr, (And, Or)):
        return None
    counts: Dict[str, int] = {}
    for operand in expr.children():
        for name in operand.variables():
            if env[name] in (0.0, 1.0):
                continue
            counts[name] = counts.get(name, 0) + 1
    shared = {name: count for name, count in counts.items() if count > 1}
    if not shared:
        return None
    return max(sorted(shared), key=lambda name: shared[name])


def _src(value: float | str) -> str:
    """Source of a walk value: a folded literal or a local name."""
    return repr(value) if isinstance(value, float) else value


def probability_program(expr: Expr, pinned: Mapping[str, float]) -> Program:
    """Compile the exact-probability walk of ``expr`` into one function.

    ``pinned`` maps the variables fixed at exactly 0.0 or 1.0 to that
    value (names outside ``expr`` are ignored).  The returned
    ``program(probs)`` reads every other variable of ``expr`` from
    ``probs`` and returns P(expr = 1); it does not validate.

    >>> from repro.logic.parser import parse_expression
    >>> program = probability_program(parse_expression("a*b + a*c"), {})
    >>> program({"a": 0.5, "b": 0.5, "c": 0.5})
    0.375
    >>> probability_program(parse_expression("a*b"), {"a": 0.0})({"b": 0.3})
    0.0
    """
    names = sorted(expr.variables())
    env: Dict[str, float | None] = {name: None for name in names}
    for name in names:
        if name in pinned:
            if pinned[name] not in (0.0, 1.0):
                raise ValueError(f"pinned {name!r} must be 0.0 or 1.0, got {pinned[name]}")
            env[name] = float(pinned[name])
    local = {name: f"v{index}" for index, name in enumerate(names)}
    lines: List[str] = [
        f"    {local[name]} = probs[{name!r}]" for name in names if env[name] is None
    ]
    memo: Dict[tuple, float | str] = {}

    def emit(source: str) -> str:
        temp = f"t{len(lines)}"
        lines.append(f"    {temp} = {source}")
        return temp

    def times(left: float | str, right: float | str) -> float | str:
        if isinstance(left, float) and isinstance(right, float):
            return left * right
        if left == 1.0:
            return right
        if right == 1.0:
            return left
        return emit(f"{_src(left)} * {_src(right)}")

    def minus(value: float | str) -> float | str:
        return 1.0 - value if isinstance(value, float) else emit(f"1.0 - {value}")

    def walk(node: Expr, env: Dict[str, float | None]) -> float | str:
        if isinstance(node, Const):
            return float(node.value)
        if isinstance(node, Var):
            pin = env[node.name]
            return local[node.name] if pin is None else pin
        key = (id(node), tuple(sorted((n, env[n]) for n in node.variables())))
        if key in memo:
            return memo[key]
        if isinstance(node, Not):
            result = minus(walk(node.operand, env))
        else:
            shared = _most_shared_variable(node, env)
            if shared is not None:
                # Shannon expansion on the reconvergent variable.
                low = walk(node, {**env, shared: 0.0})
                high = walk(node, {**env, shared: 1.0})
                p = local[shared]
                result = emit(f"(1.0 - {p}) * {_src(low)} + {p} * {_src(high)}")
            elif isinstance(node, And):
                result = 1.0
                for operand in node.operands:
                    result = times(result, walk(operand, env))
                    # Only a literal 0.0 ends the product here; a computed
                    # one runs on and stays 0.0 (module docstring).
                    if result == 0.0:
                        break
            elif isinstance(node, Or):
                # P(or) = 1 - prod(1 - P(operand)) for independent operands.
                complement = 1.0
                for operand in node.operands:
                    complement = times(complement, minus(walk(operand, env)))
                    if complement == 0.0:
                        break
                result = minus(complement)
            else:  # pragma: no cover - exhaustiveness guard
                raise TypeError(f"unknown expression node {node!r}")
        memo[key] = result
        return result

    value = walk(expr, env)
    if isinstance(value, float):
        lines.append(f"    return {min(1.0, max(0.0, value))!r}")
    else:
        lines.append(f"    return min(1.0, max(0.0, {value}))")
    namespace: Dict[str, Program] = {}
    source = "def program(probs):\n" + "\n".join(lines) + "\n"
    exec(compile(source, "<probability-program>", "exec"), namespace)
    return namespace["program"]


_PROGRAMS: Dict[tuple, Program] = {}
"""Every program of the process, by (content key, pinned pattern)."""


def cell_program(
    key: Hashable, expr_of: Callable[[], Expr], pinned: Tuple[Tuple[str, float], ...]
) -> Program:
    """The program of ``expr_of()`` for the pinned pattern ``pinned``
    (:func:`_pinned_inputs`), compiled once per process: ``key`` must
    determine the expression by content, never by object identity."""
    program = _PROGRAMS.get((key, pinned))
    if program is None:
        program = _PROGRAMS[(key, pinned)] = probability_program(expr_of(), dict(pinned))
    return program


def signal_probability(expr: Expr, probs: Mapping[str, float] | float = 0.5) -> float:
    """Exact P(expr = 1) under independent input probabilities.

    >>> from repro.logic.parser import parse_expression
    >>> signal_probability(parse_expression("a*b"), 0.5)
    0.25
    >>> signal_probability(parse_expression("a + !a"), 0.3)
    1.0
    """
    prob_map = _as_prob_map(expr, probs)
    return probability_program(expr, dict(_pinned_inputs(prob_map)))(prob_map)


def detection_probability(
    good: Expr, faulty: Expr, probs: Mapping[str, float] | float = 0.5
) -> float:
    """P(random pattern distinguishes ``good`` from ``faulty``).

    This is the *fault detection probability* of a cell-local fault with
    perfect observability: the probability that the two functions differ
    under a random input drawn from the given distribution.  Computed
    exactly as P(good XOR faulty).
    """
    difference = good ^ faulty
    merged: Mapping[str, float] | float
    if isinstance(probs, (int, float)):
        merged = probs
    else:
        merged = {name: probs.get(name, 0.5) for name in difference.variables()} or {}
        if not difference.variables():
            merged = 0.5
    return signal_probability(difference, merged)
