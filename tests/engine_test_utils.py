"""Shared helpers for the engine test files.

The equivalence harness, worker-pool, vector and estimator-invariant test
files import these instead of each keeping a copy (a plain module, not
``conftest.py``: the bare ``conftest`` import would collide with
``benchmarks/conftest.py`` when pytest collects both trees).
"""

from functools import lru_cache, partial


def all_faults(network):
    """The full fault universe - cell classes and net stuck-ats."""
    return network.enumerate_faults(include_cell_classes=True, include_stuck_at=True)


def results_identical(a, b):
    """Assert two FaultSimResults are bit-identical on every field."""
    assert a.detected == b.detected
    assert a.detection_counts == b.detection_counts
    assert a.undetected == b.undetected
    assert a.pattern_count == b.pattern_count


class SessionOracle:
    """The streaming sessions an oracle run predicts, at ``confidence``.

    Built from the interpreted full run's first-detection indices alone -
    never through the retiring driver.  ``rows`` holds ``(boundary,
    covered, Wilson lower bound)`` at every session window boundary: the
    multiples of ``faultsim.FIRST_DETECTION_CHUNK`` (read when the
    oracle is built) below the pattern count, then the count itself.
    """

    def __init__(self, network, patterns, faults, confidence):
        from bisect import bisect_left

        from repro.protest.testlength import coverage_lower_bound
        from repro.simulate import faultsim

        full = faultsim.fault_simulate(
            network, patterns, faults, engine="interpreted"
        )
        firsts = sorted(full.detected.values())
        self.confidence, self.total = confidence, full.fault_count
        self.bound = partial(
            coverage_lower_bound, total=self.total, confidence=confidence
        )
        grid, count = faultsim.FIRST_DETECTION_CHUNK, patterns.count
        self.rows = []
        for boundary in range(grid, count + grid, grid):
            boundary = min(boundary, count)
            covered = bisect_left(firsts, boundary)
            self.rows.append((boundary, covered, self.bound(covered)))

    def mid_budget_targets(self):
        """Targets that stop a session before its last boundary: the
        distinct nonzero bounds reached at the earlier boundaries."""
        return sorted({bound for _, _, bound in self.rows[:-1] if bound > 0})

    def check(self, session):
        """Assert ``session`` is the predicted one: every fault first
        detected before a boundary is committed there, the curve is
        sampled there, and the session ends at the first boundary where
        the bound reaches the target or no fault is left (budget end
        otherwise)."""
        assert session.confidence == self.confidence
        target, total = session.target_coverage, self.total
        consumed = covered = 0
        bound = self.bound(0)
        curve = []
        if bound < target:
            for consumed, covered, bound in self.rows:
                curve.append((consumed, covered / total))
                if bound >= target or covered == total:
                    break
        if not curve:
            curve.append((0, 1.0 if total == 0 else 0.0))
        assert session.pattern_count == consumed
        assert session.detected_weight == covered
        assert session.total_weight == total
        assert session.lower_bound == bound
        assert session.satisfied == (bound >= target)
        assert session.curve == curve


#: A .bench netlist covering every supported gate type (including the
#: bipolar XOR mapping and a 3-input XOR); parsed fresh per
#: differential_circuits() call so the parser output rides the whole
#: engine x jobs x collapse sweep with no special-casing.
BENCH_ZOO = """\
# bench_zoo - every .bench gate type once
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
OUTPUT(w)
d = AND(a, b)
e = OR(b, c)
f = NAND(a, c)
g = NOR(d, e)
h = XOR(f, g)
i = NOT(h)
z = BUFF(i)
w = XOR(a, b, c)
"""


LFSR_SESSION_WINDOWS = 4
"""Budget of :func:`lfsr_session_case` sessions, in session windows."""


@lru_cache(maxsize=None)
def lfsr_session_case(full_universe=True):
    """``(network, budget, faults, target)`` of a confidence-0.95 LFSR
    session (seed 5) that stops mid-budget.

    A 40-gate random DAG whose detections under the LFSR still rise in
    the third of the budget's four ``FIRST_DETECTION_CHUNK`` windows;
    ``target`` is the Wilson bound its covered weight reaches there
    (:class:`SessionOracle`), so a session meets it and stops after three
    windows.  ``full_universe`` picks every cell class and stuck-at, else
    the default enumeration.
    """
    from repro.circuits.generators import large_random_network
    from repro.simulate import LfsrSource
    from repro.simulate.faultsim import FIRST_DETECTION_CHUNK

    network = large_random_network(n_gates=40, n_inputs=16, seed=3)
    budget = LFSR_SESSION_WINDOWS * FIRST_DETECTION_CHUNK
    faults = all_faults(network) if full_universe else network.enumerate_faults()
    patterns = LfsrSource(network.inputs, budget, seed=5).materialise()
    _, _, target = SessionOracle(network, patterns, faults, 0.95).rows[2]
    return network, budget, tuple(faults), target


def differential_circuits():
    """The canonical circuit zoo of the differential harness: the fixed
    generators, random networks of every technology, and a parsed
    ``.bench`` netlist.  Returned fresh per call so test files can't
    mutate shared networks."""
    from repro.circuits.generators import (
        and_cone,
        c17,
        domino_carry_chain,
        dual_rail_parity_tree,
        random_network,
    )
    from repro.netlist import parse_bench

    return [
        and_cone(5),
        domino_carry_chain(4),
        dual_rail_parity_tree(4),
        c17(),
        random_network(n_inputs=6, n_gates=14, seed=11),
        random_network(n_inputs=5, n_gates=10, technology="dynamic-nMOS", seed=23),
        random_network(n_inputs=5, n_gates=10, technology="static-CMOS", seed=37),
        random_network(n_inputs=5, n_gates=9, technology="nMOS", seed=41),
        parse_bench(BENCH_ZOO, name="bench_zoo"),
    ]


def bench_text(n_gates, n_inputs=64, locality=64, seed=1986):
    """``.bench`` text of a random two-input AND/OR DAG with
    the ``large_random_network`` wiring shape (one input from a trailing
    window, one from anywhere).  As in ISCAS85, every gate output no
    gate reads is a primary output."""
    import random

    rng = random.Random(seed)
    kinds = ("AND", "OR")
    nets = [f"x{k}" for k in range(n_inputs)]
    read = set()
    body = []
    for g in range(n_gates):
        a = nets[rng.randrange(max(0, len(nets) - locality), len(nets))]
        b = nets[rng.randrange(len(nets))]
        body.append(f"n{g} = {rng.choice(kinds)}({a}, {b})")
        read.update((a, b))
        nets.append(f"n{g}")
    lines = [f"INPUT(x{k})" for k in range(n_inputs)]
    lines += [f"OUTPUT(n{g})" for g in range(n_gates) if f"n{g}" not in read]
    return "\n".join(lines + body) + "\n"
