"""A benchmark-owned yardstick for host interference.

The benchmark shares a 2-CPU host whose speed for this kind of work
changes by up to 2x from one second to the next (other tenants' cache
and memory traffic): the same call can take 1.4 s or 2.5 s a few seconds
apart, and a whole run can fall in a slow spell.  The yardstick measures
that speed *while* a segment runs.  An interval timer interrupts the
segment every ``INTERVAL_S`` and times one pass of work with the
program's own shape - bit-parallel evaluation of the run's ``.bench``
netlist over ``WIDTH``-bit Python integers - written here and not in the
program, so no change to the program moves it.  The interrupts' own
time is taken out of the segment's wall time.

A segment is reported as its wall seconds and as scaled seconds: the
wall seconds on a host where one pass takes ``NOMINAL_PASS_S``, using
the mean pass time over the segment.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time

WIDTH = 1024
INTERVAL_S = 0.05
NOMINAL_PASS_S = 0.0007


class Yardstick:
    def __init__(self, text: str, seed: int):
        rng = random.Random(seed)
        self.inputs = {}
        self.gates = []
        for line in text.splitlines():
            if line.startswith("INPUT("):
                self.inputs[line[6:-1]] = rng.getrandbits(WIDTH)
            elif " = " in line:
                out, call = line.split(" = ")
                kind, args = call[:-1].split("(")
                a, b = args.split(", ")
                self.gates.append((out, kind, a, b))

    def one_pass(self) -> float:
        """Seconds one evaluation of the netlist takes right now."""
        mask = (1 << WIDTH) - 1
        begin = time.perf_counter()
        values = dict(self.inputs)
        for out, kind, a, b in self.gates:
            x, y = values[a], values[b]
            if kind == "AND":
                values[out] = x & y
            elif kind == "OR":
                values[out] = x | y
            elif kind == "NAND":
                values[out] = mask ^ (x & y)
            elif kind == "NOR":
                values[out] = mask ^ (x | y)
            else:
                values[out] = x ^ y
        return time.perf_counter() - begin

    @contextlib.contextmanager
    def segment(self):
        """Time the body; afterwards the yielded dict holds ``wall`` and
        ``scaled`` seconds and the pass times sampled during the body."""
        reading = {"passes": [], "probing": 0.0}

        def probe(_signum=None, _frame=None):
            begin = time.perf_counter()
            reading["passes"].append(self.one_pass())
            reading["probing"] += time.perf_counter() - begin

        previous = signal.signal(signal.SIGALRM, probe)
        probe()
        reading["probing"] = 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield reading
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start - reading["probing"]
            signal.signal(signal.SIGALRM, previous)
            probe()
            reading["wall"] = wall
            reading["scaled"] = wall * NOMINAL_PASS_S / statistics.fmean(reading["passes"])
