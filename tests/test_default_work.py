"""The windows every run streams by default.

Fault simulation carries no tuning knobs: every engine streams
:data:`~repro.simulate.sharded.DEFAULT_WINDOW` patterns per window.
The window never moves a result bit, so the differential harness
cannot see a change to it.  This file can: it pins the window a
default run hands each engine's fault pass at three pattern counts, so
a moved window - or an engine that streams its own - fails here.
"""

import dataclasses

import pytest

from repro.circuits.generators import and_cone
from repro.simulate import PatternSet, available_engines, fault_simulate, get_engine
from repro.simulate.faultsim import engine_window

#: Pattern counts pinned: 4 Ki, 1 Mi and 8 Mi.
COUNTS = [4096, 1 << 20, 8 << 20]

#: Patterns per window at each of :data:`COUNTS`, on every engine.
WINDOWS = [4096, 1 << 18, 1 << 18]


def spied(engine, widths):
    """``engine`` with a fault pass that notes each window's width."""
    base = get_engine(engine)

    def fault_pass(network, faults, store):
        passes = base.fault_pass(network, faults, store)

        def spy(chunk, active):
            widths.append(chunk.count)
            return passes(chunk, active)

        return spy

    return dataclasses.replace(base, fault_pass=fault_pass)


@pytest.mark.parametrize("engine", available_engines())
def test_engine_windows_pinned(engine):
    assert [engine_window(count) for count in COUNTS] == WINDOWS
    network = and_cone(2)
    faults = network.enumerate_faults()
    for count, window in zip(COUNTS, WINDOWS):
        patterns = PatternSet.random(network.inputs, count, seed=count)
        widths = []
        fault_simulate(network, patterns, faults, engine=spied(engine, widths))
        assert widths == [window] * (count // window), (count, widths[:3])
