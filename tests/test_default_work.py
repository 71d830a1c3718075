"""The work every run does by default, pinned on a 2k-gate netlist.

Fault simulation carries no tuning knobs: the vector engine's batch
plans are priced with :data:`~repro.simulate.vector.COALESCE_OVERHEAD_WORDS`
and :data:`~repro.simulate.vector.VECTOR_CHUNK`, and every engine
streams :data:`~repro.simulate.vector.VECTOR_WINDOW` or
:data:`~repro.simulate.sharded.DEFAULT_WINDOW` patterns per window.
None of them moves a result bit, so the differential harness cannot
see a change to them.  This file can: it pins the coalescer's decisions
on a seeded ISCAS-scale netlist and the windows each engine streams, so
a moved pricing constant or window fails here.
"""

import hashlib
import json

import pytest

from engine_test_utils import all_faults, bench_text

from repro.faults.structural import collapse_network_faults
from repro.netlist import parse_bench
from repro.simulate import available_engines, get_engine, vector
from repro.simulate.faultsim import engine_window

#: Coalesced batch plans of the collapsed 2k-gate netlist: how many, and
#: a digest of which site groups and fault positions each one holds.
PLAN_COUNT = 1635
PLAN_DIGEST = "6eb0010419905eb3"

#: Patterns per window at 4 Ki, 1 Mi and 8 Mi patterns, by engine.
WINDOWS = {
    "compiled": [4096, 1 << 18, 1 << 18],
    "interpreted": [4096, 1 << 18, 1 << 18],
    "vector": [4096, 1 << 20, 1 << 20],
}


@pytest.fixture(scope="module")
def network():
    network = parse_bench(bench_text(2000), name="default_work")
    assert len(network.gates) == 2000
    return network


def test_batch_plans_pinned(network):
    faults = collapse_network_faults(
        network, all_faults(network), cache="off"
    ).representative_faults()
    lanes = vector.vector_compile(network, cache="off")
    groups = lanes.group_faults(list(enumerate(faults)))
    plans = lanes.plan_batches(groups, cache="off")
    payload = [
        [[site, stuck, [index for index, _fault in members]]
         for site, stuck, members in plan]
        for plan in plans
    ]
    digest = hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    assert len(plans) == PLAN_COUNT
    assert any(len(plan) > 1 for plan in plans)  # cross-site merges happen
    assert digest == PLAN_DIGEST


@pytest.mark.parametrize("engine", available_engines())
def test_engine_windows_pinned(engine):
    assert sorted(WINDOWS) == list(available_engines())
    assert [
        engine_window(get_engine(engine), count)
        for count in (4096, 1 << 20, 8 << 20)
    ] == WINDOWS[engine]


def test_chunk_width_pinned():
    assert vector.VECTOR_CHUNK == 1536
    assert vector.COALESCE_OVERHEAD_WORDS == 2048
