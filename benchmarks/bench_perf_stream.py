"""Streaming-source benchmark: streamed LFSR sessions vs serial.

Extends ``BENCH_engine.json`` (the perf trajectory - existing workload
records are preserved, never replaced) with an ``e10_stream`` entry:
``fault_simulate`` fed directly by a :class:`repro.simulate.LfsrSource`
(big-int window rows cut from one doubled serial stream per register,
see ``Lfsr.rows``) against the historical flow - stepping an
:class:`repro.selftest.LfsrBank` serially, one pattern per clock, and
materialising a :class:`PatternSet` before simulating.  Both sides run
the identical bit sequence, so the pair is bit-identity-checked before
any speedup is recorded.

A second measurement rides on the same workload: the
confidence-bounded session (:func:`repro.simulate.streaming_coverage`,
which stops at the first window boundary where the Wilson lower bound
on coverage clears the target) against the fixed-length sweep over the
whole pattern budget.  The session's detected weight is checked
against a fault simulation of exactly the prefix it consumed, then the
ratio of sweep time to session time is recorded as
``confidence_stop_speedup`` (not the headline - it depends on how
early the bound clears).

A second entry, ``e10_stream_fused``, gates the *per-pattern* cost of
the confidence-stopped session now that it runs inside the batched
vector window core (speculative doubling blocks replayed against the
pinned 256-pattern stopping grid): the session must cost at most 2x
the whole-set vector pass per pattern, and its stopping point must be
identical on every session-capable engine.

A third entry, ``e_lfsr_lanes`` (named for the lane-word generator it
first raced), races the register generator alone: one 64-input bank
clocked through a session's speculative blocks (2 Ki to 32 Ki
patterns), ``LfsrBank.rows`` against a replica of the old generator
(``tests/lfsr_lanes_reference.py``: word-boundary states chained
through the 64-step GF(2) jump matrix, then a 64-step numpy clock loop,
its lane words unpacked into the same big-int rows).  Rows and final
register states are checked identical first; the entry records the
host, its CPU count and the commit.  Run
with::

    PYTHONPATH=src python benchmarks/bench_perf_stream.py [--quick]

``--quick`` runs a seconds-sized smoke workload (CI) and skips the
JSON update.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from _harness import (  # noqa: E402
    BENCH_PATH,
    best_of,
    git_commit,
    results_identical,
    update_record,
)
from bench_perf_engine import library_runtime_network  # noqa: E402
from lfsr_lanes_reference import reference_bank_lane_words  # noqa: E402
from repro.simulate.vector import unpack_words  # noqa: E402
from repro.selftest import BANK_DEGREE, LfsrBank  # noqa: E402
from repro.simulate import (  # noqa: E402
    LfsrSource,
    PatternSet,
    fault_simulate,
    streaming_coverage,
)

WORKLOAD_NAME = "e10_stream"
MIN_REQUIRED_SPEEDUP = 1.5

FUSED_WORKLOAD_NAME = "e10_stream_fused"
FUSED_MIN_REQUIRED_SPEEDUP = 0.5
"""The fused-session gate: ``speedup`` is sweep-per-pattern over
session-per-pattern, so 0.5 means the confidence-stopped session costs
at most 2x the whole-set vector pass per pattern - the stopped path no
longer pays a per-window penalty."""

LANES_WORKLOAD_NAME = "e_lfsr_lanes"
LANES_MIN_REQUIRED_SPEEDUP = 5.0
LANES_BLOCKS = tuple(1 << k for k in range(11, 16))
"""A streaming session's speculative doubling blocks: 2 Ki to 32 Ki
patterns, 63,488 in all."""


def _serial_flow(network, names, count: int, seed: int, faults):
    """The pre-streaming flow: clock the bank once per pattern in pure
    Python, materialise the set, then simulate."""
    bank = LfsrBank(len(names), seed=seed)
    vectors = (
        {name: bits[index] for index, name in enumerate(names)}
        for bits in bank.patterns(count)
    )
    patterns = PatternSet.from_vectors(names, vectors)
    return fault_simulate(network, patterns, faults, engine="compiled")


def run_stream(
    size: int = 10,
    n_gates: int = 48,
    pattern_count: int = 1 << 16,
    repetitions: int = 3,
    target_coverage: float = 0.6,
    confidence: float = 0.95,
) -> Dict:
    network = library_runtime_network(size, n_gates=n_gates)
    names = network.inputs
    faults = network.enumerate_faults()
    seed = 7
    print(
        f"{WORKLOAD_NAME}: {len(faults)} faults x {pattern_count} LFSR "
        f"patterns over {len(names)} inputs"
    )

    serial_result, serial_seconds = best_of(
        lambda: _serial_flow(network, names, pattern_count, seed, faults),
        repetitions,
    )
    stream_result, stream_seconds = best_of(
        lambda: fault_simulate(
            network,
            LfsrSource(names, pattern_count, seed=seed),
            faults,
            engine="compiled",
        ),
        repetitions,
    )
    identical = results_identical(stream_result, serial_result)
    speedup = round(serial_seconds / stream_seconds, 3)
    print(
        f"  generation+simulation: serial {serial_seconds:.2f}s -> "
        f"streamed {stream_seconds:.2f}s = {speedup}x "
        f"(identical={identical})"
    )

    # Confidence-bounded session vs the fixed-length sweep of the whole
    # budget.  The session streams FIRST_DETECTION_CHUNK windows and
    # stops once the Wilson bound clears the target.
    source = LfsrSource(names, pattern_count, seed=seed)
    session, session_seconds = best_of(
        lambda: streaming_coverage(
            network,
            source,
            faults,
            target_coverage=target_coverage,
            confidence=confidence,
        ),
        repetitions,
    )
    sweep_result, sweep_seconds = best_of(
        lambda: fault_simulate(network, source, faults, engine="compiled"),
        repetitions,
    )
    prefix_result = fault_simulate(
        network, source.slice(0, session.pattern_count), faults
    )
    identical = identical and len(prefix_result.detected) == session.detected_weight
    stop_speedup = round(sweep_seconds / session_seconds, 3)
    print(
        f"  confidence stop: satisfied={session.satisfied} after "
        f"{session.pattern_count}/{pattern_count} patterns "
        f"(bound {session.lower_bound:.3f} >= target {target_coverage}); "
        f"sweep {sweep_seconds:.2f}s -> session {session_seconds:.2f}s "
        f"= {stop_speedup}x (identical={identical})"
    )

    return {
        "name": WORKLOAD_NAME,
        "description": (
            "streaming LFSR sessions on the E10 library "
            "workload: fault_simulate fed by LfsrSource (window rows from "
            "one doubled serial stream per register, never materialised) "
            "vs serially clocking "
            "the bank one pattern at a time into a PatternSet; the "
            "confidence-bounded session (streaming_coverage, Wilson "
            "lower bound vs target) against the fixed-length sweep is "
            "recorded alongside, bit-identity checked first"
        ),
        "params": {
            "cell_size": size,
            "gates": n_gates,
            "inputs": len(names),
            "faults": len(faults),
            "patterns": pattern_count,
            "target_coverage": target_coverage,
            "confidence": confidence,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
        "serial_seconds": round(serial_seconds, 4),
        "lane_seconds": round(stream_seconds, 4),
        "sweep_seconds": round(sweep_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "session_patterns": session.pattern_count,
        "session_satisfied": session.satisfied,
        "confidence_stop_speedup": stop_speedup,
        "min_required_speedup": MIN_REQUIRED_SPEEDUP,
        "speedup": speedup,
        "identical_results": identical,
    }


def run_stream_fused(
    size: int = 12,
    n_gates: int = 48,
    pattern_count: int = 1 << 15,
    repetitions: int = 5,
    target_coverage: float = 0.71,
    confidence: float = 0.95,
) -> Dict:
    """The fused confidence-stopped session against the whole-set pass.

    The workload is sized so the session genuinely stops mid-budget on
    the Wilson bound (size-12 cells leave a random-test-resistant tail
    that keeps detections rising deep into the budget), then compares
    *per-pattern* cost: the session runs the same batched vector window
    core as the sweep - speculative doubling blocks replayed against
    the pinned 256-pattern stopping grid - so its per-pattern cost must
    land within 2x of the whole-set pass (``speedup >= 0.5``), where
    the pre-fusion window-at-a-time consumer sat ~25x above it.

    Bit-identity comes first: the session's detected weight must equal
    a fault simulation of exactly the prefix it consumed, and the
    stopping point must be identical on every engine that can serve a
    session (the engine x width x collapse sweep lives in the
    differential harness; this checks the engines at benchmark scale).
    """
    network = library_runtime_network(size, n_gates=n_gates)
    names = network.inputs
    faults = network.enumerate_faults()
    seed = 7
    print(
        f"{FUSED_WORKLOAD_NAME}: {len(faults)} faults x {pattern_count} "
        f"LFSR patterns over {len(names)} inputs"
    )

    def session_on(engine, jobs=1):
        return streaming_coverage(
            network,
            LfsrSource(names, pattern_count, seed=seed),
            faults,
            target_coverage=target_coverage,
            confidence=confidence,
            engine=engine,
            jobs=jobs,
        )

    session, session_seconds = best_of(lambda: session_on("vector"), repetitions)
    source = LfsrSource(names, pattern_count, seed=seed)
    sweep_result, sweep_seconds = best_of(
        lambda: fault_simulate(network, source.materialise(), faults, engine="vector"),
        repetitions,
    )

    # Bit-identity before any ratio: the consumed prefix re-simulated
    # without stopping must detect exactly the session's weight, and
    # every session-capable engine must stop at the same boundary.
    prefix_result = fault_simulate(
        network, source.slice(0, session.pattern_count), faults
    )
    identical = len(prefix_result.detected) == session.detected_weight
    for engine, jobs in (("compiled", 1), ("compiled", 2), ("vector", 2)):
        other = session_on(engine, jobs)
        identical = identical and (
            other.pattern_count == session.pattern_count
            and other.detected_weight == session.detected_weight
            and other.satisfied == session.satisfied
            and other.curve == session.curve
        )

    session_us = session_seconds / max(1, session.pattern_count) * 1e6
    sweep_us = sweep_seconds / pattern_count * 1e6
    speedup = round(sweep_us / session_us, 3)
    print(
        f"  fused session: satisfied={session.satisfied} after "
        f"{session.pattern_count}/{pattern_count} patterns; "
        f"session {session_us:.2f} us/pattern vs sweep {sweep_us:.2f} "
        f"us/pattern = {speedup}x per-pattern "
        f"(gate >= {FUSED_MIN_REQUIRED_SPEEDUP}, identical={identical})"
    )

    return {
        "name": FUSED_WORKLOAD_NAME,
        "description": (
            "confidence-stopped streaming session fused into the batched "
            "vector window core: speculative doubling blocks replayed "
            "against the pinned 256-pattern stopping grid, plans re-priced "
            "unkeyed over the shrinking live set; speedup is whole-set "
            "sweep us/pattern over session us/pattern (>= 0.5 means the "
            "stopped path costs at most 2x the batched pass per pattern), "
            "bit-identity of the consumed prefix and the stopping point "
            "across engines checked first"
        ),
        "params": {
            "cell_size": size,
            "gates": n_gates,
            "inputs": len(names),
            "faults": len(faults),
            "patterns": pattern_count,
            "target_coverage": target_coverage,
            "confidence": confidence,
            "repetitions": repetitions,
            "cpu_count": os.cpu_count(),
        },
        "sweep_seconds": round(sweep_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "session_patterns": session.pattern_count,
        "session_satisfied": session.satisfied,
        "sweep_us_per_pattern": round(sweep_us, 3),
        "session_us_per_pattern": round(session_us, 3),
        "min_required_speedup": FUSED_MIN_REQUIRED_SPEEDUP,
        "speedup": speedup,
        "identical_results": identical,
    }


def run_lfsr_lanes(width: int = 64, repetitions: int = 5, seed: int = 1) -> Dict:
    """LFSR row generation for one session's blocks, old vs new.

    Both sides clock one ``width``-input :class:`LfsrBank` through
    :data:`LANES_BLOCKS` in order, each block resuming the register state
    the previous one left, and end with one big-int row per input: the
    old side through the word-jump replica
    (``tests/lfsr_lanes_reference.py``) plus ``unpack_words``, the new
    side through ``LfsrBank.rows`` (one doubled serial stream per
    register).  Every block's rows and the final member states must be
    identical before any time is taken.
    """

    def session(generate):
        bank = LfsrBank(width, seed=seed)
        rows = [generate(bank, count) for count in LANES_BLOCKS]
        return rows, [member.state for member in bank.members]

    def old():
        return session(lambda bank, count: [
            unpack_words(words, count)
            for words in reference_bank_lane_words(bank, count // 64)
        ])

    def new():
        return session(lambda bank, count: bank.rows(count))

    (old_rows, old_states), (new_rows, new_states) = old(), new()
    identical = old_states == new_states and old_rows == new_rows
    print(
        f"{LANES_WORKLOAD_NAME}: {width}-input bank, blocks "
        f"{list(LANES_BLOCKS)} ({sum(LANES_BLOCKS)} patterns)"
    )
    _, old_seconds = best_of(old, repetitions)
    _, new_seconds = best_of(new, repetitions)
    speedup = round(old_seconds / new_seconds, 3)
    print(
        f"  word-jump {old_seconds * 1e3:.2f} ms -> doubled stream "
        f"{new_seconds * 1e3:.2f} ms = {speedup}x (identical={identical})"
    )
    return {
        "name": LANES_WORKLOAD_NAME,
        "description": (
            "LFSR rows for a streaming session's speculative blocks "
            "(2 Ki to 32 Ki patterns, state carried across blocks) on the "
            "64-input bank: one doubled serial stream per register vs a "
            "replica of the old 64-step word-jump matrix chain plus numpy "
            "clock loop, unpacked to big-int rows; every block's rows and "
            "the final register states checked bit-identical first"
        ),
        "params": {
            "width": width,
            "degree": BANK_DEGREE,
            "seed": seed,
            "blocks": list(LANES_BLOCKS),
            "patterns": sum(LANES_BLOCKS),
            "repetitions": repetitions,
        },
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "word_jump_seconds": round(old_seconds, 5),
        "stream_seconds": round(new_seconds, 5),
        "min_required_speedup": LANES_MIN_REQUIRED_SPEEDUP,
        "speedup": speedup,
        "identical_results": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="seconds-sized smoke run (correctness + plumbing only); "
        "does not touch BENCH_engine.json",
    )
    args = parser.parse_args(argv)
    if args.quick:
        entry = run_stream(
            size=6, n_gates=12, pattern_count=1 << 12, repetitions=1,
        )
        fused = run_stream_fused(
            size=6, n_gates=12, pattern_count=1 << 12, repetitions=1,
            target_coverage=0.2,
        )
        lanes = run_lfsr_lanes(repetitions=1)
        if not (
            entry["identical_results"]
            and fused["identical_results"]
            and lanes["identical_results"]
        ):
            print("FAIL: a streamed run diverged from the serial flow")
            return 1
        print("quick smoke ok (JSON untouched)")
        return 0
    entry = run_stream()
    record = update_record(entry)
    fused = run_stream_fused()
    record = update_record(fused)
    lanes = run_lfsr_lanes()
    record = update_record(lanes)
    print(f"wrote {BENCH_PATH}")
    ok = (
        lanes["identical_results"]
        and lanes["speedup"] >= LANES_MIN_REQUIRED_SPEEDUP
        and entry["identical_results"]
        and entry["speedup"] >= MIN_REQUIRED_SPEEDUP
        and fused["identical_results"]
        and fused["speedup"] >= FUSED_MIN_REQUIRED_SPEEDUP
    )
    return 0 if ok and record.get("all_pass", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
