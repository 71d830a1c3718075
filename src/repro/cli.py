"""Command-line interface - the modern face of the 1986 tool.

Subcommands::

    python -m repro library CELLFILE [--emit-python OUT.py]
        Parse a cell description (the Section 5 language) and print its
        fault-class table; optionally emit the executable library module.

    python -m repro experiments [E1 E2 ...]
        Regenerate the paper's tables and figures (all by default).

    python -m repro protest [CELLFILE | --netlist FILE.bench] \
            --confidence 0.999 \
            [--engine compiled|interpreted|vector] \
            [--jobs N] [--schedule contiguous|cost|interleaved] \
            [--tune auto|default|PROFILE.json] [--collapse off|on|report] \
            [--cache memory|off|DIR] \
            [--source lfsr|random|set|weighted] [--stop-confidence C] \
            [--target-coverage F]
        Wrap the cell in a single-gate network (or parse the ISCAS85
        ``.bench`` netlist) and run the PROTEST pipeline:
        probabilities, test length, optimized weights.
        ``--stop-confidence`` additionally streams a BIST session
        (``--source`` picks the lane-native pattern generator) that
        stops once the Wilson lower confidence bound on coverage clears
        ``--target-coverage``; the session runs the selected engine's
        batched window cores (``--jobs N`` fans each block across N
        worker processes).
        ``--engine`` picks the simulation engine for the estimators and
        the validation fault simulation (any registered engine name;
        bad names fail with the registry's error); ``--jobs`` the
        worker count (1, in-process, by default; N > 1 forks a pool of
        N workers for big workloads on any engine; below 1 fails at
        parse time); ``--schedule`` the
        fault-scheduling policy (cost-weighted cone scheduling by
        default); ``--tune`` the execution plan sizing chunks and
        windows (``default`` keeps the hand-calibrated constants,
        ``auto`` calibrates this host, a path loads a saved profile);
        ``--collapse`` the structural-collapsing mode (``on`` simulates
        one representative per fault-equivalence class, ``report``
        additionally prints the class/dominance report); ``--cache``
        the artifact store everything derivable from the network alone
        is resolved through (``memory`` per process, ``off``, or a
        directory whose disk tier persists artifacts across runs -
        schedules, plans, collapsing and caching never change results,
        only throughput).

    python -m repro figures
        Print the executable versions of Figs. 1, 5, 7 and 9.
"""

from __future__ import annotations

import argparse

from pathlib import Path
from typing import List, Optional

ENGINE_CHOICES = ("compiled", "interpreted", "vector")
"""The registered engine names, spelled out so parser construction (and
``--help``) stays free of the simulate-package import cost; a test
holds this tuple equal to ``repro.simulate.available_engines()``."""

SCHEDULE_CHOICES = ("contiguous", "cost", "interleaved")
"""The registered fault-schedule names, spelled out for the same
reason; a test holds this tuple equal to
``repro.simulate.available_schedules()``."""

TUNE_CHOICES = ("auto", "default")
"""The built-in execution-plan names (``--tune`` also accepts a
tuning-profile JSON path), spelled out for the same reason; a test
holds this tuple equal to ``repro.simulate.available_tunings()``."""

COLLAPSE_CHOICES = ("off", "on", "report")
"""The structural-collapsing modes, spelled out for the same reason; a
test holds this tuple equal to
``repro.faults.available_collapse_modes()``."""

CACHE_CHOICES = ("memory", "off")
"""The artifact-store cache modes (``--cache`` also accepts a cache
directory path), spelled out for the same reason; a test holds this
tuple equal to ``repro.simulate.available_cache_modes()``."""

SOURCE_CHOICES = ("lfsr", "random", "set", "weighted")
"""The registered streaming pattern-source names, spelled out for the
same reason; a test holds this tuple equal to
``repro.simulate.available_sources()``."""


def _knob(name: str, convert=str):
    """argparse type for the run knob ``--<name>`` (``engine``,
    ``jobs``, ``schedule``, ``tune``, ``collapse``, ``cache``).

    Validates through the library's own resolver,
    :func:`repro.simulate.faultsim.resolve_knobs`, so the CLI and the
    library agree on every error message (bad engine, schedule, collapse
    and cache names, ``jobs < 1``, missing or malformed profile paths
    all fail at parse time, before any simulation runs); the resolver is
    imported only when the flag is actually parsed, keeping ``--help``
    import-free.  ``--tune auto`` is accepted by name: the run
    calibrates it once, against its own artifact store.
    """

    def check(text: str):
        value = convert(text)
        if name == "tune" and value == "auto":
            return value
        from .simulate.faultsim import resolve_knobs

        try:
            resolve_knobs(**{name: value})
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        return value

    check.__name__ = convert.__name__  # argparse's "invalid int value"
    return check


def _source_name(name: str) -> str:
    """argparse type for ``--source``: validate like :func:`_knob`,
    reusing the pattern-source registry's exact error message."""
    from .simulate.source import get_source

    try:
        get_source(name)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return name


def _netlist_network(path: str):
    """argparse type for ``--netlist``: parse the ``.bench`` file at
    parse time (bad paths and malformed netlists fail with
    :mod:`repro.netlist.bench`'s exact message, before any simulation
    runs) and hand the command the parsed network - a 100k-gate file is
    parsed once, not once to validate and again to use."""
    from .netlist.bench import resolve_netlist

    try:
        return resolve_netlist(path)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _load_cell(path: str):
    from .cells import Cell

    text = Path(path).read_text()
    return Cell.from_text(text, name=Path(path).stem)


def _cell_network(cell):
    from .netlist import Network

    network = Network(cell.name)
    for name in cell.inputs:
        network.add_input(name)
    network.add_gate("u1", cell, {name: name for name in cell.inputs}, cell.output)
    network.mark_output(cell.output)
    return network


def command_library(args: argparse.Namespace) -> int:
    from .cells import generate_library

    cell = _load_cell(args.cellfile)
    library = generate_library(cell)
    print(
        f"cell {cell.name!r} ({cell.technology}): "
        f"{cell.output} = {cell.output_function.to_paper_syntax()}"
    )
    print()
    print(library.format_table())
    if library.requires_two_pattern_tests:
        print()
        print(
            "note: static CMOS stuck-open faults additionally require "
            "two-pattern tests (refs. [16], [18])"
        )
    if args.emit_python:
        Path(args.emit_python).write_text(library.to_python_source())
        print(f"\nexecutable library written to {args.emit_python}")
    return 0


def command_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    return experiments_main(args.ids)


def command_protest(args: argparse.Namespace) -> int:
    from .protest import Protest

    if args.netlist is not None and args.cellfile is not None:
        raise SystemExit(
            "repro protest: error: give either CELLFILE or --netlist, not both"
        )
    if args.netlist is None and args.cellfile is None:
        raise SystemExit(
            "repro protest: error: one of CELLFILE or --netlist is required"
        )
    if args.netlist is not None:
        network = args.netlist
    else:
        network = _cell_network(_load_cell(args.cellfile))
    protest = Protest(
        network, engine=args.engine, jobs=args.jobs, schedule=args.schedule,
        tune=args.tune, collapse=args.collapse, cache=args.cache,
    )
    if args.collapse == "report":
        from .faults.structural import collapse_network_faults

        print(
            collapse_network_faults(
                network, protest.faults, cache=args.cache
            ).format_report()
        )
        print()
    report = protest.analyse(confidence=args.confidence)
    print(report.format_summary())
    print()
    optimization = protest.optimize(confidence=args.confidence)
    print(optimization.format_summary())
    if args.stop_confidence is not None:
        probabilities = (
            optimization.optimized_probabilities
            if args.source == "weighted"
            else None
        )
        session = protest.streaming_test_length(
            target_coverage=args.target_coverage,
            confidence=args.stop_confidence,
            source=args.source,
            probabilities=probabilities,
        )
        print()
        print(session.format_summary())
    if args.validate:
        length = int(min(optimization.optimized_test_length, 1 << 16))
        result = protest.validate(length, optimization.optimized_probabilities)
        print()
        print(result.format_summary())
    return 0


def command_figures(args: argparse.Namespace) -> int:
    from .circuits.figures import (
        fig1_function_table,
        fig5_network,
        fig7_network,
        fig9_library,
        format_fig1_table,
    )

    print("Fig. 1 - faulty static CMOS NOR:")
    print(format_fig1_table(fig1_function_table()))
    print()
    network5 = fig5_network()
    print(f"Fig. 5 - domino network: inputs {network5.inputs}, "
          f"outputs {network5.outputs}")
    sample = {"i1": 1, "i2": 1, "i3": 0, "i4": 1}
    print(f"  evaluate({sample}) = {network5.evaluate(sample)}")
    print()
    network7 = fig7_network()
    print(f"Fig. 7 - two-phase dynamic nMOS network: inputs {network7.inputs}")
    sample7 = {"i1": 1, "i2": 1, "i3": 1}
    print(f"  evaluate({sample7}) = {network7.evaluate(sample7)}")
    print()
    print("Fig. 9 - fault library:")
    print(fig9_library().format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault modeling for dynamic MOS circuits "
        "(Wunderlich & Rosenstiel, DAC 1986) - reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    library = subparsers.add_parser("library", help="generate a cell fault library")
    library.add_argument("cellfile", help="cell description file (Section 5 language)")
    library.add_argument("--emit-python", metavar="OUT.py", default=None)
    library.set_defaults(func=command_library)

    experiments = subparsers.add_parser("experiments", help="regenerate paper artifacts")
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    experiments.set_defaults(func=command_experiments)

    protest = subparsers.add_parser(
        "protest", help="PROTEST analysis of a cell or a .bench netlist"
    )
    protest.add_argument("cellfile", nargs="?", default=None)
    protest.add_argument(
        "--netlist",
        type=_netlist_network,
        default=None,
        metavar="FILE.bench",
        help="run the pipeline on an ISCAS85-style .bench netlist "
        "instead of a single-cell network (INPUT/OUTPUT/AND/NAND/OR/"
        "NOR/XOR/NOT/BUFF; mutually exclusive with CELLFILE)",
    )
    protest.add_argument("--confidence", type=float, default=0.999)
    protest.add_argument("--validate", action="store_true")
    protest.add_argument(
        "--engine",
        type=_knob("engine"),
        default="compiled",
        metavar="|".join(ENGINE_CHOICES),
        help="simulation engine for estimators and validation "
        "(default: compiled)",
    )
    protest.add_argument(
        "--jobs",
        type=_knob("jobs", int),
        default=1,
        metavar="N",
        help="worker processes for fault simulation, the estimators and "
        "streaming sessions on any engine (default: 1, in-process; N > 1 "
        "forks a pool of N workers once the workload pays for it)",
    )
    protest.add_argument(
        "--schedule",
        type=_knob("schedule"),
        default=None,
        metavar="|".join(SCHEDULE_CHOICES),
        help="fault-scheduling policy for shard partitioning and lane "
        "batching (default: cost-weighted cone scheduling; results are "
        "schedule-independent)",
    )
    protest.add_argument(
        "--tune",
        type=_knob("tune"),
        default=None,
        metavar="|".join(TUNE_CHOICES) + "|PROFILE.json",
        help="execution plan sizing column chunks and streaming windows "
        "(default: the hand-calibrated constants; 'auto' calibrates this "
        "host once and derives per-cone widths; a path loads a saved "
        "tuning profile; results are plan-independent)",
    )
    protest.add_argument(
        "--collapse",
        type=_knob("collapse"),
        default=None,
        metavar="|".join(COLLAPSE_CHOICES),
        help="structural fault collapsing: simulate one representative "
        "per equivalence class and scatter outcomes back (default: off; "
        "'report' additionally prints the class/dominance report; "
        "results are collapse-independent)",
    )
    protest.add_argument(
        "--cache",
        type=_knob("cache"),
        default=None,
        metavar="|".join(CACHE_CHOICES) + "|DIR",
        help="artifact store for compiled programs, cone metadata, "
        "batch plans, collapse classes and tuning profiles (default: a "
        "process-wide in-memory store, or $REPRO_CACHE_DIR when set; "
        "'off' disables caching; a directory persists artifacts across "
        "runs; results are cache-independent)",
    )
    protest.add_argument(
        "--source",
        type=_source_name,
        default="lfsr",
        metavar="|".join(SOURCE_CHOICES),
        help="streaming pattern source for the confidence-bounded "
        "session (default: lfsr - a lane-native LFSR bank; 'weighted' "
        "streams the NLFSR with the optimized distribution; only used "
        "with --stop-confidence)",
    )
    protest.add_argument(
        "--stop-confidence",
        type=float,
        default=None,
        metavar="C",
        help="additionally run a streaming BIST session that stops as "
        "soon as the Wilson lower confidence bound (at confidence C) on "
        "fault coverage clears --target-coverage - 'how many patterns "
        "for the target coverage?' answered by simulation",
    )
    protest.add_argument(
        "--target-coverage",
        type=float,
        default=0.99,
        metavar="F",
        help="coverage fraction the streaming session drives its lower "
        "bound to (default: 0.99; only used with --stop-confidence)",
    )
    protest.set_defaults(func=command_protest)

    figures = subparsers.add_parser("figures", help="print the executable figures")
    figures.set_defaults(func=command_figures)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
