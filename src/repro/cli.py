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
            [--jobs N] [--collapse off|on|report] \
            [--source lfsr|random|set|weighted] [--stop-confidence C] \
            [--target-coverage F]
        Wrap the cell in a single-gate network (or parse the ISCAS85
        ``.bench`` netlist) and run the PROTEST pipeline:
        probabilities, test length, optimized weights.
        ``--stop-confidence`` additionally streams a BIST session
        (``--source`` picks the streaming pattern generator) that
        stops once the Wilson lower confidence bound on coverage clears
        ``--target-coverage``; the session runs the selected engine's
        batched window cores (``--jobs N`` fans each block across N
        worker processes).
        ``--engine`` picks the simulation engine for the estimators and
        the validation fault simulation (any registered engine name;
        bad names fail with the registry's error); ``--jobs`` the
        worker count (1, in-process, by default; N > 1 forks a pool of
        N workers for big workloads on any engine, partitioned by cone
        cost; below 1 fails at parse time, as do a ``--confidence`` or
        ``--stop-confidence`` outside (0, 1) and a ``--target-coverage``
        outside (0, 1]); ``--collapse`` the
        structural-collapsing mode (``on`` simulates
        one representative per fault-equivalence class, ``report`` - a
        CLI-only mode - runs ``on`` and prints the class/dominance
        report).  Pooling and
        collapsing never change results, only throughput; compile
        artifacts are reused within the run through the process-wide
        in-memory store.

    python -m repro figures
        Print the executable versions of Figs. 1, 5, 7 and 9.
"""

from __future__ import annotations

import argparse
from importlib import import_module
from pathlib import Path
from typing import List, Optional

ENGINE_CHOICES = ("compiled", "interpreted", "vector")
"""The registered engine names, spelled out so parser construction (and
``--help``) stays free of the simulate-package import cost; a test
holds this tuple equal to ``repro.simulate.available_engines()``."""

COLLAPSE_CHOICES = ("off", "on", "report")
"""The library's structural-collapsing modes plus the CLI-only
``report`` (``on`` plus the printed class report), spelled out for the
same reason; a test holds this tuple equal to
``repro.faults.available_collapse_modes()`` plus ``"report"``."""

SOURCE_CHOICES = ("lfsr", "random", "set", "weighted")
"""The registered streaming pattern-source names, spelled out for the
same reason; a test holds this tuple equal to
``repro.simulate.available_sources()``."""


def _checked(check, convert=str, *extra, result=False):
    """argparse type for a flag the library validates.

    The flag's text is ``convert``-ed and handed to ``check`` (with
    ``extra`` after it): a callable, or ``"module:function"`` under
    :mod:`repro`, imported on the first parse so ``--help`` stays free
    of the simulate-package import cost.  The check's ``ValueError``
    becomes argparse's usage error - exit 2 with the library's exact
    message, before any work runs.  The flag holds the converted value,
    or what the check returns when ``result`` is set (``--netlist``
    hands the command the parsed network, so a 100k-gate file is parsed
    once).
    """

    def parse(text: str):
        value = convert(text)
        function = check
        if isinstance(check, str):
            module, name = check.split(":")
            function = getattr(import_module(f"{__package__}.{module}"), name)
        try:
            returned = function(value, *extra)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        return returned if result else value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


def _collapse_choice(name: str) -> None:
    """``--collapse``: one of :data:`COLLAPSE_CHOICES`, rejected in the
    library's message shape."""
    if name not in COLLAPSE_CHOICES:
        raise ValueError(
            f"unknown collapse mode {name!r}; available collapse modes: "
            + ", ".join(COLLAPSE_CHOICES)
        )


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
    report_collapse = args.collapse == "report"
    protest = Protest(
        network, engine=args.engine, jobs=args.jobs,
        collapse="on" if report_collapse else args.collapse,
    )
    if report_collapse:
        from .faults.structural import collapse_network_faults

        print(collapse_network_faults(network, protest.faults).format_report())
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
        type=_checked("netlist.bench:resolve_netlist", result=True),
        default=None,
        metavar="FILE.bench",
        help="run the pipeline on an ISCAS85-style .bench netlist "
        "instead of a single-cell network (INPUT/OUTPUT/AND/NAND/OR/"
        "NOR/XOR/NOT/BUFF; mutually exclusive with CELLFILE)",
    )
    protest.add_argument(
        "--confidence",
        type=_checked("protest.testlength:check_confidence", float),
        default=0.999,
    )
    protest.add_argument("--validate", action="store_true")
    protest.add_argument(
        "--engine",
        type=_checked("simulate.registry:get_engine"),
        default="compiled",
        metavar="|".join(ENGINE_CHOICES),
        help="simulation engine for estimators and validation "
        "(default: compiled)",
    )
    protest.add_argument(
        "--jobs",
        type=_checked("simulate.faultsim:check_jobs", int),
        default=1,
        metavar="N",
        help="worker processes for fault simulation, the estimators and "
        "streaming sessions on any engine (default: 1, in-process; N > 1 "
        "forks a pool of N workers once the workload pays for it)",
    )
    protest.add_argument(
        "--collapse",
        type=_checked(_collapse_choice),
        default=None,
        metavar="|".join(COLLAPSE_CHOICES),
        help="structural fault collapsing: simulate one representative "
        "per equivalence class and scatter outcomes back (default: off; "
        "'report' runs 'on' and prints the class/dominance report; "
        "results are collapse-independent)",
    )
    protest.add_argument(
        "--source",
        type=_checked("simulate.source:get_source"),
        default="lfsr",
        metavar="|".join(SOURCE_CHOICES),
        help="streaming pattern source for the confidence-bounded "
        "session (default: lfsr - a ganged LFSR bank; 'weighted' "
        "streams the NLFSR with the optimized distribution; only used "
        "with --stop-confidence)",
    )
    protest.add_argument(
        "--stop-confidence",
        type=_checked("protest.testlength:check_confidence", float),
        default=None,
        metavar="C",
        help="additionally run a streaming BIST session that stops as "
        "soon as the Wilson lower confidence bound (at confidence C) on "
        "fault coverage clears --target-coverage - 'how many patterns "
        "for the target coverage?' answered by simulation",
    )
    protest.add_argument(
        "--target-coverage",
        type=_checked(
            "simulate.faultsim:check_coverage", float, "target_coverage"
        ),
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
