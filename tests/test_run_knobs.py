"""The run knobs resolve once, at every public entry point.

``engine``, ``jobs``, ``collapse`` and ``cache`` are validated by one
resolver (:func:`repro.simulate.faultsim.resolve_knobs`), so a bad knob
raises the same ``ValueError`` whichever estimator method, optimizer
path, facade constructor or simulation entry point it reaches -
including the paths that never simulate (exact and topological
estimators).  A value of the wrong type is a bad value too: it is
named in the error instead of failing later inside a worker pool.
The same holds for the counts and fractions the simulation and
test-length entry points take: a bad one is a ``ValueError`` naming it.
"""

from pathlib import Path

import pytest

from engine_test_utils import all_faults

from repro.circuits.generators import and_cone
from repro.protest import (
    Protest,
    detection_probabilities,
    optimize_input_probabilities,
    signal_probabilities,
    testlength,
)
from repro.simulate import (
    PatternSet,
    coverage_curve,
    fault_simulate,
    get_engine,
    streaming_coverage,
    windowed_outcomes,
)
from repro.simulate.faultsim import fault_universe

#: Stands in for an existing directory - the test's own ``tmp_path`` -
#: as a ``cache`` value; the ``value`` fixture substitutes it.
EXISTING_DIRECTORY = "<tmp_path>"

#: Several bad values per knob, each with the message it must raise.
BAD_KNOBS = {
    "engine": [
        ("turbo", "unknown engine 'turbo'"),
        (42, "unknown engine 42"),
    ],
    "jobs": [
        (0, "jobs must be >= 1, got 0"),
        (-1, "jobs must be >= 1, got -1"),
        (2.5, "jobs must be an int >= 1, got 2.5"),
        (2.0, "jobs must be an int >= 1, got 2.0"),
        ("2", "jobs must be an int >= 1, got '2'"),
        (True, "jobs must be an int >= 1, got True"),
    ],
    "collapse": [
        ("turbo", "unknown collapse mode 'turbo'"),
        (1, "unknown collapse mode 1"),
        # The CLI's --collapse report is "on" plus a printed report; the
        # library has no such mode.
        ("report", "unknown collapse mode 'report'"),
    ],
    "cache": [
        (42, "unknown cache mode 42"),
        (3.5, "unknown cache mode 3.5"),
        # Strings and paths that used to name a disk-tier directory.
        ("of", "unknown cache mode 'of'"),
        (EXISTING_DIRECTORY, "unknown cache mode '/"),
        (Path("artifacts"), f"unknown cache mode {Path('artifacts')!r}"),
    ],
}


def bad_cases(*knobs):
    """Parametrize ``(knob, value, message)``, one case per bad value of
    ``knobs``; ``value`` resolves through the fixture below."""
    return pytest.mark.parametrize(
        "knob, value, message",
        [
            pytest.param(knob, value, message, id=f"{knob}={value!r}")
            for knob in knobs
            for value, message in BAD_KNOBS[knob]
        ],
        indirect=["value"],
    )


@pytest.fixture
def value(request):
    """The bad knob value, with :data:`EXISTING_DIRECTORY` made real."""
    if request.param == EXISTING_DIRECTORY:
        return str(request.getfixturevalue("tmp_path"))
    return request.param


METHODS = ("auto", "exact", "topological", "monte_carlo")

C17_BENCH = str(Path(__file__).resolve().parents[1] / "examples" / "c17.bench")


def _raises(knob, value, message, call):
    with pytest.raises(ValueError) as excinfo:
        call(**{knob: value})
    assert str(excinfo.value).startswith(message)


@bad_cases(*BAD_KNOBS)
class TestBadKnobsRaiseEverywhere:
    @pytest.mark.parametrize("method", METHODS)
    def test_detection_probabilities_on_every_method(
        self, knob, value, message, method
    ):
        network = and_cone(3)
        _raises(
            knob, value, message,
            lambda **bad: detection_probabilities(
                network, method=method, samples=8, **bad
            ),
        )

    def test_protest_construction(self, knob, value, message):
        network = and_cone(3)
        _raises(knob, value, message, lambda **bad: Protest(network, **bad))

    def test_fault_simulate(self, knob, value, message):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        _raises(
            knob, value, message,
            lambda **bad: fault_simulate(network, patterns, **bad),
        )

    def test_streaming_coverage(self, knob, value, message):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        _raises(
            knob, value, message,
            lambda **bad: streaming_coverage(network, patterns, **bad),
        )

    def test_coverage_curve(self, knob, value, message):
        network = and_cone(3)
        patterns = PatternSet.exhaustive(network.inputs)
        _raises(
            knob, value, message,
            lambda **bad: coverage_curve(network, patterns, **bad),
        )


@bad_cases("engine", "jobs", "cache")
def test_optimize_input_probabilities(knob, value, message):
    network = and_cone(3)
    _raises(
        knob, value, message,
        lambda **bad: optimize_input_probabilities(network, max_sweeps=1, **bad),
    )


@bad_cases("jobs", "cache")
def test_windowed_outcomes(knob, value, message):
    """The engine-level outcomes entry point, which bypasses
    ``fault_simulate``."""
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    universe = fault_universe(network, all_faults(network))
    _raises(
        knob, value, message,
        lambda **bad: windowed_outcomes(network, patterns, universe, **bad),
    )


@bad_cases("cache")
def test_difference_words(knob, value, message):
    """The engine-level words entry point (in-process only: it takes no
    ``jobs``)."""
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    faults = all_faults(network)
    _raises(
        knob, value, message,
        lambda **bad: get_engine("compiled").difference_words(
            network, patterns, faults, **bad
        ),
    )


@bad_cases("engine", "cache")
@pytest.mark.parametrize("method", METHODS)
def test_signal_probabilities_on_every_method(knob, value, message, method):
    network = and_cone(3)
    _raises(
        knob, value, message,
        lambda **bad: signal_probabilities(network, method=method, **bad),
    )


@pytest.mark.parametrize("knob", ["schedule", "tune"])
def test_retired_knobs_are_unexpected_arguments(knob):
    """``schedule`` and ``tune`` are gone: passing one is Python's own
    ``TypeError``, not a silently ignored keyword."""
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    for call in (
        lambda: fault_simulate(network, patterns, **{knob: "cost"}),
        lambda: Protest(network, **{knob: "default"}),
        lambda: detection_probabilities(network, **{knob: "auto"}),
    ):
        with pytest.raises(TypeError, match=knob):
            call()


@pytest.mark.parametrize(
    "method, knob",
    [
        ("signal_probabilities", "engine"),
        ("detection_probabilities", "engine"),
        *(
            (method, knob)
            for method in ("validate", "streaming_test_length")
            for knob in ("engine", "jobs", "collapse", "cache")
        ),
    ],
)
def test_facade_methods_take_no_knobs(method, knob):
    """The ``Protest`` methods run on the knobs the constructor
    validated: a per-call knob is Python's own ``TypeError``, not an
    override that skips that validation."""
    protest = Protest(and_cone(3))
    with pytest.raises(TypeError, match=knob):
        getattr(protest, method)(**{knob: None})


@pytest.mark.parametrize(
    "entry, keyword, value",
    [
        ("fault_simulate", "stop_at_coverage", 0.9),
        ("coverage_curve", "stop_at_confidence", 0.9),
        ("coverage_curve", "target_coverage", 0.9),
        ("windowed_outcomes", "window", 8),
        ("windowed_outcomes", "coverage_weights", None),
    ],
)
def test_removed_stop_options_stay_removed(entry, keyword, value):
    """A run stops only through ``on_window`` (a session's Wilson bound,
    or first-detection retirement), and the driver works out its own
    grid and weights: each retired option is Python's own ``TypeError``,
    not a silently ignored keyword."""
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    calls = {
        "fault_simulate": lambda **bad: fault_simulate(network, patterns, **bad),
        "coverage_curve": lambda **bad: coverage_curve(network, patterns, **bad),
        "windowed_outcomes": lambda **bad: windowed_outcomes(
            network, patterns, fault_universe(network), **bad
        ),
    }
    with pytest.raises(TypeError, match=keyword):
        calls[entry](**{keyword: value})


@pytest.mark.parametrize(
    "jobs, message",
    [
        ("0", "jobs must be >= 1, got 0"),
        ("-1", "jobs must be >= 1, got -1"),
        ("2.5", "invalid int value: '2.5'"),
    ],
)
def test_cli_rejects_bad_jobs_at_parse_time(capsys, jobs, message):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["protest", "--netlist", C17_BENCH, "--jobs", jobs])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, text, message",
    [
        *(
            (flag, text, f"confidence must be in (0,1), got {value}")
            for flag in ("--confidence", "--stop-confidence")
            for text, value in (
                ("2", "2.0"), ("nan", "nan"), ("0", "0.0"), ("1", "1.0"),
                ("-0.5", "-0.5"), ("1.5", "1.5"),
            )
        ),
        *(
            ("--target-coverage", text,
             f"target_coverage must be in (0, 1], got {value}")
            for text, value in (
                ("0", "0.0"), ("nan", "nan"), ("1.5", "1.5"), ("-1", "-1.0"),
                ("inf", "inf"),
            )
        ),
        ("--confidence", "x", "invalid float value: 'x'"),
        ("--target-coverage", "", "invalid float value: ''"),
    ],
)
def test_cli_rejects_bad_fractions_at_parse_time(
    capsys, monkeypatch, flag, text, message
):
    """A bad confidence or target exits 2 with the library's message
    before the analysis runs, not as a traceback after it."""
    from repro import cli

    monkeypatch.setattr(cli, "command_protest", None)  # must never run
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["protest", "--netlist", C17_BENCH, flag, text])
    assert excinfo.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_cli_collapse_report_is_on_plus_the_report(capsys):
    """``--collapse report`` lives in the CLI only: it runs exactly the
    ``on`` pipeline, preceded by the printed collapse report."""
    from repro.cli import main
    from repro.faults.structural import collapse_network_faults
    from repro.netlist.bench import resolve_netlist

    assert main(["protest", "--netlist", C17_BENCH, "--collapse", "on"]) == 0
    collapsed_run = capsys.readouterr().out
    assert main(["protest", "--netlist", C17_BENCH, "--collapse", "report"]) == 0
    network = resolve_netlist(C17_BENCH)
    report = collapse_network_faults(
        network, network.enumerate_faults()
    ).format_report()
    assert "faults -> " in report and " classes " in report
    assert capsys.readouterr().out == report + "\n\n" + collapsed_run


@pytest.mark.parametrize(
    "flag",
    [
        ["--schedule", "cost"],
        ["--tune", "auto"],
        ["--tune", "default"],
        ["--cache", "memory"],
        ["--cache", "x"],
    ],
)
def test_cli_rejects_retired_flags(capsys, flag):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["protest", "--netlist", C17_BENCH, *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# -- counts and fractions --------------------------------------------------------------

BAD_CONFIDENCES = [
    (0, "confidence must be in (0,1), got 0"),
    (1.0, "confidence must be in (0,1), got 1.0"),
    (1.5, "confidence must be in (0,1), got 1.5"),
    (True, "confidence must be in (0,1), got True"),
    ("0.9", "confidence must be in (0,1), got '0.9'"),
    (float("nan"), "confidence must be in (0,1), got nan"),
]


def _raises_exactly(message, call):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("confidence, message", BAD_CONFIDENCES)
def test_test_length_rejects_bad_confidence(confidence, message):
    """Validated before any probability is read, so an empty or an
    undetectable fault set cannot hide a bad confidence either."""
    network = and_cone(3)
    protest = Protest(network)
    for call in (
        lambda: testlength.test_length({"f": 0.25}, confidence),
        lambda: testlength.test_length({"f": 0.25}, confidence, per_fault=True),
        lambda: testlength.test_length({}, confidence),
        lambda: testlength.test_length({"f": 0.0}, confidence),
        lambda: testlength.test_length_for_fault(0.25, confidence),
        lambda: protest.analyse(confidence=confidence),
        lambda: protest.required_test_length(confidence=confidence),
    ):
        _raises_exactly(message, call)


@pytest.mark.parametrize(
    "count, message",
    [
        (-1, "count must be >= 0, got -1"),
        (2.5, "count must be an int >= 0, got 2.5"),
        (2.0, "count must be an int >= 0, got 2.0"),
        ("8", "count must be an int >= 0, got '8'"),
        (True, "count must be an int >= 0, got True"),
    ],
)
def test_pattern_counts_must_be_non_negative_ints(count, message):
    network = and_cone(3)
    _raises_exactly(message, lambda: PatternSet.random(network.inputs, count))
    _raises_exactly(message, lambda: Protest(network).validate(count))


def test_zero_patterns_is_a_valid_count():
    assert PatternSet.random(["a", "b"], 0).count == 0


@pytest.mark.parametrize(
    "keyword, bad, message",
    [
        ("target_coverage", "0.9",
         "target_coverage must be a number in (0, 1], got '0.9'"),
        ("target_coverage", True,
         "target_coverage must be a number in (0, 1], got True"),
        ("target_coverage", 0, "target_coverage must be in (0, 1], got 0"),
        ("confidence", "0.9", "confidence must be in (0,1), got '0.9'"),
        ("confidence", True, "confidence must be in (0,1), got True"),
        ("confidence", 1, "confidence must be in (0,1), got 1"),
    ],
)
def test_streaming_coverage_rejects_bad_fractions(keyword, bad, message):
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    _raises_exactly(
        message, lambda: streaming_coverage(network, patterns, **{keyword: bad})
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"points": 2.5}, "points must be an int >= 1, got 2.5"),
        ({"points": True}, "points must be an int >= 1, got True"),
        ({"points": "4"}, "points must be an int >= 1, got '4'"),
        ({"points": 0}, "points must be >= 1, got 0"),
    ],
)
def test_coverage_curve_rejects_bad_arguments(bad, message):
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    _raises_exactly(message, lambda: coverage_curve(network, patterns, **bad))
