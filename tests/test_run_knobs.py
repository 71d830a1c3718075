"""The run knobs resolve once, at every public entry point.

``engine``, ``jobs``, ``collapse`` and ``cache`` are validated by one
resolver (:func:`repro.simulate.faultsim.resolve_knobs`), so a bad knob
raises the same ``ValueError`` whichever estimator method, optimizer
path, facade constructor or simulation entry point it reaches -
including the paths that never simulate (exact and topological
estimators).  A value of the wrong type is a bad value too: it is
named in the error instead of failing later inside a worker pool.
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
)
from repro.simulate import (
    PatternSet,
    coverage_curve,
    fault_simulate,
    get_engine,
    streaming_coverage,
    windowed_outcomes,
)

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
    ],
    "cache": [
        (42, "unknown cache mode 42"),
        (3.5, "unknown cache mode 3.5"),
    ],
}


def bad_cases(*knobs):
    """One ``(knob, value, message)`` case per bad value of ``knobs``."""
    return [
        pytest.param(knob, value, message, id=f"{knob}={value!r}")
        for knob in knobs
        for value, message in BAD_KNOBS[knob]
    ]


METHODS = ("auto", "exact", "topological", "monte_carlo")

C17_BENCH = str(Path(__file__).resolve().parents[1] / "examples" / "c17.bench")


def _raises(knob, value, message, call):
    with pytest.raises(ValueError) as excinfo:
        call(**{knob: value})
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("knob, value, message", bad_cases(*BAD_KNOBS))
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


@pytest.mark.parametrize(
    "knob, value, message", bad_cases("engine", "jobs", "cache")
)
def test_optimize_input_probabilities(knob, value, message):
    network = and_cone(3)
    _raises(
        knob, value, message,
        lambda **bad: optimize_input_probabilities(network, max_sweeps=1, **bad),
    )


@pytest.mark.parametrize("knob, value, message", bad_cases("jobs", "cache"))
def test_difference_words_and_windowed_outcomes(knob, value, message):
    """The two engine-level entry points, which bypass ``fault_simulate``."""
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    faults = all_faults(network)
    _raises(
        knob, value, message,
        lambda **bad: get_engine("compiled").difference_words(
            network, patterns, faults, **bad
        ),
    )
    _raises(
        knob, value, message,
        lambda **bad: windowed_outcomes(network, patterns, faults, 8, **bad),
    )


@pytest.mark.parametrize("knob, value, message", bad_cases("engine", "cache"))
@pytest.mark.parametrize("method", METHODS)
def test_signal_probabilities_on_every_method(knob, value, message, method):
    network = and_cone(3)
    _raises(
        knob, value, message,
        lambda **bad: signal_probabilities(network, method=method, **bad),
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0.5", "stop_at_coverage must be a number in (0, 1], got '0.5'"),
        (True, "stop_at_coverage must be a number in (0, 1], got True"),
        (float("nan"), "stop_at_coverage must be in (0, 1], got nan"),
    ],
)
def test_stop_at_coverage_must_be_a_real_number(bad, message):
    network = and_cone(3)
    patterns = PatternSet.exhaustive(network.inputs)
    faults = all_faults(network)
    for call in (
        lambda: fault_simulate(network, patterns, stop_at_coverage=bad),
        lambda: windowed_outcomes(
            network, patterns, faults, 8, stop_at_coverage=bad
        ),
    ):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


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
    "flag", [["--schedule", "cost"], ["--tune", "auto"], ["--tune", "default"]]
)
def test_cli_rejects_retired_flags(capsys, flag):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["protest", "--netlist", C17_BENCH, *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
