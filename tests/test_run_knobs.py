"""The run knobs resolve once, at every public entry point.

``engine``, ``jobs``, ``schedule``, ``tune``, ``collapse`` and
``cache`` are validated by one resolver
(:func:`repro.simulate.faultsim.resolve_knobs`), so a bad knob raises
the same error whichever estimator method, optimizer path or facade
constructor it reaches - including the paths that never simulate
(exact and topological estimators) - and ``tune="auto"`` calibrates
the host once per run, against the run's own artifact store.
"""

from pathlib import Path

import pytest

from repro.circuits.generators import and_cone
from repro.protest import (
    Protest,
    detection_probabilities,
    optimize_input_probabilities,
    signal_probabilities,
)
from repro.simulate import TuningProfile, tuning

#: One bad value per knob, with the message each must raise.
BAD_KNOBS = {
    "engine": ("turbo", "unknown engine 'turbo'"),
    "jobs": (0, "jobs must be >= 1, got 0"),
    "schedule": ("turbo", "unknown schedule 'turbo'"),
    "tune": ("turbo", "unknown tuning plan 'turbo'"),
    "collapse": ("turbo", "unknown collapse mode 'turbo'"),
    "cache": (42, "unknown cache mode 42"),
}

METHODS = ("auto", "exact", "topological", "monte_carlo")

C17_BENCH = str(Path(__file__).resolve().parents[1] / "examples" / "c17.bench")


def _raises(knob, call):
    value, message = BAD_KNOBS[knob]
    with pytest.raises(ValueError) as excinfo:
        call(**{knob: value})
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("knob", sorted(BAD_KNOBS))
class TestBadKnobsRaiseEverywhere:
    @pytest.mark.parametrize("method", METHODS)
    def test_detection_probabilities_on_every_method(self, knob, method):
        network = and_cone(3)
        _raises(
            knob,
            lambda **bad: detection_probabilities(
                network, method=method, samples=8, **bad
            ),
        )

    def test_protest_construction(self, knob):
        network = and_cone(3)
        _raises(knob, lambda **bad: Protest(network, **bad))


@pytest.mark.parametrize("knob", sorted(set(BAD_KNOBS) - {"collapse"}))
def test_optimize_input_probabilities(knob):
    network = and_cone(3)
    _raises(
        knob,
        lambda **bad: optimize_input_probabilities(network, max_sweeps=1, **bad),
    )


@pytest.mark.parametrize("knob", ["engine", "cache"])
@pytest.mark.parametrize("method", METHODS)
def test_signal_probabilities_on_every_method(knob, method):
    network = and_cone(3)
    _raises(
        knob,
        lambda **bad: signal_probabilities(network, method=method, **bad),
    )


@pytest.fixture()
def calibrations(monkeypatch):
    """Count host calibrations, starting from an uncalibrated process."""
    calls = []

    def calibrate(name="auto"):
        calls.append(name)
        return TuningProfile(
            name=name, word_ns=1.0, call_ns=64.0, block_ns=1.0,
            cache_words=1 << 12,
        )

    monkeypatch.delenv(tuning.PROFILE_ENV, raising=False)
    monkeypatch.setattr(tuning, "calibrate_profile", calibrate)
    monkeypatch.setattr(tuning, "_AUTO_PLAN", None)
    monkeypatch.setattr(tuning, "_STORE_AUTO_PLANS", {})
    return calls


def test_auto_plan_calibrates_once_per_call(calibrations, tmp_path):
    detection_probabilities(
        and_cone(3), method="monte_carlo", samples=64, tune="auto",
        cache=str(tmp_path),
    )
    assert len(calibrations) == 1


def test_cli_accepts_tune_auto_without_calibrating(calibrations):
    from repro.cli import build_parser

    args = build_parser().parse_args(["protest", "cell.txt", "--tune", "auto"])
    assert args.tune == "auto"
    assert calibrations == []


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_bad_jobs_at_parse_time(capsys, jobs):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["protest", "--netlist", C17_BENCH, "--jobs", jobs])
    assert excinfo.value.code == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
