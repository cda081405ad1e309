"""Contracts of the ``interval`` fuzz family's failure tail.

An interval finding runs through the same tail as every other family:
the base circuit shrinks (the width chain stays as generated), the
entry is saved under the interval case id with an ``"interval"``
metadata block, and replaying it re-runs the interval oracles rather
than the circuit differential.
"""

from __future__ import annotations

import pytest

import repro.timing.topological as topological
from repro.fuzz import (
    FAMILIES,
    INTERVAL_CHECKS,
    FuzzRunner,
    generate_interval_case,
    load_corpus,
    replay_entry,
)
from repro.fuzz.checks import CheckFailure
from repro.fuzz.corpus import load_entry


@pytest.fixture
def unsound_bounds(monkeypatch):
    """Shift every ``[lo, hi]`` bound above the scalar requirement, so
    ``interval-soundness`` fails on any circuit."""
    sound = topological.required_time_bounds

    def shifted(network, model, required):
        return {
            name: (lo + 100.0, hi + 100.0)
            for name, (lo, hi) in sound(network, model, required).items()
        }

    monkeypatch.setattr(topological, "required_time_bounds", shifted)


class TestCorpusRoundTrip:
    def test_saved_case_replays_identically(self, tmp_path):
        icase = generate_interval_case("corpus", "tiny", 0)
        failures = [CheckFailure("interval-soundness", "synthetic")]
        base = FAMILIES["interval"].save(str(tmp_path), icase, failures, icase)
        assert base == icase.case_id
        entry = load_entry(str(tmp_path), base)
        assert entry.metadata["family"] == "interval"
        assert entry.metadata["interval"] == {
            "seed": icase.seed,
            "widths": list(icase.widths),
        }
        assert entry.failed_checks == ["interval-soundness"]
        # replay dispatches through the interval differential and, with
        # the stock suite, must come back green (the regression direction)
        result = replay_entry(entry)
        assert result.ok, [str(f) for f in result.failures]
        assert "interval-soundness" in result.checks_run
        assert set(result.checks_run) <= set(INTERVAL_CHECKS)


class TestInjectedFailure:
    def test_failure_is_shrunk_and_saved_under_its_interval_id(
        self, tmp_path, unsound_bounds
    ):
        report = FuzzRunner(
            seed="interval-tail", budget=3, profile="tiny", family="interval",
            corpus_dir=str(tmp_path), stop_on_failure=True,
        ).run()
        assert report.stopped == "stop-on-failure"
        verdict = report.verdicts[-1]
        assert verdict.family == "interval"
        assert "interval-soundness" in verdict.failed_checks
        assert verdict.shrunk_gates is not None
        assert verdict.shrunk_gates < verdict.num_gates
        assert verdict.repro == verdict.case_id
        assert "-interval-" in verdict.case_id

        [entry] = load_corpus(str(tmp_path))
        assert entry.case.case_id == verdict.case_id
        assert entry.metadata["family"] == "interval"
        assert entry.metadata["gates"] == verdict.shrunk_gates
        assert entry.metadata["original"]["gates"] == verdict.num_gates
        icase = generate_interval_case("interval-tail", "tiny", verdict.index)
        assert entry.metadata["interval"]["widths"] == list(icase.widths)
        # the replay re-runs the failed interval check: red while the
        # injected bug is in place
        assert "interval-soundness" in replay_entry(entry).failed_checks

    def test_replay_is_green_once_the_bug_is_gone(
        self, tmp_path, monkeypatch, unsound_bounds
    ):
        FuzzRunner(
            seed="interval-fixed", budget=1, profile="tiny", family="interval",
            corpus_dir=str(tmp_path), shrink=False,
        ).run()
        monkeypatch.undo()  # the bug is fixed
        [entry] = load_corpus(str(tmp_path))
        result = replay_entry(entry)
        assert result.ok, [str(f) for f in result.failures]
        assert "interval-soundness" in result.checks_run
