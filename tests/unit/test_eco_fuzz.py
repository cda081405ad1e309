"""Contracts of the ``eco`` fuzz family (generator, runner, corpus).

The determinism contract matches :mod:`repro.fuzz.gen`: a trace is a
pure function of ``(seed, profile, index)``, byte-for-byte identical
across processes.  The corpus round-trip guarantees a saved eco finding
replays through the exact trace that produced it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz import (
    ECO_CHECKS,
    FAMILIES,
    FuzzRunner,
    failure_predicate,
    generate_eco_trace,
    replay_entry,
    run_eco_differential,
    shrink_eco_trace,
)
from repro.fuzz.checks import CheckFailure
from repro.fuzz.corpus import load_entry
from repro.fuzz.eco import trace_from_entry

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestGeneratorDeterminism:
    def test_same_seed_same_trace_in_process(self):
        a = generate_eco_trace("det", "tiny", index=3)
        b = generate_eco_trace("det", "tiny", index=3)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_same_seed_same_trace_across_processes(self):
        """The cross-machine reproducibility contract: two fresh
        interpreters print byte-identical trace JSON for the same seed."""
        code = (
            "import json\n"
            "from repro.fuzz import generate_eco_trace\n"
            "t = generate_eco_trace('xproc', 'tiny', index=1)\n"
            "print(json.dumps(t.to_json(), sort_keys=True))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": str(hash_seed)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in (0, 42)  # different hash seeds on purpose
        ]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["edits"], "empty trace"

    def test_different_indices_differ(self):
        a = generate_eco_trace("det", "tiny", index=0)
        b = generate_eco_trace("det", "tiny", index=1)
        assert a.trace_id != b.trace_id

    def test_generated_traces_replay_without_rejection(self):
        """Every generated edit validated against the evolving replica,
        so a session must accept the whole trace."""
        from repro.eco import NetworkSession

        for index in range(4):
            trace = generate_eco_trace("replay", "tiny", index=index)
            session = NetworkSession(
                trace.case.network,
                delays=trace.case.delays,
                output_required=trace.case.output_required,
            )
            results = session.apply_trace(trace.edits)
            assert len(results) == trace.num_edits

    def test_explicit_edit_budget(self):
        trace = generate_eco_trace("det", "tiny", index=0, n_edits=2)
        assert trace.num_edits == 2


class TestDifferential:
    def test_clean_traces_come_back_green(self):
        trace = generate_eco_trace("green", "tiny", index=0)
        result = run_eco_differential(trace)
        assert result.ok, [str(f) for f in result.failures]
        assert set(result.checks_run) <= set(ECO_CHECKS)
        assert "eco-parity[topological]" in result.checks_run
        assert "eco-atomicity" in result.checks_run

    def test_runner_eco_family_end_to_end(self, tmp_path):
        report = FuzzRunner(
            seed="runner", budget=3, profile="tiny", family="eco",
            corpus_dir=str(tmp_path),
        ).run()
        assert report.num_cases == 3
        assert report.ok, [v.failed_checks for v in report.verdicts]
        assert all(v.family == "eco" for v in report.verdicts)

    def test_unknown_family_is_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown fuzz family"):
            FuzzRunner(family="orbit").run()


class TestShrinking:
    def test_shrink_is_deterministic_and_minimal(self):
        trace = generate_eco_trace("shrink", "tiny", index=0, n_edits=6)
        # a synthetic predicate: "interesting" while the first edit kind
        # survives — the shrinker must keep exactly that edit
        target = trace.edits[0].to_dict()

        def predicate(t):
            return any(e.to_dict() == target for e in t.edits)

        a = shrink_eco_trace(trace, predicate)
        b = shrink_eco_trace(trace, predicate)
        assert a.num_edits == 1
        assert a.edits_json() == b.edits_json()

    def test_restricted_predicate_ignores_other_checks(self):
        trace = generate_eco_trace("pred", "tiny", index=0, n_edits=2)
        predicate = failure_predicate(
            checks={"eco-parity[topological]"}, differential=run_eco_differential
        )
        # a green trace is uninteresting under any restriction
        assert predicate(trace) is False


class TestCorpusRoundTrip:
    def test_saved_trace_replays_identically(self, tmp_path):
        trace = generate_eco_trace("corpus", "tiny", index=0)
        failures = [CheckFailure("eco-parity[topological]", "synthetic")]
        base = FAMILIES["eco"].save(str(tmp_path), trace, failures, trace)
        entry = load_entry(str(tmp_path), base)
        assert entry.metadata["family"] == "eco"
        assert entry.failed_checks == ["eco-parity[topological]"]
        rebuilt = trace_from_entry(entry.case, entry.metadata)
        assert rebuilt.edits_json() == trace.edits_json()
        assert rebuilt.seed == trace.seed
        # replay dispatches through the eco differential and, with the
        # stock suite, must come back green (the regression direction)
        result = replay_entry(entry)
        assert result.ok, [str(f) for f in result.failures]
