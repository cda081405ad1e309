"""Cross-feature parity of the ECO session.

The session's rows must be byte-identical no matter which execution
substrate runs the cones: the serial worker loop vs ``jobs=2``, the
object vs native BDD kernel (``REPRO_BDD_BACKEND``), and a warm
persistent :class:`ResultCache` vs a cold one.  The paper's worked
examples (figure4, C17) pin the actual numbers as goldens so a parity
bug that shifts *all* substrates at once is still caught.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import ResultCache
from repro.circuits.examples import c17, figure4
from repro.eco import NetworkSession, Resubstitute, SetDelay
from repro.fuzz import generate_eco_trace


def canon(session: NetworkSession) -> str:
    return json.dumps(
        {"rows": session.rows(), "merged": session.merged()},
        sort_keys=True,
        default=str,
    )


def replay(trace, **kwargs) -> NetworkSession:
    session = NetworkSession(
        trace.case.network,
        delays=trace.case.delays,
        output_required=trace.case.output_required,
        **kwargs,
    )
    session.apply_trace(trace.edits)
    return session


TRACES = [generate_eco_trace("xfeat", "tiny", index=i) for i in range(3)]
IDS = [t.trace_id for t in TRACES]


class TestSubstrateParity:
    @pytest.mark.parametrize("trace", TRACES, ids=IDS)
    def test_jobs2_matches_serial(self, trace):
        serial = replay(trace, method="topological", jobs=1)
        sharded = replay(trace, method="topological", jobs=2)
        assert canon(sharded) == canon(serial)

    @pytest.mark.parametrize("trace", TRACES, ids=IDS)
    def test_native_backend_matches_object(self, trace, monkeypatch):
        monkeypatch.setenv("REPRO_BDD_BACKEND", "object")
        with_object = replay(trace, method="exact")
        monkeypatch.setenv("REPRO_BDD_BACKEND", "native")
        with_native = replay(trace, method="exact")
        assert canon(with_native) == canon(with_object)

    @pytest.mark.parametrize("trace", TRACES, ids=IDS)
    def test_warm_cache_matches_cold(self, trace, tmp_path):
        cold = replay(trace, method="topological", cache=ResultCache(None))
        # prime the disk tier, then replay against the warm directory:
        # every cone must come back from cache with identical bytes
        replay(trace, method="topological", cache=ResultCache(str(tmp_path)))
        warm_session = replay(
            trace, method="topological", cache=ResultCache(str(tmp_path))
        )
        assert canon(warm_session) == canon(cold)


class TestPaperExampleGoldens:
    """The worked examples, edited and edited back: the final rows must
    be byte-identical to an untouched cold session *and* match the
    numbers the paper's analysis fixes."""

    def test_figure4_round_trip_golden(self):
        baseline = NetworkSession(figure4(), method="exact", output_required=2.0)
        session = NetworkSession(figure4(), method="exact", output_required=2.0)
        session.apply_edit(
            Resubstitute(name="z", fanins=("w", "x2"), gate="OR")
        )
        session.apply_edit(
            Resubstitute(name="z", fanins=("w", "x2"), gate="AND")
        )
        assert canon(session) == canon(baseline)
        # Section 4: unit delays, required 2 at z = x1·x2 through two
        # AND levels -> both inputs are required at 0
        row = session.rows()["z"]
        assert row["input_times"] == {"x1": 0.0, "x2": 0.0}
        assert row["nontrivial"] is True

    def test_c17_round_trip_golden(self):
        baseline = NetworkSession(c17(), method="topological")
        session = NetworkSession(c17(), method="topological")
        session.apply_edit(SetDelay(name="G10", delay=3.0))
        session.apply_edit(SetDelay(name="G10", delay=1.0))
        assert canon(session) == canon(baseline)
        # required 0 at both outputs, unit delays: each input is required
        # at minus its deepest path (G3/G6 reach depth 3 via G11-G16)
        merged = session.merged()
        assert merged["input_times"] == {
            "G1": -2.0, "G2": -2.0, "G3": -3.0, "G6": -3.0, "G7": -2.0
        }

    def test_c17_survives_all_substrates_at_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BDD_BACKEND", "native")
        baseline = NetworkSession(c17(), method="exact")
        session = NetworkSession(
            c17(),
            method="exact",
            cache=ResultCache(str(tmp_path)),
            jobs=2,
        )
        session.apply_edit(
            Resubstitute(name="G10", fanins=("G1", "G3"), gate="AND")
        )
        session.apply_edit(
            Resubstitute(name="G10", fanins=("G1", "G3"), gate="NAND")
        )
        assert canon(session) == canon(baseline)
        assert session.verify_against_full_recompute() == []
