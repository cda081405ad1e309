"""Invariants of :class:`repro.eco.NetworkSession` and the edit types.

The load-bearing contract is atomicity: an invalid edit must raise the
typed :class:`~repro.errors.EcoError` *before* any mutation, leaving the
network, the cone digests, the cached rows, the delay model, and the
required map observably unchanged (checked here by copy-compare).  The
rest covers the :class:`EditResult` ledger, the session views, and the
JSON trace round-trip.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits.examples import c17, figure4
from repro.eco import (
    AddNode,
    EcoError,
    NetworkSession,
    RemoveNode,
    Resubstitute,
    RetargetFanout,
    RetargetOutputs,
    SetDelay,
    edit_from_dict,
    edits_from_json,
)
from repro.errors import TimingError
from repro.network import Network


def snapshot(session: NetworkSession) -> str:
    """Everything an edit could observably change, canonically encoded."""
    return json.dumps(
        {
            "rows": session.rows(),
            "digests": session.digests(),
            "merged_json": str(sorted(session.merged().items())),
            "outputs": list(session.network.outputs),
            "nodes": sorted(session.network.nodes),
            "fanins": {
                n: list(node.fanins) for n, node in session.network.nodes.items()
            },
            "required": session.required,
            "edits_applied": session.edits_applied,
        },
        sort_keys=True,
        default=str,
    )


INVALID_EDITS = [
    pytest.param(Resubstitute(name="nope", fanins=("G1",), gate="BUF"),
                 id="resubstitute-unknown-node"),
    pytest.param(Resubstitute(name="G10", fanins=("nope",), gate="BUF"),
                 id="resubstitute-dangling-fanin"),
    pytest.param(Resubstitute(name="G10", fanins=("G10",), gate="BUF"),
                 id="resubstitute-self-loop"),
    pytest.param(Resubstitute(name="G11", fanins=("G1", "G19"), gate="AND"),
                 id="resubstitute-cycle"),
    pytest.param(Resubstitute(name="G1", fanins=("G2",), gate="BUF"),
                 id="resubstitute-primary-input"),
    pytest.param(Resubstitute(name="G10", fanins=("G1", "G1"), gate="AND"),
                 id="resubstitute-duplicate-fanin"),
    pytest.param(Resubstitute(name="G10", fanins=("G1", "G2")),
                 id="resubstitute-no-function"),
    pytest.param(
        Resubstitute(name="G10", fanins=("G1", "G2"), gate="AND", cover=("11",)),
        id="resubstitute-gate-and-cover"),
    pytest.param(Resubstitute(name="G10", fanins=("G1", "G2"), gate="FROB"),
                 id="resubstitute-unknown-gate-kind"),
    pytest.param(
        Resubstitute(name="G10", fanins=("G1", "G2"), cover=("1",)),
        id="resubstitute-cover-width-mismatch"),
    pytest.param(
        Resubstitute(name="G10", fanins=("G1", "G2"), cover=("1x",)),
        id="resubstitute-cover-bad-char"),
    pytest.param(AddNode(name="G10", fanins=("G1",), gate="BUF"),
                 id="add-existing-node"),
    pytest.param(AddNode(name="", fanins=("G1",), gate="BUF"),
                 id="add-empty-name"),
    pytest.param(AddNode(name="new", fanins=(), gate="AND"),
                 id="add-no-fanins"),
    pytest.param(AddNode(name="new", fanins=("G1",), gate="AND"),
                 id="add-arity-mismatch"),
    pytest.param(RemoveNode(name="nope"), id="remove-unknown-node"),
    pytest.param(RemoveNode(name="G11"), id="remove-still-driven"),
    pytest.param(RemoveNode(name="G22"), id="remove-primary-output"),
    pytest.param(RetargetFanout(old="nope", new="G1"),
                 id="retarget-unknown-old"),
    pytest.param(RetargetFanout(old="G10", new="G10"),
                 id="retarget-identity"),
    pytest.param(RetargetFanout(old="G22", new="G1"),
                 id="retarget-no-fanout"),
    pytest.param(RetargetFanout(old="G1", new="G3"),
                 id="retarget-duplicate-fanin"),
    pytest.param(RetargetFanout(old="G11", new="G23"),
                 id="retarget-cycle"),
    pytest.param(SetDelay(name="nope", delay=1.0), id="delay-unknown-node"),
    pytest.param(SetDelay(name="G1", delay=1.0), id="delay-primary-input"),
    pytest.param(SetDelay(name="G10", delay=-1.0), id="delay-negative"),
    pytest.param(SetDelay(name="G10", delay=(1.0, -2.0)),
                 id="delay-negative-fall"),
    pytest.param(SetDelay(name="G10", delay="fast"), id="delay-non-numeric"),
    pytest.param(SetDelay(name="G10", delay=float("nan")), id="delay-nan"),
    pytest.param(SetDelay(name="G10", delay=float("inf")), id="delay-inf"),
    pytest.param(SetDelay(name="G10", delay=True), id="delay-bool"),
    pytest.param(SetDelay(name="G10", delay=([2.0, 1.0], 1.0)),
                 id="delay-lo-above-hi"),
    pytest.param(RetargetOutputs(outputs=()), id="outputs-empty"),
    pytest.param(RetargetOutputs(outputs=("nope",)), id="outputs-unknown"),
    pytest.param(RetargetOutputs(outputs=("G22", "G22")),
                 id="outputs-duplicate"),
    pytest.param(
        RetargetOutputs(outputs=("G22",), required=(("G23", 1.0),)),
        id="outputs-required-for-dropped"),
    pytest.param(
        RetargetOutputs(outputs=("G22",), required=(("G22", "soon"),)),
        id="outputs-required-not-a-number"),
    pytest.param(
        RetargetOutputs(outputs=("G22",), required=(("G22", float("nan")),)),
        id="outputs-required-nan"),
]


class TestAtomicity:
    @pytest.mark.parametrize("edit", INVALID_EDITS)
    def test_invalid_edit_raises_and_changes_nothing(self, edit):
        session = NetworkSession(c17())
        before = snapshot(session)
        with pytest.raises(EcoError):
            session.apply_edit(edit)
        assert snapshot(session) == before

    def test_invalid_edit_dict_is_equally_atomic(self):
        session = NetworkSession(c17())
        before = snapshot(session)
        with pytest.raises(EcoError):
            session.apply_edit({"kind": "remove_node", "name": "G22"})
        assert snapshot(session) == before

    def test_unknown_edit_kind_raises(self):
        with pytest.raises(EcoError, match="unknown edit kind"):
            edit_from_dict({"kind": "warp"})

    def test_missing_field_raises_eco_error(self):
        with pytest.raises(EcoError, match="missing field"):
            edit_from_dict({"kind": "set_delay", "name": "G10"})


class TestSessionBasics:
    def test_no_outputs_is_rejected(self):
        net = Network("empty")
        net.add_input("a")
        with pytest.raises(EcoError, match="no outputs"):
            NetworkSession(net)

    def test_bad_required_map_is_a_timing_error(self):
        missing = r"missing required times for outputs \['G23'\]"
        with pytest.raises(TimingError, match=missing):
            NetworkSession(c17(), output_required={"G22": 1.0})
        with pytest.raises(TimingError, match=r"non-outputs \['G10'\]"):
            NetworkSession(c17(), output_required={"G22": 1.0, "G23": 1.0, "G10": 0.0})

    def test_cold_session_has_all_rows(self):
        session = NetworkSession(c17())
        assert sorted(session.rows()) == ["G22", "G23"]
        assert sorted(session.digests()) == ["G22", "G23"]
        assert session.failed == []
        assert session.edits_applied == 0

    def test_edit_result_ledger(self):
        session = NetworkSession(c17())
        result = session.apply_edit(
            Resubstitute(name="G10", fanins=("G1", "G3"), gate="AND")
        )
        # G10 feeds only G22's cone in C17
        assert result.candidates == ["G22"]
        assert result.dirty == ["G22"]
        assert result.clean == [] and result.cached == []
        assert result.ok
        report = result.report()
        assert report["edit"]["kind"] == "resubstitute"
        assert report["recomputed"] == ["G22"]
        assert session.edits_applied == 1

    def test_undo_replays_from_the_session_cache(self):
        session = NetworkSession(c17())
        first = session.apply_edit(
            Resubstitute(name="G10", fanins=("G1", "G3"), gate="AND")
        )
        assert first.dirty == ["G22"]
        undo = session.apply_edit(
            Resubstitute(name="G10", fanins=("G1", "G3"), gate="NAND")
        )
        # the pre-edit cone digest is back, so its row comes from cache
        assert undo.cached == ["G22"] and undo.dirty == []
        assert session.verify_against_full_recompute() == []

    def test_add_node_dirties_nothing_until_consumed(self):
        session = NetworkSession(c17())
        added = session.apply_edit(
            AddNode(name="spare", fanins=("G1", "G2"), gate="AND")
        )
        assert added.candidates == []
        retarget = session.apply_edit(RetargetFanout(old="G10", new="spare"))
        assert retarget.candidates == ["G22"]
        assert session.verify_against_full_recompute() == []

    def test_remove_node_after_rerouting(self):
        session = NetworkSession(c17())
        session.apply_edit(AddNode(name="spare", fanins=("G1", "G3"), gate="NAND"))
        session.apply_edit(RetargetFanout(old="G10", new="spare"))
        removed = session.apply_edit(RemoveNode(name="G10"))
        assert removed.candidates == []
        assert "G10" not in session.network.nodes
        assert session.verify_against_full_recompute() == []

    def test_retarget_outputs_adds_and_removes(self):
        session = NetworkSession(c17())
        result = session.apply_edit(
            RetargetOutputs(outputs=("G22", "G16"), required=(("G16", 1.0),))
        )
        assert result.added == ["G16"] and result.removed == ["G23"]
        assert sorted(session.rows()) == ["G16", "G22"]
        assert session.required == {"G22": 0.0, "G16": 1.0}
        # the dropped output's state is really gone
        assert "G23" not in session.digests()
        assert session.verify_against_full_recompute() == []

    def test_set_delay_changes_only_containing_cones(self):
        session = NetworkSession(c17())
        before = session.digests()
        result = session.apply_edit(SetDelay(name="G10", delay=3.0))
        after = session.digests()
        assert result.candidates == ["G22"]
        assert after["G23"] == before["G23"]
        assert after["G22"] != before["G22"]
        assert session.verify_against_full_recompute() == []

    def test_widened_set_delay_keeps_parity_in_other_cones(self):
        # the interval stamp follows the cone's own restricted model, so
        # cone G23 keeps its point row after G22 gains a [lo, hi] bound
        session = NetworkSession(c17())
        result = session.apply_edit(
            SetDelay(name="G22", delay=([0.5, 1.5], [0.5, 1.5]))
        )
        assert result.candidates == ["G22"]
        assert "interval" in session.rows()["G22"]["digest"]
        assert "interval" not in session.rows()["G23"]["digest"]
        assert session.verify_against_full_recompute() == []

    def test_apply_trace_applies_in_order(self):
        session = NetworkSession(figure4())
        results = session.apply_trace(
            [
                {"kind": "set_delay", "name": "w", "delay": 2.0},
                {"kind": "resubstitute", "name": "z",
                 "fanins": ["w", "x2"], "gate": "OR"},
            ]
        )
        assert [r.edit.kind for r in results] == ["set_delay", "resubstitute"]
        assert session.edits_applied == 2
        assert session.verify_against_full_recompute() == []


class TestTraceFormat:
    def test_edit_round_trips_through_dict(self):
        edits = [
            AddNode(name="n", fanins=("G1",), gate="BUF"),
            AddNode(name="m", fanins=("G1", "G2"), cover=("11", "0-")),
            RemoveNode(name="n"),
            Resubstitute(name="G10", fanins=("G1", "G3"), gate="AND"),
            RetargetFanout(old="G10", new="G11"),
            SetDelay(name="G10", delay=2.0),
            SetDelay(name="G10", delay=(1.0, 2.0)),
            RetargetOutputs(outputs=("G22",), required=(("G22", 1.0),)),
        ]
        for edit in edits:
            rebuilt = edit_from_dict(edit.to_dict())
            assert rebuilt.to_dict() == edit.to_dict(), edit

    def test_edits_from_json_accepts_document_and_bare_list(self):
        specs = [{"kind": "set_delay", "name": "G10", "delay": 1.0}]
        assert len(edits_from_json({"edits": specs})) == 1
        assert len(edits_from_json(specs)) == 1
        with pytest.raises(EcoError, match="list of edit objects"):
            edits_from_json({"edits": "nope"})
