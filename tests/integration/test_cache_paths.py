"""One cache dir, every path: the canonical row is the same wherever it
comes from.

A required-time result reaches a user along two paths — whole network
(``cached_analyze_required_times``, a pooled ``required`` task, the
daemon's ``/required``) and per output cone (``required --jobs N``,
``incremental_required_times``, :class:`~repro.eco.NetworkSession`).
The matrix runs every path over one shared cache dir per order, in both
orders, so each path both writes entries and reads entries another path
wrote.  Single-output circuits (``figure4``, ``carry_skip_block``) key
identically whole and per cone, so their entries cross between the two
paths as well.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import (
    ResultCache,
    analyze_cones,
    cached_analyze_required_times,
    cone_keys,
    incremental_required_times,
    required_map,
)
from repro.circuits import c17, carry_skip_block, figure4, mcnc_suite
from repro.cli import main
from repro.core.required_time import format_time
from repro.eco import NetworkSession
from repro.network import write_blif
from repro.parallel import CircuitRef, required_time_task, run_batch
from repro.serve import ReproServer, ServerConfig

from tests.integration.serve_client import ServeClient

CIRCUITS = {"figure4": figure4, "carry_skip_block": carry_skip_block, "c17": c17}
METHODS = ("topological", "approx1", "approx2")
REQUIRED = 2.0
ORDERS = ("library-first", "cli-first")
#: the merged-view fields ``required --jobs N --json`` prints
MERGE_FIELDS = ("nontrivial", "nontrivial_merged", "input_times", "aborted_cones")


def options(method: str) -> dict:
    """The options ``repro required`` passes for ``method``."""
    return {"engine": "sat"} if method == "approx2" else {}


def dump(value) -> str:
    return json.dumps(value, sort_keys=True)


def timeless(table_row: dict) -> dict:
    """A table row with the measured times reduced to their nullness."""
    row = dict(table_row)
    row.pop("cpu_time")
    row["first_nontrivial"] = row["first_nontrivial"] is not None
    return row


def cli_view(merged: dict) -> dict:
    """A library merge in the shape ``required --jobs N --json`` prints."""
    return {
        "nontrivial": merged["nontrivial_any_cone"],
        "nontrivial_merged": merged["nontrivial_merged"],
        "input_times": {
            x: format_time(t) for x, t in sorted(merged["input_times"].items())
        },
        "aborted_cones": merged["aborted_cones"],
    }


@pytest.fixture(scope="module", params=ORDERS)
def shared(request, tmp_path_factory):
    """``(order, cache dir, daemon)``: one dir and one daemon per order."""
    cache_dir = str(tmp_path_factory.mktemp(f"paths-{request.param}"))
    config = ServerConfig(port=0, jobs=1, cache_dir=cache_dir)
    with ReproServer(config) as server:
        yield request.param, cache_dir, server


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("circuit", sorted(CIRCUITS))
def test_rows_identical_on_every_path(shared, circuit, method, tmp_path, capsys):
    order, cache_dir, server = shared
    net = CIRCUITS[circuit]()
    netlist = write_blif(net)
    blif = tmp_path / f"{circuit}.blif"
    blif.write_text(netlist)
    opts = options(method)
    #: label → (row, table row) of the whole-network paths
    whole: dict[str, tuple[dict, dict]] = {}
    #: label → {output: (row, table row)} of the per-cone paths
    cones: dict[str, dict[str, tuple[dict, dict]]] = {}
    #: label → merged view of the per-cone paths
    merged: dict[str, dict] = {}
    #: label → how many analyses the path ran (its cache misses)
    misses: dict[str, int] = {}

    def serial(label):
        result, hit = cached_analyze_required_times(
            net, method, ResultCache(cache_dir),
            output_required=REQUIRED, options=opts,
        )
        whole[label] = (result.row(), result.table_row())
        misses[label] = 0 if hit else 1

    def pooled(label):
        task = required_time_task(
            CircuitRef.inline(net), method, output_required=REQUIRED, options=opts
        )
        (outcome,) = run_batch([task], jobs=2).outcomes
        assert outcome.ok, outcome.error
        whole[label] = (outcome.value.row(), outcome.value.table_row())

    def served(label):
        status, payload, _ = ServeClient(server.port).post(
            "/required",
            {"circuit": {"netlist": netlist}, "method": method,
             "output_required": REQUIRED, "options": opts},
        )
        assert status == 200, payload
        whole[label] = (payload["row"], payload["table_row"])
        misses[label] = 0 if payload["cache"] == "hit" else 1

    def sharded(label):
        assert main(
            ["required", str(blif), "--method", method, "--required", "2",
             "--jobs", "2", "--cache-dir", cache_dir, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        merged[label] = {k: payload[k] for k in MERGE_FIELDS}
        misses[label] = payload["run"]["tasks"]

    def cone_step(label):
        run = analyze_cones(
            net, cone_keys(net, method, None, REQUIRED, opts), method,
            ResultCache(cache_dir), required_map(net, REQUIRED),
            options=opts, jobs=2,
        )
        cones[label] = {n: (r.row(), r.table_row()) for n, r in run.results.items()}
        misses[label] = len(run.dirty)

    def incremental(label):
        result = incremental_required_times(
            net, method, ResultCache(cache_dir),
            output_required=REQUIRED, options=opts,
        )
        assert result.ok
        merged[label] = cli_view(result.merged)
        misses[label] = len(result.dirty)

    def session(label):
        live = NetworkSession(
            net, method=method, output_required=REQUIRED, options=opts,
            cache=ResultCache(cache_dir),
        )
        cones[label] = {n: (row, None) for n, row in live.rows().items()}
        merged[label] = cli_view(live.merged())

    single = len(net.outputs) == 1
    if order == "library-first":
        serial("serial-cold")
        serial("serial-warm")
        pooled("pooled")
        served("served")
        session("session")
        incremental("incremental")
        cone_step("cones")
        sharded("cli-cold")
        sharded("cli-warm")
        expected = {"serial-cold": 1}
    else:
        sharded("cli-cold")
        sharded("cli-warm")
        incremental("incremental")
        session("session")
        cone_step("cones")
        served("served")
        served("served-again")
        serial("serial")
        pooled("pooled")
        # a single-output circuit's whole-network key is its cone's key
        expected = {"cli-cold": len(net.outputs), "served": 0 if single else 1}
    assert misses == {label: expected.get(label, 0) for label in misses}

    rows = {label: dump(row) for label, (row, _) in whole.items()}
    assert len(set(rows.values())) == 1, rows
    tables = {label: dump(timeless(table)) for label, (_, table) in whole.items()}
    assert len(set(tables.values())) == 1, tables
    cone_rows = {
        label: dump({n: row for n, (row, _) in per.items()})
        for label, per in cones.items()
    }
    assert len(set(cone_rows.values())) == 1, cone_rows
    for name, (row, _) in cones["cones"].items():
        assert row["outputs"] == [name] and row["circuit"] == net.name
    views = {label: dump(view) for label, view in merged.items()}
    assert len(set(views.values())) == 1, views
    if single:
        # one output: the cone is the network, and only the label differs
        (name,) = net.outputs
        row, table = cones["cones"][name]
        assert dump(dict(row, outputs=None)) == rows["pooled"]
        assert dump(timeless(table)) == tables["pooled"]


class TestCrossPathLabels:
    def test_sharded_entries_replay_in_eco(self, tmp_path, capsys):
        """Cone entries written by ``required --jobs 2`` read back in
        ``eco`` with the rows a full recompute gives."""
        blif = tmp_path / "c17.blif"
        blif.write_text(write_blif(c17()))
        trace = tmp_path / "trace.json"
        trace.write_text(
            json.dumps([{"kind": "set_delay", "name": "G19", "delay": 2.0}])
        )
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["required", str(blif), "--method", "approx2", "--jobs", "2",
             "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()
        assert main(
            ["eco", str(blif), str(trace), "--method", "approx2",
             "--cache-dir", cache_dir, "--verify"]
        ) == 0
        assert "diverged" not in capsys.readouterr().err

    def test_aborted_cones_name_the_cone_on_every_path(self, tmp_path, capsys):
        m2 = {spec.name: spec for spec in mcnc_suite()}["m2"].network
        opts = {"max_nodes": 2000}
        live = NetworkSession(m2, method="exact", options=opts)
        incremental = incremental_required_times(
            m2, "exact", ResultCache(None), options=opts
        )
        blif = tmp_path / "m2.blif"
        blif.write_text(write_blif(m2))
        assert main(
            ["required", str(blif), "--method", "exact", "--max-nodes", "2000",
             "--jobs", "2", "--no-cache", "--json"]
        ) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert m2.outputs == ["L7_0"]
        assert live.merged()["aborted_cones"] == ["L7_0"]
        assert incremental.merged["aborted_cones"] == ["L7_0"]
        assert sharded["aborted_cones"] == ["L7_0"]
