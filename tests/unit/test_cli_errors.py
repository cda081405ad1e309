"""Error paths of every CLI subcommand: exit codes and stderr messages.

Exit code convention:

* ``0`` — success
* ``1`` — a well-formed request failed (bad netlist, missing file,
  engine error, fuzz failures found)
* ``2`` — the request itself was invalid (conflicting flags, unknown
  profile; argparse uses the same code for unparseable argv)
"""

import json

import pytest

from repro.circuits import figure4
from repro.cli import main
from repro.network import write_blif


@pytest.fixture
def fig4_blif(tmp_path):
    path = tmp_path / "fig4.blif"
    path.write_text(write_blif(figure4()))
    return str(path)


@pytest.fixture
def bad_blif(tmp_path):
    path = tmp_path / "bad.blif"
    path.write_text(".model broken\n.inputs a\n.outputs z\n.names a z\n")
    return str(path)


@pytest.fixture
def garbage_blif(tmp_path):
    path = tmp_path / "garbage.blif"
    path.write_text("this is not a netlist at all\n")
    return str(path)


def _err(capsys) -> str:
    return capsys.readouterr().err


class TestMissingFile:
    """Every netlist-taking subcommand exits 1 on a missing file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "/nonexistent.blif"],
            ["delay", "/nonexistent.blif"],
            ["required", "/nonexistent.blif"],
            ["slack", "/nonexistent.blif"],
            ["paths", "/nonexistent.blif"],
            ["report", "/nonexistent.blif"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_1_with_error_on_stderr(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in _err(capsys)


class TestBadNetlist:
    def test_malformed_blif(self, garbage_blif, capsys):
        assert main(["stats", garbage_blif]) == 1
        assert "error" in _err(capsys)

    def test_malformed_blif_in_analysis(self, garbage_blif, capsys):
        assert main(["required", garbage_blif]) == 1
        assert "error" in _err(capsys)


class TestDelayErrors:
    def test_unknown_output_name(self, fig4_blif, capsys):
        assert main(["delay", fig4_blif, "--output", "nope"]) == 1
        err = _err(capsys)
        assert "error" in err
        assert "unknown output 'nope'" in err
        # the message lists the valid choices
        assert "outputs: z" in err

    def test_known_output_accepted(self, fig4_blif, capsys):
        assert main(["delay", fig4_blif, "--output", "z"]) == 0
        assert "1 outputs" in capsys.readouterr().out


class TestRequiredFlagConflicts:
    def test_budget_requires_approx2(self, fig4_blif, capsys):
        rc = main(
            ["required", fig4_blif, "--method", "exact", "--budget", "5"]
        )
        assert rc == 2
        err = _err(capsys)
        assert "--budget only applies to --method approx2" in err
        assert "got --method exact" in err

    def test_max_nodes_requires_bdd_method(self, fig4_blif, capsys):
        rc = main(
            ["required", fig4_blif, "--method", "approx2",
             "--max-nodes", "1000"]
        )
        assert rc == 2
        assert "--max-nodes only applies to --method exact/approx1" in _err(
            capsys
        )

    def test_conflict_detected_before_netlist_is_read(self, capsys):
        # flag validation must not depend on the netlist loading
        rc = main(
            ["required", "/nonexistent.blif", "--method", "topological",
             "--budget", "5"]
        )
        assert rc == 2
        assert "--budget" in _err(capsys)

    def test_valid_combinations_still_work(self, fig4_blif, capsys):
        assert main(
            ["required", fig4_blif, "--method", "approx2", "--budget", "5"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["required", fig4_blif, "--method", "exact",
             "--max-nodes", "100000"]
        ) == 0

    def test_unknown_method_rejected_by_argparse(self, fig4_blif, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["required", fig4_blif, "--method", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in _err(capsys)


class TestFuzzErrors:
    def test_unknown_profile(self, capsys):
        rc = main(["fuzz", "--profile", "bogus", "--budget", "1"])
        assert rc == 2
        err = _err(capsys)
        assert "unknown profile 'bogus'" in err
        assert "default" in err  # lists the valid profiles

    def test_replay_of_empty_corpus(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path)]) == 0
        assert "no corpus entries" in capsys.readouterr().out

    def test_unknown_family(self, capsys):
        rc = main(["fuzz", "--family", "orbit", "--budget", "1"])
        assert rc == 2
        err = _err(capsys)
        assert "unknown fuzz family 'orbit'" in err
        assert "interval" in err  # lists the family table


class TestJobsErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--budget", "1"],
            ["required", "missing.blif"],
            ["eco", "missing.blif", "missing.json"],
            ["serve"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_jobs_rejected(self, argv, capsys):
        # one check before dispatch: no netlist is read, no pool starts
        assert main(argv + ["--jobs", "-1"]) == 2
        assert "--jobs must be >= 0 (got -1)" in _err(capsys)


class TestTraceErrors:
    def test_missing_trace_file(self, capsys):
        assert main(["trace", "/nonexistent.jsonl"]) == 1
        assert "error" in _err(capsys)

    def test_empty_trace_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", str(path)]) == 1
        assert "empty" in _err(capsys)

    def test_non_trace_file(self, tmp_path, capsys):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"some": "json"}\n')
        assert main(["trace", str(path)]) == 1
        assert "repro-trace" in _err(capsys)

    def test_corrupt_span_line(self, tmp_path, capsys):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            json.dumps({"type": "repro-trace", "version": 1})
            + "\n{not json}\n"
        )
        assert main(["trace", str(path)]) == 1
        assert "line 2" in _err(capsys)

    def test_roundtrip_from_required_trace(self, fig4_blif, tmp_path, capsys):
        """The happy path the error cases guard: record, then read back."""
        trace_path = str(tmp_path / "run.jsonl")
        assert main(
            ["required", fig4_blif, "--method", "approx2",
             "--required", "2", "--trace", trace_path]
        ) == 0
        err = _err(capsys)
        assert "trace:" in err and "spans" in err
        assert main(["trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "cli.required" in out
        chrome_path = str(tmp_path / "run.chrome.json")
        assert main(["trace", trace_path, "--chrome", chrome_path]) == 0
        doc = json.loads(open(chrome_path).read())
        assert {e["ph"] for e in doc["traceEvents"]} <= {"M", "X"}


class TestArgparseSurface:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
