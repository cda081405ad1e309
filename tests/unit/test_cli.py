"""Unit tests for the command-line interface."""

import json

import pytest

from repro.circuits import carry_skip_adder, carry_skip_block, figure4
from repro.cli import main
from repro.network import write_bench, write_blif


@pytest.fixture
def fig4_blif(tmp_path):
    path = tmp_path / "fig4.blif"
    path.write_text(write_blif(figure4()))
    return str(path)


@pytest.fixture
def cskip_bench(tmp_path):
    path = tmp_path / "cskip.bench"
    path.write_text(write_bench(carry_skip_block()))
    return str(path)


class TestStats:
    def test_blif(self, fig4_blif, capsys):
        assert main(["stats", fig4_blif]) == 0
        out = capsys.readouterr().out
        assert "inputs:  2" in out
        assert "gates:   2" in out

    def test_bench(self, cskip_bench, capsys):
        assert main(["stats", cskip_bench]) == 0
        out = capsys.readouterr().out
        assert "inputs:  5" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent.blif"]) == 1
        assert "error" in capsys.readouterr().err


class TestDelay:
    def test_reports_false_longest_path(self, cskip_bench, capsys):
        assert main(["delay", cskip_bench]) == 0
        out = capsys.readouterr().out
        assert "longest path false" in out
        assert "1 of 1 outputs" in out

    def test_no_false_paths_on_fig4(self, fig4_blif, capsys):
        assert main(["delay", fig4_blif]) == 0
        out = capsys.readouterr().out
        assert "0 of 1 outputs" in out


class TestRequired:
    def test_approx1_on_fig4(self, fig4_blif, capsys):
        assert main(
            ["required", fig4_blif, "--method", "approx1", "--required", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "non-trivial: yes" in out
        assert "prime 1:" in out

    def test_approx2_on_cskip(self, cskip_bench, capsys):
        assert main(
            ["required", cskip_bench, "--method", "approx2", "--engine", "bdd"]
        ) == 0
        out = capsys.readouterr().out
        assert "non-trivial: yes" in out
        assert "loosest validated required times" in out

    def test_json_output(self, fig4_blif, capsys):
        assert main(
            [
                "required",
                fig4_blif,
                "--method",
                "topological",
                "--required",
                "2",
                "--json",
            ]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["method"] == "topological"
        assert row["nontrivial"] is False

    def test_exact_with_node_budget_abort(self, cskip_bench, capsys):
        assert main(
            [
                "required",
                cskip_bench,
                "--method",
                "exact",
                "--max-nodes",
                "200",
            ]
        ) == 0
        assert "ABORTED" in capsys.readouterr().out


class TestSlack:
    def test_default_required_is_topo_delay(self, cskip_bench, capsys):
        assert main(["slack", cskip_bench]) == 0
        out = capsys.readouterr().out
        assert "required time at outputs: 8" in out
        assert "inf" in out  # the padding buffers recover infinite slack


class TestPaths:
    def test_longest_paths_classified(self, cskip_bench, capsys):
        assert main(["paths", cskip_bench]) == 0
        out = capsys.readouterr().out
        assert "false" in out
        assert "->" in out

    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    @pytest.mark.parametrize(
        "builder, lines",
        [
            (carry_skip_block, [
                "1 longest path(s), delay 8:",
                "  [       false] cin -> cin_d1 -> cin_d2 -> a1 -> c1 -> a2 -> c2 "
                "-> v -> cout",
            ]),
            (lambda: carry_skip_adder(3, 3), [
                "4 longest path(s), delay 13:",
                *(
                    f"  [       false] {start} -> {via} -> c1 -> c2 -> c3 -> skip0 "
                    "-> c4 -> c5 -> c6 -> skip1 -> c7 -> c8 -> c9 -> skip2"
                    for start in ("a0", "b0") for via in ("g0", "p0")
                ),
            ]),
        ],
        ids=["carry_skip_block", "carry_skip_adder_3_3"],
    )
    def test_verdict_lines_are_fixed(self, tmp_path, capsys, builder, lines, engine):
        path = tmp_path / "net.blif"
        path.write_text(write_blif(builder()))
        assert main(["paths", str(path), "--engine", engine]) == 0
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


class TestReport:
    def test_report_datasheet(self, cskip_bench, capsys):
        assert main(
            ["report", cskip_bench, "--required", "8", "--method", "approx2"]
        ) == 0
        out = capsys.readouterr().out
        assert "timing report" in out
        assert "longest path false" in out
        assert "non-trivial" in out

    def test_report_without_required_analysis(self, fig4_blif, capsys):
        assert main(["report", fig4_blif, "--method", "none", "--required", "2"]) == 0
        out = capsys.readouterr().out
        assert "circuit delay" in out
        assert "required-time analysis" not in out


class TestFuzz:
    def test_smoke_run(self, capsys):
        assert main(["fuzz", "--seed", "1", "--budget", "3", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tiny-0000-" in out
        assert "0 failures" in out

    def test_json_report(self, capsys):
        assert main(
            ["fuzz", "--seed", "1", "--budget", "2", "--profile", "tiny", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cases"] == 2
        assert report["failures"] == 0
        assert len(report["verdicts"]) == 2

    def test_unknown_profile(self, capsys):
        assert main(["fuzz", "--profile", "nope"]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_replay_corpus(self, tmp_path, capsys):
        from repro.fuzz import generate_case, save_repro
        from repro.fuzz.checks import CheckFailure

        case = generate_case(3, "tiny", 1)
        save_repro(str(tmp_path), case, [CheckFailure("hierarchy", "synthetic")])
        assert main(["fuzz", "--replay", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert case.case_id in out
        assert "0 still failing" in out

    def test_replay_empty_dir(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path)]) == 0
        assert "no corpus entries" in capsys.readouterr().out


class TestRequiredSharded:
    def test_jobs_two_matches_serial_verdict(self, cskip_bench, capsys):
        assert main(
            ["required", cskip_bench, "--method", "approx2", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded per output, jobs=2" in out
        assert "non-trivial: yes" in out
        assert "merged required times" in out

    def test_json_row_records_jobs(self, cskip_bench, capsys):
        assert main(
            ["required", cskip_bench, "--method", "topological",
             "--jobs", "2", "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["jobs"] == 2
        assert row["run"]["tasks"] >= 1
        assert row["task_errors"] == []

    def test_sharded_json_matches_serial_times(self, cskip_bench, capsys):
        assert main(
            ["required", cskip_bench, "--method", "topological",
             "--required", "2", "--json"]
        ) == 0
        capsys.readouterr()  # serial row has no input_times; compare via merge
        assert main(
            ["required", cskip_bench, "--method", "topological",
             "--required", "2", "--jobs", "2", "--json"]
        ) == 0
        merged = json.loads(capsys.readouterr().out)
        # the min-merge over per-output cones is exact for topological
        assert merged["input_times"] == {
            "cin": "-6", "g0": "-4", "g1": "-2", "p0": "-5", "p1": "-3",
        }

    def test_negative_jobs_rejected(self, cskip_bench, capsys):
        assert main(
            ["required", cskip_bench, "--method", "topological", "--jobs", "-1"]
        ) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_trace_spans_cover_sharded_run(self, cskip_bench, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(
            ["required", cskip_bench, "--method", "topological",
             "--jobs", "2", "--trace", str(out)]
        ) == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert "trace:" in err


class TestFuzzJobs:
    def test_jobs_two_report_matches_serial(self, capsys):
        assert main(
            ["fuzz", "--seed", "5", "--budget", "4", "--profile", "tiny",
             "--json"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(
            ["fuzz", "--seed", "5", "--budget", "4", "--profile", "tiny",
             "--jobs", "2", "--json"]
        ) == 0
        pooled = json.loads(capsys.readouterr().out)
        scase = [
            {k: v[k] for k in ("index", "case_id", "ok", "failed_checks")}
            for v in serial["verdicts"]
        ]
        pcase = [
            {k: v[k] for k in ("index", "case_id", "ok", "failed_checks")}
            for v in pooled["verdicts"]
        ]
        assert scase == pcase
