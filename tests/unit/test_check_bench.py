"""The benchmark gate runner: record/table agreement and failure paths.

The failure paths run stub scenarios whose commands are ``python -c``
payload writers, so no real benchmark runs here.
"""

import importlib.util
import json
import os
from fnmatch import fnmatch

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "check_bench", os.path.join(REPO, "scripts", "check_bench.py")
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)

#: writes the JSON in argv[1] to the path after ``--json``
WRITE = "import json, sys; json.dump(json.loads(sys.argv[1]), open(sys.argv[3], 'w'))"


def writer(payload: dict) -> list[str]:
    return ["-c", WRITE, json.dumps(payload), "--json", "{out}"]


def stub(serial_rows=({"x": 1},), pooled_rows=({"x": 1},), wall=1.0, speedup=9.0):
    """A two-run scenario: one parity pair, one floor, one gated metric."""
    return {
        "runs": lambda smoke, jobs: {
            "serial": writer({"rows": list(serial_rows), "wall": wall,
                              "speedup": speedup}),
            "pooled": writer({"rows": list(pooled_rows), "elapsed": 3}),
        },
        "parity": [("serial", "pooled")],
        "metrics": lambda runs: {
            "slow.wall": runs["serial"].payload["wall"],
            "speedup": runs["serial"].payload["speedup"],
        },
        "bounds": [check_bench.Bound("speedup floor", "speedup", ">=", 5.0)],
        "gated": {"slow.*": 0.25},
    }


RECORD = {"stub": {"config": {"python": "3"},
                   "metrics": {"slow.wall": 1.0, "speedup": 9.0}}}


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Point the runner at a temp record and payload directory."""
    record = tmp_path / "BENCH_gates.json"
    record.write_text(json.dumps(RECORD, indent=2) + "\n")
    monkeypatch.setattr(check_bench, "RECORD", record)
    monkeypatch.setattr(check_bench, "PAYLOAD_DIR", tmp_path / "payloads")

    def run(scenario, *argv):
        monkeypatch.setattr(check_bench, "SCENARIOS", {"stub": scenario})
        return check_bench.main(list(argv))

    run.record = record
    return run


class TestRecordMatchesTable:
    record = json.loads(check_bench.RECORD.read_text())

    def test_every_scenario_has_an_entry_and_no_entry_is_unknown(self):
        assert set(self.record) == set(check_bench.SCENARIOS)

    def test_every_gated_metric_has_a_recorded_number(self):
        for name, spec in check_bench.SCENARIOS.items():
            recorded = self.record[name]["metrics"]
            for pattern in spec["gated"]:
                matched = [k for k in recorded if fnmatch(k, pattern)]
                assert matched, f"{name}: gated {pattern!r} has no recorded number"

    def test_entries_have_one_shape(self):
        for name, entry in self.record.items():
            assert set(entry) == {"config", "metrics"}, name
            assert all(isinstance(v, (int, float)) for v in entry["metrics"].values())


class TestFailurePaths:
    def test_passing_stub_exits_zero(self, gate, capsys):
        assert gate(stub()) == 0
        out = capsys.readouterr().out
        assert "stub: slow.wall 1 (<= 1.25 = record 1 +25%)  ok" in out

    def test_differing_rows_fail_and_name_both_runs(self, gate, capsys):
        assert gate(stub(pooled_rows=({"x": 2},)), "--smoke") == 1
        out = capsys.readouterr().out
        assert "rows of serial and pooled differ  PARITY FAIL" in out

    def test_volatile_fields_do_not_break_parity(self, gate):
        rows = ({"x": 1, "elapsed": 0.5, "jobs": 2},)
        assert gate(stub(pooled_rows=rows), "--smoke") == 0

    def test_metric_over_its_record_fails_by_name(self, gate, capsys):
        assert gate(stub(wall=1.3)) == 1
        out = capsys.readouterr().out
        assert "stub: slow.wall 1.3 (<= 1.25 = record 1 +25%)  FAIL" in out

    def test_smoke_skips_the_record_comparison(self, gate):
        assert gate(stub(wall=1.3), "--smoke") == 0

    def test_missed_floor_fails(self, gate, capsys):
        assert gate(stub(speedup=4.0), "--smoke") == 1
        assert "stub: speedup floor 4 (>= 5)  FAIL" in capsys.readouterr().out

    def test_gated_metric_without_recorded_number_fails(self, gate, capsys):
        gate.record.write_text(json.dumps({"stub": {"config": {}, "metrics": {}}}))
        assert gate(stub()) == 1
        assert "slow.wall has no recorded number" in capsys.readouterr().out

    def test_failed_check_under_update_leaves_record_untouched(self, gate):
        before = gate.record.read_bytes()
        assert gate(stub(pooled_rows=({"x": 2},)), "--update") == 1
        assert gate(stub(speedup=4.0), "--update") == 1
        assert gate.record.read_bytes() == before

    def test_update_rewrites_the_entry_in_the_same_shape(self, gate):
        assert gate(stub(wall=7.0), "--update") == 0
        entry = json.loads(gate.record.read_text())["stub"]
        assert entry["metrics"] == {"slow.wall": 7.0, "speedup": 9.0}
        assert set(entry["config"]) == {"python", "cores"}

    @pytest.mark.parametrize("argv", [["--update", "--smoke"], ["nonesuch"]])
    def test_misuse_exits_2(self, gate, argv):
        with pytest.raises(SystemExit) as exc:
            gate(stub(), *argv)
        assert exc.value.code == 2

    def test_missing_record_exits_1(self, gate, capsys):
        gate.record.unlink()
        assert gate(stub(), "--smoke") == 1
        assert "BENCH_gates.json is missing" in capsys.readouterr().out

    def test_failing_command_fails_the_scenario(self, gate, capsys):
        boom = ["-c", "raise SystemExit(3)"]
        scenario = dict(stub(), runs=lambda smoke, jobs: {"boom": boom})
        assert gate(scenario, "--smoke") == 1
        assert "stub: boom exited 3  FAIL" in capsys.readouterr().out
