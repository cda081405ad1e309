"""CLI surface of the result cache: `required --cache-dir` and `repro cache`."""

import json
import os

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
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestRequiredWithCache:
    def test_cold_then_warm_status_line(self, fig4_blif, cache_dir, capsys):
        argv = ["required", fig4_blif, "--method", "approx1",
                "--required", "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert "miss (" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hit (" in capsys.readouterr().out

    def test_warm_json_is_bit_identical(self, fig4_blif, cache_dir, capsys):
        argv = ["required", fig4_blif, "--method", "exact",
                "--required", "2", "--json", "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold.pop("cache") == "miss" and warm.pop("cache") == "hit"
        assert cold == warm  # including the elapsed field (stored cold time)

    def test_no_cache_overrides_env(self, fig4_blif, cache_dir, capsys,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        argv = ["required", fig4_blif, "--method", "topological", "--no-cache"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert not os.path.exists(cache_dir)

    def test_env_var_enables_cache(self, fig4_blif, cache_dir, capsys,
                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        argv = ["required", fig4_blif, "--method", "topological"]
        assert main(argv) == 0
        assert "miss (" in capsys.readouterr().out
        assert main(argv) == 0
        assert "hit (" in capsys.readouterr().out

    def test_sharded_run_uses_cache(self, fig4_blif, cache_dir, capsys):
        argv = ["required", fig4_blif, "--method", "approx2", "--required",
                "2", "--jobs", "2", "--cache-dir", cache_dir, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["input_times"] == warm["input_times"]
        assert os.path.isdir(cache_dir)
        # the caller probes every cone: a warm run dispatches no task
        assert cold["run"]["tasks"] == 1 and warm["run"]["tasks"] == 0
        cold["run"], warm["run"] = {}, {}
        assert warm == cold


class TestCacheCommand:
    def test_stats_clear_gc(self, fig4_blif, cache_dir, capsys):
        main(["required", fig4_blif, "--method", "topological",
              "--cache-dir", cache_dir])
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1 and stats["bytes"] > 0

        assert main(["cache", "gc", "--cache-dir", cache_dir, "--json",
                     "--max-age-days", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_gc_byte_budget(self, fig4_blif, cache_dir, capsys):
        for method in ("topological", "approx1", "approx2"):
            main(["required", fig4_blif, "--method", method,
                  "--required", "2", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 3

    def test_no_cache_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err
