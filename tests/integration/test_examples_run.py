"""Integration: every shipped example runs end to end without errors.

The examples double as acceptance tests of the public API; each main() is
executed in-process and its stdout is checked for the headline claims.
"""

import importlib.util
import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with redirect_stdout(out):
        module.main()
    return out.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart")
        assert "prime of F(alpha, beta)" in out
        assert "non-trivial (looser than topological): True" in out

    def test_carry_skip_false_paths(self):
        out = run_example("carry_skip_false_paths")
        assert "longest path is false" in out
        assert "gained" in out

    def test_resynthesis_slack(self):
        out = run_example("resynthesis_slack")
        assert "gains" in out
        assert "false-path aware budget" in out

    def test_hierarchical_flexibility(self):
        out = run_example("hierarchical_flexibility")
        assert "satisfiability don't care" in out
        assert "required(d) = 5.5" in out

    def test_blackbox_macromodel(self):
        out = run_example("blackbox_macromodel")
        assert "max gap 0" in out
        assert "macro-model (exact)" in out

    def test_path_inspection(self):
        out = run_example("path_inspection")
        assert "verdict census" in out
        assert "[false]" in out
        assert "timing report" in out

    def test_interval_timing(self):
        out = run_example("interval_timing")
        assert out.count("scalar row == point-interval row") == 4
        assert "lo-corner (best_upper) nontrivial" in out
        assert '"model": "interval"' in out
