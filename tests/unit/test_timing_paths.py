"""Unit tests for path enumeration and false-path classification."""

import pytest

from collections import Counter

from repro.circuits import carry_skip_adder, carry_skip_block, figure4, parity_tree
from repro.errors import NetworkError, TimingError
from repro.network import Network
from repro.obs import start_trace, stop_trace
from repro.timing.paths import (
    Path,
    classify_path,
    classify_paths,
    enumerate_paths,
    false_path_report,
    is_statically_sensitizable,
    longest_paths,
    static_sensitization_condition,
)


class TestEnumeration:
    def test_figure4_paths(self):
        paths = enumerate_paths(figure4())
        tuples = {p.nodes for p in paths}
        assert tuples == {
            ("x1", "w", "z"),
            ("x2", "w", "z"),
            ("x2", "z"),
        }

    def test_sorted_by_delay(self):
        paths = enumerate_paths(figure4())
        delays = [p.delay for p in paths]
        assert delays == sorted(delays, reverse=True)
        assert delays[0] == 2.0

    def test_longest_paths(self):
        tops = longest_paths(figure4())
        assert all(p.delay == 2.0 for p in tops)
        assert len(tops) == 2

    def test_path_budget(self):
        # a parity tree of 16 inputs has plenty of paths
        with pytest.raises(NetworkError):
            enumerate_paths(parity_tree(16), max_paths=3)

    def test_restrict_outputs(self):
        net = carry_skip_block()
        paths = enumerate_paths(net, to_outputs=["cout"])
        assert all(p.end == "cout" for p in paths)


class TestStaticSensitization:
    def test_xor_paths_always_sensitizable(self):
        net = parity_tree(4)
        for path in enumerate_paths(net):
            assert is_statically_sensitizable(net, path)

    def test_fig4_direct_path_condition(self):
        net = figure4()
        cond = static_sensitization_condition(net, ("x2", "z"))
        m = cond.manager
        # z = w & x2 flips with x2 iff w = 1 iff x1 = x2 = 1
        assert cond == (m.var("x1") & m.var("x2"))

    def test_constant_circuit_documents_static_optimism(self):
        # z = AND(a, NOT a) is constant 0, yet static sensitization calls
        # the path (a, na, z) sensitizable at a = 1 — the classical
        # optimism of the criterion (it ignores the on-path signal's own
        # value).  Under XBD0 the verdict is nevertheless consistent: for
        # a = 1, z's value *is* determined through na at time 2.
        net = Network("const0")
        net.add_input("a")
        net.add_gate("na", "NOT", ["a"])
        net.add_gate("z", "AND", ["a", "na"])
        net.set_outputs(["z"])
        cond = static_sensitization_condition(net, ("a", "na", "z"))
        m = cond.manager
        assert cond == m.var("a")

    def test_malformed_path_rejected(self):
        net = figure4()
        with pytest.raises(NetworkError):
            static_sensitization_condition(net, ("x1", "z"))  # x1 not fanin of z
        with pytest.raises(TimingError):
            static_sensitization_condition(net, ("x1",))


class TestClassification:
    def test_carry_skip_ripple_is_false(self):
        net = carry_skip_block()
        tops = longest_paths(net)
        # the padded ripple paths are the longest and are false
        assert tops
        for path in tops:
            assert classify_path(net, path) == "false"

    def test_fig4_long_path_is_true(self):
        net = figure4()
        top = longest_paths(net)
        verdicts = {classify_path(net, p) for p in top}
        assert "true" in verdicts

    def test_non_output_endpoint_rejected(self):
        net = figure4()
        with pytest.raises(TimingError):
            classify_path(net, Path(nodes=("x1", "w"), delay=1.0))

    def test_report_counts(self):
        net = carry_skip_block()
        report = false_path_report(net)
        assert report["false"] >= 1
        assert report["true"] >= 1
        assert sum(report.values()) == len(enumerate_paths(net))

    def test_parity_tree_has_no_false_paths(self):
        report = false_path_report(parity_tree(8))
        assert report["false"] == 0

    def test_arrival_offsets_shift_verdicts(self):
        net = figure4()
        # delay x1: the x1 path now dominates and is true; the shorter x2
        # paths are never "false" (falsity means *longer* than the exact
        # arrival), they are merely non-critical
        report = false_path_report(net, arrivals={"x1": 5.0})
        assert report["false"] == 0
        assert report["true"] >= 1


def chi_spans(run) -> Counter:
    """How many spans of each ``chi.*`` kind ``run()`` opens."""
    start_trace()
    try:
        run()
    finally:
        trace = stop_trace()
    return Counter(s.name for s, _ in trace.walk() if s.name.startswith("chi."))


class TestOneEngine:
    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_shared_endpoint_computes_one_true_arrival(self, engine):
        net = carry_skip_adder(3, 3)
        paths = longest_paths(net)
        assert len(paths) == 4 and len({p.end for p in paths}) == 1
        verdicts = []
        spans = chi_spans(
            lambda: verdicts.extend(classify_paths(net, paths, engine=engine))
        )
        assert verdicts == [classify_path(net, p, engine=engine) for p in paths]
        assert spans["chi.candidate_times"] == 1
        assert spans["chi.true_arrival"] == 1

    def test_report_computes_one_true_arrival_per_endpoint(self):
        net = carry_skip_block()
        spans = chi_spans(lambda: false_path_report(net))
        assert spans["chi.candidate_times"] == 1
        assert spans["chi.true_arrival"] == len(net.outputs)
