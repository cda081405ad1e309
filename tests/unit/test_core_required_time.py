"""Unit tests for the shared result types and the unified facade."""

import pytest

from repro.circuits import c17, carry_skip_adder, figure4, parity_tree
from repro.core import (
    Approx1Analysis,
    Approx2Analysis,
    ExactAnalysis,
    enumerate_leaf_times,
)
from repro.core.required_time import (
    INF,
    RequiredTimeProfile,
    analyze_required_times,
    format_time,
    topological_input_required_times,
)
from repro.errors import TimingError
from repro.timing import ChiUnrolling, FunctionalTiming


class TestBaseline:
    def test_fig4_baseline(self):
        base = topological_input_required_times(figure4(), output_required=2.0)
        assert base == {"x1": 0.0, "x2": 0.0}

    def test_zero_required(self):
        base = topological_input_required_times(figure4(), output_required=0.0)
        assert base == {"x1": -2.0, "x2": -2.0}


class TestProfile:
    def test_construction_and_lookup(self):
        p = RequiredTimeProfile.from_dict({"a": (1.0, 2.0), "b": (INF, 0.0)})
        assert p.of("a") == (1.0, 2.0)
        assert p.of("b") == (INF, 0.0)
        with pytest.raises(TimingError):
            p.of("ghost")

    def test_value_independent(self):
        p = RequiredTimeProfile.from_dict({"a": (1.0, 2.0), "b": (INF, 0.0)})
        assert p.value_independent() == {"a": 1.0, "b": 0.0}

    def test_looseness_comparisons(self):
        base = {"a": 0.0, "b": 0.0}
        same = RequiredTimeProfile.from_dict({"a": (0.0, 0.0), "b": (0.0, 0.0)})
        looser = RequiredTimeProfile.from_dict({"a": (1.0, 0.0), "b": (0.0, 0.0)})
        tighter = RequiredTimeProfile.from_dict({"a": (-1.0, -1.0), "b": (0.0, 0.0)})
        assert same.is_at_least_as_loose_as(base)
        assert not same.is_strictly_looser_than(base)
        assert looser.is_strictly_looser_than(base)
        assert not tighter.is_at_least_as_loose_as(base)

    def test_hashable(self):
        p1 = RequiredTimeProfile.from_dict({"a": (1.0, 2.0)})
        p2 = RequiredTimeProfile.from_dict({"a": (1.0, 2.0)})
        assert len({p1, p2}) == 1

    def test_format_time(self):
        assert format_time(INF) == "inf"
        assert format_time(2.0) == "2"


class TestFacade:
    def test_all_methods_run_on_fig4(self):
        expectations = {
            "topological": False,
            "exact": True,
            "approx1": True,
            "approx2": False,  # value-independent search misses fig4
        }
        for method, nontrivial in expectations.items():
            report = analyze_required_times(
                figure4(), method, output_required=2.0
            )
            assert report.method == method
            assert report.nontrivial == nontrivial, method
            assert not report.aborted
            assert report.elapsed >= 0.0

    def test_approx2_on_carry_skip(self):
        report = analyze_required_times(
            carry_skip_adder(2, 3), "approx2", output_required=0.0, engine="bdd"
        )
        assert report.nontrivial
        assert report.time_to_first_nontrivial is not None
        assert report.time_to_first_nontrivial <= report.elapsed

    def test_resource_abort_reported_not_raised(self):
        report = analyze_required_times(
            carry_skip_adder(2, 3), "exact", output_required=0.0, max_nodes=200
        )
        assert report.aborted
        assert report.abort_reason
        assert not report.nontrivial

    def test_unknown_method_rejected(self):
        with pytest.raises(TimingError):
            analyze_required_times(figure4(), "magic", output_required=2.0)

    @pytest.mark.parametrize("method", ["topological", "exact", "approx1", "approx2"])
    def test_required_map_naming_an_internal_node_rejected(self, method):
        # every method applies the one boundary rule the cache keys use
        with pytest.raises(TimingError, match=r"non-outputs \['G10'\]"):
            analyze_required_times(
                c17(), method, output_required={"G22": 1, "G23": 1, "G10": -5}
            )

    @pytest.mark.parametrize(
        "entry",
        ["enumerate_leaf_times", "exact", "approx1", "approx2", "all_stable_by"],
    )
    def test_direct_entry_points_reject_an_internal_node(self, entry):
        # the analysis classes apply the facade's boundary rule themselves
        net = c17()
        required = {"G22": 1, "G23": 1, "G10": -5}
        run = {
            "enumerate_leaf_times": lambda: enumerate_leaf_times(
                ChiUnrolling(net), required
            ),
            "exact": lambda: ExactAnalysis(net, output_required=required).relation(),
            "approx1": lambda: Approx1Analysis(net, output_required=required).run(),
            "approx2": lambda: Approx2Analysis(net, output_required=required).run(),
            "all_stable_by": lambda: FunctionalTiming(net).all_stable_by(required),
        }[entry]
        with pytest.raises(TimingError, match="G10"):
            run()

    def test_table_row_shape(self):
        report = analyze_required_times(parity_tree(4), "approx1", output_required=0.0)
        row = report.table_row()
        assert set(row) == {
            "circuit",
            "method",
            "nontrivial",
            "cpu_time",
            "first_nontrivial",
            "aborted",
            "bdd_backend",
        }
        # the kernel-provenance stamp rides only on the BDD-bound methods
        assert set(row["bdd_backend"]) == {
            "requested",
            "resolved",
            "effective",
            "fallback_reason",
        }
        topo = analyze_required_times(
            parity_tree(4), "topological", output_required=0.0
        )
        assert "bdd_backend" not in topo.table_row()


class TestCrossMethodConsistency:
    def test_hierarchy_of_looseness_flags(self):
        """exact ⊇ approx1 ⊇ approx2 in non-triviality detection."""
        for net, req in [
            (figure4(), 2.0),
            (parity_tree(4), 0.0),
            (carry_skip_adder(2, 2), 0.0),
        ]:
            exact = analyze_required_times(net.copy(), "exact", output_required=req)
            a1 = analyze_required_times(net.copy(), "approx1", output_required=req)
            a2 = analyze_required_times(
                net.copy(), "approx2", output_required=req, engine="bdd"
            )
            if a2.nontrivial:
                assert a1.nontrivial, net.name
            if a1.nontrivial:
                assert exact.nontrivial, net.name
