"""Unit tests for approximate approach 2 (Section 4.3): the lattice climb."""

import pytest

from repro.circuits import carry_skip_adder, figure4, parity_tree
from repro.core.approx2 import Approx2Analysis
from repro.core.required_time import topological_input_required_times
from repro.errors import ResourceLimitError
from repro.timing.functional import FunctionalTiming


@pytest.fixture(scope="module")
def cskip_result():
    return Approx2Analysis(
        carry_skip_adder(2, 3), output_required=0.0, engine="bdd"
    ).run()


class TestBottom:
    def test_bottom_equals_topological(self):
        net = carry_skip_adder(2, 3)
        analysis = Approx2Analysis(net, output_required=0.0)
        bottom = analysis.r_bottom()
        topo = topological_input_required_times(net, output_required=0.0)
        for pi, t in bottom.items():
            assert t == topo[pi]

    def test_bottom_is_valid(self):
        net = carry_skip_adder(2, 3)
        analysis = Approx2Analysis(net, output_required=0.0, engine="bdd")
        assert analysis._validate(analysis.r_bottom())


class TestClimb:
    def test_carry_skip_nontrivial(self, cskip_result):
        assert cskip_result.nontrivial
        assert cskip_result.time_to_first_nontrivial is not None

    def test_cin_loosened_by_skip(self, cskip_result):
        # the skip mux makes the block-traversing ripple path false, so the
        # carry-in can arrive several units later than topological analysis
        # demands
        res = cskip_result
        assert res.best["cin"] > res.r_bottom["cin"]

    def test_result_is_maximal(self, cskip_result):
        # no single further bump validates
        net = carry_skip_adder(2, 3)
        analysis = Approx2Analysis(net, output_required=0.0, engine="bdd")
        r = dict(cskip_result.best)
        for pi in analysis.axes:
            bumped = analysis._bump(r, pi)
            if bumped is not None:
                assert not analysis._validate(bumped), f"bump of {pi} still valid"

    def test_maximal_vector_is_actually_safe(self, cskip_result):
        net = carry_skip_adder(2, 3)
        ft = FunctionalTiming(net, arrivals=cskip_result.best, engine="bdd")
        assert ft.all_stable_by(0.0)

    def test_parity_tree_trivial(self):
        res = Approx2Analysis(
            parity_tree(8), output_required=0.0, engine="bdd"
        ).run()
        assert not res.nontrivial
        assert res.maximal == [res.r_bottom]

    def test_fig4_trivial_value_independent(self):
        # the Figure 4 looseness is value-dependent; the value-independent
        # search of approach 2 cannot see it (the paper's explanation of
        # why approx-1 stars i1/i9 but approx-2 does not)
        res = Approx2Analysis(figure4(), output_required=2.0, engine="bdd").run()
        assert not res.nontrivial


class TestEngines:
    def test_sat_and_bdd_agree(self):
        net = carry_skip_adder(2, 2)
        res_bdd = Approx2Analysis(net, output_required=0.0, engine="bdd").run()
        res_sat = Approx2Analysis(net, output_required=0.0, engine="sat").run()
        assert res_bdd.best == res_sat.best
        assert res_bdd.nontrivial == res_sat.nontrivial

    def test_sat_climb_builds_one_solver_per_output(self, monkeypatch):
        from repro.sat.solver import Solver

        built, solved = [0], [0]
        init, solve = Solver.__init__, Solver.solve

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        def counting_solve(self, *args, **kwargs):
            solved[0] += 1
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(Solver, "__init__", counting_init)
        monkeypatch.setattr(Solver, "solve", counting_solve)
        net = carry_skip_adder(3, 3)
        res_sat = Approx2Analysis(net, output_required=0.0, engine="sat").run()
        monkeypatch.undo()
        res_bdd = Approx2Analysis(net, output_required=0.0, engine="bdd").run()

        # every stability check is a query on its output's one solver
        assert built[0] <= len(net.outputs)
        assert solved[0] > built[0]
        assert res_sat.maximal == res_bdd.maximal
        assert res_sat.checks == res_bdd.checks


class TestEnumeration:
    def test_enumerate_returns_incomparable_maxima(self):
        net = carry_skip_adder(2, 2)
        res = Approx2Analysis(
            net,
            output_required=0.0,
            engine="bdd",
            enumerate_all=True,
            max_solutions=8,
        ).run()
        assert res.maximal
        for a in res.maximal:
            for b in res.maximal:
                if a is b:
                    continue
                assert not all(a[k] <= b[k] for k in a), "dominated maximum kept"

    def test_greedy_result_dominated_by_some_enumerated(self):
        net = carry_skip_adder(2, 2)
        greedy = Approx2Analysis(net, output_required=0.0, engine="bdd").run()
        full = Approx2Analysis(
            net, output_required=0.0, engine="bdd", enumerate_all=True
        ).run()
        g = greedy.best
        assert any(all(g[k] <= m[k] for k in g) for m in full.maximal)


class TestSeparateValues:
    """Footnote 8 extension: one lattice axis per (input, value) pair."""

    def test_fig4_becomes_nontrivial(self):
        res = Approx2Analysis(
            figure4(), output_required=2.0, engine="bdd", separate_values=True
        ).run()
        assert res.nontrivial
        # the paper's approx-1 answer, rediscovered by the climb:
        # x2 by time 1 when falling, by time 0 when rising
        assert res.best[("x2", 0)] == 1.0
        assert res.best[("x2", 1)] == 0.0

    def test_separate_at_least_as_loose_as_merged(self):
        net = carry_skip_adder(2, 2)
        merged = Approx2Analysis(net, output_required=0.0, engine="bdd").run()
        split = Approx2Analysis(
            net, output_required=0.0, engine="bdd", separate_values=True
        ).run()
        for pi in net.inputs:
            best_split = min(split.best[(pi, 0)], split.best[(pi, 1)])
            assert best_split >= merged.best[pi] - 1e-9

    def test_split_answer_is_safe(self):
        net = carry_skip_adder(2, 2)
        res = Approx2Analysis(
            net, output_required=0.0, engine="bdd", separate_values=True
        ).run()
        arrivals = {
            pi: (res.best[(pi, 0)], res.best[(pi, 1)]) for pi in net.inputs
        }
        ft = FunctionalTiming(net, arrivals=arrivals, engine="bdd")
        assert ft.all_stable_by(0.0)

    def test_parity_still_trivial(self):
        res = Approx2Analysis(
            parity_tree(6), output_required=0.0, engine="bdd", separate_values=True
        ).run()
        assert not res.nontrivial


class TestClustering:
    def test_stride_reduces_axes(self):
        net = carry_skip_adder(2, 3)
        fine = Approx2Analysis(net, output_required=0.0, engine="bdd")
        coarse = Approx2Analysis(
            net, output_required=0.0, engine="bdd", clustering=3
        )
        for pi in net.inputs:
            assert len(coarse.axes[pi]) <= len(fine.axes[pi])
            assert coarse.axes[pi][0] == fine.axes[pi][0]  # bottom kept
            assert set(coarse.axes[pi]) <= set(fine.axes[pi])

    def test_invalid_stride_rejected(self):
        from repro.errors import TimingError

        with pytest.raises(TimingError):
            Approx2Analysis(figure4(), output_required=2.0, clustering=0)

    def test_coarse_result_still_safe(self):
        net = carry_skip_adder(2, 2)
        res = Approx2Analysis(
            net, output_required=0.0, engine="bdd", clustering=2
        ).run()
        ft = FunctionalTiming(net, arrivals=res.best, engine="bdd")
        assert ft.all_stable_by(0.0)


class TestBudgets:
    def test_check_budget_aborts_gracefully(self):
        net = carry_skip_adder(2, 3)
        res = Approx2Analysis(
            net, output_required=0.0, engine="bdd", max_checks=3
        ).run()
        assert res.aborted
        assert res.checks <= 3
        # best-so-far still reported
        assert res.best is not None

    def test_time_budget_zero_aborts(self):
        net = carry_skip_adder(2, 3)
        res = Approx2Analysis(
            net, output_required=0.0, engine="bdd", time_budget=0.0
        ).run()
        assert res.aborted

    def test_trace_records_checks(self, cskip_result):
        assert cskip_result.trace.num_checks == cskip_result.checks
        assert cskip_result.trace.num_accepted >= 1


class TestTraceExport:
    def test_csv_shape(self, cskip_result):
        csv = cskip_result.trace.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "elapsed_s,accepted,total_looseness,vector"
        assert len(lines) == cskip_result.checks + 1
        # accepted flags are 0/1 and looseness is monotone over accepts
        prev = None
        for line in lines[1:]:
            elapsed, accepted, looseness, _ = line.split(",", 3)
            assert accepted in ("0", "1")
            if accepted == "1":
                value = float(looseness)
                if prev is not None:
                    assert value >= prev
                prev = value
