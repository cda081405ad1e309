"""Unit tests for the Section 5.3 coupled analysis and true-slack module."""

import math

import pytest

from repro.circuits import carry_skip_block, figure4, figure6_extended
from repro.core import (
    coupled_flexibility,
    true_slack,
    true_slacks,
)
from repro.errors import ResourceLimitError, TimingError
from repro.timing import TopologicalTiming


class TestCoupledFlexibility:
    @pytest.fixture(scope="class")
    def flex(self):
        return coupled_flexibility(
            figure6_extended(), ["u1", "u2"], ["y"], output_required=4.0
        )

    def test_one_row_per_minterm(self, flex):
        assert len(flex.rows) == 8
        assert {r.x_vector for r in flex.rows} == {
            (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        }

    def test_arrival_tuples_match_paper(self, flex):
        # x1=0 -> (1,2); x1=1 -> (2,1) (the unfolded Figure 6 table)
        for row in flex.rows:
            expected = (1.0, 2.0) if row.x_vector[0] == 0 else (2.0, 1.0)
            assert row.u_arrivals == expected

    def test_v_vector_matches_simulation(self, flex):
        net = figure6_extended()
        for row in flex.rows:
            env = dict(zip(net.inputs, row.x_vector))
            assert row.v_vector == (int(net.simulate(env)["y"]),)

    def test_requirements_present_and_consistent(self, flex):
        for row in flex.rows:
            assert row.required, f"no requirement at {row.x_vector}"
            for profile in row.required:
                r0, r1 = profile.of("y")
                active = r0 if row.v_vector[0] == 0 else r1
                assert active == 4.0  # y is the primary output itself

    def test_row_lookup(self, flex):
        row = flex.row_for((1, 1, 1))
        assert row.v_vector == (1,)
        with pytest.raises(TimingError):
            flex.row_for((2, 0, 0))

    def test_input_budget(self):
        from repro.circuits import carry_skip_adder

        with pytest.raises(ResourceLimitError):
            coupled_flexibility(
                carry_skip_adder(3, 3), ["cin"], ["skip2"], max_inputs=4
            )


class TestTrueSlack:
    @pytest.fixture(scope="class")
    def cskip(self):
        net = carry_skip_block()
        T = TopologicalTiming.analyze(net, output_required=0.0).topological_delay()
        return net, T

    def test_padding_buffer_recovers_infinite_slack(self, cskip):
        net, T = cskip
        # every path through the cin padding buffers is false
        report = true_slack(net, "cin_d2", output_required=T)
        assert report.topo_slack == 0.0
        assert report.true_slack == math.inf

    def test_true_slack_never_below_topological(self, cskip):
        net, T = cskip
        for node in ["c1", "c2", "u", "v", "s"]:
            report = true_slack(net, node, output_required=T)
            assert report.true_slack >= report.topo_slack - 1e-9, node
            assert report.slack_recovered >= -1e-9

    def test_true_arrival_never_above_topological(self, cskip):
        net, T = cskip
        for node in ["c2", "v"]:
            report = true_slack(net, node, output_required=T)
            assert report.true_arrival <= report.topo_arrival + 1e-9

    def test_fig4_intermediate_node(self):
        net = figure4()
        report = true_slack(net, "w", output_required=2.0)
        # w's cone and fanout are both fully true paths
        assert report.true_slack == report.topo_slack == 0.0

    def test_pi_rejected(self, cskip):
        net, T = cskip
        with pytest.raises(TimingError):
            true_slack(net, "cin", output_required=T)

    def test_infeasible_requirement_rejected(self, cskip):
        net, _ = cskip
        with pytest.raises(TimingError):
            true_slack(net, "c2", output_required=0.0)

    def test_non_output_requirement_rejected(self):
        # naming the internal node G10 is not a boundary condition: both
        # the topological and the false-path-aware side must refuse it
        from repro.circuits import c17

        with pytest.raises(TimingError, match="G10"):
            true_slack(
                c17(), "G10", output_required={"G22": 3, "G23": 3, "G10": -5}
            )

    def test_true_slacks_bulk(self, cskip):
        net, T = cskip
        reports = true_slacks(net, ["c1", "c2"], output_required=T)
        assert set(reports) == {"c1", "c2"}

    def test_default_selection_skips_pis_and_pos(self, cskip):
        net, T = cskip
        reports = true_slacks(net, output_required=T)
        assert "cin" not in reports
        assert "cout" not in reports
        assert "c1" in reports

    def test_engines_agree(self, cskip):
        net, T = cskip
        a = true_slack(net, "c2", output_required=T, engine="bdd")
        b = true_slack(net, "c2", output_required=T, engine="sat")
        assert a.true_required == b.true_required
        assert a.true_arrival == b.true_arrival
