"""Unit tests for the remaining timing API surface."""

import pytest

from repro.circuits import carry_skip_block, figure4, parity_tree
from repro.errors import ResourceLimitError, TimingError
from repro.timing import FunctionalTiming, candidate_times
from repro.timing.chi import ChiEngine, ChiUnrolling


class TestFunctionalTimingSurface:
    def test_functional_delay_is_max_over_outputs(self):
        net = figure4()
        net.add_gate("fast", "NOT", ["x1"])
        net.set_outputs(["z", "fast"])
        ft = FunctionalTiming(net)
        assert ft.true_arrivals() == {"z": 2.0, "fast": 1.0}
        assert ft.functional_delay() == 2.0

    def test_topological_arrivals_accessor(self):
        ft = FunctionalTiming(carry_skip_block())
        topo = ft.topological_arrivals()
        assert topo["cout"] == 8.0

    def test_sat_engine_with_conflict_budget(self):
        ft = FunctionalTiming(
            carry_skip_block(), engine="sat", max_conflicts=1_000_000
        )
        assert ft.output_stable_by("cout", 8.0)

    def test_chi_engine_reused_between_checks(self):
        ft = FunctionalTiming(figure4(), engine="bdd")
        assert not ft.output_stable_by("z", 1.0)
        assert ft.output_stable_by("z", 2.0)
        # the cached engine must persist
        assert ft._chi is not None

    def test_arrival_for_unknown_input_ignored_gracefully(self):
        # FunctionalTiming maps arrivals over declared inputs only
        ft = FunctionalTiming(figure4(), arrivals={"x1": 1.0})
        assert ft.true_arrival("z") == 3.0


class TestCandidateTimesBudget:
    def test_budget_raises(self):
        from repro.timing import DelayModel

        # irrational-ish delay mix on a reconvergent circuit multiplies
        # candidate moments
        net = carry_skip_block()
        dm = DelayModel(default=1.0)
        for i, name in enumerate(n for n in net.nodes if not net.nodes[n].is_input):
            dm = dm.with_override(name, 1.0 + i * 0.01)
        with pytest.raises(ResourceLimitError):
            candidate_times(net, dm, max_per_node=4)


class TestChiEngineSharedManager:
    def test_arrival_maps_share_manager(self):
        eng = ChiEngine(ChiUnrolling(figure4()))
        m = eng.manager
        assert eng.chi("z", 1, 2.0) == (m.var("x1") & m.var("x2"))
        # same manager and variables, another arrival interpretation
        eng.set_arrivals({"x2": 1.0})
        assert eng.manager is m
        assert eng.chi("z", 1, 2.0).is_false
        eng.set_arrivals(None)
        assert eng.chi("z", 1, 2.0) == (m.var("x1") & m.var("x2"))

    def test_stable_is_union(self):
        net = parity_tree(4)
        eng = ChiEngine(ChiUnrolling(net))
        out = net.outputs[0]
        t = 2.0
        assert eng.stable(out, t) == (eng.chi(out, 1, t) | eng.chi(out, 0, t))
