"""Unit tests for rise/fall delay distinction (the paper's footnote 1)."""

import itertools

import pytest

from repro.errors import TimingError
from repro.network import Network
from repro.timing import ChiEngine, ChiUnrolling, DelayModel, FunctionalTiming
from repro.timing.ternary import oracle_true_arrival, stabilization_times


def buffer_chain():
    net = Network("buf")
    net.add_input("a")
    net.add_gate("g", "BUF", ["a"])
    net.set_outputs(["g"])
    return net


class TestDelayModelPairs:
    def test_scalar_spec(self):
        dm = DelayModel(default=2.0)
        assert dm.of("g") == 2.0
        assert dm.of_value("g", 0) == 2.0
        assert dm.of_value("g", 1) == 2.0
        assert not dm.is_value_dependent()

    def test_pair_spec(self):
        dm = DelayModel(default=1.0, overrides={"g": (3.0, 1.0)})  # (rise, fall)
        assert dm.of_value("g", 1) == 3.0
        assert dm.of_value("g", 0) == 1.0
        assert dm.of("g") == 3.0  # max for topological analysis
        assert dm.is_value_dependent()

    def test_pair_default(self):
        dm = DelayModel(default=(2.0, 5.0))
        assert dm.of_value("anything", 1) == 2.0
        assert dm.of_value("anything", 0) == 5.0
        assert dm.is_value_dependent()

    def test_with_override_preserves_pairs(self):
        dm = DelayModel().with_override("g", (4.0, 2.0))
        assert dm.of_value("g", 1) == 4.0
        assert dm.of_value("g", 0) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(TimingError):
            DelayModel(default=(1.0, -1.0))
        with pytest.raises(TimingError):
            DelayModel(overrides={"g": (-0.5, 1.0)})

    def test_malformed_pair_rejected(self):
        with pytest.raises(TimingError):
            DelayModel(default=(1.0, 2.0, 3.0))


class TestChiWithRiseFall:
    def test_buffer_rise_fall_split(self):
        net = buffer_chain()
        dm = DelayModel(default=1.0, overrides={"g": (3.0, 1.0)})
        eng = ChiEngine(ChiUnrolling(net, dm))
        m = eng.manager
        # falling output stable after fall delay 1
        assert eng.chi("g", 0, 1.0) == m.nvar("a")
        # rising output needs the rise delay 3
        assert eng.chi("g", 1, 1.0).is_false
        assert eng.chi("g", 1, 3.0) == m.var("a")

    def test_stability_needs_worst_of_both(self):
        net = buffer_chain()
        dm = DelayModel(default=1.0, overrides={"g": (3.0, 1.0)})
        ft = FunctionalTiming(net, dm)
        assert not ft.output_stable_by("g", 2.0)  # a=1 vectors not yet risen
        assert ft.output_stable_by("g", 3.0)

    def test_oracle_agrees_with_chi_under_risefall(self):
        net = Network("rf")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", "AND", ["a", "b"])
        net.add_gate("h", "OR", ["g", "a"])
        net.set_outputs(["h"])
        dm = DelayModel(default=1.0, overrides={"g": (2.0, 1.0), "h": (1.0, 4.0)})
        ft = FunctionalTiming(net, dm)
        assert ft.true_arrival("h") == oracle_true_arrival(net, "h", dm)

    def test_per_vector_stabilization_respects_value(self):
        net = buffer_chain()
        dm = DelayModel(default=1.0, overrides={"g": (3.0, 1.0)})
        assert stabilization_times(net, {"a": 1}, dm)["g"] == 3.0
        assert stabilization_times(net, {"a": 0}, dm)["g"] == 1.0


class TestRequiredTimesWithRiseFall:
    def test_approx1_splits_by_value(self):
        # with an asymmetric output gate, the required time of the input
        # differs by the value it settles to
        net = buffer_chain()
        dm = DelayModel(default=1.0, overrides={"g": (3.0, 1.0)})
        from repro.core.approx1 import Approx1Analysis

        result = Approx1Analysis(net, dm, output_required=5.0).run()
        profile = result.profiles[0]
        r0, r1 = profile.of("a")
        assert r1 == 2.0  # 5 - rise delay 3
        assert r0 == 4.0  # 5 - fall delay 1

    def test_exact_leaf_times_split(self):
        from repro.core.leaves import enumerate_leaf_times

        net = buffer_chain()
        dm = DelayModel(default=1.0, overrides={"g": (3.0, 1.0)})
        leaves = enumerate_leaf_times(ChiUnrolling(net, dm), output_required=5.0)
        assert leaves.for_one["a"] == [2.0]
        assert leaves.for_zero["a"] == [4.0]
