"""Unit tests for topological STA (arrival, Figure-3 required times, slack)."""

import math

import pytest

from repro.errors import TimingError
from repro.network import Network
from repro.timing import (
    DelayModel,
    TopologicalTiming,
    arrival_times,
    required_times,
    slacks,
    unit_delay,
)


def chain(n: int) -> Network:
    """x -> g1 -> g2 -> ... -> gn (buffers)."""
    net = Network("chain")
    net.add_input("x")
    prev = "x"
    for i in range(1, n + 1):
        net.add_gate(f"g{i}", "BUF", [prev])
        prev = f"g{i}"
    net.set_outputs([prev])
    return net


def fig4() -> Network:
    net = Network("fig4")
    net.add_input("x1")
    net.add_input("x2")
    net.add_gate("w", "AND", ["x1", "x2"])
    net.add_gate("z", "AND", ["w", "x2"])
    net.set_outputs(["z"])
    return net


class TestDelayModel:
    def test_default(self):
        dm = unit_delay()
        assert dm.of("anything") == 1.0

    def test_overrides(self):
        dm = DelayModel(default=2.0, overrides={"fast": 0.5})
        assert dm.of("fast") == 0.5
        assert dm.of("slow") == 2.0

    def test_with_override(self):
        dm = unit_delay().with_override("g", 3.0)
        assert dm.of("g") == 3.0
        assert unit_delay().of("g") == 1.0  # original unchanged

    def test_negative_rejected(self):
        with pytest.raises(TimingError):
            DelayModel(default=-1.0)
        with pytest.raises(TimingError):
            DelayModel(overrides={"g": -0.1})


class TestArrival:
    def test_chain(self):
        net = chain(4)
        arr = arrival_times(net)
        assert arr["x"] == 0.0
        assert arr["g4"] == 4.0

    def test_input_arrivals(self):
        net = chain(2)
        arr = arrival_times(net, input_arrivals={"x": 1.5})
        assert arr["g2"] == 3.5

    def test_longest_path_wins(self):
        net = Network("reconv")
        net.add_input("a")
        net.add_gate("slow1", "BUF", ["a"])
        net.add_gate("slow2", "BUF", ["slow1"])
        net.add_gate("z", "AND", ["a", "slow2"])
        net.set_outputs(["z"])
        arr = arrival_times(net)
        assert arr["z"] == 3.0

    def test_custom_delays(self):
        net = chain(2)
        dm = DelayModel(default=1.0, overrides={"g2": 5.0})
        arr = arrival_times(net, dm)
        assert arr["g2"] == 6.0


class TestRequired:
    def test_figure3_on_fig4(self):
        # Paper Section 4: with required time 2 at z and unit delays,
        # topological analysis requires both inputs at time 0.
        net = fig4()
        req = required_times(net, output_required=2.0)
        assert req["x1"] == 0.0
        assert req["x2"] == 0.0
        assert req["w"] == 1.0
        assert req["z"] == 2.0

    def test_earliest_requirement_wins(self):
        # x2 feeds both w (req 0 via two levels) and z directly (req 1):
        # the record must be min(0, 1) = 0.
        net = fig4()
        req = required_times(net, output_required=2.0)
        assert req["x2"] == 0.0

    def test_per_output_required(self):
        net = Network("two")
        net.add_input("a")
        net.add_gate("f", "BUF", ["a"])
        net.add_gate("g", "BUF", ["a"])
        net.set_outputs(["f", "g"])
        req = required_times(net, output_required={"f": 5.0, "g": 1.0})
        assert req["a"] == 0.0  # min(5-1, 1-1)

    def test_missing_output_required_rejected(self):
        net = chain(1)
        with pytest.raises(TimingError):
            required_times(net, output_required={})

    def test_non_output_name_rejected(self):
        # an internal node's name is not a boundary condition
        net = fig4()
        with pytest.raises(TimingError, match="non-outputs \\['w'\\]"):
            required_times(net, output_required={"z": 2.0, "w": -5.0})

    def test_unconstrained_node_is_infinite(self):
        net = Network("dangling")
        net.add_input("a")
        net.add_gate("f", "BUF", ["a"])
        net.add_gate("unused", "NOT", ["a"])
        net.set_outputs(["f"])
        req = required_times(net, output_required=0.0)
        assert req["unused"] == math.inf
        assert req["a"] == -1.0


class TestSlack:
    def test_slack_zero_on_critical_chain(self):
        net = chain(3)
        s = slacks(net, output_required=3.0)
        assert s["x"] == 0.0
        assert s["g3"] == 0.0

    def test_positive_slack(self):
        net = chain(3)
        s = slacks(net, output_required=10.0)
        assert all(v == 7.0 for v in s.values())

    def test_negative_slack(self):
        net = chain(3)
        s = slacks(net, output_required=1.0)
        assert s["x"] == -2.0


class TestBundle:
    def test_analyze(self):
        net = fig4()
        tt = TopologicalTiming.analyze(net, output_required=2.0)
        assert tt.worst_slack == 0.0
        assert tt.topological_delay() == 2.0

    def test_critical_path_ends_at_output(self):
        net = fig4()
        tt = TopologicalTiming.analyze(net, output_required=2.0)
        path = tt.critical_path()
        assert path[-1] == "z"
        assert path[0] in ("x1", "x2")
        # consecutive fanin relation
        for a, b in zip(path, path[1:]):
            assert a in net.node(b).fanins
