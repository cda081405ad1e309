"""Unit tests for χ functions and functional (false-path aware) timing."""

import pytest

from repro.errors import TimingError
from repro.network import Network, global_functions
from repro.timing import (
    ChiEngine,
    ChiUnrolling,
    FunctionalTiming,
    candidate_times,
    has_false_paths,
    stable_by,
    true_arrival_times,
)
from repro.timing.topological import arrival_times


def fig4() -> Network:
    net = Network("fig4")
    net.add_input("x1")
    net.add_input("x2")
    net.add_gate("w", "AND", ["x1", "x2"])
    net.add_gate("z", "AND", ["w", "x2"])
    net.set_outputs(["z"])
    return net


def carry_skip_block() -> Network:
    """One carry-skip block: the canonical false-path circuit.

    The (buffer-padded) ripple path cin -> c1 -> c2 -> cout is structurally
    longest; propagating through both mux stages needs p0 = p1 = 1, but then
    the skip mux selects cin directly, so the long path is false.
    """
    net = Network("cskip")
    for pi in ["cin", "p0", "p1", "g0", "g1"]:
        net.add_input(pi)
    net.add_gate("cin_d1", "BUF", ["cin"])
    net.add_gate("cin_d2", "BUF", ["cin_d1"])
    net.add_gate("np0", "NOT", ["p0"])
    net.add_gate("np1", "NOT", ["p1"])
    net.add_gate("a1", "AND", ["p0", "cin_d2"])
    net.add_gate("b1", "AND", ["np0", "g0"])
    net.add_gate("c1", "OR", ["a1", "b1"])
    net.add_gate("a2", "AND", ["p1", "c1"])
    net.add_gate("b2", "AND", ["np1", "g1"])
    net.add_gate("c2", "OR", ["a2", "b2"])
    net.add_gate("s", "AND", ["p0", "p1"])
    net.add_gate("ns", "NOT", ["s"])
    net.add_gate("u", "AND", ["s", "cin"])
    net.add_gate("v", "AND", ["ns", "c2"])
    net.add_gate("cout", "OR", ["u", "v"])
    net.set_outputs(["cout"])
    return net


class TestChiEngine:
    def test_paper_fig4_chi_at_2(self):
        # χ_{z,1}^2 = x1 x2 and χ_{z,0}^2 = ~x1 + ~x2 (Section 4 example
        # with arrival times 0).
        net = fig4()
        eng = ChiEngine(ChiUnrolling(net))
        m = eng.manager
        x1, x2 = m.var("x1"), m.var("x2")
        assert eng.chi("z", 1, 2.0) == (x1 & x2)
        assert eng.chi("z", 0, 2.0) == (~x1 | ~x2)

    def test_fig4_chi_at_1_partial(self):
        net = fig4()
        eng = ChiEngine(ChiUnrolling(net))
        m = eng.manager
        # at t=1 the w input of z cannot be stable to 1 yet (χ_{w,1}^0 = 0)
        assert eng.chi("z", 1, 1.0).is_false
        # but z can be stable to 0 via x2 = 0 (prime ~x2 of the AND offset)
        assert eng.chi("z", 0, 1.0) == ~m.var("x2")

    def test_chi_monotone_in_time(self):
        net = carry_skip_block()
        eng = ChiEngine(ChiUnrolling(net))
        prev = eng.stable("cout", 0.0)
        for t in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
            cur = eng.stable("cout", t)
            assert prev.implies(cur).is_true
            prev = cur

    def test_chi_respects_arrival_times(self):
        net = fig4()
        eng = ChiEngine(ChiUnrolling(net), arrivals={"x1": 2.0})
        # with x1 arriving at 2, z cannot be stable-to-1 by 2
        assert eng.chi("z", 1, 2.0).is_false
        assert eng.is_stable_by("z", 4.0)

    def test_onset_invariant(self):
        # χ_{n,1}^t ⊆ onset(n) and χ_{n,0}^t ⊆ offset(n): Lemma 3's
        # boundary case, which holds by construction under XBD0
        net = carry_skip_block()
        eng = ChiEngine(ChiUnrolling(net))
        on = global_functions(net, eng.manager)["cout"]
        for t in [2.0, 4.0, 6.0]:
            assert eng.chi("cout", 1, t).implies(on).is_true
            assert eng.chi("cout", 0, t).implies(~on).is_true

    def test_invalid_value_rejected(self):
        with pytest.raises(TimingError):
            ChiEngine(ChiUnrolling(fig4())).chi("z", 2, 1.0)

    def test_arrival_for_non_input_rejected(self):
        with pytest.raises(TimingError):
            ChiEngine(ChiUnrolling(fig4()), arrivals={"w": 1.0})


class TestCandidateTimes:
    def test_chain_times(self):
        net = fig4()
        times = candidate_times(net)
        assert times["x1"] == [0.0]
        assert times["w"] == [1.0]
        # z can stabilize via the short x2 path (1.0) or the w path (2.0)
        assert times["z"] == [1.0, 2.0]

    def test_reconvergent_times(self):
        net = carry_skip_block()
        times = candidate_times(net)
        # cout can stabilize at several distinct moments
        assert len(times["cout"]) >= 3
        assert times["cout"][-1] == arrival_times(net)["cout"]

    def test_arrival_offsets(self):
        net = fig4()
        times = candidate_times(net, arrivals={"x2": 0.5})
        assert times["z"] == [1.5, 2.0, 2.5]

    def test_non_input_arrival_rejected(self):
        with pytest.raises(TimingError, match="x9"):
            candidate_times(fig4(), arrivals={"x9": 0.5})

    def test_functional_timing_rejects_non_input_arrival(self):
        with pytest.raises(TimingError, match="x9"):
            FunctionalTiming(fig4(), arrivals={"x9": 0.5})


class TestStability:
    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_fig4_stable_exactly_at_2(self, engine):
        net = fig4()
        ft = FunctionalTiming(net, engine=engine)
        assert not ft.output_stable_by("z", 1.0)
        assert ft.output_stable_by("z", 2.0)

    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_carry_skip_true_delay_beats_topological(self, engine):
        net = carry_skip_block()
        ft = FunctionalTiming(net, engine=engine)
        topo = ft.topological_arrivals()["cout"]
        true = ft.true_arrival("cout")
        assert true < topo

    def test_engines_agree_on_true_delay(self):
        net = carry_skip_block()
        bdd = FunctionalTiming(net, engine="bdd").true_arrival("cout")
        sat = FunctionalTiming(net, engine="sat").true_arrival("cout")
        assert bdd == sat

    def test_has_false_paths(self):
        assert has_false_paths(carry_skip_block())
        assert not has_false_paths(fig4())

    def test_stable_by_mapping(self):
        net = fig4()
        assert stable_by(net, {"z": 2.0})
        assert not stable_by(net, {"z": 1.5})

    def test_stable_by_scalar(self):
        assert stable_by(fig4(), 2.0)

    def test_missing_required_rejected(self):
        with pytest.raises(TimingError):
            stable_by(fig4(), {})

    def test_unknown_output_rejected(self):
        ft = FunctionalTiming(fig4())
        with pytest.raises(TimingError):
            ft.output_stable_by("w", 2.0)

    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_per_call_non_input_arrival_rejected(self, engine):
        # ChiSat alone reads the map with .get and would ignore the name
        ft = FunctionalTiming(fig4(), engine=engine)
        with pytest.raises(TimingError, match="w"):
            ft.output_stable_by("z", 2.0, {"w": 1.0})
        with pytest.raises(TimingError, match="w"):
            ft.all_stable_by(2.0, {"x1": 0.0, "w": 1.0})

    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_per_call_arrivals_leave_the_default(self, engine):
        ft = FunctionalTiming(fig4(), arrivals={"x2": 1.0}, engine=engine)
        assert not ft.output_stable_by("z", 2.0)
        assert ft.output_stable_by("z", 2.0, {"x1": 0.0})
        assert not ft.output_stable_by("z", 2.0)
        assert ft.output_stable_by("z", 3.0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(TimingError):
            FunctionalTiming(fig4(), engine="quantum")

    def test_true_arrival_times_wrapper(self):
        times = true_arrival_times(fig4())
        assert times == {"z": 2.0}

    def test_candidate_times_computed_once(self):
        from repro.circuits import mcnc_suite
        from repro.obs.trace import tracing

        m3 = {s.name: s for s in mcnc_suite()}["m3"].network
        assert len(m3.outputs) == 103
        with tracing(capture_metrics=False) as trace:
            FunctionalTiming(m3).true_arrivals()
        spans = [s for s, _ in trace.walk() if s.name == "chi.candidate_times"]
        assert len(spans) == 1
