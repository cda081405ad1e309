"""Property-based tests for timing analysis invariants.

The key theorems exercised here:

* χ monotonicity in t (stability, once reached, persists),
* the XBD0 onset containment (χ_{n,1}^t ⊆ onset),
* functional delay ≤ topological delay, with equality at the topological
  point (Lemma 3's boundary case),
* delaying an arrival never makes an output stabilize earlier
  (the downward-closure property approach 2's lattice climb relies on),
* BDD and SAT stability engines agree everywhere.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.network import global_functions
from repro.timing import (
    ChiEngine,
    ChiUnrolling,
    FunctionalTiming,
    candidate_times,
)
from repro.timing.topological import arrival_times
from tests.strategies import small_networks


class TestChiInvariants:
    @given(small_networks())
    @settings(max_examples=30, deadline=None)
    def test_chi_monotone_in_time(self, net):
        eng = ChiEngine(ChiUnrolling(net))
        out = net.outputs[0]
        topo = arrival_times(net)[out]
        prev = eng.stable(out, 0.0)
        t = 0.0
        while t <= topo:
            t += 1.0
            cur = eng.stable(out, t)
            assert prev.implies(cur).is_true
            prev = cur

    @given(small_networks())
    @settings(max_examples=30, deadline=None)
    def test_onset_containment(self, net):
        eng = ChiEngine(ChiUnrolling(net))
        out = net.outputs[0]
        funcs = global_functions(net, eng.manager)
        on = funcs[out]
        topo = arrival_times(net)[out]
        for t in [topo / 2, topo]:
            assert eng.chi(out, 1, t).implies(on).is_true
            assert eng.chi(out, 0, t).implies(~on).is_true

    @given(small_networks())
    @settings(max_examples=30, deadline=None)
    def test_stable_at_topological_delay(self, net):
        # Lemma 3 boundary: with every leaf at its literal (t >= arr), the
        # χ functions equal the onset/offset, so the output is stable at
        # the topological delay
        eng = ChiEngine(ChiUnrolling(net))
        out = net.outputs[0]
        topo = arrival_times(net)[out]
        assert eng.is_stable_by(out, topo)


class TestDelayInvariants:
    @given(small_networks())
    @settings(max_examples=25, deadline=None)
    def test_functional_delay_bounded_by_topological(self, net):
        ft = FunctionalTiming(net, engine="bdd")
        out = net.outputs[0]
        assert ft.true_arrival(out) <= ft.topological_arrivals()[out]

    @given(small_networks())
    @settings(max_examples=25, deadline=None)
    def test_true_arrival_is_a_candidate_time(self, net):
        ft = FunctionalTiming(net, engine="bdd")
        out = net.outputs[0]
        assert ft.true_arrival(out) in candidate_times(net)[out]

    @given(small_networks())
    @settings(max_examples=15, deadline=None)
    def test_engines_agree(self, net):
        out = net.outputs[0]
        bdd = FunctionalTiming(net, engine="bdd").true_arrival(out)
        sat = FunctionalTiming(net, engine="sat").true_arrival(out)
        assert bdd == sat

    @given(small_networks(), st.sampled_from([f"x{i}" for i in range(4)]))
    @settings(max_examples=20, deadline=None)
    def test_delaying_arrival_never_helps(self, net, victim):
        out = net.outputs[0]
        early = FunctionalTiming(net, engine="bdd").true_arrival(out)
        late = FunctionalTiming(
            net, arrivals={victim: 2.0}, engine="bdd"
        ).true_arrival(out)
        assert late >= early
