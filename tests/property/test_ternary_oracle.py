"""Cross-validation of the χ-function engines against the ternary oracle.

The oracle (:mod:`repro.timing.ternary`) implements the XBD0 semantics by
direct ternary-waveform simulation, with no prime covers and no χ
recursion — an independent second implementation.  Agreement on random
circuits over every input vector is the strongest correctness evidence
the functional-timing stack has.
"""

import itertools
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.circuits import carry_skip_block, figure4
from repro.timing import ChiEngine, ChiUnrolling, FunctionalTiming, candidate_times
from repro.timing.ternary import (
    oracle_true_arrival,
    stabilization_times,
    ternary_eval,
)
from repro.sop import Cover
from tests.strategies import small_networks as _small_networks

small_networks = partial(_small_networks, max_gates=6)


class TestTernaryEval:
    def test_and_forced_by_controlling_zero(self):
        cover = Cover.from_patterns(["11"])
        assert ternary_eval(cover, [False, None]) is False
        assert ternary_eval(cover, [None, None]) is None
        assert ternary_eval(cover, [True, True]) is True

    def test_or_forced_by_controlling_one(self):
        cover = Cover.from_patterns(["1-", "-1"])
        assert ternary_eval(cover, [True, None]) is True
        assert ternary_eval(cover, [False, None]) is None
        assert ternary_eval(cover, [False, False]) is False

    def test_xor_needs_both(self):
        cover = Cover.from_patterns(["10", "01"])
        assert ternary_eval(cover, [True, None]) is None
        assert ternary_eval(cover, [True, False]) is True

    def test_redundant_cover_determined(self):
        # f = b written redundantly as ab + a'b: b=1 forces 1 even though
        # no single cube is satisfied by the known values
        cover = Cover.from_patterns(["11", "01"])
        assert ternary_eval(cover, [None, True]) is True
        assert ternary_eval(cover, [None, False]) is False


class TestOracleAgainstChi:
    @given(small_networks())
    @settings(max_examples=25, deadline=None)
    def test_per_vector_stabilization_matches_chi(self, net):
        eng = ChiEngine(ChiUnrolling(net))
        out = net.outputs[0]
        cands = candidate_times(net)[out]
        for bits in itertools.product((0, 1), repeat=len(net.inputs)):
            env = dict(zip(net.inputs, bits))
            oracle_t = stabilization_times(net, env)[out]
            # the chi-based per-vector stabilization moment
            chi_t = next(
                t for t in cands if eng.manager.evaluate(eng.stable(out, t), env)
            )
            assert oracle_t == chi_t, (env, oracle_t, chi_t)

    @given(small_networks())
    @settings(max_examples=25, deadline=None)
    def test_true_arrival_matches_oracle(self, net):
        out = net.outputs[0]
        ft = FunctionalTiming(net, engine="bdd")
        assert ft.true_arrival(out) == oracle_true_arrival(net, out)

    @given(small_networks())
    @settings(max_examples=12, deadline=None)
    def test_sat_engine_matches_oracle(self, net):
        out = net.outputs[0]
        ft = FunctionalTiming(net, engine="sat")
        assert ft.true_arrival(out) == oracle_true_arrival(net, out)


class TestOracleOnKnownCircuits:
    def test_figure4(self):
        net = figure4()
        assert oracle_true_arrival(net, "z") == 2.0

    def test_carry_skip_block_gap(self):
        net = carry_skip_block()
        from repro.timing.topological import arrival_times

        topo = arrival_times(net)["cout"]
        true = oracle_true_arrival(net, "cout")
        assert true < topo  # the oracle sees the false path too

    def test_arrival_offsets_respected(self):
        net = figure4()
        stab = stabilization_times(net, {"x1": 1, "x2": 1}, arrivals={"x2": 3.0})
        assert stab["z"] == 5.0

    def test_value_dependent_arrivals(self):
        net = figure4()
        # x2 arrives at 0 when settling to 1, at 9 when settling to 0
        late0 = stabilization_times(
            net, {"x1": 1, "x2": 0}, arrivals={"x2": (9.0, 0.0)}
        )
        early1 = stabilization_times(
            net, {"x1": 1, "x2": 1}, arrivals={"x2": (9.0, 0.0)}
        )
        # x2 = 0 is the controlling value of z's AND directly: z stabilizes
        # one gate delay after x2's (late) arrival, not via w
        assert late0["z"] == 10.0
        assert early1["z"] == 2.0
