"""Unit tests for the χ BDD builder with symbolic leaves.

The exact and approx-1 analyses of :mod:`repro.core` read χ through
:class:`repro.timing.chi.ChiBdd`, with the leaf of every primary-input
triple supplied by a callback.
"""

import pytest

from repro.bdd import BddManager
from repro.circuits import figure4
from repro.errors import TimingError
from repro.timing import ChiBdd, ChiUnrolling, known_arrival_leaf


def _manager(net) -> BddManager:
    m = BddManager()
    for pi in net.inputs:
        m.add_var(pi)
    return m


class TestSymbolicChi:
    def test_matches_concrete_engine_with_known_leaves(self):
        from repro.timing import ChiEngine

        net = figure4()
        concrete = ChiEngine(ChiUnrolling(net))

        m = _manager(net)
        sym = ChiBdd(
            ChiUnrolling(net), m, known_arrival_leaf(m, {"x1": 0.0, "x2": 0.0})
        )
        for t in [0.0, 1.0, 2.0]:
            for v in (0, 1):
                a = sym.chi("z", v, t)
                b = concrete.chi("z", v, t)
                # different managers: compare by evaluation
                for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                    env = {"x1": bits[0], "x2": bits[1]}
                    assert m.evaluate(a, env) == concrete.manager.evaluate(b, env)

    def test_custom_leaf_fn_invoked_per_triple(self):
        net = figure4()
        m = _manager(net)
        calls = []

        def leaf(name, value, t):
            calls.append((name, value, t))
            # non-constant leaves so the recursion cannot short-circuit
            return m.var(name) if value else m.nvar(name)

        sym = ChiBdd(ChiUnrolling(net), m, leaf)
        result = sym.chi("z", 1, 2.0)
        assert result == (m.var("x1") & m.var("x2"))
        assert ("x1", 1, 0.0) in calls
        assert ("x2", 1, 1.0) in calls
        assert ("x2", 1, 0.0) in calls
        assert len(calls) == len(set(calls))  # once per triple

    def test_memoization(self):
        net = figure4()
        m = _manager(net)
        counter = {"n": 0}

        def leaf(name, value, t):
            counter["n"] += 1
            return m.var(name) if value else m.nvar(name)

        sym = ChiBdd(ChiUnrolling(net), m, leaf)
        sym.chi("z", 1, 2.0)
        first = counter["n"]
        sym.chi("z", 1, 2.0)
        assert counter["n"] == first  # fully memoized

    def test_bad_value_rejected(self):
        net = figure4()
        m = _manager(net)
        sym = ChiBdd(ChiUnrolling(net), m, lambda *a: m.false)
        with pytest.raises(TimingError):
            sym.chi("z", 3, 1.0)


class TestKnownArrivalLeafFn:
    def test_scalar_and_pair(self):
        m = BddManager()
        m.add_var("x")
        leaf = known_arrival_leaf(m, {"x": (2.0, 5.0)})
        # value 0 arrives at 2, value 1 at 5
        assert leaf("x", 0, 2.0) == m.nvar("x")
        assert leaf("x", 0, 1.0).is_false
        assert leaf("x", 1, 4.0).is_false
        assert leaf("x", 1, 5.0) == m.var("x")
