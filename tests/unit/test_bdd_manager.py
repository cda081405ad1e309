"""Unit tests for the BDD manager core."""

import itertools

import pytest

from repro.bdd import BddManager
from repro.errors import BddError


@pytest.fixture
def mgr():
    return BddManager()


@pytest.fixture
def abc(mgr):
    return mgr.add_var("a"), mgr.add_var("b"), mgr.add_var("c")


class TestVariables:
    def test_add_and_lookup(self, mgr):
        a = mgr.add_var("a")
        assert mgr.var("a") == a
        assert mgr.has_var("a")
        assert not mgr.has_var("b")

    def test_duplicate_rejected(self, mgr):
        mgr.add_var("a")
        with pytest.raises(BddError):
            mgr.add_var("a")

    def test_unknown_rejected(self, mgr):
        with pytest.raises(BddError):
            mgr.var("ghost")

    def test_nvar(self, mgr):
        mgr.add_var("a")
        na = mgr.nvar("a")
        assert na == ~mgr.var("a")

    def test_order_is_declaration_order(self, mgr):
        for name in ["x", "y", "z"]:
            mgr.add_var(name)
        assert mgr.current_order() == ["x", "y", "z"]


class TestBooleanAlgebra:
    def test_terminals(self, mgr):
        assert mgr.true.is_true
        assert mgr.false.is_false
        assert (~mgr.true).is_false

    def test_and_or_not(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | ~c
        assert mgr.evaluate(f, {"a": 1, "b": 1, "c": 1})
        assert mgr.evaluate(f, {"a": 0, "b": 0, "c": 0})
        assert not mgr.evaluate(f, {"a": 1, "b": 0, "c": 1})

    def test_xor(self, mgr, abc):
        a, b, _ = abc
        f = a ^ b
        for va, vb in itertools.product((0, 1), repeat=2):
            assert mgr.evaluate(f, {"a": va, "b": vb, "c": 0}) == (va != vb)

    def test_implies_equiv(self, mgr, abc):
        a, b, _ = abc
        assert (a.implies(a | b)).is_true
        assert (a.equiv(a)).is_true
        assert not (a.equiv(b)).is_true

    def test_ite(self, mgr, abc):
        a, b, c = abc
        f = a.ite(b, c)
        assert mgr.evaluate(f, {"a": 1, "b": 1, "c": 0})
        assert mgr.evaluate(f, {"a": 0, "b": 0, "c": 1})

    def test_idempotence_and_canonicity(self, mgr, abc):
        a, b, _ = abc
        assert (a & a) == a
        assert (a | (a & b)) == a  # absorption
        assert ((a & b) | (a & ~b)) == a  # combination

    def test_de_morgan(self, mgr, abc):
        a, b, _ = abc
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)

    def test_cross_manager_rejected(self, mgr):
        other = BddManager()
        a = mgr.add_var("a")
        b = other.add_var("b")
        with pytest.raises(BddError):
            _ = a & b

    def test_truthiness_is_ambiguous(self, mgr, abc):
        a, _, _ = abc
        with pytest.raises(BddError):
            bool(a)

    def test_conjoin_disjoin(self, mgr, abc):
        a, b, c = abc
        assert mgr.conjoin([a, b, c]) == (a & b & c)
        assert mgr.disjoin([a, b, c]) == (a | b | c)
        assert mgr.conjoin([]).is_true
        assert mgr.disjoin([]).is_false


class TestRestrictCompose:
    def test_restrict_single(self, mgr, abc):
        a, b, _ = abc
        f = a & b
        assert mgr.restrict(f, {"a": 1}) == b
        assert mgr.restrict(f, {"a": 0}).is_false

    def test_restrict_multi(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | c
        assert mgr.restrict(f, {"a": 1, "b": 1}).is_true
        assert mgr.restrict(f, {"a": 0, "b": 1}) == c

    def test_restrict_all_vars(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | c
        assert mgr.restrict(f, {"a": 1, "b": 1, "c": 0}).is_true

    def test_compose(self, mgr, abc):
        a, b, c = abc
        f = a & b
        g = mgr.compose(f, "b", c | a)
        # f[b := c|a] = a & (c | a) = a
        assert g == a

    def test_compose_with_lower_var(self, mgr, abc):
        a, b, c = abc
        f = b
        assert mgr.compose(f, "b", a & c) == (a & c)


class TestQuantification:
    def test_exists(self, mgr, abc):
        a, b, _ = abc
        f = a & b
        assert mgr.exists(["b"], f) == a

    def test_exists_multi(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | (a & c)
        assert mgr.exists(["b", "c"], f) == a

    def test_forall(self, mgr, abc):
        a, b, _ = abc
        f = a | b
        assert mgr.forall(["b"], f) == a

    def test_forall_of_tautology(self, mgr, abc):
        a, b, _ = abc
        f = a | ~a
        assert mgr.forall(["a", "b"], f).is_true

    def test_forall_universal_quantification_definition(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | (~a & c)
        expected = mgr.restrict(f, {"a": 0}) & mgr.restrict(f, {"a": 1})
        assert mgr.forall(["a"], f) == expected


class TestSatHelpers:
    def test_pick_none_for_false(self, mgr):
        assert mgr.pick(mgr.false) is None

    def test_pick_satisfies(self, mgr, abc):
        a, b, c = abc
        f = (a & ~b) | (b & c)
        assignment = mgr.pick(f)
        full = {"a": 0, "b": 0, "c": 0}
        full.update(assignment)
        assert mgr.evaluate(f, full)

    def test_sat_count(self, mgr, abc):
        a, b, c = abc
        assert mgr.sat_count(a & b & c) == 1
        assert mgr.sat_count(a) == 4
        assert mgr.sat_count(a | b) == 6
        assert mgr.sat_count(mgr.true) == 8
        assert mgr.sat_count(mgr.false) == 0

    def test_sat_count_custom_nvars(self, mgr, abc):
        a, _, _ = abc
        assert mgr.sat_count(a, nvars=5) == 16

    def test_sat_iter_complete(self, mgr, abc):
        a, b, c = abc
        f = a ^ b
        sols = list(mgr.sat_iter(f, ["a", "b", "c"]))
        assert len(sols) == 4
        for s in sols:
            assert mgr.evaluate(f, s)

    def test_cube_iter_disjoint_and_covering(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | c
        cubes = list(mgr.cube_iter(f))
        count = 0
        for cube in cubes:
            free = 3 - len(cube)
            count += 1 << free
        assert count == mgr.sat_count(f)

    def test_support(self, mgr, abc):
        a, b, c = abc
        assert mgr.support((a & b) | (a & ~b)) == {"a"}
        assert mgr.support(a ^ c) == {"a", "c"}
        assert mgr.support(mgr.true) == set()

    def test_from_cube(self, mgr, abc):
        a, b, c = abc
        f = mgr.from_cube({"a": 1, "c": 0})
        assert f == (a & ~c)

    def test_evaluate_missing_var(self, mgr, abc):
        a, b, _ = abc
        with pytest.raises(BddError):
            mgr.evaluate(a & b, {"a": 1})


class TestGarbageCollection:
    def test_gc_keeps_live_roots(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | c
        before = mgr.evaluate(f, {"a": 1, "b": 1, "c": 0})
        mgr.garbage_collect()
        assert mgr.evaluate(f, {"a": 1, "b": 1, "c": 0}) == before

    def test_gc_reclaims_garbage(self, mgr, abc):
        a, b, c = abc
        for _ in range(20):
            _ = (a & b) ^ (b | c)  # dropped immediately
        reclaimed = mgr.garbage_collect()
        # recompute works fine after GC
        assert ((a & b) | ~(a & b)).is_true

    def test_node_reuse_after_gc(self, mgr, abc):
        a, b, c = abc
        g = a ^ b
        del g
        mgr.garbage_collect()
        nodes_after_gc = mgr.num_nodes
        h = a ^ b  # rebuild: should reuse freed slots, not explode
        assert mgr.num_nodes >= nodes_after_gc


class TestSize:
    def test_terminal_size(self, mgr):
        assert mgr.size(mgr.true) == 1

    def test_var_size(self, mgr, abc):
        a, _, _ = abc
        assert mgr.size(a) == 3  # node + two terminals

    def test_shared_subgraph_counted_once(self, mgr, abc):
        a, b, c = abc
        f = (a & c) | (b & c)
        assert mgr.size(f) <= 5


class TestFusedQuantification:
    def test_and_exists_basic(self, mgr, abc):
        a, b, c = abc
        # ∃b.(a∧b ∧ b∧c) = a∧c
        assert mgr.and_exists(["b"], a & b, b & c) == a & c

    def test_and_forall_basic(self, mgr, abc):
        a, b, c = abc
        # ∀b.((a|b) ∧ (c|b)) = a∧c
        assert mgr.and_forall(["b"], a | b, c | b) == a & c

    def test_forall_implied_basic(self, mgr, abc):
        a, b, c = abc
        # ∀a.(a → b) = b; an implication valid for every a is TRUE
        assert mgr.forall_implied(["a"], a, b) == b
        assert mgr.forall_implied(["a"], a & b, b).is_true
        assert mgr.forall_implied(["a", "b"], a, b).is_false

    def test_fused_terminals(self, mgr, abc):
        a, _, _ = abc
        assert mgr.and_exists(["a"], mgr.false, a).is_false
        assert mgr.and_exists(["a"], mgr.true, a).is_true
        assert mgr.and_forall(["a"], mgr.true, a).is_false

    def test_fused_cross_manager_rejected(self, mgr, abc):
        a, _, _ = abc
        other = BddManager()
        x = other.add_var("x")
        with pytest.raises(BddError):
            mgr.and_exists(["a"], a, x)
        with pytest.raises(BddError):
            mgr.forall_implied(["a"], x, a)


class TestStatistics:
    def test_statistics_structure(self, mgr, abc):
        a, b, _ = abc
        _ = a & b
        stats = mgr.statistics()
        for key in (
            "ops", "caches", "cache_hits", "cache_misses", "cache_hit_rate",
            "cache_generation", "live_nodes", "peak_live_nodes", "num_vars",
            "gc_runs", "gc_reclaimed", "level_swaps", "reorder_events",
        ):
            assert key in stats
        assert set(stats["caches"]["and"]) == {
            "hits", "misses", "evictions", "entries"
        }

    def test_hit_and_miss_counters_increment(self, mgr, abc):
        a, b, _ = abc
        before = mgr.statistics()["caches"]["and"]
        f = a & b
        after_miss = mgr.statistics()["caches"]["and"]
        assert after_miss["misses"] == before["misses"] + 1
        g = a & b  # same operands: computed-table hit
        after_hit = mgr.statistics()["caches"]["and"]
        assert after_hit["hits"] == after_miss["hits"] + 1
        assert f == g

    def test_ops_count_lookups(self, mgr, abc):
        a, b, c = abc
        _ = (a | b) | c
        assert mgr.statistics()["ops"]["or"] >= 2

    def test_gc_bumps_generation_and_counters(self, mgr, abc):
        a, b, _ = abc
        _ = a & b
        gen = mgr.statistics()["cache_generation"]
        mgr.garbage_collect()
        stats = mgr.statistics()
        assert stats["cache_generation"] == gen + 1
        assert stats["gc_runs"] == 1
        assert stats["caches"]["and"]["entries"] == 0

    def test_live_node_counter_tracks_level_sizes(self, mgr, abc):
        a, b, c = abc
        f = (a & b) ^ (b | c)
        assert mgr.num_nodes == 2 + sum(mgr.level_sizes())
        del f
        mgr.garbage_collect()
        assert mgr.num_nodes == 2 + sum(mgr.level_sizes())

    def test_peak_live_is_monotone_bound(self, mgr, abc):
        a, b, c = abc
        f = (a & b) | (b & c)
        stats = mgr.statistics()
        assert stats["peak_live_nodes"] >= stats["live_nodes"]
        del f
        mgr.garbage_collect()
        after = mgr.statistics()
        assert after["peak_live_nodes"] >= stats["live_nodes"]

    def test_reset_statistics(self, mgr, abc):
        a, b, _ = abc
        _ = a & b
        mgr.garbage_collect()
        mgr.reset_statistics()
        stats = mgr.statistics()
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 0
        assert stats["gc_runs"] == 0
        assert stats["peak_live_nodes"] == stats["live_nodes"]


class TestComputedTableEviction:
    def test_small_bound_evicts_fifo(self):
        mgr = BddManager(cache_bound=2)
        vs = [mgr.add_var(f"x{i}") for i in range(6)]
        for i in range(0, 6, 2):
            _ = vs[i] & vs[i + 1]
        caches = mgr.statistics()["caches"]["and"]
        assert caches["entries"] <= 2
        assert caches["evictions"] >= 1

    def test_eviction_does_not_change_results(self):
        mgr = BddManager(cache_bound=1)
        a, b, c = mgr.add_var("a"), mgr.add_var("b"), mgr.add_var("c")
        f = (a & b) | (b & c) | (a & c)
        g = (a & b) | (b & c) | (a & c)
        assert f == g
        assert mgr.sat_count(f, 3) == 4


class TestManagerLifetime:
    """A finished analysis frees its manager, and with it the node store,
    by reference counting alone: no recursive helper may keep a reference
    cycle through the manager (which would wait for the cycle collector)."""

    @pytest.mark.parametrize("backend", ["object", "native"])
    @pytest.mark.parametrize("method", ["exact", "approx1"])
    def test_manager_freed_without_cycle_collector(self, backend, method):
        import gc
        import weakref

        from repro.circuits import mcnc_suite
        from repro.core.approx1 import Approx1Analysis
        from repro.core.exact import ExactAnalysis

        net = {s.name: s for s in mcnc_suite()}["m1"].network
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            if method == "exact":
                analysis = ExactAnalysis(net, output_required=0.0, backend=backend)
                relation = analysis.relation()
                result = relation.required_tuples({x: 0 for x in net.inputs})
                del relation
            else:
                analysis = Approx1Analysis(net, output_required=0.0, backend=backend)
                result = analysis.run()
            ref = weakref.ref(analysis.manager)
            del analysis, result
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
