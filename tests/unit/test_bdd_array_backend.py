"""Unit tests for the native node store and the backend API.

The C kernel owns the node store as flat arrays: open-addressed unique
tables with tombstones and a tombstone-first mark/sweep/compact garbage
collector whose old→new remap Python applies to the live handles; Python
reads the rows through views of the C arrays.  This file targets that
machinery, the backend registry, and object-vs-native parity at its
sharpest points (fused quantifiers, the paper's example rows, budget
aborts).  Row parity on generated circuits is the fuzzer's
``bdd-backend-parity`` check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BACKENDS,
    BddManager,
    backend_of,
    create_manager,
    resolve_backend,
)
from repro.bdd.api import BACKEND_ENV
from repro.bdd.native_backend import (
    NativeBddManager,
    create_native_manager,
    native_status,
)
from repro.errors import BddError, ResourceLimitError

HAVE_KERNEL = native_status()[0]

needs_kernel = pytest.mark.skipif(
    not HAVE_KERNEL, reason="native kernel unavailable (no C compiler?)"
)


# ----------------------------------------------------------------------
# the backend API: registry, env default, factory
# ----------------------------------------------------------------------
class TestBackendApi:
    def test_registry(self):
        assert BACKENDS == ("object", "native")

    def test_default_is_native(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "native"
        # native degrades to the object kernel without a C toolchain
        expected = "native" if HAVE_KERNEL else "object"
        assert backend_of(create_manager()) == expected

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "object")
        assert resolve_backend(None) == "object"
        assert type(create_manager()) is BddManager

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "object")
        assert resolve_backend("native") == "native"

    def test_unknown_backend_fails_loudly(self, monkeypatch):
        with pytest.raises(BddError):
            resolve_backend("cudd")
        monkeypatch.setenv(BACKEND_ENV, "typo")
        with pytest.raises(BddError):
            create_manager()

    def test_backend_of(self):
        assert backend_of(BddManager()) == "object"
        expected = "native" if HAVE_KERNEL else "object"
        assert backend_of(create_native_manager()) == expected

    def test_statistics_shape_matches_object_kernel(self):
        obj, nat = BddManager(), create_native_manager()
        for m in (obj, nat):
            a, b = m.add_var("a"), m.add_var("b")
            _ = (a & b) | ~a
        assert set(obj.statistics()) == set(nat.statistics())
        assert set(obj.statistics()["caches"]) == set(nat.statistics()["caches"])


# ----------------------------------------------------------------------
# garbage collection: tombstone sweep, compaction, handle remapping
# ----------------------------------------------------------------------
def _build_funcs(m, nvars=10, cubes=120, seed=11):
    import random

    rng = random.Random(seed)
    vs = [m.add_var(f"x{i}") for i in range(nvars)]
    funcs = []
    for _ in range(6):
        f = m.false
        for _ in range(cubes):
            cube = m.true
            for v in rng.sample(vs, 6):
                cube &= v if rng.random() < 0.5 else ~v
            f |= cube
        funcs.append(f)
    return funcs


@needs_kernel
class TestGarbageCollect:
    def test_sweep_without_compaction_keeps_ids_stable(self):
        m = NativeBddManager()
        funcs = _build_funcs(m)
        m.garbage_collect()  # flush construction temporaries first
        keep = funcs[:5]  # most remaining nodes stay live -> no compaction
        sizes = [m.size(f) for f in keep]
        ids = [f.id for f in keep]
        rows = m._num_rows()
        del funcs
        reclaimed = m.garbage_collect()
        assert reclaimed > 0
        assert m._num_rows() == rows  # swept in place, not compacted
        assert [f.id for f in keep] == ids
        assert [m.size(f) for f in keep] == sizes

    def test_compaction_remaps_live_handles(self):
        m = NativeBddManager()
        funcs = _build_funcs(m)
        keep = funcs[0]
        sat = m.sat_count(keep, nvars=10)
        size = m.size(keep)
        rows_before = m._num_rows()
        del funcs  # drop everything but ``keep`` -> compaction fires
        reclaimed = m.garbage_collect()
        assert reclaimed > 0
        assert m._num_rows() < rows_before  # the rows were compacted
        # the handle was remapped and the function survived bit-exactly
        assert m.size(keep) == size
        assert m.sat_count(keep, nvars=10) == sat
        # post-compaction every row is reachable (incl. the 2 terminals)
        assert m.live_node_count() == m._num_rows()

    def test_gc_then_rebuild_reuses_reclaimed_budget(self):
        # the node budget counts *live* rows: after a sweep the dead rows
        # must not count against max_nodes (parity with the object
        # kernel, whose freelist reuse gives the same accounting)
        for cls in (BddManager, NativeBddManager):
            m = cls(max_nodes=4000)
            funcs = _build_funcs(m, nvars=8, cubes=40)
            del funcs
            m.garbage_collect()
            vs = [m.var(f"x{i}") for i in range(8)]
            f = m.false  # rebuilding similar structure must fit the budget
            import random

            rng = random.Random(5)
            try:
                for _ in range(40):
                    cube = m.true
                    for v in rng.sample(vs, 6):
                        cube &= v if rng.random() < 0.5 else ~v
                    f |= cube
            except ResourceLimitError:
                pytest.fail(f"{cls.__name__}: reclaimed budget not reusable")

    def test_gc_statistics(self):
        m = NativeBddManager()
        funcs = _build_funcs(m)
        del funcs[1:]
        reclaimed = m.garbage_collect()
        st = m.statistics()
        assert st["gc_runs"] == 1
        assert st["gc_reclaimed"] == reclaimed
        assert st["live_nodes"] == m.live_node_count()


# ----------------------------------------------------------------------
# row views over the C arrays
# ----------------------------------------------------------------------
@needs_kernel
class TestRowViews:
    def test_views_follow_growth_and_outgrown_ones_die_at_gc(self):
        m = NativeBddManager()
        first = m._var
        funcs = _build_funcs(m)  # grows the store past its first buffer
        assert m._var is not first and len(m._var) > len(first)
        assert first[0] == -1  # an outgrown buffer stays readable ...
        assert m.var_name_of(funcs[0].id).startswith("x")
        m.garbage_collect()
        with pytest.raises(ValueError):
            first[0]  # ... until the collection that frees it
        assert m.var_name_of(funcs[0].id).startswith("x")

    def test_gc_after_an_unseen_growth_releases_the_old_views(self):
        # a budget abort returns no node count, so one operation can
        # outgrow the views and fail without Python seeing the growth;
        # the collection that frees the outgrown buffer must still view
        # the current one and release the old views
        import random

        m = NativeBddManager(max_nodes=1100)
        vs = [m.add_var(f"x{i}") for i in range(14)]
        f = m.conjoin([vs[i].equiv(vs[i + 7]) for i in range(7)])
        g = m.conjoin([vs[i].equiv(vs[13 - i]) for i in range(7)])
        rng = random.Random(3)
        # live padding cubes bring the store to 944 rows
        pads = [
            m.conjoin([v if rng.random() < 0.5 else ~v for v in rng.sample(vs, 10)])
            for _ in range(12)
        ]
        first = m._var
        assert m._num_rows() < len(first)
        with pytest.raises(ResourceLimitError):
            f ^ g  # grows the store past the first buffer, then aborts
        assert m._var is first and m._num_rows() > len(first)
        m.garbage_collect()
        with pytest.raises(ValueError):
            first[0]
        assert m._var is not first
        assert m.sat_count(f, nvars=14) == 2**7
        assert len(pads) == 12

    def test_views_are_read_only(self):
        m = NativeBddManager()
        m.add_var("a")
        with pytest.raises(TypeError):
            m._low[2] = 1


# ----------------------------------------------------------------------
# fused quantification == unfused composition (property)
# ----------------------------------------------------------------------
def _random_func(m, vs, rng, cubes=8):
    f = m.false
    for _ in range(cubes):
        cube = m.true
        for v in rng.sample(vs, rng.randint(2, 4)):
            cube &= v if rng.random() < 0.5 else ~v
        f |= cube
    return f


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), nq=st.integers(1, 4))
def test_fused_quantify_matches_unfused(seed, nq):
    import random

    for m in (BddManager(), create_native_manager()):
        rng = random.Random(seed)
        vs = [m.add_var(f"x{i}") for i in range(6)]
        names = [f"x{i}" for i in rng.sample(range(6), nq)]
        f = _random_func(m, vs, rng)
        g = _random_func(m, vs, rng)
        assert m.and_exists(names, f, g) == m.exists(names, f & g)
        assert m.and_forall(names, f, g) == m.forall(names, f & g)
        assert m.forall_implied(names, f, g) == m.forall(names, ~f | g)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_fused_quantify_on_network_functions(data):
    """The same law over global functions of random networks."""
    from tests.strategies import small_networks

    from repro.network.verify import global_functions

    net = data.draw(small_networks(n_inputs=4, max_gates=6))
    for m in (BddManager(), create_native_manager()):
        funcs = global_functions(net, m)
        f = funcs[net.outputs[0]]
        g = ~funcs[net.inputs[0]]
        names = list(net.inputs[:2])
        assert m.and_exists(names, f, g) == m.exists(names, f & g)
        assert m.and_forall(names, f, g) == m.forall(names, f & g)


# ----------------------------------------------------------------------
# canonical-row parity on the paper's example circuits
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "circuit", ["c17", "carry_skip_block", "figure4", "figure6", "figure6_extended"]
)
@pytest.mark.parametrize("method", ["exact", "approx1"])
def test_example_circuit_rows_bit_identical(circuit, method):
    """Both kernels must produce byte-identical canonical rows."""
    import json

    from repro import circuits
    from repro.cache.results import CachedRequiredResult
    from repro.core.required_time import (
        analyze_required_times,
        topological_input_required_times,
    )

    net = getattr(circuits, circuit)()
    baseline = topological_input_required_times(net, None, 0.0)
    rows = {}
    for backend in BACKENDS:
        report = analyze_required_times(
            net.copy(), method, output_required=0.0, backend=backend
        )
        rows[backend] = json.dumps(
            CachedRequiredResult.from_report(report, baseline).row(),
            sort_keys=True,
        )
    assert rows["object"] == rows["native"]


# ----------------------------------------------------------------------
# budget-abort parity across kernels
# ----------------------------------------------------------------------
def test_budget_abort_parity():
    """Both kernels must run out of the same budget at the same step."""
    import random

    steps = {}
    for backend in BACKENDS:
        m = create_manager(backend, max_nodes=300)
        vs = [m.add_var(f"x{i}") for i in range(10)]
        rng = random.Random(42)
        f = m.false
        step = None
        try:
            for i in range(200):
                cube = m.true
                for v in rng.sample(vs, 5):
                    cube &= v if rng.random() < 0.5 else ~v
                f |= cube
        except ResourceLimitError:
            step = i
        steps[backend] = (step, m.statistics()["nodes_created"])
    assert steps["object"] == steps["native"]


def test_swap_abort_keeps_the_store_canonical():
    """A level swap that outgrows the budget finishes before it raises:
    every edge under f still points strictly down, and both kernels raise
    at the same swap."""
    import itertools

    aborted = {}
    for backend in BACKENDS:
        m = create_manager(backend, max_nodes=22)
        x = [m.add_var(f"x{i}") for i in range(6)]
        partial = x[0] & x[3]
        partial = partial | (x[1] & x[4])
        f = partial | (x[2] & x[5])  # x0·x3 + x1·x4 + x2·x5
        m.garbage_collect()
        for level in (2, 1, 0):
            try:
                m.swap_levels(level)
            except ResourceLimitError:
                aborted[backend] = level
                break
        stack, seen = [f.id], set()
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            for child in (m._low[node], m._high[node]):
                assert m._level(child) > m._level(node), backend
                stack.append(child)
        for bits in itertools.product((0, 1), repeat=6):
            env = {f"x{i}": b for i, b in enumerate(bits)}
            expected = any(bits[i] and bits[i + 3] for i in range(3))
            assert m.evaluate(f, env) == expected
    assert aborted == {"object": 0, "native": 0}
