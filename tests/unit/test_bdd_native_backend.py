"""Unit tests for the native C BDD kernel and its backend plumbing.

Cross-kernel *semantic* parity is enforced by the golden suites (run
under ``REPRO_BDD_BACKEND=native`` in CI) and the fuzzer's
object-vs-native ``bdd-backend-parity`` check; this file targets the
machinery specific to the native backend: the lazy build/loader
(content-addressed artifacts, compiler-missing fallback, stale-artifact
rebuild), the bit-identity contract at its sharpest points (node-id
traces, budget-abort timing), the dual-authority sync around
GC/reordering, and the uniform backend-resolution precedence every
entry point shares.

Tests that need the compiled kernel skip on environments without one —
the fallback path itself is tested compiler-or-not.
"""

import ctypes
import json
import os

import pytest

from repro.bdd import BACKENDS, BddManager, backend_of, create_manager
from repro.bdd._native import build as native_build
from repro.bdd.api import BACKEND_ENV, backend_resolution
from repro.bdd.native_backend import create_native_manager, native_status
from repro.errors import BddError, ResourceLimitError
from repro.obs.metrics import REGISTRY

HAVE_KERNEL = native_status()[0]

needs_kernel = pytest.mark.skipif(
    not HAVE_KERNEL, reason="native kernel unavailable (no C compiler or numpy?)"
)


def _fresh_load():
    """Reset the loader memo so the next load_kernel() really retries."""
    native_build._LOADED = None


@pytest.fixture
def isolated_loader(tmp_path, monkeypatch):
    """A private artifact cache + un-memoized loader for build tests."""
    monkeypatch.setenv(native_build.CACHE_ENV, str(tmp_path))
    _fresh_load()
    yield tmp_path
    _fresh_load()


# ----------------------------------------------------------------------
# build / loader
# ----------------------------------------------------------------------
class TestBuild:
    @needs_kernel
    def test_artifact_is_content_addressed(self, isolated_loader):
        path, reason = native_build.build_kernel()
        assert reason is None
        assert path.parent == isolated_loader
        assert native_build.source_digest()[:16] in path.name

    @needs_kernel
    def test_source_hash_change_triggers_rebuild(self, isolated_loader, tmp_path):
        first, _ = native_build.build_kernel()
        # an edited copy of the source must map to a *different* artifact
        edited = tmp_path / "edited.c"
        edited.write_text(
            native_build.KERNEL_SOURCE.read_text() + "\n/* edited */\n"
        )
        second, reason = native_build.build_kernel(source=edited)
        assert reason is None
        assert second != first
        assert second.exists() and first.exists()

    @needs_kernel
    def test_corrupt_artifact_rebuilds_once(self, isolated_loader):
        path, _ = native_build.build_kernel()
        path.write_bytes(b"not a shared object")
        lib, reason = native_build.load_kernel()
        assert reason is None
        assert lib.nat_abi_version() == native_build.ABI_VERSION

    def test_compiler_missing_falls_back(self, isolated_loader, monkeypatch, caplog):
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        counter = REGISTRY.counter("bdd.native.fallback")
        before = counter.value
        import logging

        import repro.bdd.native_backend as nb

        monkeypatch.setattr(nb, "_WARNED", set())
        with caplog.at_level(logging.WARNING, logger="repro.bdd.native"):
            manager = create_native_manager()
        assert type(manager) is BddManager
        assert counter.value == before + 1
        assert any(
            "native BDD kernel unavailable" in rec.message
            and "using object kernel" in rec.message
            for rec in caplog.records
        )
        assert backend_resolution("native")["effective"] == "object"
        # exit code 0 semantics: analyses still run on the fallback kernel
        a, b = manager.add_var("a"), manager.add_var("b")
        assert (a & b).id == manager._and(a.id, b.id)

    def test_numpy_missing_falls_back(self, tmp_path):
        # a fresh interpreter whose import system refuses numpy (setting
        # sys.modules["numpy"] = None would break hypothesis instead)
        import pathlib
        import subprocess
        import sys

        import repro
        from repro.circuits import c17
        from repro.network import write_blif

        blif = tmp_path / "c17.blif"
        blif.write_text(write_blif(c17()))
        program = (
            "import sys\n"
            "class NoNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numpy':\n"
            "            raise ModuleNotFoundError(name, name=name)\n"
            "sys.meta_path.insert(0, NoNumpy())\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
            REPRO_BDD_BACKEND="native",
        )
        proc = subprocess.run(
            [sys.executable, "-c", program, "required", str(blif),
             "--method", "exact", "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        stamp = json.loads(proc.stdout)["bdd_backend"]
        assert stamp["effective"] == "object"
        assert "numpy" in stamp["fallback_reason"]

    def test_compiler_env_override_is_surfaced(self, isolated_loader, monkeypatch):
        monkeypatch.setenv(native_build.CC_ENV, "/no/such/compiler")
        path, reason = native_build.build_kernel(force=True)
        assert path is None
        assert reason is not None
        # the compiler never started: its temp output must not linger
        assert not list(isolated_loader.glob("libreprobdd-*"))

    @needs_kernel
    def test_build_script_reports_ok(self, isolated_loader, capsys):
        import importlib.util
        import pathlib

        script = (
            pathlib.Path(native_build.KERNEL_SOURCE).parents[3].parent
            / "scripts"
            / "build_native.py"
        )
        spec = importlib.util.spec_from_file_location("build_native", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.main([]) == 0
        out = capsys.readouterr().out
        assert "build     : ok" in out


# ----------------------------------------------------------------------
# registry / factory / precedence
# ----------------------------------------------------------------------
class TestResolution:
    def test_registry_contains_native(self):
        assert BACKENDS == ("object", "native")

    def test_env_selects_native(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        manager = create_manager()
        assert backend_of(manager) in ("native", "object")  # object = fallback
        if HAVE_KERNEL:
            assert backend_of(manager) == "native"

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert backend_of(create_manager("object")) == "object"

    def test_unknown_name_error_is_uniform(self, monkeypatch):
        # the one canonical message, from every entry point
        from repro.bdd.api import resolve_backend
        from repro.circuits import figure4
        from repro.core.exact import ExactAnalysis

        with pytest.raises(BddError, match="unknown BDD backend 'cudd'") as api_err:
            resolve_backend("cudd")
        with pytest.raises(BddError, match="unknown BDD backend 'cudd'") as exact_err:
            ExactAnalysis(figure4(), backend="cudd")
        assert str(api_err.value) == str(exact_err.value)
        monkeypatch.setenv(BACKEND_ENV, "cudd")
        with pytest.raises(BddError, match="unknown BDD backend 'cudd'"):
            create_manager()

    def test_cli_required_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        code = main(["required", "does-not-matter", "--method", "exact",
                     "--backend", "cudd"])
        assert code == 2
        assert "unknown BDD backend 'cudd'" in capsys.readouterr().err

    def test_cli_eco_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        code = main(["eco", "x", "y", "--method", "exact", "--backend", "cudd"])
        assert code == 2
        assert "unknown BDD backend 'cudd'" in capsys.readouterr().err

    def test_cli_serve_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        code = main(["serve", "--backend", "cudd"])
        assert code == 2
        assert "unknown BDD backend 'cudd'" in capsys.readouterr().err

    def test_backend_resolution_reports_fallback(self, monkeypatch):
        info = backend_resolution("object")
        assert info == {
            "requested": "object",
            "resolved": "object",
            "effective": "object",
            "fallback_reason": None,
        }
        native = backend_resolution("native")
        assert native["resolved"] == "native"
        if HAVE_KERNEL:
            assert native["effective"] == "native"
            assert native["fallback_reason"] is None
        else:
            assert native["effective"] == "object"
            assert native["fallback_reason"]


# ----------------------------------------------------------------------
# bit-identity: node traces and budget aborts
# ----------------------------------------------------------------------
def _managers():
    return [BddManager(), create_native_manager()]


@needs_kernel
class TestBitIdentity:
    def test_node_id_traces_match(self):
        import random

        traces = []
        for m in _managers():
            random.seed(11)
            vs = [m.add_var(f"x{i}") for i in range(10)]
            pool = [v.id for v in vs]
            trace = []
            for _ in range(200):
                op = random.choice(
                    ["not", "and", "or", "xor", "exists", "andex", "andall"]
                )
                f, g = random.choice(pool), random.choice(pool)
                lv = tuple(sorted(random.sample(range(10), 2)))
                if op == "not":
                    r = m._not(f)
                elif op == "and":
                    r = m._and(f, g)
                elif op == "or":
                    r = m._or(f, g)
                elif op == "xor":
                    r = m._xor(f, g)
                elif op == "exists":
                    r = m._exists(f, lv)
                elif op == "andex":
                    r = m._and_exists(f, g, lv)
                else:
                    r = m._and_forall(f, g, lv)
                pool.append(r)
                trace.append(r)
            traces.append((trace, len(m._var)))
        assert traces[0] == traces[1]

    def test_budget_abort_at_same_visit(self):
        """max_nodes must trip at the same op index and node count in
        both kernels — the abort point is part of the result."""
        import random

        outcomes = []
        for cls in (
            lambda: BddManager(max_nodes=120),
            lambda: create_native_manager(max_nodes=120),
        ):
            random.seed(3)
            m = cls()
            vs = [m.add_var(f"x{i}") for i in range(12)]
            pool = [v.id for v in vs]
            outcome = None
            for step in range(600):
                f, g = random.choice(pool), random.choice(pool)
                try:
                    pool.append(m._xor(f, g))
                except ResourceLimitError as exc:
                    outcome = (step, len(m._var), str(exc))
                    break
            outcomes.append(outcome)
        assert outcomes[0] is not None
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# maintenance parity (GC / swaps / level sizes)
# ----------------------------------------------------------------------
@needs_kernel
class TestMaintenanceParity:
    def test_gc_swap_interleaving_matches_object(self):
        # compared at function level: raw ids differ after the first GC,
        # because the object kernel reuses freed ids and native does not
        import random

        results = []
        for make in (BddManager, create_native_manager):
            random.seed(5)
            m = make()
            vs = [m.add_var(f"x{i}") for i in range(8)]
            keep = []
            trace = []
            for _ in range(250):
                op = random.choice(["and", "or", "xor", "gc", "swap", "sizes"])
                if op == "gc":
                    trace.append(("gc", m.garbage_collect()))
                    continue
                if op == "swap":
                    lv = random.randrange(7)
                    m.swap_levels(lv)
                    trace.append(("swap", lv))
                    continue
                if op == "sizes":
                    trace.append(tuple(m.level_sizes()))
                    continue
                f = (
                    random.choice(keep).id
                    if keep and random.random() < 0.7
                    else random.choice(vs).id
                )
                g = (
                    random.choice(keep).id
                    if keep and random.random() < 0.7
                    else random.choice(vs).id
                )
                h = m._wrap(getattr(m, f"_{op}")(f, g))
                if random.random() < 0.5:
                    keep.append(h)
                    if len(keep) > 15:
                        keep.pop(0)
                trace.append(m.sat_count(h))
            trace.append(("live", m.live_node_count()))
            results.append((trace, [m.sat_count(h) for h in keep]))
        assert results[0] == results[1]

    def test_statistics_shape_matches_other_kernels(self):
        obj, nat = BddManager(), create_native_manager()
        for m in (obj, nat):
            a, b = m.add_var("a"), m.add_var("b")
            _ = (a & b) | ~a
        assert set(obj.statistics()) == set(nat.statistics())
        assert set(obj.statistics()["caches"]) == set(nat.statistics()["caches"])

    def test_reset_statistics_zeroes_kernel_counters(self):
        m = create_native_manager()
        a, b = m.add_var("a"), m.add_var("b")
        _ = a & b
        _ = a & b  # cache hit inside the C kernel
        stats = m.statistics()
        assert stats["cache_misses"] > 0
        m.reset_statistics()
        stats = m.statistics()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0


# ----------------------------------------------------------------------
# cache keys: native keys under the frozen "array" literal
# ----------------------------------------------------------------------
#: ``required_key(parity_tree(3), "exact", ...)`` digests recorded when
#: a separate Python kernel still answered to the name ``array``
PARITY3_NATIVE_DIGEST = (
    "39f239fcc874db8057b7d0b6b90b5c7c3fa8c67665e06caf5ca47934ce1f33f5"
)
PARITY3_OBJECT_DIGEST = (
    "3b10ffca7fa5fac9e290d2261c7565817a085eeb11c5127ae019239a4ceea869"
)


class TestCacheKey:
    def test_native_keys_like_array(self, monkeypatch):
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        net = parity_tree(3)
        nat = required_key(net, "exact", options={"backend": "native"})
        obj = required_key(net, "exact", options={"backend": "object"})
        assert nat.digest == PARITY3_NATIVE_DIGEST
        assert obj.digest == PARITY3_OBJECT_DIGEST

    def test_env_native_keys_like_array(self, monkeypatch):
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree

        monkeypatch.setenv(BACKEND_ENV, "native")
        via_env = required_key(parity_tree(3), "exact", options={})
        assert via_env.digest == PARITY3_NATIVE_DIGEST

    def test_removed_array_name_is_unknown(self, monkeypatch):
        # the frozen key literal is not a backend name: no alias exists
        from repro.cache.keys import required_key
        from repro.circuits import parity_tree
        from repro.core.exact import ExactAnalysis

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with pytest.raises(BddError, match="unknown BDD backend 'array'"):
            create_manager("array")
        with pytest.raises(BddError, match="unknown BDD backend 'array'"):
            ExactAnalysis(parity_tree(3), backend="array")
        with pytest.raises(BddError, match="unknown BDD backend 'array'"):
            required_key(parity_tree(3), "exact", options={"backend": "array"})

    def test_baseline_is_anchored_not_default(self):
        # flipping DEFAULT_BACKEND must never re-key the cache: the
        # drop-if-baseline rule is anchored to the literal historical
        # baseline, not to whatever the runtime default happens to be
        from repro.cache.keys import _CACHE_BASELINE_BACKEND

        assert _CACHE_BASELINE_BACKEND == "object"
