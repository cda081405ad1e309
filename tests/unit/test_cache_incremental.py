"""Incremental re-analysis: only mutation-dirtied cones recompute.

The scenario is the one from docs/CACHING.md and bench_cache.py: C17's
`G10` gate feeds only the `G22` output cone, so rewriting it must leave
the `G23` cone cached.  The assertions run both on the result object and
on the `cache.*` metric deltas, which is also how the acceptance
criterion "recomputes only dirty cones, asserted via cache metrics" is
pinned.
"""

from repro.cache import (
    ResultCache,
    diff_cones,
    incremental_required_times,
)
from repro.circuits import c17
from repro.network import Network
from repro.obs.metrics import REGISTRY


def mutated_c17() -> Network:
    """C17 with G10 rewritten NAND → AND (dirties only G22's cone)."""
    net = Network("c17")
    for pi in ["G1", "G2", "G3", "G6", "G7"]:
        net.add_input(pi)
    net.add_gate("G10", "AND", ["G1", "G3"])
    net.add_gate("G11", "NAND", ["G3", "G6"])
    net.add_gate("G16", "NAND", ["G2", "G11"])
    net.add_gate("G19", "NAND", ["G11", "G7"])
    net.add_gate("G22", "NAND", ["G10", "G16"])
    net.add_gate("G23", "NAND", ["G16", "G19"])
    net.set_outputs(["G22", "G23"])
    return net


class TestDiffCones:
    def test_single_cone_mutation(self):
        report = diff_cones(c17(), mutated_c17(), "approx2", output_required=5.0)
        assert report == {
            "clean": ["G23"],
            "dirty": ["G22"],
            "added": [],
            "removed": [],
        }

    def test_added_and_removed_outputs(self):
        fewer = c17()
        fewer.set_outputs(["G22"])
        report = diff_cones(c17(), fewer, "topological")
        assert report["removed"] == ["G23"] and report["added"] == []
        report = diff_cones(fewer, c17(), "topological")
        assert report["added"] == ["G23"] and report["removed"] == []

    def test_identical_networks_are_all_clean(self):
        report = diff_cones(c17(), c17(), "exact", output_required=5.0)
        assert report["dirty"] == [] and sorted(report["clean"]) == ["G22", "G23"]


class TestIncremental:
    def test_cold_warm_mutated(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = incremental_required_times(
            c17(), "approx2", cache, output_required=5.0
        )
        assert sorted(cold.dirty) == ["G22", "G23"] and cold.ok

        warm = incremental_required_times(
            c17(), "approx2", cache, output_required=5.0
        )
        assert warm.dirty == [] and sorted(warm.clean) == ["G22", "G23"]
        assert warm.merged == cold.merged

        before = REGISTRY.snapshot()
        mutated = incremental_required_times(
            mutated_c17(), "approx2", cache, output_required=5.0
        )
        delta = REGISTRY.snapshot().diff(before)
        assert mutated.dirty == ["G22"] and mutated.clean == ["G23"]
        # exactly one cone missed (and was recomputed + stored)
        assert delta.get("cache.misses") == 1
        assert delta.get("cache.hits", 0) >= 1
        assert delta.get("cache.puts") == 1

    def test_incremental_merge_equals_full_recompute(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        incremental_required_times(c17(), "exact", cache, output_required=5.0)
        incremental = incremental_required_times(
            mutated_c17(), "exact", cache, output_required=5.0
        )
        full = incremental_required_times(
            mutated_c17(), "exact", ResultCache(None), output_required=5.0
        )
        assert incremental.merged == full.merged

    def test_report_shape(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        result = incremental_required_times(
            c17(), "topological", cache, output_required=5.0
        )
        report = result.report()
        assert report["cones"] == 2 and report["failed"] == []
        assert report["jobs"] == 1 and report["wall_seconds"] >= 0

    def test_jobs_parallel_matches_serial(self, tmp_path):
        serial = incremental_required_times(
            c17(), "approx2", ResultCache(str(tmp_path / "a")),
            output_required=5.0, jobs=1,
        )
        parallel = incremental_required_times(
            c17(), "approx2", ResultCache(str(tmp_path / "b")),
            output_required=5.0, jobs=2,
        )
        assert serial.merged == parallel.merged

    def test_incremental_persists_across_handles(self, tmp_path):
        """A cold run's disk entries are reusable by a fresh handle."""
        cold = incremental_required_times(
            c17(), "approx2", ResultCache(str(tmp_path)),
            output_required=5.0, jobs=2,
        )
        assert sorted(cold.dirty) == ["G22", "G23"]
        warm = incremental_required_times(
            c17(), "approx2", ResultCache(str(tmp_path)),
            output_required=5.0, jobs=1,
        )
        assert warm.dirty == [] and warm.merged == cold.merged

