"""Result-cache benchmark: cold vs warm vs incremental, with parity gates.

Timed claims (the acceptance bar of docs/CACHING.md):

* a **warm** ``required`` analysis served from the cache is bit-identical
  to the cold run on the canonical row and ≥5x faster for the heavy
  methods (exact / approx1);
* an **incremental** re-analysis after a single-cone mutation recomputes
  only the dirty cones (asserted both on the result and on the
  ``cache.*`` metric deltas) and merges bit-identically to a full
  recompute.

Run:  pytest benchmarks/bench_cache.py --benchmark-only -q

Script mode — ``python benchmarks/bench_cache.py [--smoke] [--json OUT]``
— runs the full cold/warm/incremental matrix with its parity and
recompute-set assertions and writes the JSON payload;
``scripts/check_bench.py cache`` holds the speedup floor (CI runs it
with ``--smoke``).
"""

import json
import sys
import time

from _harness import TableCollector

from repro.cache import (
    ResultCache,
    cached_analyze_required_times,
    incremental_required_times,
)
from repro.circuits import c17, figure4
from repro.obs.metrics import REGISTRY

TABLE = TableCollector(
    "Result cache: cold vs warm (canonical-row parity enforced)",
    ["analysis", "cold (s)", "warm (s)", "speedup", "parity"],
)


def mutated_c17():
    """C17 with gate G10 rewritten NAND → AND: dirties only G22's cone."""
    from repro.network import Network

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


def _cold_warm(network, method, required, cache, options=None):
    """One cold+warm pair through ``cache``; returns the record dict."""
    t0 = time.perf_counter()
    cold, hit0 = cached_analyze_required_times(
        network, method, cache, output_required=required, options=options
    )
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm, hit1 = cached_analyze_required_times(
        network, method, cache, output_required=required, options=options
    )
    warm_s = time.perf_counter() - t0
    assert not hit0, f"{method}: first lookup hit a fresh cache"
    assert hit1, f"{method}: warm lookup missed"
    assert not cold.aborted, f"{method}: cold run aborted"
    parity = json.dumps(cold.row(), sort_keys=True) == json.dumps(
        warm.row(), sort_keys=True
    )
    assert parity, f"{method}: warm row differs from cold row"
    return {
        "circuit": network.name,
        "method": method,
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / max(warm_s, 1e-9), 1),
        "parity": parity,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entries (the warm lookup is the service hot path)
# ----------------------------------------------------------------------
def test_warm_exact_lookup(benchmark, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    record = _cold_warm(figure4(), "exact", 2.0, cache)

    def warm():
        return cached_analyze_required_times(
            figure4(), "exact", cache, output_required=2.0
        )

    result, hit = benchmark(warm)
    assert hit and result.nontrivial
    TABLE.add(
        "exact/figure4",
        record["cold_seconds"],
        record["warm_seconds"],
        f"{record['speedup']}x",
        record["parity"],
    )


def test_warm_approx1_lookup(benchmark, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    record = _cold_warm(figure4(), "approx1", 2.0, cache)

    def warm():
        return cached_analyze_required_times(
            figure4(), "approx1", cache, output_required=2.0
        )

    result, hit = benchmark(warm)
    assert hit and result.nontrivial
    TABLE.add(
        "approx1/figure4",
        record["cold_seconds"],
        record["warm_seconds"],
        f"{record['speedup']}x",
        record["parity"],
    )


def test_incremental_single_cone(benchmark, tmp_path):
    """Mutating one cone of C17 must recompute exactly that cone."""
    cache = ResultCache(str(tmp_path / "cache"))
    cold = incremental_required_times(c17(), "approx2", cache, output_required=5.0)
    assert sorted(cold.dirty) == ["G22", "G23"] and not cold.clean

    def incremental():
        return incremental_required_times(
            mutated_c17(), "approx2", cache, output_required=5.0
        )

    # the first timed round recomputes G22 and caches it, so later rounds
    # may serve both cones; G23's cone must hit in every round
    result = benchmark(incremental)
    assert "G23" in result.clean and not result.failed
    TABLE.add("incremental/c17", cold.wall, result.wall, "-", True)


def test_zzz_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    TABLE.print_once()


# ----------------------------------------------------------------------
# script mode: the JSON payload scripts/check_bench.py gates
# ----------------------------------------------------------------------
def script_matrix(smoke: bool):
    matrix = [
        (figure4, "exact", 2.0, None),
        (figure4, "approx1", 2.0, None),
        (c17, "approx2", 5.0, {"engine": "sat"}),
        (c17, "topological", 5.0, None),
    ]
    if not smoke:
        from repro.circuits import mcnc_suite

        m1 = next(s for s in mcnc_suite() if s.name == "m1")
        matrix += [
            (lambda m1=m1: m1.network.copy(), "approx1", 0.0, None),
            (lambda m1=m1: m1.network.copy(), "approx2", 0.0, {"engine": "sat"}),
        ]
    return matrix


def run_incremental_scenario(jobs: int = 1) -> dict:
    """Cold → warm → single-cone mutation, with metric-delta assertions."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as td:
        cache = ResultCache(td)
        cold = incremental_required_times(
            c17(), "approx2", cache, output_required=5.0, jobs=jobs
        )
        assert sorted(cold.dirty) == ["G22", "G23"], cold.report()
        warm = incremental_required_times(
            c17(), "approx2", cache, output_required=5.0, jobs=jobs
        )
        assert not warm.dirty and sorted(warm.clean) == ["G22", "G23"]
        assert warm.merged == cold.merged

        before = REGISTRY.snapshot()
        mutated = incremental_required_times(
            mutated_c17(), "approx2", cache, output_required=5.0, jobs=jobs
        )
        delta = REGISTRY.snapshot().diff(before)
        # only G22's cone contains the mutated gate: exactly one miss
        # (the dirty cone) and at least one hit (the clean cone)
        assert mutated.dirty == ["G22"], mutated.report()
        assert mutated.clean == ["G23"], mutated.report()
        assert delta.get("cache.misses", 0) == 1, delta
        assert delta.get("cache.hits", 0) >= 1, delta

        # the incremental merge must be bit-identical to a full recompute
        full = incremental_required_times(
            mutated_c17(),
            "approx2",
            ResultCache(None),
            output_required=5.0,
            jobs=jobs,
        )
        assert mutated.merged == full.merged
        return {
            "circuit": "c17",
            "method": "approx2",
            "cold_seconds": round(cold.wall, 6),
            "warm_seconds": round(warm.wall, 6),
            "mutated_seconds": round(mutated.wall, 6),
            "recomputed_after_mutation": mutated.dirty,
            "cached_after_mutation": mutated.clean,
            "full_recompute_parity": True,
        }


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="Cold/warm/incremental result-cache benchmark."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small circuits only (the CI gate)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the JSON payload to this path")
    args = parser.parse_args(argv)

    records = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as td:
        cache = ResultCache(td)
        for factory, method, required, options in script_matrix(args.smoke):
            record = _cold_warm(factory(), method, required, cache, options)
            records.append(record)
            print(
                f"{record['circuit']:<10} {method:<12} "
                f"cold {record['cold_seconds']:.4f}s  "
                f"warm {record['warm_seconds']:.4f}s  "
                f"({record['speedup']}x, parity ok)"
            )

    incremental = run_incremental_scenario()
    print(
        f"incremental c17: cold {incremental['cold_seconds']:.4f}s, "
        f"warm {incremental['warm_seconds']:.4f}s, after mutation "
        f"recomputed only {incremental['recomputed_after_mutation']}"
    )

    if args.json:
        payload = {
            "benchmark": "cache",
            "smoke": args.smoke,
            "results": records,
            "incremental": incremental,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"record written to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
