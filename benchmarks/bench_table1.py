"""Table 1 — required-time computation: exact vs approximate 1 vs 2.

Regenerates the paper's Table 1 on the m1…m10 substitute suite (see
DESIGN.md §4 and §5): per circuit and method, the CPU time, the paper's
'*' non-triviality mark, and 'memory out' / '-' entries where the paper
reports them.  The shape targets are:

* exact is only feasible on the small/clustered circuits (m1, m3) and
  aborts (node budget = memory out) or is not attempted elsewhere;
* approximate 1 completes almost everywhere, aborting only on m10;
* approximate 2 completes everywhere, but stars strictly fewer circuits
  than approximate 1 (value-independent search).

Run:  pytest benchmarks/bench_table1.py --benchmark-only -q

Script mode runs the same grid as one parallel batch — ``python
benchmarks/bench_table1.py --jobs N [--json OUT]`` — one task per
(circuit, method) on a warm worker pool.  Canonical result rows are
time-free, so ``--jobs 1`` and ``--jobs N`` outputs are bit-comparable
(the ``parallel`` scenario of ``scripts/check_bench.py``).
"""

import sys

import pytest

from _harness import BddStatsCollector, TableCollector, star, traced_pedantic
from conftest import bench_budget
from repro.bdd import BACKENDS
from repro.circuits import mcnc_suite
from repro.core.required_time import analyze_required_times

SPECS = {spec.name: spec for spec in mcnc_suite()}

TABLE = TableCollector(
    "Table 1 -- Required Time Computation: Exact vs Approximate",
    ["circuit", "paper", "#PI", "#PO", "method", "CPU (s)", "nontrivial", "status"],
)

ENGINE_STATS = BddStatsCollector("BDD engine counters (exact / approx-1 runs)")

# which methods run per circuit (the paper's '-' rows are not attempted)
EXACT_CIRCUITS = {"m1": 500_000, "m2": 120_000, "m3": 2_000_000}
APPROX1_CIRCUITS = {
    "m1": None,
    "m2": 400_000,
    "m3": None,
    "m4": 400_000,
    "m5": None,
    "m6": None,
    "m7": None,
    "m8": 800_000,
    "m9": None,
    "m10": 150_000,  # emulates the paper's memory-out row
}


def _record(spec, method, report):
    status = "ok"
    if report.aborted:
        status = "memory out" if "node budget" in (report.abort_reason or "") else "aborted"
    TABLE.add(
        spec.name,
        spec.paper_name,
        spec.network.num_inputs,
        spec.network.num_outputs,
        method,
        report.elapsed,
        star(report.nontrivial),
        status,
    )
    ENGINE_STATS.add(f"{spec.name}/{method}", report.stats.get("bdd"))
    return report


@pytest.mark.parametrize("name", sorted(EXACT_CIRCUITS))
def test_exact(benchmark, name):
    spec = SPECS[name]
    max_nodes = EXACT_CIRCUITS[name]

    def run():
        return analyze_required_times(
            spec.network.copy(),
            "exact",
            output_required=0.0,
            max_nodes=max_nodes,
        )

    report = traced_pedantic(benchmark, run)
    _record(spec, "exact", report)


@pytest.mark.parametrize("name", sorted(APPROX1_CIRCUITS))
def test_approx1(benchmark, name):
    spec = SPECS[name]
    max_nodes = APPROX1_CIRCUITS[name]

    def run():
        return analyze_required_times(
            spec.network.copy(),
            "approx1",
            output_required=0.0,
            max_nodes=max_nodes,
        )

    report = traced_pedantic(benchmark, run)
    _record(spec, "approx1", report)


@pytest.mark.parametrize("name", [f"m{i}" for i in range(1, 11)])
def test_approx2(benchmark, name):
    spec = SPECS[name]

    def run():
        return analyze_required_times(
            spec.network.copy(),
            "approx2",
            output_required=0.0,
            engine="sat",
            time_budget=bench_budget(20.0),
        )

    report = traced_pedantic(benchmark, run)
    _record(spec, "approx2", report)


def test_zzz_shape_and_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Assert the Table-1 shape claims, then print the table."""
    by_key = {(r[0], r[4]): r for r in TABLE.rows}

    # exact completes and stars the clustered small circuit m1
    assert by_key[("m1", "exact")][7] == "ok"
    assert by_key[("m1", "exact")][6] == "*"
    # exact memory-outs on the wide cone m2 (the paper's i2 row)
    assert by_key[("m2", "exact")][7] == "memory out"
    # approx1 memory-outs on m10 (the paper's i10 row)
    assert by_key[("m10", "approx1")][7] == "memory out"
    # approx2 completes on m10 where approx1 could not
    assert by_key[("m10", "approx2")][7] in ("ok", "aborted")

    # the star hierarchy: approx2 stars imply approx1 stars (on circuits
    # where both completed)
    for name in [f"m{i}" for i in range(1, 11)]:
        a1 = by_key.get((name, "approx1"))
        a2 = by_key.get((name, "approx2"))
        if a1 and a2 and a1[7] == "ok" and a2[7] == "ok":
            if a2[6] == "*":
                assert a1[6] == "*", f"{name}: approx2 starred but approx1 not"

    # m8 (carry-skip rich, the i8 analogue): both approximations star
    assert by_key[("m8", "approx1")][6] == "*"
    assert by_key[("m8", "approx2")][6] == "*"
    # m9 (figure-4 gadgets, the i9 analogue): approx1 stars, approx2 not
    assert by_key[("m9", "approx1")][6] == "*"
    assert by_key[("m9", "approx2")][6] == ""

    TABLE.print_once()
    ENGINE_STATS.print_once()


# ----------------------------------------------------------------------
# script mode: the same grid as one parallel batch (--jobs N)
# ----------------------------------------------------------------------
#: deterministic approx2 budgets for script mode.  The pytest grid keeps
#: the paper's wall-clock budget; script-mode rows must be bit-identical
#: across ``--jobs``, so the abort trigger is a check *count*, not a
#: clock (m10 emulates the paper's budget abort at 8 checks).
APPROX2_SCRIPT_CHECKS = {"m10": 8}
APPROX2_SCRIPT_DEFAULT_CHECKS = 400


def script_tasks(methods=None, circuits=None, backend=None):
    """The Table-1 grid as parallel tasks: one per (circuit, method).

    ``methods`` / ``circuits`` filter the grid (``None`` = everything);
    ``backend`` selects the BDD kernel for the BDD-bound methods (exact,
    approx1) — this is what the ``native`` scenario of
    ``scripts/check_bench.py`` drives to compare the kernels on identical
    row sets.
    """
    from repro.parallel import CircuitRef, estimate_cost, required_time_task

    tasks = []

    def add(name: str, method: str, options: dict) -> None:
        if methods is not None and method not in methods:
            return
        if circuits is not None and name not in circuits:
            return
        if backend is not None and method in ("exact", "approx1"):
            options = dict(options, backend=backend)
        tasks.append(
            required_time_task(
                CircuitRef.factory(f"mcnc:{name}"),
                method,
                output_required=0.0,
                options=options,
                cost=estimate_cost(SPECS[name].network, method, options),
            )
        )

    for name in EXACT_CIRCUITS:
        add(name, "exact", {"max_nodes": EXACT_CIRCUITS[name]})
    for name, max_nodes in APPROX1_CIRCUITS.items():
        add(name, "approx1", {"max_nodes": max_nodes} if max_nodes else {})
    for i in range(1, 11):
        name = f"m{i}"
        add(
            name,
            "approx2",
            {
                "engine": "sat",
                "max_checks": APPROX2_SCRIPT_CHECKS.get(
                    name, APPROX2_SCRIPT_DEFAULT_CHECKS
                ),
            },
        )
    return tasks


def main(argv=None) -> int:
    import argparse
    import json
    import time

    from _harness import TableCollector, star
    from repro.parallel import run_batch

    parser = argparse.ArgumentParser(
        description="Run the Table-1 grid as a sharded parallel batch."
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (0 = one per core; 1 = serial in-process)",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write canonical rows + wall time as JSON"
    )
    parser.add_argument(
        "--methods",
        default=None,
        metavar="CSV",
        help="restrict the grid to these methods (e.g. 'exact,approx1')",
    )
    parser.add_argument(
        "--circuits",
        default=None,
        metavar="CSV",
        help="restrict the grid to these circuits (e.g. 'm1,m2')",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="BDD kernel for the exact/approx1 rows "
             "(default: $REPRO_BDD_BACKEND, then the repro default)",
    )
    args = parser.parse_args(argv)

    tasks = script_tasks(
        methods=None if args.methods is None else set(args.methods.split(",")),
        circuits=None if args.circuits is None else set(args.circuits.split(",")),
        backend=args.backend,
    )
    t0 = time.perf_counter()
    batch = run_batch(tasks, jobs=args.jobs)
    wall = time.perf_counter() - t0

    table = TableCollector(
        f"Table 1 (script mode, jobs={batch.jobs})",
        ["circuit", "method", "CPU (s)", "nontrivial", "status"],
    )
    rows = []
    for outcome in batch.outcomes:
        if outcome.ok:
            value = outcome.value
            row = value.row()
            row["jobs"] = batch.jobs
            row["elapsed"] = round(value.elapsed, 3)
            if value.method in ("exact", "approx1"):
                # per-row kernel provenance + statistics: volatile (they
                # differ across kernels and cache policies), so the gate's
                # canonical_rows() strips them alongside elapsed/jobs
                row["bdd_backend"] = value.stats.get("bdd_backend")
                row["bdd_stats"] = value.stats.get("bdd")
            table.add(
                value.circuit,
                value.method,
                value.elapsed,
                star(value.nontrivial),
                value.status,
            )
        else:
            row = {"task": outcome.task_id, "error": outcome.error, "jobs": batch.jobs}
        rows.append(row)
    table.print_once()
    print(
        f"wall time: {wall:.2f}s over {len(batch.outcomes)} tasks, "
        f"jobs={batch.jobs}, retries={batch.num_retries}"
    )
    if args.json:
        payload = {
            "bench": "table1",
            "jobs": batch.jobs,
            "backend": args.backend,
            "methods": args.methods,
            "circuits": args.circuits,
            "wall_seconds": round(wall, 3),
            "rows": rows,
            "run": batch.report(),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    for outcome in batch.errors:
        print(f"FAILED: {outcome.task_id}: {outcome.error}", file=sys.stderr)
    return 1 if batch.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
