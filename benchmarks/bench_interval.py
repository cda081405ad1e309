"""Delay-bound benchmark: bounds cost, widened runs.

Timed claims (the acceptance bars of docs/DELAY_MODELS.md):

* **bounds overhead** — the two-corner Figure-3 propagation
  (:func:`~repro.timing.topological.required_time_bounds`) costs a small
  multiple of one scalar :func:`required_times` pass (it does exactly
  twice the min-merge work in a single traversal);
* **widened runs** — a genuinely widened model analyzes cleanly end to
  end with the ``interval`` digest stamped on the row (reported for
  context; its cost is the scalar run plus the bounds pass).

A point interval is the scalar model itself (``DelayModel``), so there
is no separate point-interval run to time.

Run:  pytest benchmarks/bench_interval.py --benchmark-only -q

Script mode — ``python benchmarks/bench_interval.py [--smoke] [--json
OUT]`` — replays every scenario with the soundness assertions and
writes the JSON payload; ``scripts/check_bench.py interval`` holds the
overhead ceiling and the wall gate (CI runs it with ``--smoke``).
"""

import json
import sys
import time

from _harness import TableCollector

from repro.circuits import carry_skip_adder, cascaded_mux_chain, parity_tree
from repro.core.required_time import analyze_required_times
from repro.timing import required_time_bounds, required_times, unit_delay

TABLE = TableCollector(
    "Delay bounds: two-corner propagation overhead",
    ["circuit", "scalar (s)", "bounds (s)", "overhead"],
)


def scenario_circuits(smoke: bool):
    """The benchmark's circuit suite (smaller instances under --smoke)."""
    if smoke:
        return [
            carry_skip_adder(2, 2),
            cascaded_mux_chain(4),
            parity_tree(4),
        ]
    # the carry-skip adder stays at 2x2 even in full mode: the exact
    # relation's leaf lattice explodes combinatorially on larger skips
    # (2x3 already exceeds 100 s), and this benchmark gates the interval
    # plumbing, not engine capacity
    return [
        carry_skip_adder(2, 2),
        cascaded_mux_chain(8),
        parity_tree(8),
    ]


def run_bounds_scenario(net, repeats: int = 20) -> dict:
    """Time scalar required_times vs two-corner required_time_bounds."""
    scalar = unit_delay()
    widened = scalar.widened(0.5)
    t0 = time.perf_counter()
    for _ in range(repeats):
        req = required_times(net, scalar, 0.0)
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        bounds = required_time_bounds(net, widened, 0.0)
    bounds_s = time.perf_counter() - t0
    # soundness: the scalar requirement sits inside every bound
    for name in net.nodes:
        lo, hi = bounds[name]
        assert lo <= req[name] <= hi, (
            f"{net.name}/{name}: scalar {req[name]} outside [{lo}, {hi}]"
        )
    overhead = bounds_s / max(scalar_s, 1e-9)
    return {
        "circuit": net.name,
        "repeats": repeats,
        "scalar_seconds": round(scalar_s, 6),
        "bounds_seconds": round(bounds_s, 6),
        "overhead": round(overhead, 2),
    }


def run_widened_scenario(net) -> dict:
    """A genuinely widened end-to-end approx2 run (stamp asserted)."""
    widened = unit_delay().widened(0.5)
    t0 = time.perf_counter()
    report = analyze_required_times(
        net, "approx2", delays=widened, output_required=0.0, engine="sat",
    )
    elapsed = time.perf_counter() - t0
    stamp = report.stats.get("interval")
    assert stamp is not None and stamp.get("point") is False, (
        f"{net.name}: widened run missing the interval stamp"
    )
    assert "bounds" in stamp and "best_upper" in stamp
    return {
        "circuit": net.name,
        "method": "approx2",
        "seconds": round(elapsed, 6),
        "nontrivial": report.nontrivial,
        "best_upper_nontrivial": stamp["best_upper"]["nontrivial"],
    }


# ----------------------------------------------------------------------
# pytest-benchmark entries (the interval hot paths)
# ----------------------------------------------------------------------
def test_required_time_bounds(benchmark):
    """Two-corner Figure-3 propagation on the carry-skip adder."""
    net = carry_skip_adder(3, 3)  # topological only — large is fine here
    model = unit_delay().widened(0.5)
    bounds = benchmark(lambda: required_time_bounds(net, model, 0.0))
    assert all(lo <= hi for lo, hi in bounds.values())


def test_zzz_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    TABLE.print_once()


# ----------------------------------------------------------------------
# script mode: the JSON payload scripts/check_bench.py gates
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Delay-bound overhead benchmark."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="smaller circuits (the CI gate)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the JSON payload to this path")
    args = parser.parse_args(argv)

    circuits = scenario_circuits(args.smoke)
    bounds_records, widened_records = [], []
    for net in circuits:
        record = run_bounds_scenario(net)
        bounds_records.append(record)
        TABLE.add(
            record["circuit"], record["scalar_seconds"],
            record["bounds_seconds"], record["overhead"],
        )
        widened_records.append(run_widened_scenario(net))

    for record in bounds_records:
        print(
            f"{record['circuit']:<16} bounds x{record['repeats']}: "
            f"scalar {record['scalar_seconds']:.4f}s  "
            f"bounds {record['bounds_seconds']:.4f}s  "
            f"({record['overhead']}x)"
        )
    worst = max(bounds_records, key=lambda r: r["overhead"])
    print(f"worst bounds overhead {worst['overhead']}x ({worst['circuit']})")

    if args.json:
        payload = {
            "benchmark": "interval",
            "smoke": args.smoke,
            "results": {
                "bounds": bounds_records,
                "widened": widened_records,
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"record written to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
