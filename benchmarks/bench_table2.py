"""Table 2 — approximate algorithm 2 on the ISCAS-85 substitute suite.

Regenerates the paper's Table 2: for each circuit, whether a non-trivial
required time exists, the CPU time until the *first* r ≠ r_⊥ is
validated, and the CPU time until the maximal r is found.  Shape targets:

* the parity/ripple circuits (s499, s880, s1355 — the C499/C880/C1355
  analogues) report **No**;
* everything else reports **Yes**;
* the hard circuits (s3540, s6288 — the paper's "> 12 hours" rows) run
  under a smaller budget; a run that aborts on it must still report its
  first non-trivial time well inside the budget, the paper's observation
  that useful information arrives within the first seconds;
* on ``carry_skip_adder(5, 4)``, a row that completes, both engines make
  the same checks with the same verdicts, and the BDD engine's first
  non-trivial r arrives before a tenth of its time to r_max.

Run:  pytest benchmarks/bench_table2.py --benchmark-only -q
"""

import pytest

from _harness import TableCollector
from conftest import bench_budget
from repro.circuits import carry_skip_adder, iscas_suite
from repro.core.approx2 import Approx2Analysis

SPECS = {spec.name: spec for spec in iscas_suite()}

TABLE = TableCollector(
    "Table 2 -- Required Time Computation (approx 2) on the ISCAS-like suite",
    [
        "circuit",
        "paper",
        "#PI",
        "nontrivial",
        "first r != r_bot (s)",
        "r_max (s)",
        "status",
    ],
)

# the two C3540/C6288-style rows (the paper's "> 12 hours" entries) get a
# smaller budget; an abort on it must still have found a non-trivial r
# within seconds
HARD = {"s3540", "s6288"}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_approx2(benchmark, name):
    spec = SPECS[name]
    budget = bench_budget(20.0) if name in HARD else bench_budget(60.0)

    def run():
        return Approx2Analysis(
            spec.network,
            output_required=0.0,
            engine="sat",
            time_budget=budget,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    TABLE.add(
        spec.name,
        spec.paper_name,
        spec.network.num_inputs,
        result.nontrivial,
        result.time_to_first_nontrivial,
        result.time_to_max,
        "> budget" if result.aborted else "ok",
    )


def test_carry_skip_first_r_early(benchmark):
    """DESIGN.md success criterion 4 (the C3540/C6288 effect) on a row
    that completes: the first non-trivial r long before the maximal one."""
    net = carry_skip_adder(5, 4)
    results = {}

    def run():
        for engine in ("bdd", "sat"):
            results[engine] = Approx2Analysis(
                net, output_required=0.0, engine=engine, time_budget=bench_budget(60.0)
            ).run()

    benchmark.pedantic(run, rounds=1, iterations=1)
    for engine, result in results.items():
        assert not result.aborted, engine
        TABLE.add(
            f"cskip5x4[{engine}]",
            "C3540/C6288 effect",
            net.num_inputs,
            result.nontrivial,
            result.time_to_first_nontrivial,
            result.time_to_max,
            "ok",
        )
    bdd, sat = results["bdd"], results["sat"]
    assert [ok for *_, ok in bdd.trace.events] == [ok for *_, ok in sat.trace.events]
    assert bdd.maximal == sat.maximal
    assert bdd.time_to_first_nontrivial < bdd.time_to_max / 10


def test_zzz_shape_and_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = {r[0]: r for r in TABLE.rows}

    # the parity/ripple controls report No — all their paths are true
    for name in ["s499", "s880", "s1355"]:
        assert rows[name][3] is False, f"{name} unexpectedly non-trivial"
    # the false-path rich circuits report Yes
    for name in ["s432", "s1908", "s2670", "s5315", "s7552"]:
        assert rows[name][3] is True, f"{name} unexpectedly trivial"

    # the hard rows abort on budget yet still found a non-trivial r fast
    for name in sorted(HARD):
        row = rows[name]
        if row[6] == "> budget":
            assert row[3] is True
            assert row[4] is not None
            # first non-trivial well inside the budget (the C3540/C6288
            # effect: "found non-trivial required times within a second")
            assert row[4] < bench_budget(20.0)

    # time-to-first <= time-to-max wherever both completed
    for row in TABLE.rows:
        if row[4] is not None and row[5] is not None:
            assert row[4] <= row[5] + 1e-9

    TABLE.print_once()
