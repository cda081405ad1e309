"""A deliberately slowed layer is caught by name.

The SAT solver's public ``Solver.solve`` gets a fixed sleep per call.
Narrowed cold-sat and cold-bdd grids then run through the benchmark's
own traced round.  On cold-sat, which exercises the SAT layer, the SAT
layer's time grows by the injected delay, more than any other layer in
relative terms, and the workload wall and approx-2 time grow with it.
On cold-bdd, which bypasses SAT, the SAT layer reads zero and the wall
does not move by anything like the delay.
"""

import time

import pytest

from cold import ColdWorkload, GRIDS
from measure import TracedRound, layer_metrics

SLEEP = 0.004
SAT_ROWS = [row for row in GRIDS["cold-sat"] if row[0] in ("m1", "m9")]
BDD_ROWS = [row for row in GRIDS["cold-bdd"] if row[0] in ("m1", "m9")]


def traced_round(name, grid, workdir):
    """One traced round, as the benchmark's traced run makes it."""
    workload = ColdWorkload(name, 1, str(workdir), grid=grid)
    traced = TracedRound()
    t0 = time.perf_counter()
    with traced.running() as clock:
        workload.run_round(clock)
    return time.perf_counter() - t0, layer_metrics(traced)


@pytest.fixture
def slow_solve(monkeypatch):
    """Slow ``Solver.solve`` by SLEEP per call; yields the call counter."""
    from repro.sat.solver import Solver

    calls = [0]
    solve = Solver.solve

    def slowed(self, *args, **kwargs):
        calls[0] += 1
        time.sleep(SLEEP)
        return solve(self, *args, **kwargs)

    def install():
        monkeypatch.setattr(Solver, "solve", slowed)
        return calls

    return install


def test_slowed_sat_is_caught_on_cold_sat(tmp_path, slow_solve):
    base_wall, base = traced_round("cold-sat", SAT_ROWS, tmp_path)
    calls = slow_solve()
    wall, slowed = traced_round("cold-sat", SAT_ROWS, tmp_path)
    injected = calls[0] * SLEEP
    assert injected > 0.1

    assert slowed["sat.solve_s"] - base["sat.solve_s"] > 0.8 * injected
    assert slowed["core.approx2_s"] - base["core.approx2_s"] > 0.8 * injected
    assert wall - base_wall > 0.8 * injected
    assert slowed["sat.propagations_per_s"] < base["sat.propagations_per_s"]

    growth = {
        name: slowed[name] / base[name]
        for name in base
        if name.endswith("_s") and base[name] > 0
    }
    assert max(growth, key=growth.get) == "sat.solve_s", growth
    # the work itself did not change: counts are identical
    for name in ("sat.conflicts", "sat.propagations", "approx2.checks"):
        assert slowed[name] == base[name]


def test_slowed_sat_does_not_move_cold_bdd(tmp_path, slow_solve):
    base_wall, base = traced_round("cold-bdd", BDD_ROWS, tmp_path)
    calls = slow_solve()
    wall, slowed = traced_round("cold-bdd", BDD_ROWS, tmp_path)

    assert calls[0] == 0
    for metrics in (base, slowed):
        assert metrics["sat.solve_s"] == 0.0
        assert metrics["sat.propagations"] == 0.0
        assert metrics["bdd.ops"] > 0
    # the delay cold-sat absorbed above is far larger than this noise bound
    assert abs(wall - base_wall) < 0.5 * base_wall + 0.05
    assert slowed["bdd.nodes_created"] == base["bdd.nodes_created"]


def test_traced_counts_repeat_exactly(tmp_path):
    _wall, first = traced_round("cold-bdd", BDD_ROWS, tmp_path)
    _wall, second = traced_round("cold-bdd", BDD_ROWS, tmp_path)
    for name in ("bdd.nodes_created", "bdd.ops", "bdd.gc_runs", "core.aborted_rows"):
        assert first[name] == second[name], name
