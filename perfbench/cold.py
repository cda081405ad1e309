"""The cold workloads: Table-1 rows parsed from BLIF and analyzed serially.

Each row runs the way ``repro required --no-cache`` does: parse the
netlist, analyze in-process, no result cache.  ``cold-bdd`` holds the
exact and approx-1 rows (BDD kernel, χ construction, exact/approx-1
phases; no SAT), ``cold-sat`` the approx-2 rows on the SAT engine (SAT
solver and lattice climb; no BDD).  Every row is bounded by a count
(``max_nodes`` / ``max_checks``), never a clock, so its canonical row is
time-free and identical across commits.
"""

from __future__ import annotations

import os
import random
import time

from repro.cache.results import CachedRequiredResult
from repro.circuits import mcnc_suite
from repro.core.required_time import (
    analyze_required_times,
    topological_input_required_times,
)
from repro.network.blif import parse_blif, write_blif

#: Table-1 node budgets (``None`` = unbounded), as in benchmarks/bench_table1.py.
#: approx-1 leaves out m4 (a 2 s memory-out that only fills its budget)
#: and m6 (a 2 s twin of m5 and m7): without them several rounds fit in a
#: run, and the per-row medians hold still on a shared machine.
EXACT_MAX_NODES = {"m1": 500_000, "m2": 120_000, "m3": 2_000_000}
APPROX1_MAX_NODES = {
    "m1": None, "m2": 400_000, "m3": None, "m5": None,
    "m7": None, "m8": 800_000, "m9": None, "m10": 150_000,
}
#: approx-2 check budget.  m2 and m10 are left out (about 20 s each
#: alone), and so is m4: at 6-10 s it would be three quarters of the
#: round, leaving room for a single round per run on a shared machine.
APPROX2_MAX_CHECKS = 400
APPROX2_CIRCUITS = ("m1", "m3", "m5", "m6", "m7", "m8", "m9")


def _options(max_nodes):
    return {} if max_nodes is None else {"max_nodes": max_nodes}


GRIDS = {
    "cold-bdd": (
        [(c, "exact", _options(n)) for c, n in EXACT_MAX_NODES.items()]
        + [(c, "approx1", _options(n)) for c, n in APPROX1_MAX_NODES.items()]
    ),
    "cold-sat": [
        (c, "approx2", {"engine": "sat", "max_checks": APPROX2_MAX_CHECKS})
        for c in APPROX2_CIRCUITS
    ],
}


def row_key(circuit: str, method: str) -> str:
    return f"{circuit}/{method}"


def analyze_row(text: str, method: str, options: dict, clock) -> tuple[dict, object]:
    """Parse, baseline, analyze: one cold row; returns (row, report)."""
    with clock.timed("network.parse"):
        network = parse_blif(text)
    with clock.timed("timing.topo"):
        baseline = topological_input_required_times(network, None, 0.0)
    with clock.timed(f"core.{method}"):
        report = analyze_required_times(network, method, output_required=0.0, **options)
    return CachedRequiredResult.from_report(report, baseline).row(), report


class ColdWorkload:
    """One cold grid over BLIF files written at setup (``grid`` narrows
    it, for the benchmark's own tests)."""

    def __init__(self, name: str, seed: int, workdir: str, grid=None):
        self.name = name
        self.grid = GRIDS[name] if grid is None else grid
        self._rng = random.Random(f"{name}:{seed}")
        specs = {spec.name: spec for spec in mcnc_suite()}
        self.paths = {}
        for circuit in sorted({c for c, _m, _o in self.grid}):
            path = os.path.join(workdir, f"{circuit}.blif")
            with open(path, "w") as fh:
                fh.write(write_blif(specs[circuit].network))
            self.paths[circuit] = path

    def run_round(self, clock) -> dict[str, dict]:
        """Every row once, in a seeded order; per-row seconds and results."""
        order = list(self.grid)
        self._rng.shuffle(order)
        out = {}
        for circuit, method, options in order:
            t0 = time.perf_counter()
            with open(self.paths[circuit]) as fh:
                text = fh.read()
            row, report = analyze_row(text, method, options, clock)
            seconds = time.perf_counter() - t0
            bdd = report.stats.get("bdd") or {}
            out[row_key(circuit, method)] = {
                "seconds": seconds,
                "row": row,
                "peak_live_nodes": bdd.get("peak_live_nodes", 0),
            }
        return out


def shape_problems(status: dict[str, tuple[str, bool]]) -> list[str]:
    """The Table-1 shape claims over ``{key: (status, nontrivial)}``.

    ``status`` mixes this run's rows with the committed reference rows of
    the other grid, so each cold workload checks the whole star hierarchy.
    """
    problems = []

    def expect(key, want_status=None, want_star=None):
        got = status.get(key)
        if got is None:
            problems.append(f"{key}: no row")
            return
        if want_status is not None and got[0] != want_status:
            problems.append(f"{key}: status {got[0]!r}, want {want_status!r}")
        if want_star is not None and got[1] != want_star:
            problems.append(f"{key}: nontrivial {got[1]}, want {want_star}")

    expect("m1/exact", "ok", True)
    expect("m2/exact", "memory out")
    expect("m10/approx1", "memory out")
    expect("m8/approx1", want_star=True)
    expect("m8/approx2", want_star=True)
    expect("m9/approx1", want_star=True)
    expect("m9/approx2", want_star=False)
    for i in range(1, 11):
        a1, a2 = status.get(f"m{i}/approx1"), status.get(f"m{i}/approx2")
        if a1 and a2 and a1[0] == a2[0] == "ok" and a2[1] and not a1[1]:
            problems.append(f"m{i}: approx2 starred but approx1 not")
    return problems
