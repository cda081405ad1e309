#!/usr/bin/env python
"""Benchmark gate: one scenario table, one record, one runner loop.

Each :data:`SCENARIOS` row lists a scenario's commands, the run pairs
whose canonical rows must be bit-identical, its floors and ceilings, and
the metrics gated against the record ``BENCH_gates.json`` (``{scenario:
{"config": {...}, "metrics": {dotted.name: number}}}``) within a tolerance.

    python scripts/check_bench.py [SCENARIO ...] [--smoke] [--update]

No name means every scenario.  ``--smoke`` runs the fast CI subsets and
skips the full-mode bounds.  Full mode also checks each gated metric
against its record; a missing record or recorded number fails.
``--update`` reruns in full mode and rewrites the named entries only if
every parity check and bound passed.  Runs that pass ``--backend`` clear
``REPRO_BDD_BACKEND``.  Payloads land in ``$TMPDIR/repro-bench/``.  Exit
status: 0 when every check passed, 1 when one failed, 2 on misuse.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
RECORD = REPO / "BENCH_gates.json"
PAYLOAD_DIR = Path(tempfile.gettempdir()) / "repro-bench"

#: row fields that differ across runs, job counts and kernels by design
VOLATILE_ROW_FIELDS = ("elapsed", "jobs", "bdd_stats", "bdd_backend")


#: one finished command: its wall seconds and its ``--json`` payload
Run = NamedTuple("Run", [("wall", float), ("payload", "dict | None")])


class Bound(NamedTuple):
    """A floor (``>=``) or ceiling (``<=``) on a metric's name or on
    ``value(metrics, runs)``; ``limit`` may depend on the core count
    (``None`` skips the bound)."""

    label: str
    value: str | Callable[[dict, dict], float]
    op: str
    limit: float | Callable[[int], float | None]
    full_only: bool = False


FULL = True  # Bound(..., FULL): checked in full mode only


def worst(pick, *patterns: str):
    """The ``min``/``max`` of every metric matching one of ``patterns``."""
    return lambda m, runs: pick(
        v for k, v in m.items() if any(fnmatch(k, p) for p in patterns)
    )


def dotted(records: list, key: str, fields: tuple, prefix: str = "") -> dict:
    """``[{key: a, f: v}, ...]`` as ``{"<prefix>a.f": v}`` metrics."""
    return {f"{prefix}{r[key]}.{f}": r[f] for r in records for f in fields}


def bench(script: str, *args: str, smoke: bool = False) -> list[str]:
    """A script-mode benchmark command writing its payload to ``{out}``."""
    return [f"benchmarks/{script}.py", *args, "--json", "{out}",
            *(["--smoke"] if smoke else [])]


def parallel_runs(smoke: bool, jobs: int) -> dict:
    return {
        f"{script}_{label}": bench(f"bench_{script}", "--jobs", str(n))
        for script in ["fig4_example"] + ([] if smoke else ["table1"])
        for label, n in (("serial", 1), ("parallel", jobs))
    }


def native_runs(smoke: bool, jobs: int) -> dict:
    grids = {"": ["exact,approx1", "--circuits", "m1,m2"]} if smoke else {
        "exact.": ["exact"], "approx1.": ["approx1"]}
    return {
        prefix + kernel: bench("bench_table1", "--jobs", "1", "--methods", *grid,
                               "--backend", kernel)
        for prefix, grid in grids.items() for kernel in ("object", "native")
    }


def kernel_speedup(grid: str):
    """object/native ratio of the in-process walls (startup excluded)."""
    return lambda m, runs: (runs[f"{grid}.object"].payload["wall_seconds"]
                            / runs[f"{grid}.native"].payload["wall_seconds"])


def object_fallback_rows(m: dict, runs: dict) -> int:
    """Rows of the ``native`` runs that actually ran another kernel."""
    return sum(row["bdd_backend"]["effective"] != "native"
               for name, run in runs.items() if name.endswith("native")
               for row in run.payload["rows"])


SCENARIOS: dict[str, dict] = {
    "engine": {
        "runs": lambda smoke, jobs: {} if smoke else {
            b: ["-m", "pytest", "-x", "-q", "--benchmark-only", f"benchmarks/{b}.py"]
            for b in ("bench_table1", "bench_ablation_engine", "bench_obs_overhead")
        },
        "metrics": lambda runs: {b: round(r.wall, 2) for b, r in runs.items()},
        # 25 % under the walls before the BDD/SAT hot-path overhaul
        "bounds": [
            Bound("bench_table1 pre-overhaul bar", "bench_table1", "<=",
                  198.06 * 0.75, FULL),
            Bound("bench_ablation_engine pre-overhaul bar",
                  "bench_ablation_engine", "<=", 7.87 * 0.75, FULL),
        ],
        "gated": {"bench_*": 0.25},
    },
    "parallel": {
        "runs": parallel_runs,
        "parity": [("fig4_example_serial", "fig4_example_parallel"),
                   ("table1_serial", "table1_parallel")],
        # every serial wall is recorded; only Table 1 runs long enough to gate
        "metrics": lambda runs: {
            k: round(r.wall, 2) for k, r in runs.items() if k.endswith("_serial")},
        "bounds": [Bound(
            "table1 speedup",
            lambda m, runs: runs["table1_serial"].wall / runs["table1_parallel"].wall,
            ">=", lambda cores: 2.0 if cores >= 4 else 1.2 if cores >= 2 else None,
            FULL)],
        "gated": {"table1_serial": 0.25},
    },
    "native": {
        "runs": native_runs,
        "parity": [("object", "native"), ("exact.object", "exact.native"),
                   ("approx1.object", "approx1.native")],
        "metrics": lambda runs: {
            k: round(r.payload["wall_seconds"], 2) for k, r in runs.items()},
        "bounds": [
            Bound("exact speedup", kernel_speedup("exact"), ">=", 2.5, FULL),
            Bound("approx1 speedup", kernel_speedup("approx1"), ">=", 1.2, FULL),
            # a silent object fallback would time the wrong kernel
            Bound("object-fallback rows", object_fallback_rows, "<=", 0, FULL),
        ],
        "gated": {"*.native": 0.35},
    },
    "eco": {
        "runs": lambda smoke, jobs: {"eco": bench("bench_eco", smoke=smoke)},
        "metrics": lambda runs: dotted(
            runs["eco"].payload["results"], "scenario",
            ("incremental_seconds", "full_seconds", "speedup")),
        "config": lambda runs: {
            k: runs["eco"].payload["results"][0][k] for k in ("blocks", "edits")},
        "bounds": [Bound("locality speedup", "locality.speedup", ">=", 5.0)],
        "gated": {"locality.incremental_seconds": 0.75},
    },
    "interval": {
        "runs": lambda smoke, jobs: {"interval": bench("bench_interval", smoke=smoke)},
        "metrics": lambda runs: {
            **dotted(runs["interval"].payload["results"]["bounds"], "circuit",
                     ("scalar_seconds", "bounds_seconds", "overhead"), "bounds."),
            **{f"widened_seconds.{r['circuit']}": r["seconds"]
               for r in runs["interval"].payload["results"]["widened"]},
        },
        "config": lambda runs: {
            "repeats": runs["interval"].payload["results"]["bounds"][0]["repeats"]},
        # the bounds pass does exactly twice the work; 3x absorbs timer noise
        "bounds": [Bound("worst bounds overhead", worst(max, "bounds.*.overhead"),
                         "<=", 3.0)],
        "gated": {"widened_seconds.*": 1.0},
    },
    "serve": {
        "runs": lambda smoke, jobs: {"serve": bench("bench_serve", smoke=smoke)},
        "metrics": lambda runs: {
            **{f"cold_cli_p50_seconds.{k}": v
               for k, v in runs["serve"].payload["cold_cli_p50_seconds"].items()},
            **{f"warm_{q}_seconds": runs["serve"].payload["load"][f"{q}_seconds"]
               for q in ("p50", "p99")},
            "throughput_rps": runs["serve"].payload["load"]["throughput_rps"],
            **{f"speedups.{k}": v
               for k, v in runs["serve"].payload["speedups"].items()},
        },
        "config": lambda runs: {
            "offered_rps": runs["serve"].payload["load"]["offered_rps"]},
        "bounds": [
            Bound("worst warm speedup", worst(min, "speedups.*"), ">=", 10.0),
            Bound("coalescing hit rate",
                  lambda m, runs: runs["serve"].payload["coalescing"]["hit_rate"],
                  ">=", 0.8),
            Bound("throughput / offered load", lambda m, runs: m["throughput_rps"]
                  / runs["serve"].payload["load"]["offered_rps"], ">=", 0.5),
        ],
        "gated": {"warm_p50_seconds": 1.0},
    },
    "cache": {
        "runs": lambda smoke, jobs: {"cache": bench("bench_cache", smoke=smoke)},
        "metrics": lambda runs: {
            **{f"{r['circuit']}.{r['method']}.{f}": r[f]
               for r in runs["cache"].payload["results"]
               for f in ("cold_seconds", "warm_seconds", "speedup")},
            **{f"incremental.{f}": runs["cache"].payload["incremental"][f]
               for f in ("cold_seconds", "warm_seconds", "mutated_seconds")},
        },
        "bounds": [Bound("worst heavy-method warm speedup",
                         worst(min, "*.exact.speedup", "*.approx1.speedup"),
                         ">=", 5.0)],
        "gated": {},
    },
}


def canonical_rows(run: Run) -> list[dict]:
    return [{k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}
            for row in run.payload["rows"]]


def verdict(name: str, label: str, value: float, op: str, limit: float,
            note: str = "") -> bool:
    passed = value >= limit if op == ">=" else value <= limit
    print(f"{name}: {label} {value:.6g} ({op} {limit:.6g}{note})  "
          f"{'ok' if passed else 'FAIL'}")
    return passed


def execute(name: str, run: str, argv: list[str]) -> Run | None:
    """One command under the repo's ``src``; ``None`` when it fails."""
    out = PAYLOAD_DIR / f"{name}.{run}.json"
    out.unlink(missing_ok=True)
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    if "--backend" in argv:
        env.pop("REPRO_BDD_BACKEND", None)  # the flag must win, explicitly
    print(f"{name}: running {' '.join(argv)}", flush=True)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=REPO, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"{proc.stdout}{name}: {run} exited {proc.returncode}  FAIL")
        return None
    print(f"  {wall:.2f}s")
    return Run(wall, json.loads(out.read_text()) if str(out) in argv else None)


def check_scenario(name: str, smoke: bool, update: bool, record: dict,
                   cores: int) -> dict | None:
    """Run one scenario; returns its record entry, or ``None`` on a failure."""
    spec, runs = SCENARIOS[name], {}
    for run, argv in spec["runs"](smoke, max(2, cores)).items():
        runs[run] = execute(name, run, argv)
        if runs[run] is None:
            return None
    if not runs:
        print(f"{name}: full mode only, nothing to run under --smoke")
    ok = True
    for a, b in spec.get("parity", ()):
        if a in runs and b in runs:
            same = canonical_rows(runs[a]) == canonical_rows(runs[b])
            print(f"{name}: rows of {a} and {b} "
                  f"{'bit-identical  ok' if same else 'differ  PARITY FAIL'}")
            ok &= same
    metrics = spec["metrics"](runs)
    for bound in [b for b in spec["bounds"] if not (smoke and b.full_only)]:
        limit = bound.limit(cores) if callable(bound.limit) else bound.limit
        value = (metrics[bound.value] if isinstance(bound.value, str)
                 else bound.value(metrics, runs))
        if limit is None:
            print(f"{name}: {bound.label} not checked on {cores} core(s)")
        else:
            ok &= verdict(name, bound.label, value, bound.op, limit)
    recorded = record.get(name, {}).get("metrics", {})
    for key, value in metrics.items():
        tolerance = next((t for p, t in spec["gated"].items() if fnmatch(key, p)), None)
        if smoke or update or tolerance is None:
            continue
        if key not in recorded:
            print(f"{name}: {key} has no recorded number in {RECORD.name}  FAIL")
            ok = False
        else:
            ok &= verdict(name, key, value, "<=", recorded[key] * (1 + tolerance),
                          f" = record {recorded[key]:g} +{tolerance:.0%}")
    config = spec.get("config", lambda runs: {})(runs)
    return {"config": {"python": sys.version.split()[0], "cores": cores, **config},
            "metrics": metrics} if ok else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help=f"any of {', '.join(SCENARIOS)} (default: all)")
    parser.add_argument("--smoke", action="store_true", help="the fast CI subset")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the record entries if every check passed")
    args = parser.parse_args(argv)
    unknown = [s for s in args.scenarios if s not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s) {unknown}; choose from {list(SCENARIOS)}")
    if args.update and args.smoke:
        parser.error("--update records full-mode runs; drop --smoke")
    if not RECORD.exists() and not args.update:
        print(f"error: {RECORD.name} is missing; that fails the gate (see --update)")
        return 1
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}

    PAYLOAD_DIR.mkdir(parents=True, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    names = list(dict.fromkeys(args.scenarios)) or list(SCENARIOS)
    entries = {n: check_scenario(n, args.smoke, args.update, record, cores)
               for n in names}
    failed = [name for name, entry in entries.items() if entry is None]
    if failed:
        print(f"FAIL: {', '.join(failed)}" + ("; record unchanged" * args.update))
        return 1
    if args.update:
        record.update(entries)
        RECORD.write_text(json.dumps(record, indent=2) + "\n")
        print(f"{RECORD.name} updated: {', '.join(entries)}")
    print(f"ok: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
