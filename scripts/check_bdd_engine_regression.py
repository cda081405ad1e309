#!/usr/bin/env python
"""Benchmark baseline & regression gate for the BDD/SAT engine hot paths.

Times the two engine-sensitive benchmark files end to end and compares the
wall times against the committed baseline ``BENCH_bdd_engine.json``:

* every benchmark must beat the recorded ``pre_pr`` number by at least
  ``min_improvement`` (the engine-overhaul acceptance gate), and
* every benchmark must stay within ``tolerance`` of the recorded
  ``baseline`` number (the ongoing regression gate).

Usage::

    python scripts/check_bdd_engine_regression.py             # engine gate
    python scripts/check_bdd_engine_regression.py --update    # re-baseline
    python scripts/check_bdd_engine_regression.py --parallel  # parallel gate
    python scripts/check_bdd_engine_regression.py --parallel --smoke
    python scripts/check_bdd_engine_regression.py --native-backend
    python scripts/check_bdd_engine_regression.py --native-backend --smoke
    python scripts/check_bdd_engine_regression.py --serve
    python scripts/check_bdd_engine_regression.py --serve --smoke
    python scripts/check_bdd_engine_regression.py --interval
    python scripts/check_bdd_engine_regression.py --interval --smoke

``--update`` re-measures and rewrites the ``baseline`` block (the
``pre_pr`` block is historical and never rewritten).

``--native-backend`` switches to the ``native_backend`` section of
``BENCH_bdd_engine.json``: the bench_table1 BDD-bound rows are run once
per kernel (``--backend object`` / ``--backend native``) with
bit-identical canonical rows enforced every run, and the native C kernel
must beat the object kernel by ``min_speedup_exact_vs_object`` on the
node-bound exact rows and by ``min_ratio_approx1_vs_object`` on the
small-op-dominated approx1 rows.  The full gate requires a working C
toolchain (a silent object fallback would measure the wrong kernel and
is treated as a failure); ``--smoke`` restricts the gate to two-way row
parity on the fast circuits and tolerates the fallback (parity is then
exercising the selection plumbing).

``--eco`` switches to the ``BENCH_eco.json`` gate: ``bench_eco.py`` is
run in script mode (``--smoke`` passes the flag through — the CI
configuration), which replays a locality-heavy and a scattered edit
trace through an incremental :class:`repro.eco.NetworkSession` with
row/merge parity against a full recompute asserted after **every**
edit; the locality-heavy trace must beat per-edit full recompute by
``min_speedup_locality``, and (full mode only) the incremental wall must
stay within ``wall_tolerance`` of the recorded baseline.

``--interval`` switches to the ``BENCH_interval.json`` gate:
``bench_interval.py`` is run in script mode (``--smoke`` passes the flag
through — the CI configuration), which asserts byte-identical canonical
rows between the scalar delay model and a point-interval model across
all four engines (the degeneracy oracle of docs/DELAY_MODELS.md), checks
that the scalar required time lies inside every widened ``[lo, hi]``
bound, and times the two-corner ``required_time_bounds`` pass against a
single scalar ``required_times`` pass; the overhead must stay under
``max_bounds_overhead`` and (full mode only) the widened end-to-end
approx2 wall must stay within ``wall_tolerance`` of the recorded
baseline.

``--serve`` switches to the ``BENCH_serve.json`` gate: ``bench_serve.py``
is run in script mode (``--smoke`` passes the flag through — the CI
configuration), which times cold ``repro required`` CLI invocations
against a warm ``repro serve`` daemon under a seeded open-loop load,
asserts served-row parity against the serial in-process analysis, and
proves single-flight coalescing through the daemon's own ``/metrics``
counters; every circuit must clear ``min_warm_speedup``, the coalescing
hit rate must clear ``min_coalesce_hit_rate``, the served throughput
must reach ``min_throughput_fraction`` of the offered load, and (full
mode only) the warm p50 must stay within ``warm_p50_tolerance`` of the
recorded baseline.

``--parallel`` switches to the ``BENCH_parallel.json`` gate: the
benchmark script modes are run at ``--jobs 1`` and ``--jobs <cores>``
and must produce bit-identical canonical rows; the serial wall must stay
within tolerance of the recorded baseline; and on multi-core machines
the parallel run must hit the core-count-scaled speedup floor.
``--smoke`` restricts the parallel gate to the (fast) Figure-4 example —
the CI smoke configuration.  A missing baseline file is a loud failure
(exit 1), never a skip.  Exit status is 0 when every gate passes, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE_FILE = REPO / "BENCH_bdd_engine.json"
PARALLEL_BASELINE_FILE = REPO / "BENCH_parallel.json"
ECO_BASELINE_FILE = REPO / "BENCH_eco.json"
SERVE_BASELINE_FILE = REPO / "BENCH_serve.json"
INTERVAL_BASELINE_FILE = REPO / "BENCH_interval.json"

BENCHMARKS = [
    "benchmarks/bench_table1.py",
    "benchmarks/bench_ablation_engine.py",
    "benchmarks/bench_obs_overhead.py",
]


def load_baseline(path: Path) -> dict:
    """Read a committed baseline file; a missing file fails the gate."""
    if not path.exists():
        raise SystemExit(
            f"error: baseline file {path.name} is missing — the gate cannot "
            f"run.\nRegenerate it with --update and commit it; a missing "
            f"baseline is a failure, not a skip."
        )
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: baseline file {path.name} is corrupt: {exc}")


def run_benchmark(target: str) -> float:
    """One timed pytest run of a benchmark file; returns wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "--benchmark-only", target],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        raise SystemExit(f"benchmark {target} failed (rc={result.returncode})")
    return elapsed


def measure() -> dict[str, float]:
    times: dict[str, float] = {}
    for target in BENCHMARKS:
        print(f"running {target} ...", flush=True)
        times[target] = round(run_benchmark(target), 2)
        print(f"  {times[target]:.2f}s")
    return times


# ----------------------------------------------------------------------
# the parallel-speedup / parity gate (BENCH_parallel.json)
# ----------------------------------------------------------------------
#: script-mode benchmark targets of the parallel gate; "smoke" marks the
#: fast target CI runs on every push
PARALLEL_TARGETS = {
    "table1": {"script": "benchmarks/bench_table1.py", "smoke": False},
    "fig4_example": {"script": "benchmarks/bench_fig4_example.py", "smoke": True},
}


def run_script_mode(script: str, jobs: int, out: Path) -> float:
    """One ``python <script> --jobs N --json OUT`` run; returns wall s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, Path(script).name, "--jobs", str(jobs), "--json", str(out)],
        cwd=REPO / "benchmarks",
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        raise SystemExit(f"benchmark {script} --jobs {jobs} failed (rc={result.returncode})")
    return elapsed


#: per-row fields that legitimately differ across runs, job counts, and
#: kernels (timings, cache/telemetry counters, backend provenance) —
#: everything else must be bit-identical
VOLATILE_ROW_FIELDS = ("elapsed", "jobs", "bdd_stats", "bdd_backend")


def canonical_rows(payload: dict) -> list[dict]:
    """Strip the volatile (timing / statistics) fields for parity checks."""
    return [
        {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}
        for row in payload["rows"]
    ]


def required_speedup(gates: dict, cores: int) -> float | None:
    """The speedup floor for this machine (None below 2 cores)."""
    floors = {int(k): float(v) for k, v in gates["min_speedup"].items()}
    eligible = [c for c in floors if c <= cores]
    return floors[max(eligible)] if eligible else None


def check_parallel(update: bool, smoke: bool) -> int:
    data = load_baseline(PARALLEL_BASELINE_FILE)
    cores = len(os.sched_getaffinity(0))
    jobs = max(2, cores)
    tmp = Path("/tmp")

    ok = True
    measured: dict[str, float] = {}
    for name, target in PARALLEL_TARGETS.items():
        if smoke and not target["smoke"]:
            continue
        script = target["script"]
        serial_out = tmp / f"bench_{name}_serial.json"
        par_out = tmp / f"bench_{name}_par.json"
        print(f"running {script} --jobs 1 ...", flush=True)
        serial_wall = run_script_mode(script, 1, serial_out)
        measured[name] = round(serial_wall, 2)
        print(f"  {serial_wall:.2f}s")
        print(f"running {script} --jobs {jobs} ...", flush=True)
        par_wall = run_script_mode(script, jobs, par_out)
        print(f"  {par_wall:.2f}s")

        serial_rows = canonical_rows(json.loads(serial_out.read_text()))
        par_rows = canonical_rows(json.loads(par_out.read_text()))
        if serial_rows != par_rows:
            print(f"{name}: PARITY FAIL — rows differ between --jobs 1 and --jobs {jobs}")
            ok = False
        else:
            print(f"{name}: parity ok ({len(serial_rows)} rows bit-identical)")

        if update:
            continue
        base = data["baseline"]["wall_seconds_serial"].get(name)
        tolerance = data["gates"]["serial_tolerance"]
        if base is None:
            print(f"{name}: no serial baseline recorded — run --parallel --update")
            ok = False
        elif name == "table1" and serial_wall > base * (1.0 + tolerance):
            # only the long grid gets a wall gate; the Figure-4 example is
            # interpreter-startup-dominated and would flake
            print(
                f"{name}: serial wall {serial_wall:.2f}s exceeds baseline "
                f"{base:.2f}s +{tolerance:.0%}  FAIL"
            )
            ok = False

        # the speedup gate only makes sense on the long-running grid and
        # on machines that actually have cores to convert into wall time
        floor = required_speedup(data["gates"], cores)
        if name == "table1" and floor is not None:
            speedup = serial_wall / par_wall if par_wall > 0 else float("inf")
            verdict = "ok" if speedup >= floor else "FAIL"
            if speedup < floor:
                ok = False
            print(
                f"{name}: speedup {speedup:.2f}x at jobs={jobs} "
                f"(floor {floor:.2f}x for {cores} cores)  {verdict}"
            )
        elif name == "table1":
            print(f"{name}: 1 core — speedup gate skipped (parity still enforced)")

    if update:
        data["baseline"]["wall_seconds_serial"].update(measured)
        data["baseline"]["python"] = sys.version.split()[0]
        data["baseline"]["cores"] = cores
        PARALLEL_BASELINE_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline updated in {PARALLEL_BASELINE_FILE.name}")
        return 0
    return 0 if ok else 1


# ----------------------------------------------------------------------
# the incremental-ECO gate (BENCH_eco.json)
# ----------------------------------------------------------------------
def run_bench_eco(smoke: bool, out: Path) -> dict:
    """One ``bench_eco.py`` script-mode run; returns its JSON payload.

    The script itself asserts row/merge parity after every edit and
    fails (rc 1) below its built-in speedup floor, so a non-zero exit is
    already a gate failure.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [sys.executable, "bench_eco.py", "--json", str(out)]
    if smoke:
        cmd.append("--smoke")
    result = subprocess.run(
        cmd,
        cwd=REPO / "benchmarks",
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        raise SystemExit(f"bench_eco failed (rc={result.returncode})")
    return json.loads(out.read_text())


def check_eco(update: bool, smoke: bool) -> int:
    data = load_baseline(ECO_BASELINE_FILE)
    gates = data["gates"]
    out = Path("/tmp") / ("bench_eco_smoke.json" if smoke else "bench_eco.json")
    print(f"running bench_eco.py{' --smoke' if smoke else ''} ...", flush=True)
    payload = run_bench_eco(smoke, out)
    results = {r["scenario"]: r for r in payload["results"]}

    ok = True
    locality = results["locality"]
    if not all(r["parity"] for r in results.values()):
        # bench_eco asserts parity itself; this is a belt-and-braces check
        print("eco: PARITY FAIL — incremental rows diverged from full recompute")
        ok = False
    floor = gates["min_speedup_locality"]
    verdict = "ok" if locality["speedup"] >= floor else "FAIL"
    if locality["speedup"] < floor:
        ok = False
    print(
        f"eco locality: speedup {locality['speedup']:.1f}x "
        f"(floor {floor:.1f}x)  {verdict}"
    )

    if update:
        if smoke:
            raise SystemExit("error: refusing --eco --update --smoke — the "
                             "baseline records the full-size scenarios")
        data["baseline"] = dict(
            {r["scenario"]: {
                k: r[k] for k in (
                    "blocks", "cones", "edits",
                    "incremental_seconds", "full_seconds", "speedup",
                )
            } for r in payload["results"]},
            python=sys.version.split()[0],
        )
        ECO_BASELINE_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline updated in {ECO_BASELINE_FILE.name}")
        return 0 if ok else 1

    if not smoke:
        # the wall gate needs the full-size scenario the baseline records;
        # smoke runs a smaller circuit and would always "pass"
        tolerance = gates["wall_tolerance"]
        base = data["baseline"]["locality"]["incremental_seconds"]
        wall = locality["incremental_seconds"]
        within = wall <= base * (1.0 + tolerance)
        verdict = "ok" if within else "FAIL"
        if not within:
            ok = False
        print(
            f"eco locality: incremental wall {wall:.4f}s "
            f"(baseline {base:.4f}s +{tolerance:.0%})  {verdict}"
        )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# the interval-delay gate (BENCH_interval.json)
# ----------------------------------------------------------------------
def run_bench_interval(smoke: bool, out: Path) -> dict:
    """One ``bench_interval.py`` script-mode run; returns its payload.

    The script itself asserts scalar/point-interval row parity per
    engine, bound soundness, and the presence of the ``interval`` digest
    stamp on widened runs, and fails (rc 1) above its built-in bounds
    overhead ceiling, so a non-zero exit is already a gate failure.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [sys.executable, "bench_interval.py", "--json", str(out)]
    if smoke:
        cmd.append("--smoke")
    result = subprocess.run(
        cmd,
        cwd=REPO / "benchmarks",
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        raise SystemExit(f"bench_interval failed (rc={result.returncode})")
    return json.loads(out.read_text())


def check_interval(update: bool, smoke: bool) -> int:
    data = load_baseline(INTERVAL_BASELINE_FILE)
    gates = data["gates"]
    out = Path("/tmp") / (
        "bench_interval_smoke.json" if smoke else "bench_interval.json"
    )
    print(f"running bench_interval.py{' --smoke' if smoke else ''} ...",
          flush=True)
    payload = run_bench_interval(smoke, out)
    results = payload["results"]

    ok = True
    parity = results["parity"]
    if not all(r["parity"] for r in parity):
        # bench_interval asserts parity itself; belt-and-braces re-check
        print("interval: PARITY FAIL — point-interval rows diverged from scalar")
        ok = False
    else:
        print(f"interval: parity ok ({len(parity)} engine runs byte-identical)")

    ceiling = gates["max_bounds_overhead"]
    worst = max(results["bounds"], key=lambda r: r["overhead"])
    verdict = "ok" if worst["overhead"] <= ceiling else "FAIL"
    if worst["overhead"] > ceiling:
        ok = False
    print(
        f"interval: worst bounds overhead {worst['overhead']:.2f}x "
        f"({worst['circuit']}; ceiling {ceiling:.1f}x)  {verdict}"
    )

    if update:
        if smoke:
            raise SystemExit("error: refusing --interval --update --smoke — "
                             "the baseline records the full-size circuits")
        data["baseline"] = {
            "python": sys.version.split()[0],
            "bounds": {
                r["circuit"]: {
                    k: r[k] for k in (
                        "repeats", "scalar_seconds", "bounds_seconds",
                        "overhead",
                    )
                }
                for r in results["bounds"]
            },
            "widened_seconds": {
                r["circuit"]: r["seconds"] for r in results["widened"]
            },
        }
        INTERVAL_BASELINE_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline updated in {INTERVAL_BASELINE_FILE.name}")
        return 0 if ok else 1

    if not smoke:
        # the wall gate needs the full-size circuits the baseline records;
        # the smoke subset is smaller and would always "pass".  The widened
        # approx2 walls are the only multi-millisecond numbers in the
        # record, so they carry the regression gate (generous tolerance —
        # these runs are short enough to be scheduler-sensitive).
        tolerance = gates["wall_tolerance"]
        for record in results["widened"]:
            base = data["baseline"]["widened_seconds"].get(record["circuit"])
            if base is None:
                print(f"interval[{record['circuit']}]: no baseline — run "
                      f"--interval --update")
                ok = False
                continue
            within = record["seconds"] <= base * (1.0 + tolerance)
            verdict = "ok" if within else "FAIL"
            if not within:
                ok = False
            print(
                f"interval[{record['circuit']}]: widened approx2 wall "
                f"{record['seconds']:.4f}s (baseline {base:.4f}s "
                f"+{tolerance:.0%})  {verdict}"
            )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# the analysis-daemon gate (BENCH_serve.json)
# ----------------------------------------------------------------------
def run_bench_serve(smoke: bool, out: Path) -> dict:
    """One ``bench_serve.py`` script-mode run; returns its JSON payload.

    The script itself hard-fails (rc 1) on parity divergence, a missed
    per-circuit warm-speedup floor, or a coalescing probe that costs
    more than one computation, so a non-zero exit is already a gate
    failure.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    cmd = [sys.executable, "bench_serve.py", "--json", str(out)]
    if smoke:
        cmd.append("--smoke")
    result = subprocess.run(
        cmd,
        cwd=REPO / "benchmarks",
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        raise SystemExit(f"bench_serve failed (rc={result.returncode})")
    return json.loads(out.read_text())


def check_serve(update: bool, smoke: bool) -> int:
    data = load_baseline(SERVE_BASELINE_FILE)
    gates = data["gates"]
    out = Path("/tmp") / ("bench_serve_smoke.json" if smoke else "bench_serve.json")
    print(f"running bench_serve.py{' --smoke' if smoke else ''} ...", flush=True)
    payload = run_bench_serve(smoke, out)

    ok = True
    if not all(payload["parity"].values()):
        # bench_serve asserts parity itself; belt-and-braces re-check
        print("serve: PARITY FAIL — served rows diverged from the serial run")
        ok = False
    floor = gates["min_warm_speedup"]
    worst = min(payload["speedups"], key=payload["speedups"].get)
    verdict = "ok" if payload["speedups"][worst] >= floor else "FAIL"
    if payload["speedups"][worst] < floor:
        ok = False
    print(
        f"serve: worst warm speedup {payload['speedups'][worst]:.1f}x "
        f"({worst}; floor {floor:.1f}x)  {verdict}"
    )
    rate = payload["coalescing"]["hit_rate"]
    floor = gates["min_coalesce_hit_rate"]
    verdict = "ok" if rate >= floor else "FAIL"
    if rate < floor:
        ok = False
    print(f"serve: coalescing hit rate {rate:.0%} (floor {floor:.0%})  {verdict}")
    served = payload["load"]["throughput_rps"]
    need = gates["min_throughput_fraction"] * payload["load"]["offered_rps"]
    verdict = "ok" if served >= need else "FAIL"
    if served < need:
        ok = False
    print(
        f"serve: throughput {served:.1f} rps "
        f"(floor {need:.1f} of {payload['load']['offered_rps']:.0f} offered)  "
        f"{verdict}"
    )

    if update:
        if smoke:
            raise SystemExit("error: refusing --serve --update --smoke — the "
                             "baseline records the full-size load")
        data["baseline"] = {
            "python": sys.version.split()[0],
            "cold_cli_p50_seconds": payload["cold_cli_p50_seconds"],
            "warm_p50_seconds": payload["load"]["p50_seconds"],
            "warm_p99_seconds": payload["load"]["p99_seconds"],
            "throughput_rps": payload["load"]["throughput_rps"],
            "offered_rps": payload["load"]["offered_rps"],
            "speedups": payload["speedups"],
        }
        SERVE_BASELINE_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline updated in {SERVE_BASELINE_FILE.name}")
        return 0 if ok else 1

    if not smoke:
        # the wall gate needs the full-size load the baseline records;
        # the smoke subset offers less traffic and would always "pass"
        tolerance = gates["warm_p50_tolerance"]
        base = data["baseline"]["warm_p50_seconds"]
        wall = payload["load"]["p50_seconds"]
        within = wall <= base * (1.0 + tolerance)
        verdict = "ok" if within else "FAIL"
        if not within:
            ok = False
        print(
            f"serve: warm p50 {wall:.6f}s "
            f"(baseline {base:.6f}s +{tolerance:.0%})  {verdict}"
        )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# the object-vs-native kernel gate (BENCH_bdd_engine.json "native_backend")
# ----------------------------------------------------------------------
def run_table1_subset(methods: str, backend: str, out: Path,
                      circuits: str | None = None) -> float:
    """One bench_table1 script-mode run; returns the in-process wall.

    The in-process ``wall_seconds`` from the JSON payload (measured
    around the batch, not the interpreter) is the comparison currency so
    interpreter startup cannot dilute the kernel ratio.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_BDD_BACKEND", None)  # the flag must win, explicitly
    cmd = [
        sys.executable, "bench_table1.py", "--jobs", "1",
        "--methods", methods, "--backend", backend, "--json", str(out),
    ]
    if circuits is not None:
        cmd += ["--circuits", circuits]
    result = subprocess.run(
        cmd,
        cwd=REPO / "benchmarks",
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        raise SystemExit(
            f"bench_table1 --methods {methods} --backend {backend} failed "
            f"(rc={result.returncode})"
        )
    return float(json.loads(out.read_text())["wall_seconds"])


def _backend_grid(methods: str, backends: tuple[str, ...],
                  circuits: str | None = None):
    """Run one table1 subset under each kernel; returns walls + rows."""
    tmp = Path("/tmp")
    walls: dict[str, float] = {}
    rows: dict[str, list] = {}
    for backend in backends:
        out = tmp / f"bench_table1_{methods.replace(',', '_')}_{backend}.json"
        print(f"running bench_table1 --methods {methods} --backend {backend} ...",
              flush=True)
        walls[backend] = run_table1_subset(methods, backend, out, circuits)
        print(f"  {walls[backend]:.2f}s")
        rows[backend] = canonical_rows(json.loads(out.read_text()))
    return walls, rows


def _native_availability() -> tuple[bool, str | None]:
    """Build/load the native kernel (lazily) in-process."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.bdd.native_backend import native_status

    return native_status()


def check_native_backend(update: bool, smoke: bool) -> int:
    data = load_baseline(BASELINE_FILE)
    section = data.get("native_backend")
    if section is None:
        raise SystemExit(
            "error: BENCH_bdd_engine.json has no 'native_backend' section — "
            "regenerate with --native-backend --update and commit it."
        )
    gates = section["gates"]

    available, reason = _native_availability()
    kernels = ("object", "native")

    if smoke:
        # CI smoke: two-way row parity on the fast circuits (m1
        # completes, m2 exercises the budget-abort row); no timing gates.
        # Without a compiler the 'native' runs degrade to the object
        # kernel — parity then still exercises the selection plumbing.
        if not available:
            print(f"note: native kernel unavailable ({reason}); "
                  f"'native' rows come from the object fallback")
        walls, rows = _backend_grid("exact,approx1", kernels, circuits="m1,m2")
        parity = rows["native"] == rows["object"]
        n = len(rows["object"])
        print(f"smoke parity: {n} rows x {len(kernels)} kernels "
              f"{'bit-identical  ok' if parity else 'DIFFER  FAIL'}")
        return 0 if parity else 1

    if not available:
        # full mode must time the real C kernel: a silent object fallback
        # would "pass" the floors with the wrong kernel under test
        print(f"native kernel unavailable ({reason}) — the full "
              f"--native-backend gate needs a C toolchain  FAIL")
        return 1

    ok = True
    measured: dict[str, object] = {}
    ratios: dict[str, float] = {}
    for label in ("exact", "approx1"):
        walls, rows = _backend_grid(label, kernels)
        measured[f"table1_{label}"] = {b: round(walls[b], 2) for b in kernels}
        ratios[label] = walls["object"] / walls["native"]
        if rows["native"] != rows["object"]:
            print(f"table1[{label}]: PARITY FAIL — native rows differ "
                  f"from object")
            ok = False
        else:
            print(f"table1[{label}]: parity ok ({len(rows['object'])} rows "
                  f"bit-identical across {len(kernels)} kernels)")
        print(f"table1[{label}]: object/native speedup {ratios[label]:.2f}x")

    floor = gates["min_speedup_exact_vs_object"]
    verdict = "ok" if ratios["exact"] >= floor else "FAIL"
    if ratios["exact"] < floor:
        ok = False
    print(f"exact rows: native speedup {ratios['exact']:.2f}x vs object "
          f"(floor {floor:.2f}x)  {verdict}")

    floor = gates["min_ratio_approx1_vs_object"]
    verdict = "ok" if ratios["approx1"] >= floor else "FAIL"
    if ratios["approx1"] < floor:
        ok = False
    print(f"approx1 rows: native ratio {ratios['approx1']:.2f}x vs object "
          f"(floor {floor:.2f}x)  {verdict}")

    if update:
        section["baseline"] = dict(measured, python=sys.version.split()[0])
        BASELINE_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"native_backend baseline updated in {BASELINE_FILE.name}")
        return 0 if ok else 1

    tolerance = gates["regression_tolerance"]
    for label in ("exact", "approx1"):
        base = section["baseline"].get(f"table1_{label}", {}).get("native")
        wall = measured[f"table1_{label}"]["native"]
        if base is None:
            print(f"table1[{label}]: no native baseline — run "
                  f"--native-backend --update")
            ok = False
            continue
        within = wall <= base * (1.0 + tolerance)
        verdict = "ok" if within else "FAIL"
        if not within:
            ok = False
        print(f"table1[{label}]: native wall {wall:.2f}s "
              f"(baseline {base:.2f}s +{tolerance:.0%})  {verdict}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-measure and rewrite the baseline block",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="run the BENCH_parallel.json parity/speedup gate instead",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="with --parallel/--native-backend/--eco/--serve/"
             "--interval: the fast CI smoke subset",
    )
    parser.add_argument(
        "--native-backend",
        action="store_true",
        help="run the object-vs-native kernel gate instead",
    )
    parser.add_argument(
        "--eco",
        action="store_true",
        help="run the BENCH_eco.json incremental-vs-full gate instead",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the BENCH_serve.json warm-daemon gate instead",
    )
    parser.add_argument(
        "--interval",
        action="store_true",
        help="run the BENCH_interval.json interval-delay gate instead",
    )
    args = parser.parse_args()

    if args.parallel:
        return check_parallel(update=args.update, smoke=args.smoke)
    if args.native_backend:
        return check_native_backend(update=args.update, smoke=args.smoke)
    if args.eco:
        return check_eco(update=args.update, smoke=args.smoke)
    if args.serve:
        return check_serve(update=args.update, smoke=args.smoke)
    if args.interval:
        return check_interval(update=args.update, smoke=args.smoke)

    data = load_baseline(BASELINE_FILE)
    times = measure()

    if args.update:
        data["baseline"] = {
            "wall_seconds": times,
            "python": sys.version.split()[0],
        }
        BASELINE_FILE.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline updated in {BASELINE_FILE.name}")
        return 0

    min_improvement = data["gates"]["min_improvement_vs_pre_pr"]
    tolerance = data["gates"]["regression_tolerance_vs_baseline"]
    pre = data["pre_pr"]["wall_seconds"]
    base = data["baseline"]["wall_seconds"]

    ok = True
    for target, t in times.items():
        if target not in base:
            print(f"{target}: {t:.2f}s  (no baseline recorded — run --update)")
            ok = False
            continue
        within = t <= base[target] * (1.0 + tolerance)
        if target in pre:
            # the engine-overhaul acceptance gate only applies to targets
            # that existed before that PR
            ceiling = pre[target] * (1.0 - min_improvement)
            improved = t <= ceiling
            pre_note = f"pre-PR {pre[target]:.2f}s, gate <= {ceiling:.2f}s; "
        else:
            improved = True
            pre_note = ""
        verdict = "ok" if improved and within else "FAIL"
        if not (improved and within):
            ok = False
        print(
            f"{target}: {t:.2f}s  ({pre_note}baseline {base[target]:.2f}s "
            f"+{tolerance:.0%})  {verdict}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
