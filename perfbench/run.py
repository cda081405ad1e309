"""The repository benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cold-bdd --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics (from a traced round; a layer the workload does
not exercise reads 0).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine (nproc, Python version, effective BDD kernel).

Each workload runs in its own process (``child.py``), so ``setup_s`` and
``peak_rss_mb`` belong to that workload alone.  ``setup_s`` is the median
of several set-ups, each timed from process start to the child's
``ready`` line.  Before them, one untimed process loads the native BDD
kernel, which compiles it on first use in a checkout.  Everything the
run writes goes under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-ups per run; the median is ``setup_s``
SETUP_SAMPLES = 3
#: the whole run must end well inside three minutes
DEADLINE_SECONDS = 170.0


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_BDD_BACKEND"] = "native"
    env["REPRO_NATIVE_CACHE"] = os.path.join(ROOT, ".bench_build", "native")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def load_kernel(env: dict, deadline: float) -> None:
    """Compile/load the native kernel outside any timed region."""
    code = ("from repro.bdd.native_backend import native_status; "
            "ok, why = native_status(); "
            "raise SystemExit(0 if ok else f'native BDD kernel unavailable: {why}')")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RunError("native BDD kernel did not load")


def spawn(args, workdir: str, env: dict, deadline: float, setup_only: bool):
    """One child process; returns (setup seconds, result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # own process group, so the watchdog also stops a served-mix daemon
    # and its pool worker
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunError(f"{args.workload} child exited with code {code}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_SECONDS

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        load_kernel(env, deadline)
        setups = [spawn(args, workdir, env, deadline, True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, result = spawn(args, workdir, env, deadline, False)
    except (RunError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups + [setup])
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(values) - known)
    missing = [m["name"] for m in wanted
               if m["name"] not in values and not args.trace]
    if unknown or missing:
        print(f"perfbench: unknown metrics {unknown}, missing {missing}",
              file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
