"""Serve benchmark: warm daemon latency vs cold CLI, under seeded load.

Timed claim (the acceptance bar of docs/SERVING.md): for the Table-1
MCNC-like circuits, a **warm** ``repro serve`` daemon must answer a
``POST /required`` request with a p50 latency at least 10x better than
a **cold** ``repro required`` CLI invocation of the same analysis — the
daemon amortizes interpreter startup, parsing, and the engine run into
its registry and result cache.  Two exactness gates ride along: every served canonical row must
be byte-identical to the in-process
:func:`repro.cache.cached_analyze_required_times` row (serial ground
truth), and N identical concurrent requests for an uncached key must
lead to exactly **one** computation (single-flight coalescing, verified
through the daemon's own ``/metrics`` counters).

The load phase is a seeded open-loop generator: arrival times are drawn
up front from ``random.Random(SEED)`` and honored regardless of
completions (so a slow server cannot slow the offered load), and the
p50/p99/throughput of the warm phase land in the JSON payload.

Run:  pytest benchmarks/bench_serve.py --benchmark-only -q

Script mode — ``python benchmarks/bench_serve.py [--smoke] [--json OUT]``
— runs cold CLI timing, the daemon load test, the coalescing probe, and
the parity sweep (exit 1 on a parity or single-flight failure), then
writes the JSON payload; ``scripts/check_bench.py serve`` holds the
speedup, hit-rate, throughput and p50 bounds (CI runs it with
``--smoke``).
"""

import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from _harness import TableCollector

from repro.cache import ResultCache, cached_analyze_required_times
from repro.circuits import mcnc_suite
from repro.network import write_blif

TABLE = TableCollector(
    "Serve: warm daemon vs cold CLI (seeded open-loop load)",
    ["circuit", "cold CLI p50 (s)", "warm p50 (s)", "speedup", "parity"],
)

#: identical concurrent requests in the coalescing probe
COALESCE_FANIN = 6
#: the analysis every request runs (matches the CLI default engine)
METHOD = "approx2"
OPTIONS = {"engine": "sat"}
SEED = 20260808

SPECS = {spec.name: spec for spec in mcnc_suite()}


# ----------------------------------------------------------------------
# minimal HTTP client (stdlib only, one connection per call)
# ----------------------------------------------------------------------
def request(port: int, method: str, path: str, body=None, timeout=60.0):
    """One HTTP exchange with the daemon; returns (status, payload)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def counter(port: int, name: str) -> float:
    """One ``/metrics`` counter value (0.0 when never incremented)."""
    _, payload = request(port, "GET", "/metrics")
    return float(payload["metrics"].get(name, 0.0))


# ----------------------------------------------------------------------
# the daemon under test (subprocess, free port, warm result cache)
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` subprocess bound to a free port."""

    def __init__(self, cache_dir: str, preload: list[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root(), "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "0", "--debug-handlers", "--cache-dir", cache_dir,
             "--preload", *preload],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.proc.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        self.port = int(banner.rsplit(":", 1)[1])

    def stop(self):
        self.proc.terminate()
        self.proc.wait(timeout=10)


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_circuits(tmpdir: str, names: list[str]) -> dict[str, str]:
    """The benchmark circuits as BLIF files (the CLI's input currency)."""
    paths = {}
    for name in names:
        path = os.path.join(tmpdir, f"{name}.blif")
        with open(path, "w") as fh:
            fh.write(write_blif(SPECS[name].network))
        paths[name] = path
    return paths


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(p * (len(ordered) - 1))))
    return ordered[index]


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def cold_cli_p50(path: str, rounds: int) -> float:
    """p50 wall of ``repro required`` cold runs (``--no-cache``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root(), "src")
    walls = []
    for _ in range(rounds):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "repro", "required", path,
             "--method", METHOD, "--no-cache", "--json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        walls.append(time.perf_counter() - start)
        assert result.returncode == 0, result.stdout
    return statistics.median(walls)


def prime_and_check_parity(port: int, digests: dict[str, str],
                           cache_dir: str) -> dict[str, bool]:
    """First request per circuit (the one real computation), with the
    served canonical row compared byte-for-byte against the serial
    in-process ground truth."""
    truth_cache = ResultCache(cache_dir=None)
    parity = {}
    for name, digest in digests.items():
        status, served = request(
            port, "POST", "/required",
            {"circuit": digest, "method": METHOD, "options": OPTIONS},
        )
        assert status == 200, served
        truth, _ = cached_analyze_required_times(
            SPECS[name].network, METHOD, truth_cache, options=dict(OPTIONS)
        )
        parity[name] = json.dumps(served["row"], sort_keys=True) == json.dumps(
            truth.row(), sort_keys=True
        )
    return parity


def open_loop_load(port: int, digests: dict[str, str], n_requests: int,
                   rate_rps: float) -> dict:
    """Seeded open-loop traffic: arrival offsets drawn up front, each
    request fired on schedule from its own thread no matter how earlier
    requests are doing.  Returns warm latency/throughput stats."""
    rng = random.Random(SEED)
    names = sorted(digests)
    offset = 0.0
    plan = []
    for _ in range(n_requests):
        offset += rng.expovariate(rate_rps)
        plan.append((offset, rng.choice(names)))

    latencies = [None] * len(plan)
    failures = []

    def fire(i: int, name: str):
        start = time.perf_counter()
        try:
            status, payload = request(
                port, "POST", "/required",
                {"circuit": digests[name], "method": METHOD,
                 "options": OPTIONS},
            )
            if status != 200:
                failures.append((name, status, payload))
        except Exception as exc:  # noqa: BLE001 - recorded, gated below
            failures.append((name, -1, repr(exc)))
        latencies[i] = time.perf_counter() - start

    epoch = time.perf_counter()
    threads = []
    for i, (offset, name) in enumerate(plan):
        delay = epoch + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(target=fire, args=(i, name))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - epoch

    assert not failures, f"warm load saw failures: {failures[:3]}"
    per_name = {name: [] for name in names}
    for (offset, name), latency in zip(plan, latencies):
        per_name[name].append(latency)
    return {
        "requests": len(plan),
        "offered_rps": rate_rps,
        "throughput_rps": round(len(plan) / wall, 1),
        "p50_seconds": round(percentile(latencies, 0.50), 6),
        "p99_seconds": round(percentile(latencies, 0.99), 6),
        "p50_by_circuit": {
            name: round(statistics.median(samples), 6)
            for name, samples in per_name.items() if samples
        },
    }


def coalescing_probe(port: int, digests: dict[str, str]) -> dict:
    """N identical requests for an uncached key while the dispatcher is
    pinned by a detached sleep — must cost exactly one computation."""
    digest = digests[sorted(digests)[0]]
    before_computations = counter(port, "serve.computations")
    before_coalesced = counter(port, "serve.coalesced")

    # pin the single dispatcher thread so all N requests arrive while
    # the leader's computation is still queued behind the sleep
    status, payload = request(
        port, "POST", "/debug/task",
        {"kind": "_test_sleep", "payload": {"seconds": 0.4}, "detach": True},
    )
    assert status == 200 and payload.get("detached"), payload

    # output_required 1.5 was never requested before: guaranteed cache miss
    body = {"circuit": digest, "method": METHOD, "options": OPTIONS,
            "output_required": 1.5}
    results = []

    def fire():
        results.append(request(port, "POST", "/required", body))

    threads = [threading.Thread(target=fire) for _ in range(COALESCE_FANIN)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert all(status == 200 for status, _ in results), results
    tags = sorted(payload["cache"] for _, payload in results)
    computations = counter(port, "serve.computations") - before_computations
    coalesced = counter(port, "serve.coalesced") - before_coalesced
    return {
        "fanin": COALESCE_FANIN,
        "computations": int(computations),
        "coalesced": int(coalesced),
        "hit_rate": round(coalesced / COALESCE_FANIN, 3),
        "tags": tags,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entries (the warm hot path, in-process daemon)
# ----------------------------------------------------------------------
def test_warm_required_hit(benchmark):
    """One warm ``POST /required`` round trip against a live daemon."""
    from repro.serve import ReproServer, ServerConfig

    with ReproServer(ServerConfig(port=0, jobs=0)) as server:
        digest = server.registry.register(SPECS["m1"].network).digest
        body = {"circuit": digest, "method": METHOD, "options": OPTIONS}
        status, payload = request(server.port, "POST", "/required", body)
        assert status == 200 and payload["cache"] == "miss"

        def warm():
            return request(server.port, "POST", "/required", body)

        status, payload = benchmark(warm)
        assert status == 200 and payload["cache"] == "hit"


def test_zzz_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    TABLE.print_once()


# ----------------------------------------------------------------------
# script mode: the JSON payload scripts/check_bench.py gates
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Warm-daemon vs cold-CLI benchmark with seeded load."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="fewer circuits and requests (the CI gate)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the JSON payload to this path")
    args = parser.parse_args(argv)

    names = ["m1", "m8"] if args.smoke else ["m1", "m4", "m8"]
    cli_rounds = 3 if args.smoke else 5
    n_requests = 60 if args.smoke else 300
    rate_rps = 120.0 if args.smoke else 200.0

    ok = True
    with tempfile.TemporaryDirectory() as tmpdir:
        paths = write_circuits(tmpdir, names)
        cold = {name: cold_cli_p50(paths[name], cli_rounds) for name in names}

        cache_dir = os.path.join(tmpdir, "cache")
        daemon = Daemon(cache_dir, [paths[name] for name in names])
        try:
            _, listing = request(daemon.port, "GET", "/circuits")
            digests = {c["name"]: c["digest"] for c in listing["circuits"]}
            assert set(digests) == set(names), digests

            parity = prime_and_check_parity(daemon.port, digests, cache_dir)
            load = open_loop_load(daemon.port, digests, n_requests, rate_rps)
            coalescing = coalescing_probe(daemon.port, digests)
        finally:
            daemon.stop()

    speedups = {}
    for name in names:
        warm_p50 = load["p50_by_circuit"][name]
        speedups[name] = round(cold[name] / max(warm_p50, 1e-9), 1)
        TABLE.add(name, round(cold[name], 4), warm_p50,
                  f"{speedups[name]}x", parity[name])
        print(
            f"{name:<4} cold CLI p50 {cold[name]:.4f}s  warm p50 "
            f"{warm_p50:.6f}s  ({speedups[name]}x, parity "
            f"{'ok' if parity[name] else 'FAIL'})"
        )
        if not parity[name]:
            print(f"FAIL: {name} served row diverged from the serial "
                  f"in-process row", file=sys.stderr)
            ok = False
    print(
        f"load: {load['requests']} requests at {load['offered_rps']} rps "
        f"offered -> {load['throughput_rps']} rps served, "
        f"p50 {load['p50_seconds']:.6f}s p99 {load['p99_seconds']:.6f}s"
    )
    print(
        f"coalescing: {coalescing['fanin']} identical requests -> "
        f"{coalescing['computations']} computation(s), "
        f"{coalescing['coalesced']} coalesced "
        f"(hit rate {coalescing['hit_rate']:.0%})"
    )
    if coalescing["computations"] != 1:
        print(
            f"FAIL: coalescing probe cost {coalescing['computations']} "
            f"computations (want exactly 1)", file=sys.stderr)
        ok = False
    if coalescing["coalesced"] != COALESCE_FANIN - 1:
        print(
            f"FAIL: only {coalescing['coalesced']} of "
            f"{COALESCE_FANIN - 1} duplicate requests coalesced",
            file=sys.stderr)
        ok = False

    if args.json:
        payload = {
            "benchmark": "serve",
            "smoke": args.smoke,
            "method": METHOD,
            "seed": SEED,
            "cold_cli_p50_seconds": {k: round(v, 4) for k, v in cold.items()},
            "speedups": speedups,
            "parity": parity,
            "load": load,
            "coalescing": coalescing,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"record written to {args.json}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
