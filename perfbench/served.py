"""The served-mix workload: a warm ``repro serve`` daemon under open-loop load.

Setup starts ``repro serve --jobs 1 --no-cache`` (one pool worker, a
memory-only result cache), registers the Table-1 circuits as BLIF,
primes the hit keys and opens one ECO session on m7.  The schedule is
then drawn up front from the seed: Poisson arrivals at one fixed total
rate over ``seconds``, with a fixed count per request class.

* ``hit``: ``POST /required`` for a primed key, answered on the event
  loop from the result cache.
* ``miss``: ``POST /required`` with an ``output_required`` never asked
  before, on m1 approx-2, computed on the pool worker.
* ``edit``: ``POST /sessions/<id>/edits`` (``set_delay`` or a
  same-fanin ``resubstitute``) on the m7 session, run on the single
  dispatcher thread.

Misses and edits share the dispatcher thread and the GIL with the event
loop that serves hits, so a change that speeds one class at the expense
of another shows.  At the rates below the dispatcher is about a
quarter busy, which leaves room for the slow stretches of a shared
machine without a queue building up.

The load generator is one process with two keep-alive connections, one
per lane: hits on the read lane, misses and edits (which the daemon
serializes anyway) on the write lane.  Each request is timed from the
moment it was due, so a stall counts against every request it delays;
how late the generator sent each request is reported as its lag.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from measure import SetupError, geomean, median, percentile, ratio
from refs import row_digest

SAT = {"engine": "sat"}
CIRCUITS = tuple(f"m{i}" for i in range(1, 11))
#: primed at setup; every hit reads one of these
HIT_KEYS = tuple(
    [(c, "topological", {}) for c in CIRCUITS]
    + [(c, m, o) for c in ("m1", "m9") for m, o in (("approx1", {}), ("approx2", SAT))]
)
#: misses: approx-2 on these circuits with an unseen output_required.
#: Only m1: an m9 miss costs about 0.1 s, which would keep the
#: dispatcher more than half busy at the miss rate below.
MISS_CIRCUITS = ("m1",)
MISS_POOL = 200
SESSION = ("m7", "approx2", SAT)
#: requests per second, by class
RATES = {"hit": 50.0, "miss": 5.0, "edit": 5.0}
GATE_KINDS = ("AND", "OR", "NAND", "NOR")
#: how often a traced run polls /trace (its ring holds 256 requests)
POLL_SECONDS = 1.0
TIMEOUT = 60.0


def read_key(circuit: str, method: str, required: float) -> str:
    return f"{circuit}/{method}/{required:g}"


def miss_required(j: int) -> float:
    return 1.0 + 0.25 * j


def reads():
    """Every ``/required`` read the schedule can send, as
    ``(key, circuit, method, options, output_required)``."""
    for circuit, method, options in HIT_KEYS:
        yield read_key(circuit, method, 0.0), circuit, method, options, 0.0
    for circuit in MISS_CIRCUITS:
        for j in range(MISS_POOL):
            required = miss_required(j)
            yield read_key(circuit, "approx2", required), circuit, "approx2", SAT, required


@dataclass
class Request:
    cls: str
    due: float
    method: str
    path: str
    body: dict | None = None
    ref: str | None = None
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: dict = field(default_factory=dict)


def exchange(conn, method: str, path: str, body=None) -> tuple[int, dict]:
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode())


class Daemon:
    """A ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, env: dict, log_path: str):
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--no-cache"],
            env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        banner = self.proc.stdout.readline().strip()
        if not banner.startswith("serving on http://"):
            self.close()
            raise SetupError(f"daemon did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT)

    def call(self, method: str, path: str, body=None) -> dict:
        """One setup/teardown exchange; anything but 200 is a SetupError."""
        status, payload = exchange(self.conn, method, path, body)
        if status != 200:
            raise SetupError(f"{method} {path}: {status} {payload}")
        return payload

    def peak_rss_mb(self) -> float:
        """High-water RSS of the daemon plus its pool workers."""
        pids = [self.proc.pid]
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            with open(f"{task_dir}/{tid}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ServedWorkload:
    """The daemon, prepared: circuits registered, hits primed, session open."""

    def __init__(self, seed: int, workdir: str, env: dict, refs: dict):
        from repro.circuits import mcnc_suite
        from repro.network.blif import write_blif

        self.seed = seed
        self.refs = refs
        specs = {spec.name: spec for spec in mcnc_suite()}
        self.m7 = specs[SESSION[0]].network
        texts = {}
        for name in CIRCUITS:
            path = os.path.join(workdir, f"{name}.blif")
            with open(path, "w") as fh:
                fh.write(write_blif(specs[name].network))
            with open(path) as fh:
                texts[name] = fh.read()
        self.daemon = Daemon(env, os.path.join(workdir, "daemon.log"))
        try:
            kernel = self.daemon.call("GET", "/healthz")["bdd_backend"]
            if kernel["effective"] != "native":
                raise SetupError(
                    f"daemon's effective BDD kernel is {kernel['effective']!r}, "
                    f"not 'native' ({kernel['fallback_reason']})"
                )
            self.digests = {
                name: self.daemon.call(
                    "POST", "/circuits", {"netlist": texts[name], "format": "blif"}
                )["circuit"]["digest"]
                for name in CIRCUITS
            }
            for circuit, method, options in HIT_KEYS:
                self.daemon.call("POST", "/required", self._required_body(
                    circuit, method, options, 0.0))
            circuit, method, options = SESSION
            view = self.daemon.call("POST", "/sessions", {
                "circuit": self.digests[circuit], "method": method,
                "options": options,
            })
            self.session_id = view["session"]["id"]
        except BaseException:
            self.daemon.close()
            raise

    def close(self) -> None:
        self.daemon.close()

    def _required_body(self, circuit, method, options, required) -> dict:
        return {"circuit": self.digests[circuit], "method": method,
                "options": options, "output_required": required}

    # ------------------------------------------------------------------
    # the schedule
    # ------------------------------------------------------------------
    def schedule(self, seconds: float) -> list[Request]:
        """The whole run's requests, drawn up front from the seed."""
        rng = random.Random(f"served-mix:{self.seed}")
        classes = [cls for cls, rate in RATES.items()
                   for _ in range(max(1, round(rate * seconds)))]
        rng.shuffle(classes)
        gaps = [rng.expovariate(1.0) for _ in classes]
        scale = seconds / sum(gaps)
        misses = [(c, j) for c in MISS_CIRCUITS for j in range(MISS_POOL)]
        rng.shuffle(misses)
        if classes.count("miss") > len(misses):
            raise SetupError(f"{seconds}s needs more misses than the pool holds")
        gates = sorted(n for n, node in self.m7.nodes.items() if not node.is_input)
        multi = [n for n in gates if len(self.m7.nodes[n].fanins) >= 2]
        edit_path = f"/sessions/{self.session_id}/edits"
        out, due = [], 0.0
        for cls, gap in zip(classes, gaps):
            due += gap * scale
            if cls == "hit":
                circuit, method, options = rng.choice(HIT_KEYS)
                required = 0.0
            elif cls == "miss":
                circuit, j = misses.pop()
                method, options, required = "approx2", SAT, miss_required(j)
            else:
                if rng.random() < 0.7:
                    edit = {"kind": "set_delay", "name": rng.choice(gates),
                            "delay": rng.choice((1, 2, 3))}
                else:
                    name = rng.choice(multi)
                    edit = {"kind": "resubstitute", "name": name,
                            "fanins": list(self.m7.nodes[name].fanins),
                            "gate": rng.choice(GATE_KINDS)}
                out.append(Request(cls, due, "POST", edit_path, {"edit": edit}))
                continue
            out.append(Request(
                cls, due, "POST", "/required",
                self._required_body(circuit, method, options, required),
                ref=self.refs[read_key(circuit, method, required)],
            ))
        return out

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def measure(self, seconds: float, trace: bool) -> dict:
        requests = self.schedule(seconds)
        read_lane = [r for r in requests if r.cls == "hit"]
        write_lane = [r for r in requests if r.cls != "hit"]
        polls = []
        if trace:
            before = self.daemon.call("GET", "/metrics")["metrics"]
            # the ring still holds set-up requests; keep only later ones
            trace_start = max(rec["t"] for rec in
                              self.daemon.call("GET", "/trace")["requests"])
            ticks = int(seconds / POLL_SECONDS) + 1
            for k in range(1, ticks + 1):
                polls += [Request("poll", k * POLL_SECONDS, "GET", "/metrics"),
                          Request("poll", k * POLL_SECONDS, "GET", "/trace")]
            read_lane = sorted(read_lane + polls, key=lambda r: r.due)
        epoch = time.perf_counter() + 0.05
        lanes = [threading.Thread(target=_run_lane, args=(self.daemon.port, lane, epoch))
                 for lane in (read_lane, write_lane)]
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
        peak_rss = self.daemon.peak_rss_mb()
        after = None
        if trace:
            # requests that finished after the read lane's last poll
            polls.append(Request("poll", 0.0, "GET", "/trace", status=200,
                                 payload=self.daemon.call("GET", "/trace")))
            after = self.daemon.call("GET", "/metrics")["metrics"]
        verify = self.daemon.call("POST", f"/sessions/{self.session_id}/verify")

        failures = [r for r in requests if not _request_ok(r)]
        attempted = len(requests) + 1
        failed = len(failures) + (0 if verify["ok"] else 1)
        lat = {cls: [1000.0 * (r.done - r.due) for r in requests if r.cls == cls]
               for cls in RATES}
        wall = max(r.done for r in requests) - min(r.due for r in requests)
        metrics = {
            "wall_s": wall,
            "throughput_ops_s": len(requests) / wall,
            "peak_rss_mb": peak_rss,
            # one operation per request class, each at its median latency
            "op_geomean_ms": geomean([median(lat[cls]) for cls in RATES]),
        }
        if trace:
            metrics.update(_layer_metrics(requests, lat, polls, trace_start,
                                          before, after, wall))
            metrics["failed_frac"] = failed / attempted
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "problems": [f"{r.cls} {r.path}: {r.status} {str(r.payload)[:200]}"
                         for r in failures[:5]],
            "metrics": metrics,
        }


def _layer_metrics(requests, lat, polls, trace_start, before, after, wall) -> dict:
    """Per-layer figures from the polled ``/trace`` records, the
    ``/metrics`` diff and the responses themselves."""
    records = {}
    queue_depth_max = 0.0
    for poll in polls:
        if poll.path == "/trace":
            for rec in poll.payload.get("requests", []):
                if rec["t"] > trace_start:
                    records[(rec["t"], rec["path"])] = rec
        else:
            queue_depth_max = max(
                queue_depth_max, poll.payload.get("server", {}).get("queue_depth", 0))
    ordered = [records[k] for k in sorted(records)]
    hit_recs = [r for r in ordered if r["path"] == "/required" and r["cache"] == "hit"]
    write_recs = [r for r in ordered if (r["path"] == "/required" and r["cache"] == "miss")
                  or r["path"].endswith("/edits")]
    hits = [r for r in requests if r.cls == "hit"]
    writes = [r for r in requests if r.cls != "hit"]
    matched = []
    if len(hit_recs) == len(hits):
        matched += list(zip(hits, hit_recs))
    if len(write_recs) == len(writes):
        matched += list(zip(writes, write_recs))
    handle = {cls: [rec["wall_ms"] for req, rec in matched if req.cls == cls]
              for cls in RATES}
    queue_wait, dispatch = [], []
    for req, rec in matched:
        if req.cls == "miss":
            compute = 1000.0 * req.payload.get("wall_seconds", 0.0)
            dispatch.append(rec["wall_ms"] - compute)
            queue_wait.append(rec["wall_ms"] - compute)
        elif req.cls == "edit":
            compute = 1000.0 * req.payload["edits"][0]["wall_seconds"]
            queue_wait.append(rec["wall_ms"] - compute)
    edits = [r.payload["edits"][0] for r in requests
             if r.cls == "edit" and r.status == 200]
    candidates = sum(len(e["candidates"]) for e in edits)
    recomputed = sum(len(e["recomputed"]) for e in edits)
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    reads = sum(1 for r in requests if r.path == "/required")
    end = max(r.due for r in requests)
    return {
        "hit_p50_ms": percentile(lat["hit"], 0.50),
        "hit_p99_ms": percentile(lat["hit"], 0.99),
        "miss_p50_ms": percentile(lat["miss"], 0.50),
        "miss_p90_ms": percentile(lat["miss"], 0.90),
        "edit_p50_ms": percentile(lat["edit"], 0.50),
        "edit_p90_ms": percentile(lat["edit"], 0.90),
        "cache.hit_ratio": ratio(delta.get("serve.cache_hits", 0.0), reads),
        "serve.coalesced": delta.get("serve.coalesced", 0.0),
        "serve.computations": delta.get("serve.computations", 0.0),
        "parallel.dispatch_ms": median(dispatch),
        "parallel.retries": delta.get("parallel.retries", 0.0),
        "parallel.workers_spawned": delta.get("parallel.workers_spawned", 0.0),
        "eco.apply_ms": median([1000.0 * e["wall_seconds"] for e in edits]),
        "eco.recomputed_per_edit": ratio(recomputed, len(edits)),
        "eco.cached_per_edit": ratio(sum(len(e["cache_hits"]) for e in edits), len(edits)),
        "eco.recompute_ratio": ratio(recomputed, candidates),
        "serve.hit_handle_ms": median(handle["hit"]),
        "serve.miss_handle_ms": median(handle["miss"]),
        "serve.edit_handle_ms": median(handle["edit"]),
        "serve.queue_wait_ms": median(queue_wait),
        "serve.transport_ms": median(
            [1000.0 * (req.done - req.sent) - rec["wall_ms"] for req, rec in matched]),
        "serve.rejected": delta.get("serve.rejected", 0.0),
        "serve.queue_depth_max": float(queue_depth_max),
        "sat.decisions": delta.get("sat.decisions", 0.0),
        "sat.propagations": delta.get("sat.propagations", 0.0),
        "sat.conflicts": delta.get("sat.conflicts", 0.0),
        "approx2.checks": delta.get("approx2.checks", 0.0),
        "bdd.ops": delta.get("bdd.ops", 0.0),
        "obs.trace_overhead_frac": sum(p.done - p.sent for p in polls) / wall,
        "loadgen.lag_p99_ms": percentile([1000.0 * (r.sent - r.due) for r in requests], 0.99),
        "loadgen.backlog_end": float(sum(1 for r in requests if r.due <= end < r.done)),
    }


def _run_lane(port: int, lane: list[Request], epoch: float) -> None:
    """Send one lane's requests on schedule over one keep-alive connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        for req in lane:
            delay = epoch + req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            req.sent = time.perf_counter() - epoch
            try:
                req.status, req.payload = exchange(conn, req.method, req.path, req.body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                req.status, req.payload = -1, {"error": repr(exc)}
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
            req.done = time.perf_counter() - epoch
    finally:
        conn.close()


def _request_ok(req: Request) -> bool:
    """200, the expected cache tag, and the reference row (reads) or no
    failed cone (edits)."""
    if req.status != 200:
        return False
    if req.cls == "edit":
        return not req.payload["edits"][0]["failed"]
    want = "hit" if req.cls == "hit" else "miss"
    return req.payload.get("cache") == want and row_digest(req.payload["row"]) == req.ref
