"""End-to-end tests of the analysis daemon over a real socket.

Covers the four tentpole behaviors of docs/SERVING.md:

* cold vs warm parity — served rows byte-identical to the ``repro
  required`` CLI (shared disk cache, both directions);
* in-flight coalescing — N identical concurrent requests run ONE
  computation (the ``serve.computations`` counter is the proof);
* backpressure — a saturated admission queue is an explicit 429 with
  ``Retry-After``, and the server recovers once it drains;
* graceful shutdown — in-flight requests complete and their responses
  are delivered before the listener dies.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cache import ResultCache, cached_analyze_required_times
from repro.circuits import c17, carry_skip_block, figure4
from repro.cli import main
from repro.network import write_blif
from repro.obs import REGISTRY
from repro.serve import ReproServer, ServerConfig

from tests.integration.serve_client import ServeClient

FIG4_BLIF = write_blif(figure4())
CSKIP_BLIF = write_blif(carry_skip_block())
C17_BLIF = write_blif(c17())


def counter_value(name: str) -> float:
    """Current process-wide value of one obs counter."""
    return REGISTRY.snapshot().as_dict().get(name, 0.0)


@pytest.fixture
def cached_server(tmp_path):
    """A daemon with a disk cache tier and debug handlers, on a free port."""
    config = ServerConfig(
        port=0,
        jobs=1,
        cache_dir=str(tmp_path / "cache"),
        debug_handlers=True,
    )
    with ReproServer(config) as server:
        yield server


class TestColdWarmParity:
    def test_cold_then_warm_rows_identical(self, cached_server):
        client = ServeClient(cached_server.port)
        request = {"circuit": {"netlist": FIG4_BLIF}, "method": "approx2"}
        status, cold, _ = client.post("/required", request)
        assert status == 200
        assert cold["cache"] == "miss"
        status, warm, _ = client.post("/required", request)
        assert status == 200
        assert warm["cache"] == "hit"
        # the warm replay is byte-identical, cold cpu_time included
        assert json.dumps(cold["row"], sort_keys=True) == json.dumps(
            warm["row"], sort_keys=True
        )
        assert json.dumps(cold["table_row"], sort_keys=True) == json.dumps(
            warm["table_row"], sort_keys=True
        )

    def test_served_rows_match_required_cli(self, cached_server, tmp_path, capsys):
        """The CLI pointed at the same cache dir replays the server's
        entry — its ``--json`` row is byte-identical to the served one."""
        client = ServeClient(cached_server.port)
        # the CLI always passes its --engine default explicitly, so the
        # server request must name it too for the cache keys to collide
        status, served, _ = client.post(
            "/required",
            {
                "circuit": {"netlist": FIG4_BLIF},
                "method": "approx2",
                "options": {"engine": "sat"},
            },
        )
        assert status == 200 and served["cache"] == "miss"
        netlist = tmp_path / "fig4.blif"
        netlist.write_text(FIG4_BLIF)
        assert main(
            [
                "required", str(netlist), "--method", "approx2",
                "--cache-dir", cached_server.config.cache_dir, "--json",
            ]
        ) == 0
        cli_row = json.loads(capsys.readouterr().out.strip())
        assert cli_row.pop("cache") == "hit"
        assert json.dumps(cli_row, sort_keys=True) == json.dumps(
            served["table_row"], sort_keys=True
        )

    def test_served_miss_keeps_first_nontrivial(self, cached_server, tmp_path, capsys):
        """A pooled miss keeps the time to the first non-trivial vector,
        and so does the CLI replaying the entry the daemon wrote."""
        client = ServeClient(cached_server.port)
        status, served, _ = client.post(
            "/required",
            {
                "circuit": {"netlist": CSKIP_BLIF},
                "method": "approx2",
                "options": {"engine": "sat"},
            },
        )
        assert status == 200 and served["cache"] == "miss"
        assert served["row"]["nontrivial"]
        assert served["table_row"]["first_nontrivial"] is not None
        netlist = tmp_path / "cskip.blif"
        netlist.write_text(CSKIP_BLIF)
        assert main(
            [
                "required", str(netlist), "--method", "approx2",
                "--cache-dir", cached_server.config.cache_dir, "--json",
            ]
        ) == 0
        cli_row = json.loads(capsys.readouterr().out.strip())
        assert cli_row.pop("cache") == "hit"
        assert cli_row["first_nontrivial"] is not None
        assert cli_row == served["table_row"]

    def test_served_rows_match_serial_library_run(self, cached_server):
        """Canonical-row parity against a fresh in-process serial run."""
        client = ServeClient(cached_server.port)
        for method in ("topological", "approx2", "exact"):
            status, served, _ = client.post(
                "/required", {"circuit": {"netlist": FIG4_BLIF}, "method": method}
            )
            assert status == 200
            serial, _hit = cached_analyze_required_times(
                figure4(), method, ResultCache(None)
            )
            assert json.dumps(served["row"], sort_keys=True) == json.dumps(
                serial.row(), sort_keys=True
            )


class TestBoundaryConditions:
    """A bad ``output_required`` map is the same 400 from a cold daemon
    and from a warm one: the key normalization rejects it before the
    cache probe."""

    @pytest.fixture
    def client(self):
        with ReproServer(ServerConfig(port=0, jobs=0)) as server:
            yield ServeClient(server.port)

    @staticmethod
    def post(client, path, required):
        return client.post(
            path,
            {"circuit": {"netlist": C17_BLIF}, "method": "approx2",
             "output_required": required},
        )

    def test_missing_output_is_400_cold_and_warm(self, client):
        for path in ("/required", "/sessions"):
            status, payload, _ = self.post(client, path, {"G22": 1.0})
            assert status == 400, payload
            assert payload["error"] == "TimingError"
            assert "missing required times for outputs ['G23']" in payload["message"]
        status, payload, _ = self.post(client, "/required", {"G22": 1.0, "G23": 1.0})
        assert status == 200 and payload["cache"] == "miss"
        status, payload, _ = self.post(client, "/required", {"G22": 1.0})
        assert status == 400 and payload["error"] == "TimingError"

    def test_non_output_name_is_400_cold_and_warm(self, client):
        bad = {"G22": 1.0, "G23": 1.0, "bogus": 3.0}
        status, payload, _ = self.post(client, "/required", bad)
        assert status == 400, payload
        assert payload["error"] == "TimingError"
        assert "non-outputs ['bogus']" in payload["message"]
        status, payload, _ = self.post(client, "/required", {"G22": 1.0, "G23": 1.0})
        assert status == 200 and payload["cache"] == "miss"
        for path in ("/required", "/sessions"):
            status, payload, _ = self.post(client, path, bad)
            assert status == 400 and payload["error"] == "TimingError"


    def test_non_finite_delays_are_400_bad_delays(self, client):
        for delays in ({"default": float("nan")}, {"default": 1.0,
                       "overrides": {"G22": [float("inf"), 1.0]}},
                       {"default": 10**400}):
            status, payload, _ = client.post(
                "/required",
                {"circuit": {"netlist": C17_BLIF}, "method": "approx1",
                 "delays": delays},
            )
            assert status == 400, payload
            assert payload["error"] == "bad-delays"
            assert "finite" in payload["message"]

    def test_nan_output_required_is_400(self, client):
        for required in (float("nan"), {"G22": 1.0, "G23": float("nan")}):
            for path in ("/required", "/sessions"):
                status, payload, _ = self.post(client, path, required)
                assert status == 400, payload
                assert payload["error"] == "TimingError"
                assert "NaN" in payload["message"]

    def test_delay_model_option_is_400_bad_options(self, client):
        status, payload, _ = client.post(
            "/required",
            {"circuit": {"netlist": C17_BLIF}, "method": "topological",
             "options": {"delay_model": "interval"}},
        )
        assert status == 400, payload
        assert payload["error"] == "bad-options"


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_computation(self, cached_server):
        client = ServeClient(cached_server.port)
        computations_before = counter_value("serve.computations")
        coalesced_before = counter_value("serve.coalesced")
        # pin the dispatcher so the concurrent burst queues behind it
        status, payload, _ = client.post(
            "/debug/task",
            {"kind": "_test_sleep", "payload": {"seconds": 0.4}, "detach": True},
        )
        assert status == 200 and payload["detached"]

        request = {"circuit": {"netlist": FIG4_BLIF}, "method": "exact"}
        results = []

        def fire():
            results.append(ServeClient(cached_server.port).post("/required", request))

        threads = [threading.Thread(target=fire) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert [s for s, _, _ in results] == [200] * 5
        tags = sorted(p["cache"] for _, p, _ in results)
        assert tags == ["coalesced"] * 4 + ["miss"]
        rows = {json.dumps(p["row"], sort_keys=True) for _, p, _ in results}
        assert len(rows) == 1
        # the proof: five requests, ONE computation
        assert counter_value("serve.computations") - computations_before == 1
        assert counter_value("serve.coalesced") - coalesced_before == 4


class TestBackpressure:
    def test_saturated_queue_is_429_with_retry_after(self, tmp_path):
        config = ServerConfig(port=0, jobs=0, max_queue=2, debug_handlers=True)
        with ReproServer(config) as server:
            client = ServeClient(server.port)
            # one job runs (pinning the dispatcher), two wait: queue full
            for _ in range(4):
                client.post(
                    "/debug/task",
                    {
                        "kind": "_test_sleep",
                        "payload": {"seconds": 0.4},
                        "detach": True,
                    },
                )
            status, payload, headers = client.post(
                "/required",
                {"circuit": {"netlist": FIG4_BLIF}, "method": "topological"},
            )
            assert status == 429
            assert payload["error"] == "queue-full"
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after"] >= 1
            # recovery: once the sleeps drain, the same request succeeds
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status, payload, _ = client.post(
                    "/required",
                    {"circuit": {"netlist": FIG4_BLIF}, "method": "topological"},
                )
                if status == 200:
                    break
                time.sleep(0.1)
            assert status == 200 and payload["cache"] in ("miss", "hit", "coalesced")


class TestGracefulShutdown:
    def test_inflight_request_completes_before_listener_dies(self):
        config = ServerConfig(port=0, jobs=0, debug_handlers=True)
        server = ReproServer(config).start()
        client = ServeClient(server.port)
        outcome = {}

        def slow_request():
            outcome["result"] = client.post(
                "/debug/task", {"kind": "_test_sleep", "payload": {"seconds": 0.5}}
            )

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.15)  # let the request reach the dispatcher
        server.stop()  # blocks until drained
        worker.join(timeout=10)
        assert not worker.is_alive()
        status, payload, _ = outcome["result"]
        assert status == 200
        assert payload["ok"] and payload["value"]["slept"] == 0.5
        # the listener is gone afterwards
        with pytest.raises(OSError):
            ServeClient(server.port, timeout=2).get("/healthz")


class TestSurfaces:
    def test_metrics_and_trace_surfaces(self, cached_server):
        client = ServeClient(cached_server.port)
        client.post("/required", {"circuit": {"netlist": FIG4_BLIF}})
        status, metrics, _ = client.get("/metrics")
        assert status == 200
        assert metrics["metrics"]["serve.requests"] >= 1
        assert metrics["server"]["queue_depth"] == 0
        assert metrics["server"]["draining"] is False
        status, trace, _ = client.get("/trace?limit=5")
        assert status == 200
        assert trace["requests"]
        record = trace["requests"][-1]
        assert set(record) == {"t", "method", "path", "status", "wall_ms", "cache"}

    def test_circuit_registry_roundtrip(self, cached_server):
        client = ServeClient(cached_server.port)
        status, payload, _ = client.post("/circuits", {"netlist": FIG4_BLIF})
        assert status == 200
        digest = payload["circuit"]["digest"]
        # by-digest required request against the warm registry
        status, served, _ = client.post("/required", {"circuit": digest})
        assert status == 200
        assert served["circuit"]["digest"] == digest
        status, listing, _ = client.get("/circuits")
        assert digest in [c["digest"] for c in listing["circuits"]]
        status, payload, _ = client.post("/required", {"circuit": "0" * 64})
        assert status == 404 and payload["error"] == "circuit-not-found"

    def test_unknown_endpoint_and_bad_payloads(self, cached_server):
        client = ServeClient(cached_server.port)
        status, payload, _ = client.get("/nope")
        assert status == 404 and payload["error"] == "unknown-endpoint"
        status, payload, _ = client.post(
            "/required", {"circuit": {"netlist": FIG4_BLIF}, "method": "wrong"}
        )
        assert status == 400 and payload["error"] == "bad-method"
        status, payload, _ = client.post(
            "/required",
            {"circuit": {"netlist": FIG4_BLIF}, "options": {"bogus": 1}},
        )
        assert status == 400 and payload["error"] == "bad-options"


class TestServeCli:
    def test_daemon_subprocess_serves_and_exits_cleanly(self, tmp_path):
        import signal
        import subprocess
        import sys

        netlist = tmp_path / "fig4.blif"
        netlist.write_text(FIG4_BLIF)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "0", "--preload", str(netlist),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("serving on http://")
            port = int(banner.rsplit(":", 1)[1])
            client = ServeClient(port)
            status, health, _ = client.get("/healthz")
            assert status == 200 and health["ok"]
            # --preload parsed the netlist into the warm registry
            status, listing, _ = client.get("/circuits")
            assert [c["name"] for c in listing["circuits"]] == ["figure4"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
