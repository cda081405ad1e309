"""The analysis daemon: asyncio front end over the existing engine stack.

``repro serve`` keeps everything the CLI pays for on every invocation —
process start, netlist parse, BDD warmup — resident in one long-lived
process (ROADMAP item 1).  The moving parts, each defined in a sibling
module:

* a warm :class:`~repro.serve.registry.CircuitRegistry` of parsed
  networks keyed by content digest;
* a two-tier :class:`~repro.cache.ResultCache` front (memory +
  optional shared disk dir) consulted before any computation;
* a :class:`~repro.serve.coalesce.Coalescer` so concurrent identical
  requests (same :func:`~repro.cache.required_key` digest) share one
  computation;
* a **bounded admission queue** feeding a single dispatcher thread —
  saturation is an explicit ``429`` + ``Retry-After``, never unbounded
  fan-in;
* the dispatcher executes analyses through the
  :class:`~repro.parallel.WorkerPool` fault envelope
  (kill-replace-requeue; a dead worker is a retry or a structured
  ``500``, never a hang), or in-process when ``jobs=0``;
* a :class:`~repro.serve.sessions.SessionStore` exposing
  :class:`~repro.eco.NetworkSession` (create / edit / re-query /
  verify) with idle eviction;
* ``/metrics`` + ``/trace`` surfaces straight off :mod:`repro.obs`.

Endpoints, payload shapes, and the backpressure contract are documented
in docs/SERVING.md; tests/integration/test_serve*.py exercise every
behavior over a real socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from ..cache import (
    SEMANTIC_OPTIONS,
    CachedRequiredResult,
    ResultCache,
    jsonify,
    lookup_result,
    required_key,
    store_result,
)
from ..core.required_time import method_options
from ..eco import NetworkSession
from ..errors import EcoError, ReproError, ServeError
from ..obs import REGISTRY
from ..parallel import CircuitRef, Task, WorkerPool, required_time_task, run_batch
from ..parallel.tasks import estimate_cost
from .coalesce import Coalescer
from .protocol import (
    DEFAULT_MAX_BODY_BYTES,
    Request,
    error_payload,
    read_request,
    response_bytes,
)
from .registry import CircuitRegistry, RegisteredCircuit
from .sessions import SessionStore

#: analysis methods a ``/required`` request may name (mirrors the CLI).
METHODS = ("topological", "exact", "approx1", "approx2")

#: worker-pool test handlers reachable through ``POST /debug/task`` when
#: the server runs with ``debug_handlers=True`` — the fault-injection
#: tests drive the *serving* path with these, not library internals.
DEBUG_TASK_KINDS = ("_test_probe", "_test_sleep", "_test_kill", "_test_fail")

#: how many completed requests the ``/trace`` ring remembers.
TRACE_RING_SIZE = 256

_STOP = object()


def _required_time(value) -> float:
    """One required time of a request: a JSON number, not a boolean."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ServeError(
        "'output_required' must be a number or an output->number map",
        status=400,
        code="bad-required",
    )


@dataclass
class ServerConfig:
    """Everything tunable about one daemon instance.

    ``jobs >= 1`` runs analyses on a :class:`WorkerPool` of that many
    fork workers (the fault envelope); ``jobs = 0`` runs them in-process
    on the dispatcher thread (no isolation — rejected for
    ``_test_kill``).  ``cache_dir=None`` keeps the result cache
    memory-only.
    """

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int = 1
    cache_dir: str | None = None
    memory_entries: int = 256
    max_queue: int = 32
    max_circuits: int = 64
    max_sessions: int = 32
    session_idle_seconds: float = 3600.0
    task_timeout: float | None = None
    debug_handlers: bool = False
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    drain_timeout: float = 10.0
    #: default BDD kernel for requests that do not name one themselves
    #: (request option > this flag > ``$REPRO_BDD_BACKEND`` > default);
    #: unknown names raise :class:`~repro.errors.BddError` at startup.
    backend: str | None = None


class _Job:
    """One queued unit of dispatcher work, resolved back onto the loop."""

    __slots__ = ("label", "fn", "future", "loop")

    def __init__(self, label: str, fn: Callable[[], dict], future, loop):
        self.label = label
        self.fn = fn
        self.future = future
        self.loop = loop

    def resolve(self, result) -> None:
        """Deliver a result to the awaiting coroutine (loop-safe)."""
        self.loop.call_soon_threadsafe(self._set, result, None)

    def reject(self, exc: BaseException) -> None:
        """Deliver a failure to the awaiting coroutine (loop-safe)."""
        self.loop.call_soon_threadsafe(self._set, None, exc)

    def _set(self, result, exc) -> None:
        """Resolve the future on the loop thread (set once, guarded)."""
        if self.future.cancelled():
            return
        if exc is not None:
            self.future.set_exception(exc)
        else:
            self.future.set_result(result)


class ReproServer:
    """One daemon instance: asyncio front end + dispatcher back end.

    Run it in-thread for tests (:meth:`start` / :meth:`stop`, or as a
    context manager) or foreground for the CLI (:meth:`serve_forever`).
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        if self.config.backend is not None:
            from ..bdd.api import resolve_backend

            resolve_backend(self.config.backend)  # typos fail at startup
        self.registry = CircuitRegistry(self.config.max_circuits)
        self.sessions = SessionStore(
            self.config.max_sessions, self.config.session_idle_seconds
        )
        self.cache = ResultCache(
            self.config.cache_dir, memory_entries=self.config.memory_entries
        )
        self._cache_lock = threading.Lock()
        self._coalescer = Coalescer()
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.max_queue)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._pool: WorkerPool | None = None
        self._ewma_wall = 0.0
        self._trace_ring: deque = deque(maxlen=TRACE_RING_SIZE)
        self._active = 0
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()
        self._debug_seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._t0 = time.monotonic()
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _main(self, on_ready: Callable[["ReproServer"], None] | None = None):
        """Bind, accept, and park until :meth:`_shutdown` fires."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._dispatcher.start()
        self._started.set()
        if on_ready is not None:
            on_ready(self)
        await self._stop_event.wait()

    def start(self, timeout: float = 10.0) -> "ReproServer":
        """Run the daemon on a background thread; returns once bound.

        The OS-assigned port is available as ``self.port`` afterwards.
        """
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServeError("server failed to start in time", status=500, code="startup")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _thread_main(self) -> None:
        """Body of the background thread: run the loop to completion."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
        finally:
            self._started.set()

    def serve_forever(self, on_ready: Callable[["ReproServer"], None] | None = None):
        """Run in the calling thread until SIGINT/SIGTERM (the CLI path)."""
        import signal

        async def _run():
            await asyncio.sleep(0)  # ensure a running loop before handlers
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self._shutdown())
                    )
            await self._main(on_ready)

        asyncio.run(_run())

    async def _shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then stop.

        In-flight requests (including queued dispatcher work) complete
        and their responses are written; only after the active count
        reaches zero — or ``drain_timeout`` expires — does the loop stop.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._active > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await loop.run_in_executor(None, self._stop_dispatcher)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._stop_event is not None:
            self._stop_event.set()

    def _stop_dispatcher(self) -> None:
        """Stop the dispatcher thread (sentinel + join; idempotent)."""
        if self._dispatcher.is_alive():
            self._queue.put(_STOP)
            self._dispatcher.join()

    def stop(self, timeout: float | None = None) -> None:
        """Thread-safe graceful shutdown (blocks until drained)."""
        if self._loop is None or self._stop_event is None:
            return
        budget = timeout if timeout is not None else self.config.drain_timeout + 10.0
        with contextlib.suppress(RuntimeError):
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
            future.result(budget)
        if self._thread is not None:
            self._thread.join(5.0)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # admission + dispatch
    # ------------------------------------------------------------------
    def _enqueue(self, label: str, fn: Callable[[], dict]) -> asyncio.Future:
        """Admit one job or raise the structured 429 (backpressure).

        ``Retry-After`` is estimated from the queue depth times an EWMA
        of recent job wall time — an honest hint, not a promise.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        job = _Job(label, fn, future, loop)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            REGISTRY.counter("serve.rejected").inc()
            depth = self._queue.qsize()
            per_job = max(self._ewma_wall, 0.05)
            raise ServeError(
                f"admission queue full ({depth} jobs queued); retry later",
                status=429,
                code="queue-full",
                retry_after=max(1.0, depth * per_job),
            ) from None
        REGISTRY.gauge("serve.queue_depth").set(float(self._queue.qsize()))
        return future

    async def _submit(self, label: str, fn: Callable[[], dict]) -> dict:
        """Admit + await one dispatcher job."""
        return await self._enqueue(label, fn)

    def _dispatch_loop(self) -> None:
        """The single dispatcher thread: jobs run strictly one at a time.

        Serialization is a feature, not a limitation — it is what makes
        session edits atomic over HTTP and lets the session store run
        lock-free.  Parallelism lives *inside* a job (the worker pool).
        """
        try:
            while True:
                job = self._queue.get()
                if job is _STOP:
                    break
                REGISTRY.gauge("serve.queue_depth").set(float(self._queue.qsize()))
                t0 = time.perf_counter()
                try:
                    result = job.fn()
                except BaseException as exc:
                    job.reject(exc)
                else:
                    job.resolve(result)
                wall = time.perf_counter() - t0
                self._ewma_wall = (
                    wall if self._ewma_wall == 0.0
                    else 0.3 * wall + 0.7 * self._ewma_wall
                )
        finally:
            if self._pool is not None:
                self._pool.close()

    def _run_tasks(self, tasks: list[Task]):
        """Execute tasks under the configured envelope (dispatcher only).

        ``jobs >= 1`` lazily creates the persistent :class:`WorkerPool`
        (fault envelope: kill-replace-requeue); ``jobs = 0`` runs
        in-process.
        """
        if self.config.jobs >= 1:
            if self._pool is None:
                self._pool = WorkerPool(self.config.jobs)
            return run_batch(tasks, pool=self._pool).outcomes
        return run_batch(tasks, jobs=1).outcomes

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _client_connected(self, reader, writer) -> None:
        """Per-connection task wrapper: track for shutdown, always close."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        """The keep-alive request loop with uniform error envelopes."""
        while True:
            try:
                request = await read_request(reader, self.config.max_body_bytes)
            except ServeError as exc:
                status, payload, headers = error_payload(exc)
                writer.write(
                    response_bytes(status, payload, headers=headers, keep_alive=False)
                )
                await writer.drain()
                return
            if request is None:
                return
            if self._draining:
                writer.write(
                    response_bytes(
                        503,
                        {"error": "draining", "message": "server is shutting down"},
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
            self._active += 1
            t0 = time.perf_counter()
            try:
                status, payload, headers = await self._route(request)
            except ServeError as exc:
                status, payload, headers = error_payload(exc)
            except ReproError as exc:
                status = 400
                payload = {"error": type(exc).__name__, "message": str(exc)}
                headers = {}
            except Exception as exc:
                status = 500
                payload = {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
                headers = {}
            finally:
                self._active -= 1
            wall = time.perf_counter() - t0
            REGISTRY.counter("serve.requests").inc()
            self._trace_ring.append(
                {
                    "t": round(time.monotonic() - self._t0, 6),
                    "method": request.method,
                    "path": request.path,
                    "status": status,
                    "wall_ms": round(wall * 1000.0, 3),
                    "cache": payload.get("cache") if isinstance(payload, dict) else None,
                }
            )
            keep = (
                request.headers.get("connection", "keep-alive").lower() != "close"
                and not self._draining
            )
            writer.write(
                response_bytes(status, payload, headers=headers, keep_alive=keep)
            )
            await writer.drain()
            if not keep:
                return

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, req: Request) -> tuple[int, dict, dict]:
        """Dispatch one request; returns ``(status, payload, headers)``."""
        parts = req.parts
        if not parts:
            raise ServeError("no such endpoint: /", status=404, code="unknown-endpoint")
        head = parts[0]
        if head == "healthz" and req.method == "GET":
            return 200, {
                "ok": True,
                "uptime": round(time.monotonic() - self._t0, 3),
                "bdd_backend": self._backend_resolution(),
            }, {}
        if head == "metrics" and req.method == "GET":
            return 200, self._metrics_payload(), {}
        if head == "trace" and req.method == "GET":
            limit = int(req.query.get("limit", str(TRACE_RING_SIZE)))
            records = list(self._trace_ring)
            return 200, {"requests": records[-max(limit, 0):]}, {}
        if head == "circuits":
            return await self._route_circuits(req, parts)
        if head == "required" and req.method == "POST":
            return await self._handle_required(req)
        if head == "sessions":
            return await self._route_sessions(req, parts)
        if head == "debug":
            return await self._route_debug(req, parts)
        raise ServeError(
            f"no such endpoint: {req.method} {req.path}",
            status=404,
            code="unknown-endpoint",
        )

    async def _route_circuits(self, req: Request, parts: list[str]):
        """``/circuits``: list, register (idempotent), or inspect one."""
        if len(parts) == 1 and req.method == "GET":
            return 200, {"circuits": self.registry.describe_all()}, {}
        if len(parts) == 1 and req.method == "POST":
            entry = self.registry.register_source(req.json())
            return 200, {"circuit": entry.describe()}, {}
        if len(parts) == 2 and req.method == "GET":
            return 200, {"circuit": self.registry.get(parts[1]).describe()}, {}
        raise ServeError(
            f"no such endpoint: {req.method} {req.path}",
            status=404,
            code="unknown-endpoint",
        )

    # ------------------------------------------------------------------
    # /required
    # ------------------------------------------------------------------
    def _resolve_circuit(self, spec) -> RegisteredCircuit:
        """A circuit reference: a registered digest, or an inline spec."""
        if isinstance(spec, str):
            return self.registry.get(spec)
        if isinstance(spec, dict):
            return self.registry.register_source(spec)
        raise ServeError(
            "'circuit' must be a digest string or a circuit spec object",
            status=400,
            code="bad-circuit",
        )

    def _parse_required_params(self, body: dict):
        """Validate method / delays / required / options from a request."""
        method = body.get("method", "topological")
        if method not in METHODS:
            raise ServeError(
                f"unknown method {method!r} (choose from {list(METHODS)})",
                status=400,
                code="bad-method",
            )
        output_required = body.get("output_required", 0.0)
        if isinstance(output_required, dict):
            output_required = {
                str(k): _required_time(v) for k, v in output_required.items()
            }
        else:
            output_required = _required_time(output_required)
        delays = None
        if body.get("delays") is not None:
            from ..timing.delay import DelayModel

            try:
                delays = DelayModel.from_spec(body["delays"])
            except ReproError as exc:
                raise ServeError(
                    f"bad delay spec: {exc}", status=400, code="bad-delays"
                ) from exc
        options = dict(body.get("options") or {})
        unknown = sorted(set(options) - set(SEMANTIC_OPTIONS))
        if unknown:
            raise ServeError(
                f"unknown options {unknown} (semantic options: "
                f"{sorted(SEMANTIC_OPTIONS)})",
                status=400,
                code="bad-options",
            )
        # exact_row_counts is the cache layer's own option: it widens the
        # exact digest and never reaches the engine
        takes = method_options(method) | (
            {"exact_row_counts"} if method == "exact" else set()
        )
        misplaced = sorted(set(options) - takes)
        if misplaced:
            raise ServeError(
                f"method {method!r} does not take the options {misplaced}",
                status=400,
                code="bad-options",
            )
        if (
            options.get("backend") is None
            and self.config.backend is not None
            and "backend" in takes
        ):
            options["backend"] = self.config.backend
        if options.get("backend") is not None:
            from ..bdd.api import resolve_backend
            from ..errors import BddError

            try:
                resolve_backend(options["backend"])
            except BddError as exc:
                raise ServeError(str(exc), status=400, code="bad-options") from exc
        return method, delays, output_required, options

    async def _handle_required(self, req: Request) -> tuple[int, dict, dict]:
        """``POST /required``: cache probe, then coalesced computation."""
        body = req.json()
        entry = self._resolve_circuit(body.get("circuit"))
        method, delays, output_required, options = self._parse_required_params(body)
        # hashing validates the boundary condition (TimingError → 400)
        # before the probe, so cold and warm daemons answer alike
        key = required_key(entry.network, method, delays, output_required, options)

        # the probe stays on the event loop: hits never queue behind
        # the dispatcher
        with self._cache_lock:
            result = lookup_result(self.cache, key)
        if result is not None:
            REGISTRY.counter("serve.cache_hits").inc()
            result.circuit, result.outputs = entry.network.name, None
            return 200, self._required_payload(entry, key, result, cache="hit"), {}

        async def compute() -> dict:
            return await self._submit(
                f"required:{entry.network.name}:{method}",
                lambda: self._compute_required(
                    entry, method, delays, output_required, options, key
                ),
            )

        payload, joined = await self._coalescer.run(key.digest, compute)
        if joined:
            payload = {**payload, "cache": "coalesced"}
        return 200, payload, {}

    def _compute_required(
        self, entry, method, delays, output_required, options, key
    ) -> dict:
        """The leader's computation (dispatcher thread): run + store."""
        task = required_time_task(
            CircuitRef.inline(entry.network, key=entry.digest),
            method,
            output_required=output_required,
            delays=delays,
            options=options,
            cost=estimate_cost(entry.network, method, options),
            timeout=self.config.task_timeout,
            task_id=f"serve/{entry.digest[:12]}/{key.digest[:12]}",
        )
        outcome = self._run_tasks([task])[0]
        if not outcome.ok:
            code = "pool-fault" if outcome.error_type == "PoolFault" else "task-error"
            raise ServeError(
                f"analysis failed ({outcome.error_type}): {outcome.error}",
                status=500,
                code=code,
            )
        result = outcome.value
        with self._cache_lock:
            store_result(self.cache, key, result)
        REGISTRY.counter("serve.computations").inc()
        payload = self._required_payload(entry, key, result, cache="miss")
        payload["attempts"] = outcome.attempts
        payload["wall_seconds"] = round(outcome.elapsed, 6)
        return payload

    @staticmethod
    def _required_payload(entry, key, result: CachedRequiredResult, cache: str) -> dict:
        """The response envelope around one canonical cached result."""
        return {
            "cache": cache,
            "key": key.digest,
            "circuit": {"digest": entry.digest, "name": entry.network.name},
            "method": result.method,
            "row": result.row(),
            "table_row": result.table_row(),
        }

    # ------------------------------------------------------------------
    # /sessions
    # ------------------------------------------------------------------
    async def _route_sessions(self, req: Request, parts: list[str]):
        """``/sessions``: every job runs on the dispatcher (atomicity)."""
        if len(parts) == 1:
            if req.method == "GET":
                listing = await self._submit(
                    "sessions:list", lambda: self.sessions.describe_all()
                )
                return 200, {"sessions": listing}, {}
            if req.method == "POST":
                return await self._handle_session_create(req)
        elif len(parts) == 2:
            sid = parts[1]
            if req.method == "GET":
                payload = await self._submit(
                    f"sessions:get:{sid}", lambda: self._session_view(sid)
                )
                return 200, payload, {}
            if req.method == "DELETE":
                payload = await self._submit(
                    f"sessions:delete:{sid}",
                    lambda: {"deleted": self.sessions.delete(sid).describe()},
                )
                return 200, payload, {}
        elif len(parts) == 3 and req.method == "POST":
            sid, action = parts[1], parts[2]
            if action == "edits":
                body = req.json()
                payload = await self._submit(
                    f"sessions:edit:{sid}",
                    lambda: self._session_apply_edits(sid, body),
                )
                return 200, payload, {}
            if action == "verify":
                payload = await self._submit(
                    f"sessions:verify:{sid}", lambda: self._session_verify(sid)
                )
                return 200, payload, {}
        raise ServeError(
            f"no such endpoint: {req.method} {req.path}",
            status=404,
            code="unknown-endpoint",
        )

    async def _handle_session_create(self, req: Request):
        """``POST /sessions``: build a live NetworkSession off-loop."""
        body = req.json()
        entry = self._resolve_circuit(body.get("circuit"))
        method, delays, output_required, options = self._parse_required_params(body)

        def job() -> dict:
            try:
                session = NetworkSession(
                    entry.network,
                    method=method,
                    delays=delays,
                    output_required=output_required,
                    options=options,
                    cache=ResultCache(self.config.cache_dir),
                    jobs=1,
                )
            except EcoError as exc:
                raise ServeError(
                    f"cannot open session: {exc}", status=400, code="bad-circuit"
                ) from exc
            stored = self.sessions.create(session, entry.digest)
            return self._session_view(stored.session_id)

        payload = await self._submit(f"sessions:create:{entry.digest[:12]}", job)
        return 200, payload, {}

    def _session_view(self, sid: str) -> dict:
        """Describe + rows + merged view of one session (dispatcher only)."""
        stored = self.sessions.get(sid)
        return {
            "session": stored.describe(),
            "rows": jsonify(stored.session.rows()),
            "merged": jsonify(stored.session.merged()),
            "failed": stored.session.failed,
        }

    def _session_apply_edits(self, sid: str, body: dict) -> dict:
        """Apply one edit or an edit list; invalid edits are atomic.

        A rejected edit raises the structured 400 with the session
        observably unchanged (the ECO pre-mutation contract).  In a
        multi-edit payload the edits before the invalid one stay applied
        — each edit is individually atomic, the list is not a
        transaction.
        """
        stored = self.sessions.get(sid)
        specs = body.get("edits")
        if specs is None and "edit" in body:
            specs = [body["edit"]]
        if not isinstance(specs, list) or not specs:
            raise ServeError(
                "payload needs 'edit' (object) or 'edits' (non-empty list)",
                status=400,
                code="bad-edit-payload",
            )
        reports = []
        for spec in specs:
            try:
                result = stored.session.apply_edit(spec)
            except EcoError as exc:
                stored.edits_rejected += 1
                raise ServeError(
                    f"edit rejected: {exc}", status=400, code="invalid-edit"
                ) from exc
            stored.edits_accepted += 1
            reports.append(result.report())
        view = self._session_view(sid)
        view["edits"] = reports
        return view

    def _session_verify(self, sid: str) -> dict:
        """``verify_against_full_recompute`` for one stored session."""
        stored = self.sessions.get(sid)
        problems = stored.session.verify_against_full_recompute()
        return {
            "session": stored.describe(),
            "ok": not problems,
            "problems": problems,
        }

    # ------------------------------------------------------------------
    # /debug
    # ------------------------------------------------------------------
    async def _route_debug(self, req: Request, parts: list[str]):
        """``/debug``: raw pool tasks and remote shutdown (opt-in)."""
        if not self.config.debug_handlers:
            raise ServeError(
                "debug handlers are disabled (start with --debug-handlers)",
                status=403,
                code="debug-disabled",
            )
        if parts[1:] == ["task"] and req.method == "POST":
            return await self._handle_debug_task(req)
        if parts[1:] == ["shutdown"] and req.method == "POST":
            assert self._loop is not None
            self._loop.call_later(
                0.05, lambda: asyncio.ensure_future(self._shutdown())
            )
            return 200, {"ok": True, "draining": True}, {}
        raise ServeError(
            f"no such endpoint: {req.method} {req.path}",
            status=404,
            code="unknown-endpoint",
        )

    async def _handle_debug_task(self, req: Request):
        """Run (or detach) one ``_test_*`` pool task through the full
        admission / dispatch / fault envelope — the serving path's
        fault-injection hook."""
        body = req.json()
        kind = body.get("kind")
        if kind not in DEBUG_TASK_KINDS:
            raise ServeError(
                f"debug task kind must be one of {list(DEBUG_TASK_KINDS)}",
                status=400,
                code="bad-debug-task",
            )
        if kind == "_test_kill" and self.config.jobs < 1:
            raise ServeError(
                "_test_kill needs a worker pool (jobs >= 1); in-process "
                "execution would kill the server itself",
                status=400,
                code="kill-needs-pool",
            )
        self._debug_seq += 1
        task = Task(
            task_id=f"debug-{self._debug_seq}",
            kind=kind,
            payload=dict(body.get("payload") or {}),
            circuit_key="debug",
            cost=float(body.get("cost", 1.0)),
            timeout=body.get("timeout"),
            max_retries=int(body.get("max_retries", 2)),
        )

        def job() -> dict:
            outcome = self._run_tasks([task])[0]
            return {
                "ok": outcome.ok,
                "task_id": outcome.task_id,
                "value": jsonify(outcome.value),
                "error": outcome.error,
                "error_type": outcome.error_type,
                "attempts": outcome.attempts,
                "worker_pid": outcome.worker_pid,
            }

        if body.get("detach"):
            future = self._enqueue(f"debug:{kind}", job)
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            return 200, {"detached": True, "task_id": task.task_id}, {}
        payload = await self._submit(f"debug:{kind}", job)
        return 200, payload, {}

    # ------------------------------------------------------------------
    # /metrics
    # ------------------------------------------------------------------
    def _backend_resolution(self) -> dict:
        """Which BDD kernel this daemon's analyses default to (a request
        option still overrides per call)."""
        from ..bdd.api import backend_resolution

        return backend_resolution(self.config.backend)

    def _metrics_payload(self) -> dict:
        """The registry snapshot plus live server gauges."""
        return {
            "metrics": REGISTRY.snapshot().as_dict(),
            "server": {
                "uptime": round(time.monotonic() - self._t0, 3),
                "bdd_backend": self._backend_resolution(),
                "queue_depth": self._queue.qsize(),
                "active_requests": self._active,
                "draining": self._draining,
                "circuits": len(self.registry),
                "sessions": len(self.sessions),
                "coalesced_total": self._coalescer.joined,
                "computations_led": self._coalescer.led,
                "jobs": self.config.jobs,
            },
        }


__all__ = ["ReproServer", "ServerConfig", "METHODS", "DEBUG_TASK_KINDS"]
