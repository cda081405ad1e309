"""Worker-side execution: handlers, warm per-circuit state, obs shipping.

The same :func:`execute_envelope` core runs in two places:

* inside a pool worker process (:func:`child_main`, the fork target), and
* in the parent for ``jobs=1`` — the serial path of
  :func:`repro.parallel.batch.run_batch` — so serial and parallel runs
  share every line of task-execution code and differ only in transport.

Each execution is bracketed with ``REGISTRY.snapshot()``/``diff()`` so the
counter deltas attributable to *this task alone* ship back with the
result, and (when the parent is tracing) with a worker-local trace whose
span tree is serialized into plain dicts for grafting into the parent
trace.  Merged parallel runs therefore expose the same ``bdd.*``/``sat.*``
metrics and span taxonomy as serial runs.

Warm state: a worker keeps the most recently resolved :class:`Network`
per ``circuit_key`` (and a bounded LRU of others), so a stream of tasks
against the same circuit pays parsing/construction once.  Analyses always
run on a private ``copy()`` — warmth never leaks mutation between tasks.
"""

from __future__ import annotations

import os
import time as _time
import traceback as _traceback
from collections import OrderedDict

from repro.obs.metrics import REGISTRY
from repro.obs import trace as _trace_mod
from repro.parallel.results import FuzzCaseOutcome, TaskOutcome
from repro.parallel.tasks import Task, output_cone


class WorkerState:
    """Per-worker warm caches (networks now, managers by opt-in)."""

    def __init__(self, max_networks: int = 8):
        self.max_networks = max_networks
        self._networks: OrderedDict[str, object] = OrderedDict()
        self.tasks_run = 0

    def network(self, ref) -> object:
        """A fresh private copy of ``ref``'s network, via the warm cache."""
        cached = self._networks.get(ref.key)
        if cached is None:
            cached = ref.resolve()
            self._networks[ref.key] = cached
            if len(self._networks) > self.max_networks:
                self._networks.popitem(last=False)
        else:
            self._networks.move_to_end(ref.key)
        return cached.copy()


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
def _handle_required(payload: dict, state: WorkerState):
    """One analysis through the whole-network step, without a cache:
    the calling process probes and stores (docs/PARALLEL.md)."""
    from repro.cache import cached_analyze_required_times

    network = state.network(payload["circuit"])
    outputs = payload["outputs"]
    if outputs is not None:
        network = output_cone(network, list(outputs))
    result, _ = cached_analyze_required_times(
        network,
        payload["method"],
        None,
        delays=payload["delays"],
        output_required=payload["output_required"],
        options=payload["options"],
    )
    result.outputs = None if outputs is None else list(outputs)
    return result


def _handle_fuzz_case(payload: dict, state: WorkerState) -> FuzzCaseOutcome:
    from repro.fuzz import FAMILIES, EngineSuite

    family = FAMILIES[payload["family"]]
    index = payload["index"]
    case = family.generate(payload["seed"], payload["profile"], index)
    result = family.differential(case, EngineSuite(**payload["suite"]))
    return FuzzCaseOutcome(
        index=index,
        case_id=case.case_id,
        family=case.family,
        num_inputs=case.num_inputs,
        num_gates=case.num_gates,
        ok=result.ok,
        failed_checks=list(result.failed_checks),
        failures=[(f.check, f.detail) for f in result.failures],
        checks_run=list(result.checks_run),
        skipped=list(result.skipped),
        elapsed=result.elapsed,
        metrics=dict(result.metrics),
    )


# -- fault-injection handlers (used only by the pool's own tests) -------
def _handle_test_probe(payload: dict, state: WorkerState):
    return {
        "echo": payload.get("echo"),
        "pid": os.getpid(),
        "tasks_run": state.tasks_run,
    }


def _handle_test_sleep(payload: dict, state: WorkerState):
    _time.sleep(float(payload["seconds"]))
    return {"slept": payload["seconds"], "pid": os.getpid()}


def _handle_test_kill(payload: dict, state: WorkerState):
    # dies (hard, no cleanup) until the given attempt number is reached,
    # so the pool's retry path is exercised end to end
    if payload["_attempts"] < int(payload.get("until_attempt", 1)):
        os.kill(os.getpid(), 9)
    return {"survived": True, "pid": os.getpid()}


def _handle_test_fail(payload: dict, state: WorkerState):
    raise RuntimeError(payload.get("message", "injected failure"))


HANDLERS = {
    "required": _handle_required,
    "fuzz_case": _handle_fuzz_case,
    "_test_probe": _handle_test_probe,
    "_test_sleep": _handle_test_sleep,
    "_test_kill": _handle_test_kill,
    "_test_fail": _handle_test_fail,
}


# ----------------------------------------------------------------------
# execution core (shared by the child loop and the serial path)
# ----------------------------------------------------------------------
def execute_envelope(envelope: dict, state: WorkerState) -> TaskOutcome:
    """Run one task envelope, bracketed with metrics (and a local trace)."""
    task: Task = envelope["task"]
    attempts: int = envelope.get("attempts", 0)
    want_trace: bool = envelope.get("trace", False)
    handler = HANDLERS.get(task.kind)
    outcome = TaskOutcome(
        task_id=task.task_id,
        ok=False,
        attempts=attempts + 1,
        worker_pid=os.getpid(),
    )
    if handler is None:
        outcome.error = f"unknown task kind {task.kind!r}"
        outcome.error_type = "ParallelError"
        return outcome

    payload = dict(task.payload)
    payload["_attempts"] = attempts
    before = REGISTRY.snapshot()
    local_trace = None
    if want_trace and not _trace_mod.is_tracing():
        local_trace = _trace_mod.start_trace()
    t0 = _time.perf_counter()
    try:
        with _trace_mod.span(
            "parallel.task", task=task.task_id, kind=task.kind, attempt=attempts + 1
        ):
            outcome.value = handler(payload, state)
        outcome.ok = True
    except Exception as exc:  # noqa: BLE001 — every task error is data
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.error_type = type(exc).__name__
        outcome.traceback = _traceback.format_exc()
    finally:
        outcome.elapsed = _time.perf_counter() - t0
        if local_trace is not None:
            finished = _trace_mod.stop_trace()
            outcome.spans = serialize_spans(finished.roots)
        outcome.metrics = REGISTRY.snapshot().diff(before)
        state.tasks_run += 1
    return outcome


def serialize_spans(roots) -> list[dict]:
    """Span tree → nested plain dicts (the picklable trace payload)."""
    def one(sp) -> dict:
        return {
            "name": sp.name,
            "start": sp.start,
            "dur": sp.duration,
            "status": sp.status,
            "attrs": dict(sp.attrs),
            "metrics": dict(sp.metrics),
            "children": [one(c) for c in sp.children],
        }

    return [one(sp) for sp in roots]


# ----------------------------------------------------------------------
# the child process loop
# ----------------------------------------------------------------------
def child_main(conn, parent_pid: int) -> None:  # pragma: no cover — runs in
    # a forked child; the execution core above is covered in-process
    state = WorkerState()
    # a fork inherits the parent's active trace object; recording into it
    # from the child would interleave two processes' span stacks
    _trace_mod._ACTIVE = None
    try:
        while True:
            try:
                envelope = conn.recv()
            except (EOFError, OSError):
                break
            if envelope is None:
                break
            outcome = execute_envelope(envelope, state)
            try:
                conn.send(outcome)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


__all__ = [
    "HANDLERS",
    "WorkerState",
    "child_main",
    "execute_envelope",
    "serialize_spans",
]
