"""The batch runner: one entry point for serial and parallel execution.

``run_batch(tasks, jobs=N)`` is the layer the CLI, the fuzz runner, and
the benchmark harnesses sit on:

* ``jobs=1`` executes the tasks **in submission order, in process**,
  through the very same :func:`repro.parallel.worker.execute_envelope`
  core a pool worker uses — no fork, no pickling, metrics hit the parent
  registry directly.  This is the reference semantics; the existing
  serial benchmarks keep their meaning.
* ``jobs>1`` runs the batch on a :class:`repro.parallel.pool.WorkerPool`
  (LPT/cost-ordered, circuit-affine, fault-tolerant) and merges results
  deterministically — ``outcomes[i]`` always matches ``tasks[i]``.

Because both paths share the execution core and results are canonical
(time-free digests), a batch's result rows are bit-identical across any
``jobs`` value; only the wall clock changes.
"""

from __future__ import annotations

import time as _time

from repro.obs.trace import span
from repro.parallel.pool import WorkerPool, default_jobs
from repro.parallel.results import BatchResult, PoolEvent, TaskOutcome
from repro.parallel.tasks import Task
from repro.parallel.worker import WorkerState, execute_envelope


def run_batch(
    tasks: list[Task],
    jobs: int = 1,
    pool: WorkerPool | None = None,
) -> BatchResult:
    """Execute ``tasks`` serially (``jobs=1``) or on a worker pool.

    Passing an existing ``pool`` reuses its warm workers (and ignores
    ``jobs``); the caller keeps ownership and must ``close()`` it.
    """
    if jobs == 0:
        jobs = default_jobs()
    if pool is not None:
        with span("parallel.batch", tasks=len(tasks), jobs=pool.jobs):
            return pool.run(tasks)
    if jobs <= 1:
        return _run_serial(tasks)
    if not tasks:
        # nothing to dispatch (e.g. a fully warm per-cone run): no pool
        return BatchResult(outcomes=[], jobs=jobs)
    with span("parallel.batch", tasks=len(tasks), jobs=jobs):
        with WorkerPool(jobs) as owned:
            return owned.run(tasks)


def _run_serial(tasks: list[Task]) -> BatchResult:
    """The in-process reference path (submission order, no transport)."""
    state = WorkerState()
    outcomes: list[TaskOutcome] = []
    events: list[PoolEvent] = []
    t0 = _time.perf_counter()
    for task in tasks:
        outcome = execute_envelope({"task": task, "attempts": 0}, state)
        if not outcome.ok:
            events.append(
                PoolEvent(
                    kind="task-error",
                    task_id=task.task_id,
                    detail=outcome.error or "",
                    attempts=1,
                    t=_time.perf_counter() - t0,
                )
            )
        outcomes.append(outcome)
    return BatchResult(
        outcomes=outcomes,
        events=events,
        wall=_time.perf_counter() - t0,
        jobs=1,
    )


__all__ = ["run_batch"]
