"""Picklable result types shipped from pool workers back to the parent.

Every field that crosses the process boundary is plain data (strings,
numbers, tuples, dicts): engine objects — BDD managers, relations, SAT
solvers — never leave the worker.  A ``required`` task returns the one
required-time result type,
:class:`~repro.cache.results.CachedRequiredResult`, whose canonical row
excludes wall-clock fields so that serial and parallel runs of the same
task are bit-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TaskOutcome:
    """What the pool records for one task, however it ended.

    ``ok=False`` covers both clean handler exceptions (``error`` carries
    the message, no retry: a deterministic failure would fail again) and
    exhausted fault retries (worker deaths / timeouts; see
    ``BatchResult.events`` for the per-attempt timeline).
    """

    task_id: str
    ok: bool
    #: handler-specific payload (a
    #: :class:`~repro.cache.results.CachedRequiredResult` for ``required``
    #: tasks); ``None`` on failure
    value: object = None
    error: str | None = None
    error_type: str | None = None
    traceback: str | None = None
    #: attempts consumed (1 = first try succeeded)
    attempts: int = 1
    elapsed: float = 0.0
    worker_pid: int | None = None
    #: obs-registry deltas bracketed around this task alone
    #: (``REGISTRY.snapshot()``/``diff()`` in the worker)
    metrics: dict[str, float] = field(default_factory=dict)
    #: serialized span tree recorded in the worker (when the parent was
    #: tracing), ready for grafting into the parent trace
    spans: list[dict] = field(default_factory=list)


@dataclass
class FuzzCaseOutcome:
    """One differential-fuzzing case, reduced to its verdict."""

    index: int
    case_id: str
    family: str
    num_inputs: int
    num_gates: int
    ok: bool
    failed_checks: list[str] = field(default_factory=list)
    #: (check, detail) pairs of every violated invariant
    failures: list[tuple[str, str]] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PoolEvent:
    """One entry of the pool's fault/retry timeline."""

    kind: str  # "timeout" | "worker-death" | "retry" | "task-error"
    task_id: str
    detail: str = ""
    worker_pid: int | None = None
    attempts: int = 0
    #: seconds since the batch started
    t: float = 0.0


@dataclass
class BatchResult:
    """Everything one :meth:`WorkerPool.run` produced, in canonical order.

    ``outcomes[i]`` corresponds to ``tasks[i]`` as submitted, regardless
    of the order tasks actually completed in — the deterministic merge.
    """

    outcomes: list[TaskOutcome]
    events: list[PoolEvent] = field(default_factory=list)
    wall: float = 0.0
    jobs: int = 1

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def errors(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def num_retries(self) -> int:
        return sum(1 for e in self.events if e.kind == "retry")

    def outcome(self, task_id: str) -> TaskOutcome:
        for o in self.outcomes:
            if o.task_id == task_id:
                return o
        raise KeyError(task_id)

    def report(self) -> dict:
        """A JSON-ready run report (the CLI/bench summary block)."""
        return {
            "jobs": self.jobs,
            "tasks": len(self.outcomes),
            "failures": len(self.errors),
            "retries": self.num_retries,
            "wall_seconds": round(self.wall, 3),
            "events": [
                {
                    "kind": e.kind,
                    "task": e.task_id,
                    "detail": e.detail,
                    "attempts": e.attempts,
                    "t": round(e.t, 3),
                }
                for e in self.events
            ],
        }


__all__ = [
    "BatchResult",
    "FuzzCaseOutcome",
    "PoolEvent",
    "TaskOutcome",
]
