"""Process-parallel execution layer: sharded batches on warm worker pools.

The per-(circuit, output, engine) required-time tasks of the paper's
experiments are embarrassingly parallel — every task builds its own
χ-functions and BDD manager — so this package converts core count into
wall time while keeping results bit-identical to serial runs:

* :mod:`repro.parallel.tasks`   — the sharded task model (circuit refs,
  output cones, cost-based LPT ordering);
* :mod:`repro.parallel.pool`    — persistent fork workers with warm
  per-circuit caches, per-task timeouts, retry-with-backoff on worker
  death;
* :mod:`repro.parallel.worker`  — the execution core (shared with the
  serial path) plus obs snapshot/diff bracketing and span shipping;
* :mod:`repro.parallel.merge`   — deterministic reassembly: canonical
  result order, metric-delta folding, span grafting, per-output
  min-merge;
* :mod:`repro.parallel.batch`   — ``run_batch(tasks, jobs=N)``, the
  entry point the CLI / fuzz runner / benchmarks sit on.

See docs/PARALLEL.md for the task model, worker lifecycle, and metric
merge semantics.
"""

from repro.parallel.batch import run_batch
from repro.parallel.merge import (
    graft_spans,
    merge_metrics,
    merge_outcome_obs,
    merge_required_outcomes,
)
from repro.parallel.pool import WorkerPool, default_jobs
from repro.parallel.results import (
    BatchResult,
    FuzzCaseOutcome,
    PoolEvent,
    TaskOutcome,
)
from repro.parallel.tasks import (
    CircuitRef,
    ParallelError,
    Task,
    cone_task,
    estimate_cost,
    order_by_cost,
    output_cone,
    register_factory,
    required_time_task,
    shard_required_time,
)

__all__ = [
    "BatchResult",
    "CircuitRef",
    "FuzzCaseOutcome",
    "ParallelError",
    "PoolEvent",
    "Task",
    "TaskOutcome",
    "WorkerPool",
    "cone_task",
    "default_jobs",
    "estimate_cost",
    "graft_spans",
    "merge_metrics",
    "merge_outcome_obs",
    "merge_required_outcomes",
    "order_by_cost",
    "output_cone",
    "register_factory",
    "required_time_task",
    "run_batch",
    "shard_required_time",
]
