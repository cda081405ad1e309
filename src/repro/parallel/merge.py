"""Deterministic merging of worker results into the parent's world.

Three things come back from a worker besides the result value, and each
has a parent-side home:

* **Metric deltas** — the worker brackets its task with
  ``REGISTRY.snapshot()``/``diff()``; the parent folds the deltas into a
  dedicated ``parallel.worker`` *collector* (not into the engine
  telemetry, which only sums live in-process engines).  A parent-side
  ``snapshot()``/``diff()`` bracket around a parallel batch therefore
  reports the same ``bdd.*``/``sat.*`` counters a serial run would.
  Instantaneous gauges (``bdd.nodes_live``, ``*.peak_live``, ``*.live``)
  are dropped: summing live-node deltas across dead worker managers is
  meaningless.
* **Span trees** — serialized worker spans are grafted into the parent's
  active trace under the receiving ``parallel.task`` span, offset to the
  task's dispatch time, so a merged trace reads like a serial one with
  per-worker subtrees.
* **Result values** — canonical-order reassembly is the pool's job
  (:class:`repro.parallel.results.BatchResult`); this module adds the
  required-time-specific min-merge over output cones.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.obs.metrics import REGISTRY
from repro.obs import trace as _trace_mod
from repro.parallel.results import TaskOutcome

if TYPE_CHECKING:
    from repro.cache.results import CachedRequiredResult

#: worker metric deltas accumulated since process start; exposed to
#: ``REGISTRY.snapshot()`` through the ``parallel.worker`` collector
_MERGED: dict[str, float] = {}
_MERGED_LOCK = threading.Lock()

#: monotone counter names are merged; these instantaneous suffixes are not
_GAUGE_SUFFIXES = (".live", ".nodes_live", ".peak_live")


def _collect_merged() -> dict[str, float]:
    with _MERGED_LOCK:
        return dict(_MERGED)


REGISTRY.register_collector("parallel.worker", _collect_merged)


def merge_metrics(deltas: dict[str, float]) -> None:
    """Fold one worker's counter deltas into the parent registry view."""
    with _MERGED_LOCK:
        for key, value in deltas.items():
            if key.endswith(_GAUGE_SUFFIXES):
                continue
            if value <= 0:
                # counters only grow; a negative delta is a gauge artifact
                continue
            _MERGED[key] = _MERGED.get(key, 0.0) + value


def graft_spans(records: list[dict], base_offset: float = 0.0) -> None:
    """Attach serialized worker spans to the parent's active trace.

    ``base_offset`` is the task's dispatch time relative to the trace
    start; worker-local span starts are relative to the task start, so
    grafted spans land roughly where the work actually happened on the
    parent's timeline.
    """
    trace = _trace_mod.active_trace()
    if trace is None or not records:
        return
    stack = trace._stack()
    parent = stack[-1] if stack else None

    def build(record: dict) -> _trace_mod.Span:
        sp = _trace_mod.Span(record["name"], dict(record["attrs"]), trace)
        sp.start = base_offset + record["start"]
        sp.end = sp.start + record["dur"]
        sp.status = record["status"]
        sp.metrics = dict(record["metrics"])
        sp.children = [build(child) for child in record["children"]]
        return sp

    for record in records:
        sp = build(record)
        if parent is not None:
            parent.children.append(sp)
        else:
            with trace._lock:
                trace.roots.append(sp)


def merge_outcome_obs(outcome: TaskOutcome, base_offset: float = 0.0) -> None:
    """Fold one task outcome's metrics and spans into the parent."""
    if outcome.metrics:
        merge_metrics(outcome.metrics)
    if outcome.spans:
        with _trace_mod.span(
            "parallel.merge",
            task=outcome.task_id,
            worker=outcome.worker_pid,
            attempts=outcome.attempts,
        ):
            graft_spans(outcome.spans, base_offset=base_offset)


# ----------------------------------------------------------------------
# required-time-specific merging (the per-output shard)
# ----------------------------------------------------------------------
def merge_required_outcomes(outcomes: list[CachedRequiredResult]) -> dict:
    """Min-combine per-output-cone requirements into the network view.

    Each cone's ``input_times`` is the requirement that cone's outputs
    impose on its inputs; an input feeding several cones must satisfy all
    of them, so the merged requirement is the earliest (min).  Inputs
    outside every analyzed cone are unconstrained (+inf).  The merge is
    exact for the topological baseline and *sound but possibly tighter*
    than a whole-network run for the approximate methods (a cone cannot
    see looseness that only exists network-wide) — see docs/PARALLEL.md.
    """
    merged: dict[str, float] = {}
    baseline: dict[str, float] = {}
    nontrivial = False
    aborted: list[str] = []
    for outcome in outcomes:
        times = outcome.input_times if outcome.input_times is not None else outcome.baseline
        for x, t in times.items():
            merged[x] = min(merged.get(x, float("inf")), t)
        for x, t in outcome.baseline.items():
            baseline[x] = min(baseline.get(x, float("inf")), t)
        nontrivial = nontrivial or outcome.nontrivial
        if outcome.aborted:
            aborted.append(
                ",".join(outcome.outputs) if outcome.outputs else outcome.circuit
            )
    #: strictly-looser-than-baseline after the merge (an input can lose
    #: its per-cone looseness to a tighter cone)
    merged_nontrivial = any(
        merged[x] > baseline.get(x, float("-inf")) for x in merged
    )
    return {
        "input_times": merged,
        "baseline": baseline,
        "nontrivial_any_cone": nontrivial,
        "nontrivial_merged": merged_nontrivial,
        "aborted_cones": aborted,
    }


__all__ = [
    "graft_spans",
    "merge_metrics",
    "merge_outcome_obs",
    "merge_required_outcomes",
]
