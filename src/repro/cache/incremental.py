"""Incremental re-analysis: recompute only the cones a mutation dirtied.

The resynthesis loop the paper's Section 5 motivates — analyze, rewrite a
subcircuit, re-analyze — re-runs an almost identical network each
iteration.  Because cache keys are content-addressed *per output cone*
(the cone's own structure, delays, and boundary condition are the key;
see :mod:`repro.cache.keys`), incrementality needs no explicit
dependency tracking: an output whose transitive-fanin cone is untouched
by the mutation hashes to the same digest and hits; only the dirty cones
miss and run.  :func:`diff_cones` exposes the same comparison as an
explicit old-vs-new report for assertions and tooling.

:func:`analyze_cones` is the one per-cone step.  ``required --jobs N``,
:func:`incremental_required_times` and
:class:`~repro.eco.NetworkSession` all run through it, and its results
min-merge with :func:`repro.parallel.merge.merge_required_outcomes`, so
an incremental warm result is bit-identical to a cold sharded run of
the whole network.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.cache.keys import CacheKey, required_key
from repro.cache.layer import lookup_result, store_result
from repro.cache.results import CachedRequiredResult
from repro.cache.store import ResultCache
from repro.network.network import Network
from repro.obs.trace import span
from repro.timing import required_map

if TYPE_CHECKING:
    from repro.parallel.results import BatchResult


def cone_key(
    network: Network,
    name: str,
    method: str,
    delays=None,
    required: float = 0.0,
    options: Mapping[str, object] | None = None,
) -> tuple[CacheKey, Network]:
    """Output ``name``'s ``(cache key, cone network)`` pair."""
    from repro.parallel.tasks import output_cone

    cone = output_cone(network, [name])
    return required_key(cone, method, delays, {name: required}, options), cone


def cone_keys(
    network: Network,
    method: str,
    delays=None,
    output_required: Mapping[str, float] | float = 0.0,
    options: Mapping[str, object] | None = None,
) -> dict[str, tuple[CacheKey, Network]]:
    """Per-output ``(cache key, cone network)`` pairs, in output order."""
    req_map = required_map(network, output_required)
    return {
        name: cone_key(network, name, method, delays, req_map[name], options)
        for name in network.outputs
    }


def diff_cones(
    old: Network,
    new: Network,
    method: str = "topological",
    delays=None,
    output_required: Mapping[str, float] | float = 0.0,
    options: Mapping[str, object] | None = None,
) -> dict[str, list[str]]:
    """Classify ``new``'s outputs against ``old``'s cached-cone identities.

    ``clean`` outputs would hit entries populated by analyzing ``old``;
    ``dirty`` ones have structurally different cones (or boundary
    conditions); ``added``/``removed`` track the output sets themselves.
    """
    old_keys = {
        name: key.digest
        for name, (key, _) in cone_keys(
            old, method, delays, output_required, options
        ).items()
    }
    new_keys = cone_keys(new, method, delays, output_required, options)
    clean, dirty = [], []
    for name, (key, _) in new_keys.items():
        if old_keys.get(name) == key.digest:
            clean.append(name)
        elif name in old_keys:
            dirty.append(name)
    return {
        "clean": clean,
        "dirty": dirty,
        "added": [n for n in new_keys if n not in old_keys],
        "removed": [n for n in old_keys if n not in new_keys],
    }


@dataclass
class IncrementalResult:
    """What one incremental (or cold) per-cone analysis produced."""

    #: the min-merged network view (see ``merge_required_outcomes``)
    merged: dict
    #: outputs recomputed this run (cache misses)
    dirty: list[str] = field(default_factory=list)
    #: outputs served from cache (no engine ran)
    clean: list[str] = field(default_factory=list)
    #: outputs whose recompute task failed (excluded from the merge)
    failed: list[str] = field(default_factory=list)
    wall: float = 0.0
    jobs: int = 1

    @property
    def ok(self) -> bool:
        """True when every cone either hit or recomputed successfully."""
        return not self.failed

    def report(self) -> dict:
        """A machine-readable summary (mirrors ``BatchResult.report``)."""
        return {
            "cones": len(self.dirty) + len(self.clean),
            "recomputed": sorted(self.dirty),
            "cached": sorted(self.clean),
            "failed": sorted(self.failed),
            "wall_seconds": round(self.wall, 3),
            "jobs": self.jobs,
        }


@dataclass
class ConeRun:
    """What one :func:`analyze_cones` call produced."""

    #: output → result (read from the cache or computed), in cone order;
    #: failed cones are absent
    results: dict[str, CachedRequiredResult]
    #: outputs served from the cache (no task dispatched)
    cached: list[str]
    #: outputs dispatched to ``run_batch`` (cache misses), failed included
    dirty: list[str]
    #: dispatched outputs whose task failed
    failed: list[str]
    #: the batch of dispatched misses (empty on a fully warm run)
    batch: BatchResult


def analyze_cones(
    network: Network,
    cones: Mapping[str, tuple[CacheKey, Network]],
    method: str,
    cache: ResultCache | None,
    required: Mapping[str, float],
    delays=None,
    options: Mapping[str, object] | None = None,
    jobs: int = 1,
) -> ConeRun:
    """The per-cone step: probe here, dispatch only the misses, store.

    ``cones`` maps outputs to their :func:`cone_key` pairs and
    ``required`` holds each one's required time.  Every key is probed
    in the calling process; only misses become :func:`cone_task` tasks
    on :func:`~repro.parallel.run_batch`, and their results are stored
    here too, so workers never touch the cache.  Every returned result
    is stamped ``circuit=network.name`` and ``outputs=[name]``, whether
    it was computed or read back.
    """
    from repro.parallel import CircuitRef, cone_task, run_batch

    results: dict[str, CachedRequiredResult] = {}
    cached: list[str] = []
    dirty: list[str] = []
    for name, (key, _) in cones.items():
        hit = None if cache is None else lookup_result(cache, key)
        if hit is None:
            dirty.append(name)
        else:
            results[name] = hit
            cached.append(name)
    tasks = [
        cone_task(
            CircuitRef.inline(cones[name][1], key=f"{network.name}/{name}"),
            cones[name][1],
            method,
            required[name],
            delays=delays,
            options=options,
        )
        for name in dirty
    ]
    batch = run_batch(tasks, jobs=jobs)
    failed: list[str] = []
    for name, outcome in zip(dirty, batch.outcomes):
        if not outcome.ok:
            failed.append(name)
            continue
        results[name] = outcome.value
        if cache is not None:
            store_result(cache, cones[name][0], outcome.value)
    for name, result in results.items():
        result.circuit = network.name
        result.outputs = [name]
    return ConeRun(
        results={name: results[name] for name in cones if name in results},
        cached=cached,
        dirty=dirty,
        failed=failed,
        batch=batch,
    )


def incremental_required_times(
    network: Network,
    method: str,
    cache: ResultCache,
    delays=None,
    output_required: Mapping[str, float] | float = 0.0,
    options: Mapping[str, object] | None = None,
    jobs: int = 1,
) -> IncrementalResult:
    """Per-cone required times with cache reuse; dirty cones only recompute.

    On a cold cache every cone is dirty and this is exactly the sharded
    analysis of ``required --jobs N``; on a warm cache after a local
    mutation, only the cones whose content digests changed run (the
    others are replayed from the store), and the merge is bit-identical
    to a full recompute — the property the cache parity tests and
    ``benchmarks/bench_cache.py`` assert.
    """
    from repro.parallel import merge_required_outcomes

    t0 = _time.perf_counter()
    with span(
        "cache.incremental", circuit=network.name, method=method, jobs=jobs
    ):
        run = analyze_cones(
            network,
            cone_keys(network, method, delays, output_required, options),
            method,
            cache,
            required_map(network, output_required),
            delays=delays,
            options=options,
            jobs=jobs,
        )
        merged = merge_required_outcomes(list(run.results.values()))
    return IncrementalResult(
        merged=merged,
        dirty=run.dirty,
        clean=run.cached,
        failed=run.failed,
        wall=_time.perf_counter() - t0,
        jobs=jobs,
    )


__all__ = [
    "ConeRun",
    "IncrementalResult",
    "analyze_cones",
    "cone_key",
    "cone_keys",
    "diff_cones",
    "incremental_required_times",
]
