"""Persistent content-addressed result cache with incremental re-analysis.

The amortization layer for repeated required-time traffic: the same
circuit is typically analyzed many times with small deltas (resynthesis
loops, delay re-budgeting), and everything downstream of parsing is a
pure function of (structure, delays, boundary conditions, method +
options, schema version).  This package keys results by a canonical
SHA-256 digest of exactly those ingredients and stores them in a
two-tier cache — in-memory LRU over an atomic-rename, flock-guarded
content-addressed disk tree.  Only the calling process probes and
stores (the CLI, the daemon, ECO sessions, the fuzz runner's parity
oracle, the benchmarks); pool workers compute and never touch it:

* :mod:`repro.cache.keys`        — the canonical digest recipe, the one
  boundary-condition normalization, and schema versioning (what
  identifies a result);
* :mod:`repro.cache.store`       — ``MemoryLRU`` / ``DiskStore`` /
  ``ResultCache``, the two-tier store with crash-safe writes, corrupt
  entries degraded to misses, and ``cache.*`` metrics;
* :mod:`repro.cache.results`     — ``CachedRequiredResult``, the one
  required-time result type of every path;
* :mod:`repro.cache.layer`       — ``lookup_result``/``store_result`` and
  ``cached_analyze_required_times``, the whole-network step;
* :mod:`repro.cache.incremental` — per-output-cone keys, mutation
  diffing, ``analyze_cones`` (the per-cone step) and
  ``incremental_required_times`` (dirty cones only).

See docs/CACHING.md for the keying scheme, invalidation rules, and the
on-disk layout, and docs/ARCHITECTURE.md for where this layer sits.
"""

from repro.cache.incremental import (
    ConeRun,
    IncrementalResult,
    analyze_cones,
    cone_keys,
    diff_cones,
    incremental_required_times,
)
from repro.cache.keys import (
    CacheKey,
    SCHEMA_VERSION,
    SEMANTIC_OPTIONS,
    canonical_network,
    network_digest,
    required_key,
)
from repro.cache.layer import (
    cached_analyze_required_times,
    lookup_result,
    store_result,
)
from repro.cache.results import CachedRequiredResult, jsonify, summarize_report
from repro.cache.store import (
    DiskStore,
    MemoryLRU,
    ResultCache,
    default_cache_dir,
)
from repro.timing import required_map

__all__ = [
    "CacheKey",
    "CachedRequiredResult",
    "ConeRun",
    "DiskStore",
    "IncrementalResult",
    "MemoryLRU",
    "ResultCache",
    "SCHEMA_VERSION",
    "SEMANTIC_OPTIONS",
    "analyze_cones",
    "cached_analyze_required_times",
    "canonical_network",
    "cone_keys",
    "default_cache_dir",
    "diff_cones",
    "incremental_required_times",
    "jsonify",
    "lookup_result",
    "network_digest",
    "required_key",
    "required_map",
    "store_result",
    "summarize_report",
]
