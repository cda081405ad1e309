"""The whole-network step, and the cache probe and store every path shares.

``cached_analyze_required_times`` is ``analyze_required_times`` with an
optional :class:`~repro.cache.store.ResultCache` in front: a hit skips
the engines entirely and returns the stored canonical result; a miss
computes, stores, and returns the same canonical form, so callers see
one type regardless of temperature.  With ``cache=None`` it hashes no
key and only computes — the form a pool worker runs, since workers
never touch the cache (the calling process probes and stores).

:func:`lookup_result` and :func:`store_result` are the only probe and
publish of a required-time result; the per-cone step and the daemon
call them too.
Aborted runs (budget exhaustion) are **never stored** — whether a run
aborts depends on wall-clock/budget context, and replaying an abort
from cache would violate the warm ≡ cold contract.
"""

from __future__ import annotations

from typing import Mapping

from repro.cache.keys import CacheKey, required_key
from repro.cache.results import CachedRequiredResult
from repro.cache.store import ResultCache
from repro.network.network import Network
from repro.obs.trace import span


def lookup_result(cache: ResultCache, key: CacheKey) -> CachedRequiredResult | None:
    """The stored result under ``key``, or ``None`` on a miss.

    The display fields (``circuit``, ``outputs``) are whatever the
    writer stamped; the caller re-stamps them, because the key is
    content-addressed and leaves both out.
    """
    with span("cache.lookup", method=key.method, key=key.digest[:12]):
        payload = cache.get(key)
    return None if payload is None else CachedRequiredResult.from_payload(payload)


def store_result(
    cache: ResultCache, key: CacheKey, result: CachedRequiredResult
) -> None:
    """Publish ``result`` under ``key`` unless the run aborted."""
    if result.aborted:
        return
    with span("cache.store", method=key.method, key=key.digest[:12]):
        cache.put(key, result.to_payload())


def cached_analyze_required_times(
    network: Network,
    method: str,
    cache: ResultCache | None,
    delays=None,
    output_required: Mapping[str, float] | float = 0.0,
    options: Mapping[str, object] | None = None,
) -> tuple[CachedRequiredResult, bool]:
    """Run (or reuse) one whole-network required-time analysis.

    Returns ``(result, hit)``; ``hit`` is True when no engine ran.  The
    result carries ``circuit=network.name`` and ``outputs=None`` on
    both paths, so a renamed but structurally identical circuit reads
    back under its own name.
    """
    from repro.core.required_time import (
        analyze_required_times,
        topological_input_required_times,
    )

    options = dict(options or {})
    key = None if cache is None else required_key(
        network, method, delays, output_required, options
    )
    result = None if key is None else lookup_result(cache, key)
    hit = result is not None
    if not hit:
        # a layer option, not an engine kwarg — but part of the key
        # because it widens the exact method's canonical digest
        row_counts = options.pop("exact_row_counts", None)
        baseline = topological_input_required_times(network, delays, output_required)
        report = analyze_required_times(
            network, method, delays=delays, output_required=output_required, **options
        )
        result = CachedRequiredResult.from_report(
            report, baseline, row_counts=row_counts
        )
        if key is not None:
            store_result(cache, key, result)
    result.circuit = network.name
    result.outputs = None
    return result, hit


__all__ = ["cached_analyze_required_times", "lookup_result", "store_result"]
