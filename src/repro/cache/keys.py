"""Canonical cache keys: content-addressed digests of analysis inputs.

A required-time result is a pure function of five things — the network
structure, the delay specification, the boundary conditions (required
times at the outputs), the method plus its semantically relevant options,
and the code/schema version.  :func:`required_key` folds exactly those
five into one SHA-256 digest, so the digest *is* the identity of the
result: two analyses with the same key must produce bit-identical
canonical rows, and anything that could change the answer must appear in
the key (see docs/CACHING.md for the invalidation rules).

Canonicalization choices:

* the network **name is excluded** (content addressing: a renamed copy of
  a circuit hits the same entry; callers re-stamp the display name);
* nodes are keyed **sorted by name** with their fanin lists and SOP
  cover patterns verbatim (fanin order is semantic — cover columns map
  to it — but dict insertion order is not);
* input/output lists are kept **in declaration order** — engines
  enumerate over them, so order is part of the result's identity;
* delay overrides are restricted to the network before hashing, so a
  model carrying overrides for shrunk-away nodes keys identically, and
  a point-interval model writes the scalar spec layout
  (:meth:`~repro.timing.DelayModel.to_spec`), so it keys like the
  scalar model it equals;
* only options that can change the *answer* enter the key (node budgets,
  check budgets, engine, reorder); purely observational knobs must never
  be added to :data:`SEMANTIC_OPTIONS`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

from repro.network.network import Network
from repro.timing import required_map

#: Bump whenever the canonical payload layout, the digest recipe, or the
#: meaning of a cached result changes: old entries become unreachable
#: (they live under a versioned directory) instead of wrongly reused.
SCHEMA_VERSION = 1

#: Options that can change the canonical result row and therefore key
#: the cache entry: engine knobs (budgets, engine, reorder) plus
#: ``exact_row_counts``, which widens the exact method's digest payload.
SEMANTIC_OPTIONS = (
    "backend",
    "engine",
    "exact_row_counts",
    "max_nodes",
    "max_checks",
    "reorder",
    "time_budget",
)


def canonical_network(network: Network) -> dict:
    """The name-free structural description entering the digest."""
    return {
        "inputs": list(network.inputs),
        "outputs": list(network.outputs),
        "nodes": {
            name: {
                "fanins": list(node.fanins),
                "cover": [cube.to_pattern() for cube in node.cover],
            }
            for name, node in sorted(network.nodes.items())
            if not node.is_input
        },
    }


def network_digest(network: Network) -> str:
    """SHA-256 of the canonical structure alone (no delays, no method)."""
    return _digest({"schema": SCHEMA_VERSION, "network": canonical_network(network)})


#: The backend whose digests carry no ``backend`` entry at all.  This is
#: the *historical* baseline (the kernel all pre-backend digests were
#: produced under), deliberately a literal rather than
#: ``repro.bdd.api.DEFAULT_BACKEND``: flipping the runtime default must
#: not silently re-key — and thereby orphan — every existing cache entry.
_CACHE_BASELINE_BACKEND = "object"

#: The ``backend`` value the native kernel keys under.  A frozen literal:
#: it is the name of a since-removed Python kernel that was bit-identical
#: to native and shared its entries, and keeping it keeps every digest
#: produced under native reachable.
_CACHE_NATIVE_BACKEND = "array"


def _canonical_options(options: Mapping[str, object] | None) -> dict:
    """The :data:`SEMANTIC_OPTIONS` subset, with unset/False values
    dropped so explicit defaults key identically to absent options.

    ``backend`` is keyed by its *resolved* value: an unset option falls
    back to ``$REPRO_BDD_BACKEND``, so entries produced under an
    env-selected object kernel can never alias native-kernel entries.
    Two anchors keep existing digests reachable without a
    :data:`SCHEMA_VERSION` bump:

    * ``native`` keys as :data:`_CACHE_NATIVE_BACKEND`;
    * the historical baseline (:data:`_CACHE_BASELINE_BACKEND`) is
      dropped like every other unset option.
    """
    options = options or {}
    out = {
        name: options[name]
        for name in SEMANTIC_OPTIONS
        if options.get(name) not in (None, False)
    }
    from repro.bdd.api import resolve_backend

    if resolve_backend(options.get("backend")) == _CACHE_BASELINE_BACKEND:
        out.pop("backend", None)
    else:
        out["backend"] = _CACHE_NATIVE_BACKEND
    return out


def _digest(payload: dict) -> str:
    """SHA-256 over the minimal canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheKey:
    """One content-addressed result identity.

    ``digest`` names the entry on disk; ``method``/``kind`` are carried
    for display and debugging only — both are already folded into the
    digest, so the digest alone is the full identity.
    """

    digest: str
    method: str
    kind: str = "required"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}/{self.method}/{self.digest[:12]}"


def required_key(
    network: Network,
    method: str,
    delays=None,
    output_required: Mapping[str, float] | float = 0.0,
    options: Mapping[str, object] | None = None,
) -> CacheKey:
    """The cache key of one required-time analysis of ``network``.

    ``network`` may be a whole circuit or an output cone — the cone *is*
    its own content, which is what makes the incremental layer work: an
    unchanged cone of a mutated network hashes to the same key and hits.
    """
    from repro.timing.delay import unit_delay

    delays = (delays or unit_delay()).restricted_to(network)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "required",
        "method": method,
        "network": canonical_network(network),
        "delays": delays.to_spec(),
        "output_required": required_map(network, output_required),
        "options": _canonical_options(options),
    }
    return CacheKey(digest=_digest(payload), method=method)


__all__ = [
    "CacheKey",
    "SCHEMA_VERSION",
    "SEMANTIC_OPTIONS",
    "canonical_network",
    "network_digest",
    "required_key",
]
