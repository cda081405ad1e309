"""A stateful incremental analysis session over one evolving network.

:class:`NetworkSession` is the engineering-change-order API ROADMAP
item 5 promotes out of the cache layer: it keeps a live
:class:`~repro.network.network.Network` together with the per-output
cone digests and required-time rows of its *current* state, and
:meth:`~NetworkSession.apply_edit` keeps both in sync after every edit
while touching only what the edit dirtied:

1. the edit validates (raising :class:`~repro.errors.EcoError` before
   any mutation — the atomicity contract) and applies in place;
2. the dirty **candidates** are the outputs in the transitive fanout of
   the touched nodes (:func:`repro.network.transform.transitive_fanout`)
   — a pure graph walk, no hashing of unaffected cones;
3. only candidate cones are re-hashed (:func:`repro.cache.incremental.cone_key`);
   an unchanged digest proves the cone identical and keeps its row;
4. changed digests go through :func:`repro.cache.incremental.analyze_cones`,
   the per-cone step a sharded ``required --jobs N`` run and
   :func:`~repro.cache.incremental.incremental_required_times` also use:
   it probes the session's :class:`ResultCache` and dispatches only the
   real misses to the worker core;
5. all per-cone results min-merge with
   :func:`repro.parallel.merge.merge_required_outcomes`.

Because steps 4–5 are the very code every other per-cone path runs, a
session's merged view and canonical rows after any edit sequence are
bit-identical to a cold full run of the final network — the invariant
the ``eco`` fuzz family and ``benchmarks/bench_eco.py`` check after
every single edit (:meth:`~NetworkSession.verify_against_full_recompute`).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.cache.incremental import analyze_cones, cone_key
from repro.cache.results import CachedRequiredResult, jsonify
from repro.cache.store import ResultCache
from repro.eco.edits import Edit, edit_from_dict
from repro.errors import EcoError
from repro.network.network import Network
from repro.network.transform import transitive_fanout
from repro.obs.trace import span
from repro.timing import required_map, unit_delay


@dataclass
class EditResult:
    """What one :meth:`NetworkSession.apply_edit` call did.

    ``candidates`` are the outputs re-hashed (touched-node transitive
    fanout ∩ outputs, plus output-set changes); of those, ``clean`` kept
    an identical digest, ``cached`` hit the result cache under the new
    digest, and ``dirty`` actually re-ran an engine.
    """

    edit: Edit
    candidates: list[str] = field(default_factory=list)
    dirty: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    clean: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    wall: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every candidate cone hit or recomputed successfully."""
        return not self.failed

    def report(self) -> dict:
        """Machine-readable summary (one JSON line per edit in the CLI)."""
        return {
            "edit": self.edit.to_dict(),
            "candidates": sorted(self.candidates),
            "recomputed": sorted(self.dirty),
            "cache_hits": sorted(self.cached),
            "clean": sorted(self.clean),
            "added": sorted(self.added),
            "removed": sorted(self.removed),
            "failed": sorted(self.failed),
            "wall_seconds": round(self.wall, 3),
        }


class NetworkSession:
    """One network under edit, with always-current required-time rows.

    Parameters mirror :func:`incremental_required_times`; ``cache=None``
    uses a private memory-only :class:`ResultCache` (still useful — an
    edit that undoes a previous one replays the old rows instead of
    re-running engines).
    """

    def __init__(
        self,
        network: Network,
        method: str = "topological",
        delays=None,
        output_required: Mapping[str, float] | float = 0.0,
        options: Mapping[str, object] | None = None,
        cache: ResultCache | None = None,
        jobs: int = 1,
    ):
        if not network.outputs:
            raise EcoError(f"network {network.name!r} has no outputs")
        self.network = network.copy()
        self.method = method
        self.delays = delays or unit_delay()
        self.required = required_map(self.network, output_required)
        #: fallback requirement for outputs introduced by retarget_outputs
        self.default_required = (
            0.0 if isinstance(output_required, Mapping) else float(output_required)
        )
        self.options = dict(options or {})
        self.cache = cache if cache is not None else ResultCache(None)
        self.jobs = jobs
        self.edits_applied = 0
        self._digests: dict[str, str] = {}
        self._results: dict[str, CachedRequiredResult] = {}
        self._failed: set[str] = set()
        # eager cold analysis: every output is a candidate of edit #0
        self._refresh(self.network.outputs)

    # ------------------------------------------------------------------
    # the incremental core
    # ------------------------------------------------------------------
    def _refresh(self, candidates: Iterable[str]) -> EditResult:
        """Re-hash ``candidates``' cones and recompute the changed ones.

        Steps 3–5 of the module docstring: unchanged digests keep their
        rows; the rest go through :func:`~repro.cache.incremental
        .analyze_cones`, the per-cone step of every other path, so
        session rows can never drift from a cold run.  This method only
        keeps the per-output digest bookkeeping.
        """
        result = EditResult(edit=None)  # type: ignore[arg-type]  # stamped by caller
        stale = {}
        # previously failed cones retry on every refresh until they run
        for name in dict.fromkeys([*candidates, *sorted(self._failed)]):
            key, cone = cone_key(
                self.network, name, self.method, self.delays,
                self.required[name], self.options,
            )
            result.candidates.append(name)
            if self._digests.get(name) == key.digest:
                result.clean.append(name)
            else:
                stale[name] = (key, cone)
        run = analyze_cones(
            self.network, stale, self.method, self.cache, self.required,
            delays=self.delays, options=self.options, jobs=self.jobs,
        )
        result.cached, result.dirty, result.failed = run.cached, run.dirty, run.failed
        for name, (key, _) in stale.items():
            if name in run.results:
                self._results[name] = run.results[name]
                self._digests[name] = key.digest
                self._failed.discard(name)
            else:
                self._failed.add(name)
                self._digests.pop(name, None)
                self._results.pop(name, None)
        return result

    # ------------------------------------------------------------------
    # editing
    # ------------------------------------------------------------------
    def apply_edit(self, edit: Edit | Mapping) -> EditResult:
        """Validate, apply, and incrementally re-analyze one edit.

        Raises :class:`EcoError` with the session observably unchanged
        when the edit is invalid; otherwise returns the
        :class:`EditResult` ledger of what the edit dirtied.
        """
        if isinstance(edit, Mapping):
            edit = edit_from_dict(edit)
        t0 = _time.perf_counter()
        with span("eco.apply_edit", kind=edit.kind, circuit=self.network.name):
            # validation is the atomicity boundary: nothing below raises
            # on a well-formed session
            edit.validate(self.network, self.delays, self.required)
            old_outputs = list(self.network.outputs)
            old_required = dict(self.required)
            effect = edit.apply(self.network, self.delays, self.required)
            if effect.delays is not None:
                self.delays = effect.delays
            if effect.required is not None:
                self.required = dict(effect.required)
            if effect.outputs_changed:
                candidates = [
                    o
                    for o in self.network.outputs
                    if o not in self._digests
                    or self.required[o] != old_required.get(o)
                ]
                result = self._refresh(candidates)
                result.added = [
                    o for o in self.network.outputs if o not in old_outputs
                ]
                result.removed = [
                    o for o in old_outputs if o not in self.network.outputs
                ]
                for name in result.removed:
                    self._digests.pop(name, None)
                    self._results.pop(name, None)
                    self._failed.discard(name)
                    self.required.pop(name, None)
            else:
                downstream = (
                    transitive_fanout(self.network, sorted(effect.touched))
                    if effect.touched
                    else set()
                )
                result = self._refresh(
                    [o for o in self.network.outputs if o in downstream]
                )
            self.edits_applied += 1
        result.edit = edit
        result.wall = _time.perf_counter() - t0
        return result

    def apply_trace(self, edits: Iterable[Edit | Mapping]) -> list[EditResult]:
        """Apply a whole edit trace, one :class:`EditResult` per edit."""
        return [self.apply_edit(edit) for edit in edits]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def rows(self) -> dict[str, dict]:
        """Per-output canonical rows of the current state — the parity
        currency (byte-identical to a cold run's rows)."""
        return {
            name: self._results[name].row()
            for name in self.network.outputs
            if name in self._results
        }

    def digests(self) -> dict[str, str]:
        """Per-output cone digests of the current state (a copy)."""
        return dict(self._digests)

    def merged(self) -> dict:
        """The min-merged network view of the current per-cone rows."""
        from repro.parallel import merge_required_outcomes

        return merge_required_outcomes(
            [
                self._results[name]
                for name in self.network.outputs
                if name in self._results
            ]
        )

    @property
    def failed(self) -> list[str]:
        """Outputs whose last recompute failed (excluded from views)."""
        return sorted(self._failed)

    # ------------------------------------------------------------------
    # the parity oracle
    # ------------------------------------------------------------------
    def full_recompute(self) -> "NetworkSession":
        """A fresh cold session over the current network state — the
        full-recompute oracle of the differential fuzz checks."""
        return NetworkSession(
            self.network,
            method=self.method,
            delays=self.delays,
            output_required=self.required,
            options=self.options,
            cache=ResultCache(None),
            jobs=1,
        )

    def verify_against_full_recompute(self) -> list[str]:
        """Compare this session against a cold full run of the same state.

        Returns human-readable divergence descriptions (empty = parity).
        Compares the per-output canonical rows *and* the min-merged
        view after a JSON round-trip, the same byte-identical comparison
        the warm-vs-cold cache gates use.
        """
        import json

        cold = self.full_recompute()
        problems: list[str] = []
        warm_rows, cold_rows = self.rows(), cold.rows()
        if sorted(warm_rows) != sorted(cold_rows):
            problems.append(
                f"output sets differ: incremental={sorted(warm_rows)} "
                f"full={sorted(cold_rows)}"
            )
        for name in sorted(set(warm_rows) & set(cold_rows)):
            a = json.dumps(warm_rows[name], sort_keys=True)
            b = json.dumps(cold_rows[name], sort_keys=True)
            if a != b:
                problems.append(
                    f"row for output {name!r} diverged:\n"
                    f"  incremental: {a}\n  full:        {b}"
                )
        a = json.dumps(jsonify(self.merged()), sort_keys=True)
        b = json.dumps(jsonify(cold.merged()), sort_keys=True)
        if a != b:
            problems.append(
                f"merged view diverged:\n  incremental: {a}\n  full:        {b}"
            )
        return problems


__all__ = ["EditResult", "NetworkSession"]
