"""The one required-time result type, and its report converter.

An engine's full detail object (an :class:`~repro.core.exact.ExactRelation`
over live BDDs, an approx-1 result holding manager references) can never
be serialized or pickled; :class:`CachedRequiredResult` is its durable,
picklable reduction — method, non-triviality, per-method digest
(approx-1 primes/profiles, approx-2 best/bottom vectors, exact leaf
counts), the value-independent ``input_times`` merge currency, and the
topological baseline.  It is what the cache stores, what a pool worker
returns, what the per-cone min-merge consumes and what the daemon
serves, so every path renders the same :meth:`~CachedRequiredResult.row`
and "warm ≠ cold" or "pooled ≠ serial" is always a bug, never a
formatting artifact (docs/CACHING.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

INF = math.inf


def jsonify(value):
    """Deep-convert to the JSON value model (tuples → lists, keys → str).

    Equality of two ``jsonify`` outputs is equality after a JSON
    round-trip, which is the bit-identical comparison the warm-vs-cold
    parity gates use.  ``inf`` stays a float (the stdlib encoder emits
    ``Infinity`` and reads it back).
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    return str(value)


def loosest_profile_times(result, baseline: Mapping[str, float]) -> dict[str, float]:
    """The value-independent view of approx1's loosest single profile.

    Profiles are *alternative* safe assignments; coordinates from
    different profiles must not be mixed.  Picks the profile with the
    greatest total looseness gain over the baseline (ties broken
    lexicographically on the rendered profile, so the choice is
    deterministic), falling back to the baseline when there are none.
    """
    best = dict(baseline)
    best_gain = 0.0
    for profile in sorted(result.profiles, key=lambda p: sorted(p.as_dict().items())):
        times = profile.value_independent()
        gain = sum(
            (t - baseline[x]) if t != INF else 1.0
            for x, t in times.items()
            if x in baseline and t > baseline[x]
        )
        if gain > best_gain:
            best_gain = gain
            best = {x: times.get(x, baseline[x]) for x in baseline}
    return best


def exact_row_counts(relation, max_inputs: int) -> dict:
    """Bit-exact relation digests for small circuits: row/minimal-row
    counts per input minterm (the Figure-4 parity check)."""
    import itertools

    inputs = relation.network.inputs
    if len(inputs) > max_inputs:
        return {}
    rows: dict[str, list[int]] = {}
    for bits in itertools.product((0, 1), repeat=len(inputs)):
        minterm = dict(zip(inputs, bits))
        key = "".join(str(b) for b in bits)
        rows[key] = [
            len(relation.rows(minterm)),
            len(relation.minimal_rows(minterm)),
        ]
    return rows


def summarize_report(
    report,
    baseline: Mapping[str, float],
    row_counts: int | None = None,
) -> tuple[dict, dict[str, float] | None]:
    """Reduce one :class:`RequiredTimeReport` to ``(digest, input_times)``.

    ``digest`` is the method-specific canonical payload; ``input_times``
    is the value-independent per-input requirement (the min-merge
    currency), or the baseline when the method yields no single safe
    vector (exact) or the run aborted.
    """
    method = report.method
    detail = report.detail
    digest: dict = {}
    input_times: dict[str, float] | None = None
    if method == "topological":
        input_times = dict(detail)
    elif method == "approx2" and detail is not None:
        digest["checks"] = getattr(detail, "checks", None)
        digest["best"] = dict(detail.best)
        digest["r_bottom"] = dict(detail.r_bottom)
        input_times = dict(detail.best)
    elif method == "approx1" and detail is not None:
        digest["num_parameters"] = detail.num_parameters
        digest["primes"] = [sorted(p) for p in detail.primes]
        digest["profiles"] = [sorted(pr.as_dict().items()) for pr in detail.profiles]
        input_times = loosest_profile_times(detail, baseline)
    elif method == "exact" and detail is not None and not report.aborted:
        digest["leaf_variables"] = detail.num_leaf_variables
        if row_counts is not None:
            digest["rows"] = exact_row_counts(detail, int(row_counts))
        # the relation itself cannot be serialized; the guaranteed-safe
        # vector view is the topological baseline
        input_times = dict(baseline)
    if report.aborted:
        input_times = dict(baseline)
    # widened interval-delay runs carry their [lo, hi] bounds into the
    # canonical row; point-interval runs have no stamp, so their digests
    # stay byte-identical to scalar ones (docs/DELAY_MODELS.md)
    if "interval" in report.stats:
        digest["interval"] = report.stats["interval"]
    return digest, input_times


@dataclass
class CachedRequiredResult:
    """One required-time result in its durable, canonical form."""

    method: str
    #: display field, stamped by the path that returns the result (the
    #: cache key leaves it out): the analyzed network's name
    circuit: str
    nontrivial: bool
    #: cold-run CPU seconds, kept so a warm render reports the cost of
    #: the run it reuses (wall clock is excluded from parity on purpose)
    elapsed: float
    #: display field like ``circuit``: ``None`` for a whole network,
    #: ``[name]`` for one output cone
    outputs: list[str] | None = None
    time_to_first_nontrivial: float | None = None
    aborted: bool = False
    abort_reason: str | None = None
    stats: dict = field(default_factory=dict)
    digest: dict = field(default_factory=dict)
    input_times: dict[str, float] | None = None
    baseline: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_report(
        cls,
        report,
        baseline: Mapping[str, float],
        row_counts: int | None = None,
    ) -> "CachedRequiredResult":
        """From a fresh :class:`~repro.core.required_time.RequiredTimeReport`
        (``outputs`` stays ``None``: the caller stamps display fields)."""
        digest, input_times = summarize_report(report, baseline, row_counts)
        return cls(
            method=report.method,
            circuit=report.circuit,
            nontrivial=report.nontrivial,
            elapsed=report.elapsed,
            time_to_first_nontrivial=report.time_to_first_nontrivial,
            aborted=report.aborted,
            abort_reason=report.abort_reason,
            stats=jsonify(report.stats),
            digest=jsonify(digest),
            input_times=None if input_times is None else dict(input_times),
            baseline=dict(baseline),
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The JSON document stored on disk (all-plain, sort-stable)."""
        return {
            "kind": "required",
            "method": self.method,
            "circuit": self.circuit,
            "outputs": self.outputs,
            "nontrivial": self.nontrivial,
            "elapsed": self.elapsed,
            "time_to_first_nontrivial": self.time_to_first_nontrivial,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "stats": jsonify(self.stats),
            "digest": jsonify(self.digest),
            "input_times": jsonify(self.input_times),
            "baseline": jsonify(self.baseline),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CachedRequiredResult":
        """Rehydrate a stored entry (inverse of :meth:`to_payload`)."""
        return cls(
            method=payload["method"],
            circuit=payload["circuit"],
            nontrivial=payload["nontrivial"],
            elapsed=payload["elapsed"],
            outputs=payload.get("outputs"),
            time_to_first_nontrivial=payload.get("time_to_first_nontrivial"),
            aborted=payload.get("aborted", False),
            abort_reason=payload.get("abort_reason"),
            stats=payload.get("stats", {}),
            digest=payload.get("digest", {}),
            input_times=payload.get("input_times"),
            baseline=payload.get("baseline", {}),
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """``ok``, ``memory out`` (BDD node budget) or ``aborted``."""
        if not self.aborted:
            return "ok"
        reason = self.abort_reason or ""
        return "memory out" if "node budget" in reason else "aborted"

    def row(self) -> dict:
        """The canonical (time-free) row — the parity-gate currency."""
        return jsonify(
            {
                "circuit": self.circuit,
                "method": self.method,
                "outputs": self.outputs,
                "nontrivial": self.nontrivial,
                "status": self.status,
                "digest": self.digest,
                "input_times": self.input_times,
                "baseline": self.baseline,
            }
        )

    def table_row(self) -> dict:
        """The machine-readable row (matches ``RequiredTimeReport``)."""
        row = {
            "circuit": self.circuit,
            "method": self.method,
            "nontrivial": self.nontrivial,
            "cpu_time": round(self.elapsed, 3),
            "first_nontrivial": (
                None
                if self.time_to_first_nontrivial is None
                else round(self.time_to_first_nontrivial, 3)
            ),
            "aborted": self.aborted,
        }
        if "bdd_backend" in self.stats:
            row["bdd_backend"] = self.stats["bdd_backend"]
        if "interval" in self.stats:
            row["interval"] = self.stats["interval"]
        return row

    def render_detail(self) -> str:
        """The method-specific CLI body (mirrors ``repro required``)."""
        from repro.core.required_time import format_time

        lines: list[str] = []
        if self.method == "approx2" and self.digest and not self.aborted:
            best = self.digest.get("best", {})
            bottom = self.digest.get("r_bottom", {})
            lines.append("")
            lines.append("loosest validated required times:")
            for key in sorted(best, key=str):
                gain = best[key] - bottom.get(key, best[key])
                marker = f"  (+{gain:g})" if gain > 0 else ""
                lines.append(f"  {key}: {format_time(best[key])}{marker}")
        if self.method == "approx1" and self.digest:
            for i, profile in enumerate(self.digest.get("profiles", [])):
                lines.append("")
                lines.append(f"prime {i + 1}:")
                for x, (r0, r1) in profile:
                    lines.append(
                        f"  {x}: by {format_time(r1)} when 1, "
                        f"by {format_time(r0)} when 0"
                    )
        return "\n".join(lines)


__all__ = [
    "CachedRequiredResult",
    "exact_row_counts",
    "jsonify",
    "loosest_profile_times",
    "summarize_report",
]
