"""Shared result types, the topological baseline, and the unified facade.

The paper generalizes "required time at a primary input" from one constant
to value- and vector-dependent relations.  The common currency between the
three algorithms is:

* the **topological baseline** r_⊥ (Figure 3 applied to the primary
  inputs) — every method must be at least as loose as it, and a method's
  result is *non-trivial* when it is strictly looser somewhere;
* :class:`RequiredTimeProfile` — one value-dependent required-time
  assignment (the interpretation of an approx-1 prime, or of one minimal
  row of the exact relation at a given input minterm);
* :class:`RequiredTimeReport` — the record a Table-1/Table-2 style harness
  consumes: method, non-triviality, timing, resource-abort flags.
"""

from __future__ import annotations

import functools
import inspect
import math
import time as _time
from dataclasses import dataclass, field
from typing import Literal, Mapping

from repro.errors import TimingError
from repro.network.network import Network
from repro.obs.trace import span
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import required_map, required_time_bounds
from repro.timing.topological import required_times as topo_required

INF = math.inf

Method = Literal["exact", "approx1", "approx2", "topological"]


def topological_input_required_times(
    network: Network,
    delays: DelayModel | None = None,
    output_required: Mapping[str, float] | float = 0.0,
) -> dict[str, float]:
    """r_⊥: the Figure-3 required times restricted to the primary inputs."""
    req = topo_required(network, delays or unit_delay(), output_required)
    return {pi: req[pi] for pi in network.inputs}


def format_time(t: float) -> str:
    """Render a required time, using the paper's ∞ notation."""
    if t == INF:
        return "inf"
    return f"{t:g}"


@dataclass(frozen=True)
class RequiredTimeProfile:
    """One value-dependent required-time assignment.

    ``times[x] = (req_when_0, req_when_1)``: the signal x must be stable by
    ``req_when_v`` whenever its (final) value is v.  ``INF`` means the
    signal may be delayed forever in that case.
    """

    times: tuple[tuple[str, tuple[float, float]], ...]

    @classmethod
    def from_dict(cls, d: Mapping[str, tuple[float, float]]) -> "RequiredTimeProfile":
        return cls(tuple(sorted((k, (float(v[0]), float(v[1]))) for k, v in d.items())))

    def as_dict(self) -> dict[str, tuple[float, float]]:
        return {k: v for k, v in self.times}

    def of(self, name: str) -> tuple[float, float]:
        for k, v in self.times:
            if k == name:
                return v
        raise TimingError(f"no required time recorded for input {name!r}")

    def value_independent(self) -> dict[str, float]:
        """The conservative single-number view: min over the two values."""
        return {k: min(v) for k, v in self.times}

    def is_at_least_as_loose_as(self, baseline: Mapping[str, float]) -> bool:
        """Every requirement no earlier than the baseline's?"""
        mine = self.value_independent()
        return all(mine.get(x, INF) >= t for x, t in baseline.items())

    def is_strictly_looser_than(self, baseline: Mapping[str, float]) -> bool:
        if not self.is_at_least_as_loose_as(baseline):
            return False
        for x, (r0, r1) in self.times:
            if x in baseline and (r0 > baseline[x] or r1 > baseline[x]):
                return True
        return False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"{k}:(0@{format_time(v[0])},1@{format_time(v[1])})"
            for k, v in self.times
        ]
        return "{" + ", ".join(parts) + "}"


@dataclass
class RequiredTimeReport:
    """Benchmark-facing record of one required-time analysis run."""

    method: Method
    circuit: str
    nontrivial: bool
    elapsed: float
    #: elapsed seconds when the first non-trivial (looser-than-topological)
    #: requirement was validated — Table 2's "CPU time first r ≠ r_⊥"
    time_to_first_nontrivial: float | None = None
    #: analysis aborted on a resource budget ("memory out" / "> 12 hours")
    aborted: bool = False
    abort_reason: str | None = None
    #: method-specific payload (ExactRelation / Approx1Result / Approx2Result)
    detail: object | None = None
    stats: dict[str, object] = field(default_factory=dict)

    def table_row(self) -> dict[str, object]:
        """The row the Table-1/2 harnesses print."""
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
        # which BDD kernel actually ran (exact/approx1 only): requested,
        # resolved, effective, fallback_reason — so a fleet reading
        # ``required --json`` can tell a degraded native run from a real one
        if "bdd_backend" in self.stats:
            row["bdd_backend"] = self.stats["bdd_backend"]
        # delay-bound extras: present only for genuinely widened models,
        # so point-interval rows are scalar rows (docs/DELAY_MODELS.md)
        if "interval" in self.stats:
            row["interval"] = self.stats["interval"]
        return row


@functools.cache
def method_options(method: str) -> frozenset[str]:
    """The options :func:`analyze_required_times` takes for ``method``.

    They are the keywords of the method's analysis class after the
    network, delays and boundary condition every method shares, read from
    the constructor so the two cannot drift.  Topological analysis takes
    none; an unknown method raises :class:`TimingError`.
    """
    if method == "topological":
        return frozenset()
    if method == "exact":
        from repro.core.exact import ExactAnalysis as analysis
    elif method == "approx1":
        from repro.core.approx1 import Approx1Analysis as analysis
    elif method == "approx2":
        from repro.core.approx2 import Approx2Analysis as analysis
    else:
        raise TimingError(f"unknown method {method!r}")
    shared = {"self", "network", "delays", "output_required"}
    return frozenset(inspect.signature(analysis.__init__).parameters) - shared


def analyze_required_times(
    network: Network,
    method: Method,
    delays: DelayModel | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    **options,
) -> RequiredTimeReport:
    """Unified entry point: run one of the paper's algorithms end to end.

    ``options`` are forwarded to the method class (``max_nodes`` and
    ``reorder`` for exact/approx1, ``engine`` / budgets for approx2); an
    option the method does not take (:func:`method_options`) raises
    :class:`TimingError`.  Resource exhaustion is reported in the result
    instead of raised, mirroring the paper's table annotations.

    The engines read the hi corner of ``delays``; when the model carries
    ``[lo, hi]`` bounds on a gate of ``network``, the input-requirement
    bounds go to ``stats["interval"]`` (docs/DELAY_MODELS.md).  Widened
    overrides naming no node of ``network`` add no stamp, so the stamp
    follows the model :func:`~repro.cache.keys.required_key` hashes.

    A per-output ``output_required`` map must name every primary output
    and nothing else (:func:`~repro.timing.required_map`); every method
    raises the same :class:`TimingError` otherwise.
    """
    extra = sorted(set(options) - method_options(method))
    if extra:
        raise TimingError(f"method {method!r} does not take the options {extra}")
    delays = delays or unit_delay()
    if isinstance(output_required, Mapping):
        output_required = required_map(network, output_required)
    with span("required.analyze", circuit=network.name, method=method):
        report = _analyze(network, method, delays, output_required, options)
        restricted = delays.restricted_to(network)
        if not restricted.is_point():
            report.stats["interval"] = _interval_stamp(
                network, method, restricted, output_required, options
            )
        return report


def _interval_stamp(
    network: Network,
    method: Method,
    delays: DelayModel,
    output_required: Mapping[str, float] | float,
    options: dict,
) -> dict:
    """The delay-bound digest attached to non-point runs.

    ``bounds`` is the topological ``[lo, hi]`` requirement box per primary
    input (Figure 3 at both delay corners).  For approx2 a second lattice
    climb at the optimistic lo corner reports ``best_upper`` — the loosest
    false-path-aware requirement achievable anywhere in the delay box.
    Times render through :func:`format_time` so ``inf`` stays JSON-safe.
    """
    bounds = required_time_bounds(network, delays, output_required)
    stamp: dict[str, object] = {
        "point": False,
        "bounds": {
            pi: [format_time(bounds[pi][0]), format_time(bounds[pi][1])]
            for pi in network.inputs
        },
    }
    if method == "approx2":
        from repro.core.approx2 import Approx2Analysis

        result = Approx2Analysis(
            network, delays.lo_model(), output_required, **options
        ).run()
        stamp["best_upper"] = {
            "nontrivial": result.nontrivial,
            # lattice coordinates are pi names, or (pi, value) pairs under
            # separate_values — flatten the latter to "pi@value" JSON keys
            "r": {
                (coord if isinstance(coord, str) else f"{coord[0]}@{coord[1]}"):
                    format_time(t)
                for coord, t in sorted(result.best.items(), key=str)
            },
        }
    return stamp


def _analyze(
    network: Network,
    method: Method,
    delays: DelayModel,
    output_required: Mapping[str, float] | float,
    options: dict,
) -> RequiredTimeReport:
    from repro.errors import ResourceLimitError

    start = _time.monotonic()
    try:
        if method == "topological":
            baseline = topological_input_required_times(
                network, delays, output_required
            )
            return RequiredTimeReport(
                method="topological",
                circuit=network.name,
                nontrivial=False,
                elapsed=_time.monotonic() - start,
                detail=baseline,
            )
        if method == "exact":
            from repro.core.exact import ExactAnalysis

            analysis = ExactAnalysis(network, delays, output_required, **options)
            relation = analysis.relation()
            return RequiredTimeReport(
                method="exact",
                circuit=network.name,
                nontrivial=relation.nontrivial(),
                elapsed=_time.monotonic() - start,
                detail=relation,
                stats={
                    "leaf_variables": relation.num_leaf_variables,
                    "bdd": analysis.manager.statistics(),
                    "bdd_backend": _backend_stamp(options, analysis.manager),
                },
            )
        if method == "approx1":
            from repro.core.approx1 import Approx1Analysis

            analysis = Approx1Analysis(network, delays, output_required, **options)
            result = analysis.run()
            return RequiredTimeReport(
                method="approx1",
                circuit=network.name,
                nontrivial=result.nontrivial,
                elapsed=_time.monotonic() - start,
                detail=result,
                stats={
                    "num_parameters": result.num_parameters,
                    "bdd": analysis.manager.statistics(),
                    "bdd_backend": _backend_stamp(options, analysis.manager),
                },
            )
        if method == "approx2":
            from repro.core.approx2 import Approx2Analysis

            analysis = Approx2Analysis(network, delays, output_required, **options)
            result = analysis.run()
            return RequiredTimeReport(
                method="approx2",
                circuit=network.name,
                nontrivial=result.nontrivial,
                elapsed=_time.monotonic() - start,
                time_to_first_nontrivial=result.time_to_first_nontrivial,
                aborted=result.aborted,
                abort_reason=result.abort_reason,
                detail=result,
                stats={"checks": result.checks},
            )
    except ResourceLimitError as exc:
        stats: dict[str, object] = {}
        if method in ("exact", "approx1"):
            stats["bdd_backend"] = _backend_stamp(options, None)
        return RequiredTimeReport(
            method=method,
            circuit=network.name,
            nontrivial=False,
            elapsed=_time.monotonic() - start,
            aborted=True,
            abort_reason=str(exc),
            detail=exc.partial_result,
            stats=stats,
        )
    raise TimingError(f"unknown method {method!r}")


def _backend_stamp(options: dict, manager) -> dict:
    """The BDD-kernel provenance of one run: how the request resolved,
    plus the kernel the live manager actually is (ground truth when the
    native backend degraded to object mid-factory)."""
    from repro.bdd.api import backend_of, backend_resolution

    stamp = backend_resolution(options.get("backend"))
    if manager is not None:
        stamp["effective"] = backend_of(manager)
    return stamp
