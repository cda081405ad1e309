"""Approximate approach 2 (Section 4.3): the lattice climb.

Candidate required-time vectors live in R = R_1 × … × R_n, where R_i is
the set of times at which input i's leaf χ variables are referenced
(values 0 and 1 merged, as in the paper's implementation; a per-value
variant is available).  The bottom element r_⊥ — every coordinate at its
minimum — is the topological required-time vector and is always safe.

A vector r is *valid* when functional timing analysis of the circuit with
arrival times r shows every primary output stable by its required time;
validity is downward closed (delaying an input can only delay outputs
under XBD0), so a greedy climb that keeps raising coordinates while the
check passes terminates at a maximal valid vector.  Backtracking over the
raise order enumerates all maximal vectors.  The validation engine is the
SAT-based functional analyzer of [9] or the BDD engine.

The run records the two quantities of the paper's Table 2: time until the
first non-trivial r ≠ r_⊥ is validated, and time until the maximal r is
reached; both survive resource aborts (the "> 12 hours" rows) through the
``aborted`` flag and best-so-far results.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Literal, Mapping

from repro.core.leaves import LeafTimes, enumerate_leaf_times
from repro.core.required_time import topological_input_required_times
from repro.errors import ResourceLimitError, TimingError
from repro.network.network import Network
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.functional import FunctionalTiming
from repro.timing.topological import required_map


def _finite_sum(r: Mapping) -> float:
    """Sum of the finite coordinates (∞ entries carry no ordering info)."""
    return sum(v for v in r.values() if v != float("inf"))


def _cluster_axis(axis: list[float], stride: int) -> list[float]:
    """Conservatively thin a candidate axis (the paper's proposed
    approximation: 'group them into clusters of neighboring required times
    conservatively').

    The minimum (the topological bottom) is always kept; above it, every
    ``stride``-th candidate counted from the bottom survives.  A coarser
    axis trades looseness for fewer validation checks.
    """
    if stride == 1 or len(axis) <= 2:
        return list(axis)
    kept = [axis[0]]
    kept.extend(axis[i] for i in range(stride, len(axis), stride))
    return kept


@dataclass
class LatticeClimbTrace:
    """Chronological record of validation checks during the climb."""

    events: list[tuple[float, dict[str, float], bool]] = field(default_factory=list)

    def record(self, elapsed: float, r: Mapping[str, float], valid: bool) -> None:
        self.events.append((elapsed, dict(r), valid))

    @property
    def num_checks(self) -> int:
        return len(self.events)

    @property
    def num_accepted(self) -> int:
        return sum(1 for _, _, ok in self.events if ok)

    def to_csv(self) -> str:
        """Render the climb as CSV (elapsed, accepted, looseness, vector)
        for offline plotting of the anytime-progress curve."""
        import io

        out = io.StringIO()
        out.write("elapsed_s,accepted,total_looseness,vector\n")
        for elapsed, r, ok in self.events:
            looseness = sum(v for v in r.values() if v != float("inf"))
            rendered = ";".join(f"{k}={v:g}" for k, v in sorted(r.items(), key=lambda kv: str(kv[0])))
            out.write(f"{elapsed:.6f},{int(ok)},{looseness:g},{rendered}\n")
        return out.getvalue()


@dataclass
class Approx2Result:
    circuit: str
    r_bottom: dict[str, float]
    #: all maximal valid vectors found (one unless ``enumerate_all``)
    maximal: list[dict[str, float]]
    nontrivial: bool
    time_to_first_nontrivial: float | None
    time_to_max: float | None
    checks: int
    aborted: bool = False
    abort_reason: str | None = None
    trace: LatticeClimbTrace = field(default_factory=LatticeClimbTrace)

    @property
    def best(self) -> dict[str, float]:
        """The loosest vector found (maximal finite coordinate sum)."""
        if not self.maximal:
            return dict(self.r_bottom)
        return max(self.maximal, key=_finite_sum)


class Approx2Analysis:
    """The repeated-functional-timing-analysis climb."""

    def __init__(
        self,
        network: Network,
        delays: DelayModel | None = None,
        output_required: Mapping[str, float] | float = 0.0,
        engine: Literal["bdd", "sat"] = "sat",
        enumerate_all: bool = False,
        max_solutions: int = 16,
        max_checks: int | None = None,
        time_budget: float | None = None,
        max_leaves: int = 100_000,
        validate_bottom: bool = True,
        clustering: int = 1,
        separate_values: bool = False,
    ):
        self.network = network
        self.delays = delays or unit_delay()
        self.required = required_map(network, output_required)
        self.enumerate_all = enumerate_all
        self.max_solutions = max_solutions
        self.max_checks = max_checks
        self.time_budget = time_budget
        self.max_leaves = max_leaves
        self.validate_bottom = validate_bottom
        #: footnote 8 extension: search required times for values 0 and 1
        #: separately (one lattice axis per (input, value) pair) — this is
        #: what lets the method see e.g. the Figure 4 looseness
        self.separate_values = separate_values

        #: the stability engine of every check; its unrolling feeds the inventory
        self.timing = FunctionalTiming(network, self.delays, engine=engine)
        with span("approx2.enumerate_leaves", circuit=network.name):
            self.leaves: LeafTimes = enumerate_leaf_times(
                self.timing.unrolling, self.required, max_leaves=max_leaves
            )
        if clustering < 1:
            raise TimingError("clustering stride must be >= 1")
        self.clustering = clustering
        if separate_values:
            self.axes = {}
            for pi in network.inputs:
                for value, table in (
                    (0, self.leaves.for_zero),
                    (1, self.leaves.for_one),
                ):
                    times = table.get(pi) or [float("inf")]
                    self.axes[(pi, value)] = _cluster_axis(times, clustering)
        else:
            self.axes = {
                pi: _cluster_axis(self.leaves.merged(pi) or [0.0], clustering)
                for pi in network.inputs
            }
        # per-output primary-input support: a candidate vector only needs
        # re-validation at the outputs whose cone contains a changed input,
        # and a validation verdict depends only on the arrival times of the
        # output's own support — both exploited via the cache below
        from repro.network.transform import transitive_fanin

        input_set = set(network.inputs)
        support = {
            po: transitive_fanin(network, [po]) & input_set
            for po in network.outputs
        }
        self._po_coords: dict[str, tuple] = {
            po: tuple(
                sorted(
                    (k for k in self.axes if self._input_of(k) in cone),
                    key=str,
                )
            )
            for po, cone in support.items()
        }
        self._po_cache: dict[tuple, bool] = {}
        self._po_fails: dict[str, int] = {}

    @staticmethod
    def _input_of(coord) -> str:
        """The primary input a lattice coordinate belongs to."""
        return coord[0] if isinstance(coord, tuple) else coord

    def _to_arrivals(self, r: Mapping) -> dict[str, object]:
        """Translate a lattice vector to per-input arrival times."""
        if not self.separate_values:
            return r
        return {
            pi: (r[(pi, 0)], r[(pi, 1)]) for pi in self.network.inputs
        }

    # ------------------------------------------------------------------
    def r_bottom(self) -> dict[str, float]:
        """r_⊥: minimum of each axis — never tighter than the topological
        requirement for any input the recursion reaches.

        With a single delay per gate the two coincide exactly.  With
        separate rise/fall delays the χ recursion charges each gate the
        delay of the value actually produced, while the Figure-3 baseline
        conservatively charges ``max(rise, fall)``; the phase-coupled
        bottom may then be strictly *looser* (later) than the baseline —
        found by differential fuzzing on a mux chain with asymmetric
        delays.  Only a bottom *earlier* than the baseline would signal an
        enumeration bug.
        """
        topo = topological_input_required_times(
            self.network, self.delays, self.required
        )
        bottom = {coord: min(axis) for coord, axis in self.axes.items()}
        per_input: dict[str, float] = {}
        for coord, t in bottom.items():
            pi = self._input_of(coord)
            per_input[pi] = min(per_input.get(pi, float("inf")), t)
        for pi, t in per_input.items():
            if (
                topo[pi] != float("inf")
                and t != float("inf")
                and t < topo[pi] - 1e-9
            ):
                raise TimingError(
                    f"lattice bottom {t} tighter than topological "
                    f"requirement {topo[pi]} at input {pi!r}"
                )
        return bottom

    def _validate(self, r: Mapping) -> bool:
        # consult the cache for every output first: a remembered failure
        # decides the vector without running a single engine check
        missing: list[tuple[str, float, tuple]] = []
        for po, t in self.required.items():
            key = (po, tuple(r[k] for k in self._po_coords[po]))
            verdict = self._po_cache.get(key)
            if verdict is None:
                missing.append((po, t, key))
            elif not verdict:
                return False
        if not missing:
            return True
        # uncached outputs: likeliest-to-fail first (failure history), so a
        # rejected vector costs as few engine checks as possible
        if len(missing) > 1 and self._po_fails:
            fails = self._po_fails
            missing.sort(key=lambda item: fails.get(item[0], 0), reverse=True)
        failed = self.timing.first_unstable(
            {po: t for po, t, _ in missing}, self._to_arrivals(r)
        )
        for po, _, key in missing:
            self._po_cache[key] = po != failed
            if po == failed:
                self._po_fails[po] = self._po_fails.get(po, 0) + 1
                return False
        return True

    # ------------------------------------------------------------------
    def run(self) -> Approx2Result:
        with span(
            "approx2.climb", circuit=self.network.name, engine=self.timing.engine
        ) as sp:
            result = self._run()
            sp.set(checks=result.checks, aborted=result.aborted)
        return result

    def _run(self) -> Approx2Result:
        start = _time.monotonic()
        trace = LatticeClimbTrace()
        checks = 0
        checks_metric = REGISTRY.counter("approx2.checks")
        first_nontrivial: float | None = None
        aborted = False
        abort_reason: str | None = None

        def elapsed() -> float:
            return _time.monotonic() - start

        def check(r: dict[str, float]) -> bool:
            nonlocal checks, first_nontrivial
            if self.max_checks is not None and checks >= self.max_checks:
                raise ResourceLimitError("validation-check budget exhausted")
            if self.time_budget is not None and elapsed() > self.time_budget:
                raise ResourceLimitError("time budget exhausted")
            checks += 1
            checks_metric.inc()
            ok = self._validate(r)
            trace.record(elapsed(), r, ok)
            if ok and first_nontrivial is None and r != bottom:
                first_nontrivial = elapsed()
            return ok

        bottom = self.r_bottom()
        if self.validate_bottom and not self._validate(bottom):
            raise TimingError(
                "topological bottom vector failed validation; timing model "
                "is inconsistent"
            )

        maximal: list[dict[str, float]] = []
        try:
            if self.enumerate_all:
                maximal = self._enumerate_maximal(bottom, check)
            else:
                maximal = [self._greedy_climb(bottom, check)]
        except ResourceLimitError as exc:
            aborted = True
            abort_reason = str(exc)
            best = self._best_accepted(trace, bottom)
            if best is not None:
                maximal = [best]

        time_to_max = None if aborted else elapsed()
        nontrivial = any(r != bottom for r in maximal)
        return Approx2Result(
            circuit=self.network.name,
            r_bottom=bottom,
            maximal=maximal,
            nontrivial=nontrivial,
            time_to_first_nontrivial=first_nontrivial,
            time_to_max=time_to_max,
            checks=checks,
            aborted=aborted,
            abort_reason=abort_reason,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _bump(self, r: dict[str, float], pi: str) -> dict[str, float] | None:
        """r with input ``pi`` raised one step along its axis, or None."""
        axis = self.axes[pi]
        import bisect

        idx = bisect.bisect_right(axis, r[pi])
        if idx >= len(axis):
            return None
        out = dict(r)
        out[pi] = axis[idx]
        return out

    def _greedy_climb(self, bottom: dict[str, float], check) -> dict[str, float]:
        """Raise coordinates until no single raise validates (one maximal r).

        Inputs are visited in decreasing axis length — inputs with many
        candidate moments have the most flexibility to expose.
        """
        r = dict(bottom)
        order = sorted(self.axes, key=lambda pi: -len(self.axes[pi]))
        progress = True
        while progress:
            progress = False
            for pi in order:
                while True:
                    candidate = self._bump(r, pi)
                    if candidate is None:
                        break
                    if check(candidate):
                        r = candidate
                        progress = True
                    else:
                        break
        return r

    def _enumerate_maximal(self, bottom, check) -> list[dict[str, float]]:
        """Backtracking search for all maximal valid vectors (bounded)."""
        results: list[dict[str, float]] = []
        seen: set[tuple] = set()
        validity: dict[tuple, bool] = {}

        def key(r: dict[str, float]) -> tuple:
            return tuple(sorted(r.items()))

        def cached_check(r: dict[str, float]) -> bool:
            k = key(r)
            if k not in validity:
                validity[k] = check(r)
            return validity[k]

        def dominated(r: dict[str, float]) -> bool:
            return any(
                all(r[k] <= other[k] for k in r) for other in results
            )

        def dfs(r: dict[str, float]) -> None:
            if len(results) >= self.max_solutions:
                return
            k = key(r)
            if k in seen:
                return
            seen.add(k)
            raised_any = False
            for pi in sorted(self.axes, key=lambda p: -len(self.axes[p])):
                candidate = self._bump(r, pi)
                if candidate is None:
                    continue
                if key(candidate) in seen:
                    raised_any = True  # explored elsewhere
                    continue
                if cached_check(candidate):
                    raised_any = True
                    dfs(candidate)
                    if len(results) >= self.max_solutions:
                        return
            if not raised_any and not dominated(r):
                results.append(dict(r))

        dfs(dict(bottom))
        # drop dominated stragglers
        final: list[dict[str, float]] = []
        for r in results:
            if not any(
                other is not r and all(r[k] <= other[k] for k in r)
                for other in results
            ):
                final.append(r)
        return final

    @staticmethod
    def _best_accepted(
        trace: LatticeClimbTrace, bottom: dict[str, float]
    ) -> dict[str, float] | None:
        """Loosest vector validated before an abort (the paper's point that
        'any intermediate r looser than topological analysis gives useful
        information immediately')."""
        best = None
        best_sum = _finite_sum(bottom)
        for _, r, ok in trace.events:
            if ok and _finite_sum(r) > best_sum:
                best = r
                best_sum = _finite_sum(r)
        return best
