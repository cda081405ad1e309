"""The differential runner: one case, every engine, every oracle.

Per circuit this module computes required times with all four engines
(exact, approx1, approx2, topological) and asserts the paper's ordering
and safety theorems against the implementations that do *not* share code
with the engine under test:

* ``a1-dominates-topo`` — every approx-1 profile is at least as loose as
  the topological baseline (Corollary 1);
* ``a1-safe-bdd`` — feeding an approx-1 profile back as arrival times
  leaves every output stable by its required time (BDD χ engine);
* ``a2-above-bottom`` — every approx-2 maximal vector dominates r_⊥;
* ``a2-cross-engine-safe`` — a vector validated by the SAT climb is
  re-validated by the BDD engine and vice versa;
* ``a2-engines-agree`` — the two climbs find identical maximal vectors
  (they take the same deterministic raise order, so any divergence is an
  engine disagreement on some stability check);
* ``hierarchy`` — approx-2 non-trivial ⇒ approx-1 non-trivial ⇒ exact
  non-trivial (the looseness ordering of §4);
* ``exact-contains-topo`` — the exact relation admits the topological
  assignment (Theorem 1's base case);
* ``oracle-topo-safe`` / ``oracle-a1-safe`` / ``oracle-a2-safe`` /
  ``oracle-exact-minterm`` — on small instances, exhaustive ternary
  XBD0 simulation over every input vector confirms each engine's answer
  with an implementation that shares neither χ covers nor BDDs nor CNF
  with any engine;
* ``cache-parity`` — the persistent result cache replayed against a
  fresh computation: a cold run through a throwaway cache followed by a
  warm run must hit and return a bit-identical canonical row (the free
  cache-correctness oracle of docs/CACHING.md — every fuzz case
  exercises keying, serialization, and warm reconstruction);
* ``bdd-backend-parity`` — the BDD-bound engines (exact, approx-1)
  re-run under both BDD kernels (``object`` and ``native``; skipped
  when the native kernel did not build, see docs/BDD_BACKENDS.md): the
  canonical time-free rows — including budget-abort status — must be
  bit-identical, so the kernels can never drift apart semantically.

Any engine exception is itself a verdict (``engine-error``): a crash on
a generated circuit is a bug the shrinker can minimize like any other.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.approx1 import Approx1Analysis, Approx1Result
from repro.core.approx2 import Approx2Analysis, Approx2Result
from repro.core.required_time import topological_input_required_times
from repro.errors import ResourceLimitError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span
from repro.timing.functional import FunctionalTiming
from repro.timing.ternary import stabilization_times

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.exact import ExactRelation
    from repro.fuzz.gen import FuzzCase

_EPS = 1e-9

#: input count up to which the exhaustive ternary oracle runs
ORACLE_MAX_INPUTS = 6
#: input count up to which the exact relation is built
EXACT_MAX_INPUTS = 7


@dataclass(frozen=True)
class CheckFailure:
    """One violated invariant: the check's name plus a short diagnosis."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass
class CaseResult:
    """Verdict of the differential runner on one case."""

    case: "FuzzCase"
    failures: list[CheckFailure] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: registry deltas attributable to *this* case alone: the runner
    #: brackets each case with ``REGISTRY.snapshot()`` and stores the
    #: ``diff()``, so per-case accounting never inherits BDD/SAT counts
    #: from engines left over by a previous case (the historical bug was
    #: relying on manager counters without resetting between cases).
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_checks(self) -> list[str]:
        return sorted({f.check for f in self.failures})


class EngineSuite:
    """The engines under differential test, as injectable callables.

    Tests (and the mutation-testing harness) subclass this and corrupt
    one method to prove the fuzzer catches a specific class of engine
    bug; the fuzz runner itself always uses the stock suite.

    Every budget is a *deterministic* resource counter (BDD nodes,
    validation checks) rather than wall-clock time, so a generated case
    produces the same verdict on every machine: a case that exhausts a
    budget is recorded as skipped for that engine, never as flaky.
    """

    def __init__(
        self,
        exact_max_nodes: int = 200_000,
        approx1_max_nodes: int = 200_000,
        approx2_max_checks: int = 2_000,
    ):
        self.exact_max_nodes = exact_max_nodes
        self.approx1_max_nodes = approx1_max_nodes
        self.approx2_max_checks = approx2_max_checks

    def topological(self, case: "FuzzCase") -> dict[str, float]:
        return topological_input_required_times(
            case.network, case.delays, case.output_required
        )

    def approx1(self, case: "FuzzCase") -> Approx1Result:
        return Approx1Analysis(
            case.network,
            case.delays,
            case.output_required,
            max_nodes=self.approx1_max_nodes,
        ).run()

    def approx2(self, case: "FuzzCase", engine: str = "sat") -> Approx2Result:
        return Approx2Analysis(
            case.network,
            case.delays,
            case.output_required,
            engine=engine,
            max_checks=self.approx2_max_checks,
        ).run()

    def exact(self, case: "FuzzCase") -> "ExactRelation":
        from repro.core.exact import ExactAnalysis

        return ExactAnalysis(
            case.network,
            case.delays,
            case.output_required,
            max_nodes=self.exact_max_nodes,
        ).relation()


def _fmt_vector(r: Mapping) -> str:
    return "{" + ", ".join(f"{k}={v:g}" for k, v in sorted(r.items(), key=lambda kv: str(kv[0]))) + "}"


def _oracle_minterms(n_inputs: int, cap: int = 16) -> list[int]:
    """Deterministic sample of input minterms for per-minterm checks."""
    total = 1 << n_inputs
    if total <= cap:
        return list(range(total))
    stride = total // cap
    return list(range(0, total, stride))[:cap]


def run_differential(
    case: "FuzzCase", suite: EngineSuite | None = None
) -> CaseResult:
    """Run every engine on ``case`` and cross-examine the answers."""
    suite = suite or EngineSuite()
    result = CaseResult(case=case)
    start = _time.monotonic()
    before = REGISTRY.snapshot()
    net = case.network
    required = case.required_map()

    def ran(check: str) -> None:
        result.checks_run.append(check)

    def fail(check: str, detail: str) -> None:
        result.failures.append(CheckFailure(check, detail))

    def stage(name: str, thunk):
        """Run one engine, converting a crash into a recorded failure.

        Exhausting a deterministic resource budget (BDD node count,
        validation-check count) is *not* a finding — the engine declined
        the case rather than answering it wrongly — so it lands in
        ``skipped``, keeping verdicts stable across machines.
        """
        try:
            return thunk()
        except ResourceLimitError:
            result.skipped.append(name)
            return None
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            fail("engine-error", f"{name}: {type(exc).__name__}: {exc}")
            return None

    topo = stage("topological", lambda: suite.topological(case))
    a1 = stage("approx1", lambda: suite.approx1(case))
    a2 = {
        eng: stage(f"approx2[{eng}]", lambda e=eng: suite.approx2(case, engine=e))
        for eng in ("sat", "bdd")
    }
    small = net.num_inputs <= ORACLE_MAX_INPUTS
    rel = None
    if net.num_inputs <= EXACT_MAX_INPUTS:
        rel = stage("exact", lambda: suite.exact(case))
    else:
        result.skipped.append("exact")

    # ------------------------------------------------------------------
    # ordering + safety against the χ engines
    # ------------------------------------------------------------------
    if a1 is not None and topo is not None:
        ran("a1-dominates-topo")
        for profile in a1.profiles:
            if not profile.is_at_least_as_loose_as(topo):
                fail(
                    "a1-dominates-topo",
                    f"profile {profile} tighter than baseline {_fmt_vector(topo)}",
                )
    timing = {eng: FunctionalTiming(net, case.delays, engine=eng) for eng in ("bdd", "sat")}
    if a1 is not None:
        ran("a1-safe-bdd")
        for profile in a1.profiles:
            if not timing["bdd"].all_stable_by(required, profile.as_dict()):
                fail("a1-safe-bdd", f"unsafe profile {profile}")

    for eng, res in a2.items():
        if res is None:
            continue
        ran(f"a2-above-bottom[{eng}]")
        for r in res.maximal:
            if any(r[x] + _EPS < res.r_bottom[x] for x in r):
                fail(
                    f"a2-above-bottom[{eng}]",
                    f"vector {_fmt_vector(r)} below bottom "
                    f"{_fmt_vector(res.r_bottom)}",
                )
        other = "bdd" if eng == "sat" else "sat"
        ran(f"a2-cross-engine-safe[{eng}->{other}]")
        for r in res.maximal:
            if not timing[other].all_stable_by(required, r):
                fail(
                    f"a2-cross-engine-safe[{eng}->{other}]",
                    f"{eng}-validated vector {_fmt_vector(r)} rejected by {other}",
                )

    if (
        a2["sat"] is not None
        and a2["bdd"] is not None
        and not a2["sat"].aborted
        and not a2["bdd"].aborted
    ):
        ran("a2-engines-agree")
        sat_set = {tuple(sorted(r.items())) for r in a2["sat"].maximal}
        bdd_set = {tuple(sorted(r.items())) for r in a2["bdd"].maximal}
        if sat_set != bdd_set:
            fail(
                "a2-engines-agree",
                f"sat={sorted(sat_set)} bdd={sorted(bdd_set)}",
            )

    # ------------------------------------------------------------------
    # the looseness hierarchy
    # ------------------------------------------------------------------
    if a1 is not None and a2["sat"] is not None:
        ran("hierarchy")
        if a2["sat"].nontrivial and not a1.nontrivial:
            fail("hierarchy", "approx2 non-trivial but approx1 trivial")
        if rel is not None and a1.nontrivial:
            trivial = stage("exact.nontrivial", lambda: not rel.nontrivial())
            if trivial:
                fail("hierarchy", "approx1 non-trivial but exact trivial")
    if rel is not None:
        ran("exact-contains-topo")
        missing = stage(
            "exact.contains_topological",
            lambda: not rel.contains_topological(),
        )
        if missing:
            fail("exact-contains-topo", "relation rejects topological assignment")

    # ------------------------------------------------------------------
    # exhaustive ternary-oracle cross-checks (small instances)
    # ------------------------------------------------------------------
    if small:
        import itertools

        vectors = list(itertools.product((0, 1), repeat=net.num_inputs))

        def oracle_safe(arrivals, check: str, label: str) -> None:
            for bits in vectors:
                vec = dict(zip(net.inputs, bits))
                stab = stabilization_times(net, vec, case.delays, arrivals)
                for out, t in required.items():
                    if stab[out] > t + _EPS:
                        fail(
                            check,
                            f"{label}: vector {vec} stabilizes {out} at "
                            f"{stab[out]:g} > required {t:g}",
                        )
                        return

        if topo is not None:
            ran("oracle-topo-safe")
            oracle_safe(dict(topo), "oracle-topo-safe", _fmt_vector(topo))
        if a1 is not None:
            ran("oracle-a1-safe")
            for profile in a1.profiles:
                oracle_safe(
                    profile.as_dict(), "oracle-a1-safe", str(profile)
                )
        for eng, res in a2.items():
            if res is None:
                continue
            ran(f"oracle-a2-safe[{eng}]")
            for r in res.maximal:
                oracle_safe(dict(r), f"oracle-a2-safe[{eng}]", _fmt_vector(r))

        if rel is not None:
            ran("oracle-exact-minterm")
            for m in _oracle_minterms(net.num_inputs):
                minterm = {
                    x: (m >> i) & 1 for i, x in enumerate(net.inputs)
                }
                try:
                    profiles = rel.required_tuples(minterm)
                except ResourceLimitError:
                    result.skipped.append("oracle-exact-minterm")
                    break
                except Exception as exc:  # noqa: BLE001
                    fail(
                        "engine-error",
                        f"exact.required_tuples({minterm}): "
                        f"{type(exc).__name__}: {exc}",
                    )
                    break
                for profile in profiles:
                    arrivals = profile.as_dict()
                    stab = stabilization_times(
                        net, minterm, case.delays, arrivals
                    )
                    bad = [
                        (out, stab[out], t)
                        for out, t in required.items()
                        if stab[out] > t + _EPS
                    ]
                    if bad:
                        out, got, want = bad[0]
                        fail(
                            "oracle-exact-minterm",
                            f"minterm {minterm} profile {profile}: {out} "
                            f"stabilizes at {got:g} > required {want:g}",
                        )
    else:
        result.skipped.append("oracle")

    # ------------------------------------------------------------------
    # cache parity: warm must be bit-identical to cold
    # ------------------------------------------------------------------
    _check_cache_parity(case, suite, ran, fail, result)

    # ------------------------------------------------------------------
    # backend parity: object and native BDD kernels must agree bit-exactly
    # ------------------------------------------------------------------
    _check_bdd_backend_parity(
        case, suite, ran, fail, result,
        with_exact=net.num_inputs <= EXACT_MAX_INPUTS,
    )

    result.elapsed = _time.monotonic() - start
    result.metrics = REGISTRY.snapshot().diff(before)
    return result


def _check_cache_parity(
    case: "FuzzCase", suite: EngineSuite, ran, fail, result: CaseResult
) -> None:
    """Round-trip the cheap methods through a throwaway result cache.

    Runs ``topological`` and ``approx2`` (the lightest engines, so the
    extra cost per case stays small) cold through a fresh two-tier cache
    and then warm; the warm call must *hit* and the canonical rows must
    be JSON-bit-identical.  Aborted cold runs are uncacheable by design
    and are skipped.
    """
    import json
    import tempfile

    from repro.cache import ResultCache, cached_analyze_required_times

    ran("cache-parity")
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = ResultCache(tmp)
        for method, options in (
            ("topological", {}),
            ("approx2", {"engine": "sat", "max_checks": suite.approx2_max_checks}),
        ):
            try:
                cold, hit0 = cached_analyze_required_times(
                    case.network, method, cache,
                    delays=case.delays,
                    output_required=case.output_required,
                    options=options,
                )
                if cold.aborted:
                    result.skipped.append(f"cache-parity[{method}]")
                    continue
                warm, hit1 = cached_analyze_required_times(
                    case.network, method, cache,
                    delays=case.delays,
                    output_required=case.output_required,
                    options=options,
                )
            except ResourceLimitError:
                result.skipped.append(f"cache-parity[{method}]")
                continue
            except Exception as exc:  # noqa: BLE001 — any crash is a finding
                fail(
                    "engine-error",
                    f"cache[{method}]: {type(exc).__name__}: {exc}",
                )
                continue
            if hit0:
                fail("cache-parity", f"{method}: first lookup hit a fresh cache")
            if not hit1:
                fail("cache-parity", f"{method}: warm lookup missed")
                continue
            cold_row = json.dumps(cold.row(), sort_keys=True)
            warm_row = json.dumps(warm.row(), sort_keys=True)
            if cold_row != warm_row:
                fail(
                    "cache-parity",
                    f"{method}: warm != cold: {warm_row} vs {cold_row}",
                )


def _check_bdd_backend_parity(
    case: "FuzzCase",
    suite: EngineSuite,
    ran,
    fail,
    result: CaseResult,
    with_exact: bool,
) -> None:
    """Differential run of the BDD-bound engines under both kernels.

    ``exact`` and ``approx1`` are re-run once per backend (fresh manager
    each, so neither run can warm the other) and their canonical
    time-free rows are compared as JSON.  The row includes the
    non-triviality verdict, per-input required times, and the
    budget-abort status, so a kernel that diverges in *any*
    user-observable way — including aborting at a different node
    count — is a failure the shrinker can minimize.

    The check runs only when the ``native`` kernel actually
    built/loaded — under its no-compiler fallback it *is* the object
    kernel, and a trivially-true diff would overstate coverage.
    """
    import json

    from repro.bdd.native_backend import native_status
    from repro.cache.results import CachedRequiredResult
    from repro.core.required_time import analyze_required_times

    if not native_status()[0]:
        result.skipped.append("bdd-backend-parity")
        return
    ran("bdd-backend-parity")
    backends = ("object", "native")
    methods = [("approx1", {"max_nodes": suite.approx1_max_nodes})]
    if with_exact:
        methods.append(("exact", {"max_nodes": suite.exact_max_nodes}))
    try:
        baseline = topological_input_required_times(
            case.network, case.delays, case.output_required
        )
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        fail("engine-error", f"backend-parity baseline: {type(exc).__name__}: {exc}")
        return
    for method, options in methods:
        rows: dict[str, str] = {}
        for backend in backends:
            try:
                report = analyze_required_times(
                    case.network,
                    method,
                    delays=case.delays,
                    output_required=case.output_required,
                    backend=backend,
                    **options,
                )
                rows[backend] = json.dumps(
                    CachedRequiredResult.from_report(report, baseline).row(),
                    sort_keys=True,
                )
            except ResourceLimitError:
                result.skipped.append(f"bdd-backend-parity[{method}]")
                rows = {}
                break
            except Exception as exc:  # noqa: BLE001 — any crash is a finding
                fail(
                    "engine-error",
                    f"backend-parity {method}[{backend}]: "
                    f"{type(exc).__name__}: {exc}",
                )
                rows = {}
                break
        if len(rows) == len(backends) and rows["native"] != rows["object"]:
            fail(
                "bdd-backend-parity",
                f"{method}: object row != native row: "
                f"{rows['object']} vs {rows['native']}",
            )


#: Every check name the runner can emit.
ALL_CHECKS = (
    "engine-error",
    "a1-dominates-topo",
    "a1-safe-bdd",
    "a2-above-bottom[sat]",
    "a2-above-bottom[bdd]",
    "a2-cross-engine-safe[sat->bdd]",
    "a2-cross-engine-safe[bdd->sat]",
    "a2-engines-agree",
    "hierarchy",
    "exact-contains-topo",
    "oracle-topo-safe",
    "oracle-a1-safe",
    "oracle-a2-safe[sat]",
    "oracle-a2-safe[bdd]",
    "oracle-exact-minterm",
    "cache-parity",
    "bdd-backend-parity",
)

__all__ = [
    "ALL_CHECKS",
    "CaseResult",
    "CheckFailure",
    "EngineSuite",
    "run_differential",
]
