"""The budgeted fuzzing loop: generate → check → shrink → save.

:class:`FuzzRunner` drives the whole pipeline for every fuzz family in
:data:`FAMILIES`.  The case sequence is a pure function of
``(seed, profile)`` — budgets only decide how far along the sequence a
run gets — so two runs with the same seed and case budget produce
identical cases and identical verdicts, and a failure found by the
nightly job is regenerated locally from its recorded seed alone.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.fuzz.checks import CaseResult, CheckFailure, EngineSuite, run_differential
from repro.fuzz.corpus import save_repro
from repro.fuzz.eco import EcoFamily
from repro.fuzz.gen import FuzzCase, FuzzProfile, generate_case
from repro.fuzz.interval import IntervalFamily
from repro.fuzz.shrink import failure_predicate, shrink_case
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span


@dataclass
class CaseVerdict:
    """One line of a fuzzing report."""

    index: int
    case_id: str
    family: str
    num_inputs: int
    num_gates: int
    ok: bool
    failed_checks: list[str] = field(default_factory=list)
    #: gate count after shrinking (None when the case passed or
    #: shrinking was disabled)
    shrunk_gates: int | None = None
    #: corpus base name of the saved repro, when one was written
    repro: str | None = None
    elapsed: float = 0.0
    #: per-case registry deltas (``bdd.*`` / ``sat.*`` / ``approx2.*``),
    #: bracketed around this case alone — see ``CaseResult.metrics``
    metrics: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL " + ",".join(self.failed_checks)
        line = (
            f"[{self.index:4d}] {self.case_id:<40} "
            f"{self.num_inputs}PI/{self.num_gates}G  {status}"
        )
        if self.shrunk_gates is not None:
            line += f"  (shrunk to {self.shrunk_gates} gates)"
        if self.repro is not None:
            line += f"  -> {self.repro}"
        return line


@dataclass
class FuzzReport:
    """The outcome of one fuzzing run."""

    seed: str
    profile: str
    verdicts: list[CaseVerdict] = field(default_factory=list)
    elapsed: float = 0.0
    #: why the loop ended: "budget" (case budget spent), "time"
    #: (wall-clock cap), or "stop-on-failure"
    stopped: str = "budget"
    #: registry deltas over the whole run (``--metrics-json`` payload)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def num_cases(self) -> int:
        return len(self.verdicts)

    @property
    def num_failures(self) -> int:
        return sum(1 for v in self.verdicts if not v.ok)

    @property
    def ok(self) -> bool:
        return self.num_failures == 0

    def summary(self) -> str:
        return (
            f"fuzz(seed={self.seed}, profile={self.profile}): "
            f"{self.num_cases} cases, {self.num_failures} failures, "
            f"{self.elapsed:.1f}s ({self.stopped})"
        )

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "cases": self.num_cases,
            "failures": self.num_failures,
            "elapsed": round(self.elapsed, 3),
            "stopped": self.stopped,
            "metrics": self.metrics,
            "verdicts": [
                {
                    "index": v.index,
                    "case_id": v.case_id,
                    "family": v.family,
                    "inputs": v.num_inputs,
                    "gates": v.num_gates,
                    "ok": v.ok,
                    "failed_checks": v.failed_checks,
                    "shrunk_gates": v.shrunk_gates,
                    "repro": v.repro,
                    "metrics": v.metrics,
                }
                for v in self.verdicts
            ],
        }


class CircuitFamily:
    """The ``circuit`` family: one static analysis problem per case, run
    through every engine and oracle by :func:`run_differential`.

    A fuzz family is any object with this shape; :data:`FAMILIES` lists
    them by ``name``.  ``generate(seed, profile, index)`` is pure in its
    arguments and returns a case with ``case_id``, ``family``,
    ``num_inputs`` and ``num_gates``; ``differential(case, suite)``
    returns a :class:`CaseResult`; ``shrink(case, predicate)`` returns a
    smaller case that still satisfies the predicate, and ``size`` is the
    quantity it minimizes; ``save(directory, case, failures, original)``
    writes a corpus entry that ``replay(entry, suite)`` re-checks.
    """

    name = "circuit"
    differential = staticmethod(run_differential)

    def generate(self, seed, profile, index) -> FuzzCase:
        # a module-global lookup on every call, so wrapping
        # ``repro.fuzz.runner.generate_case`` times circuit generation
        return generate_case(seed, profile, index)

    def shrink(self, case: FuzzCase, predicate) -> FuzzCase:
        return shrink_case(case, predicate, max_evals=300)

    def size(self, case: FuzzCase) -> int:
        return case.num_gates

    def save(self, directory, case, failures, original) -> str:
        return save_repro(directory, case, failures, original=original)

    def replay(self, entry, suite) -> CaseResult:
        return run_differential(entry.case, suite)


#: The fuzz family table: what ``FuzzRunner(family=...)``, the ``fuzz``
#: CLI's ``--family``, the pool's ``fuzz_case`` task, and corpus replay
#: accept.
FAMILIES = {
    family.name: family
    for family in (CircuitFamily(), EcoFamily(), IntervalFamily())
}


class FuzzRunner:
    """Generate/check/shrink/save over one deterministic case sequence."""

    def __init__(
        self,
        seed: int | str = 0,
        budget: int = 25,
        profile: FuzzProfile | str = "default",
        time_budget: float | None = None,
        suite: EngineSuite | None = None,
        corpus_dir: str | None = None,
        shrink: bool = True,
        stop_on_failure: bool = False,
        jobs: int = 1,
        family: str = "circuit",
        log=None,
    ):
        self.seed = seed
        self.budget = budget
        self.profile = profile
        self.time_budget = time_budget
        self.suite = suite or EngineSuite()
        self.corpus_dir = corpus_dir
        self.shrink = shrink
        self.stop_on_failure = stop_on_failure
        #: case-loop parallelism: 1 = serial (reference semantics), N>1 =
        #: a warm worker pool runs the family's differential per case,
        #: 0 = one worker per core.  Cases are deterministic functions of
        #: (seed, profile, index), so workers regenerate them from the
        #: index alone and the verdict sequence is identical to serial.
        self.jobs = jobs
        #: a key of :data:`FAMILIES`: what each case is
        self.family = family
        #: optional per-verdict callback (the CLI's live output)
        self.log = log

    def _profile_name(self) -> str:
        return (
            self.profile.name
            if isinstance(self.profile, FuzzProfile)
            else self.profile
        )

    def _parallel_capable(self) -> bool:
        """Workers rebuild the suite from its budgets; a subclassed suite
        (mutation tests inject those) cannot cross the process boundary."""
        return self.jobs != 1 and type(self.suite) is EngineSuite

    def run(self) -> FuzzReport:
        family = FAMILIES.get(self.family)
        if family is None:
            raise ReproError(
                f"unknown fuzz family {self.family!r}; "
                f"choose from {list(FAMILIES)}"
            )
        start = _time.monotonic()
        before = REGISTRY.snapshot()
        report = FuzzReport(seed=str(self.seed), profile=self._profile_name())
        if self._parallel_capable():
            self._run_parallel(family, report, start)
        else:
            self._run_serial(family, report, start)
        report.elapsed = _time.monotonic() - start
        report.metrics = REGISTRY.snapshot().diff(before)
        return report

    def _out_of_time(self, start: float) -> bool:
        return (
            self.time_budget is not None
            and _time.monotonic() - start > self.time_budget
        )

    def _record(self, report: FuzzReport, verdict: CaseVerdict) -> bool:
        """Append one verdict; True when the run stops after it."""
        REGISTRY.counter("fuzz.cases").inc()
        if not verdict.ok:
            REGISTRY.counter("fuzz.failures").inc()
        report.verdicts.append(verdict)
        if self.log is not None:
            self.log(verdict)
        if not verdict.ok and self.stop_on_failure:
            report.stopped = "stop-on-failure"
            return True
        return False

    def _run_serial(self, family, report: FuzzReport, start: float) -> None:
        """The serial case loop (``jobs == 1``, or a subclassed suite)."""
        for index in range(self.budget):
            if self._out_of_time(start):
                report.stopped = "time"
                return
            case = family.generate(self.seed, self.profile, index)
            with span("fuzz.case", case=case.case_id, index=index):
                result = family.differential(case, self.suite)
                verdict = CaseVerdict(
                    index=index,
                    case_id=case.case_id,
                    family=case.family,
                    num_inputs=case.num_inputs,
                    num_gates=case.num_gates,
                    ok=result.ok,
                    failed_checks=result.failed_checks,
                    elapsed=result.elapsed,
                    metrics=result.metrics,
                )
                if not verdict.ok:
                    self._shrink_and_save(family, case, result.failures, verdict)
            if self._record(report, verdict):
                return

    def _run_parallel(self, family, report: FuzzReport, start: float) -> None:
        """The pooled case loop (``jobs != 1``).

        Cases are dispatched in chunks so the wall-clock budget and
        ``stop_on_failure`` keep deterministic cut points: a chunk either
        runs entirely or not at all, and verdicts are recorded in index
        order up to the first failure — the same prefix a serial
        stop-on-failure run reports.  Shrinking and corpus writes happen
        in the parent, serially, on regenerated cases.
        """
        from repro.parallel.pool import WorkerPool, default_jobs
        from repro.parallel.tasks import Task

        jobs = self.jobs if self.jobs > 0 else default_jobs()
        profile_name = self._profile_name()
        payload = {
            "family": family.name,
            "seed": self.seed,
            "profile": profile_name,
            "suite": {
                "exact_max_nodes": self.suite.exact_max_nodes,
                "approx1_max_nodes": self.suite.approx1_max_nodes,
                "approx2_max_checks": self.suite.approx2_max_checks,
            },
        }
        chunk_size = max(jobs * 2, 4)
        with WorkerPool(jobs) as pool:
            for lo in range(0, self.budget, chunk_size):
                if self._out_of_time(start):
                    report.stopped = "time"
                    return
                chunk = [
                    Task(
                        task_id=f"case-{index}",
                        kind="fuzz_case",
                        payload={**payload, "index": index},
                        circuit_key=f"fuzz:{self.seed}:{profile_name}",
                        cost=1.0,
                    )
                    for index in range(lo, min(lo + chunk_size, self.budget))
                ]
                with span("fuzz.chunk", first=lo, size=len(chunk)):
                    batch = pool.run(chunk)
                for outcome in batch.outcomes:
                    if self._record(report, self._pooled_verdict(family, outcome)):
                        return

    def _pooled_verdict(self, family, outcome) -> CaseVerdict:
        """A pooled case's verdict; failures re-run the serial tail."""
        value = outcome.value
        if not outcome.ok or value is None:
            # the pool already retried worker faults; a residual error is
            # recorded as a failed verdict, never raised
            return CaseVerdict(
                index=int(outcome.task_id.rsplit("-", 1)[1]),
                case_id=outcome.task_id,
                family="unknown",
                num_inputs=0,
                num_gates=0,
                ok=False,
                failed_checks=["pool-error"],
                elapsed=outcome.elapsed,
                metrics=outcome.metrics,
            )
        verdict = CaseVerdict(
            index=value.index,
            case_id=value.case_id,
            family=value.family,
            num_inputs=value.num_inputs,
            num_gates=value.num_gates,
            ok=value.ok,
            failed_checks=list(value.failed_checks),
            elapsed=value.elapsed,
            metrics=dict(value.metrics),
        )
        if not verdict.ok:
            # regenerate the deterministic case in the parent for the
            # serial shrink/save tail (identical to what the serial loop
            # would do)
            case = family.generate(self.seed, self.profile, value.index)
            failures = [CheckFailure(check, detail) for check, detail in value.failures]
            self._shrink_and_save(family, case, failures, verdict)
        return verdict

    def _shrink_and_save(
        self, family, case, failures: list[CheckFailure], verdict: CaseVerdict
    ) -> None:
        """The serial failure tail: delta-debug and persist one repro."""
        shrunk = case
        if self.shrink:
            predicate = failure_predicate(
                self.suite, set(verdict.failed_checks), family.differential
            )
            shrunk = family.shrink(case, predicate)
            verdict.shrunk_gates = family.size(shrunk)
        if self.corpus_dir is not None:
            # re-run on the shrunk case so the recorded failures describe
            # the committed netlist, not its ancestor
            final = family.differential(shrunk, self.suite)
            verdict.repro = family.save(
                self.corpus_dir, shrunk, final.failures or failures, case
            )


__all__ = ["FAMILIES", "CaseVerdict", "CircuitFamily", "FuzzReport", "FuzzRunner"]
