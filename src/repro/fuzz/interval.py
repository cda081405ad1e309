"""The ``interval`` fuzz family: interval-delay differential oracles.

Where the ``circuit`` family cross-checks the four engines against each
other on one scalar-delay problem, this family checks the interval delay
model (:class:`~repro.timing.delay.IntervalDelayModel`,
docs/DELAY_MODELS.md) against its two defining contracts:

* **point-interval degeneracy** (``interval-point-parity[<method>]``) —
  a point interval ``[d, d]`` built from the case's scalar delays must
  produce a canonical result row *byte-identical* to the scalar model's,
  per engine.  This is the central correctness oracle of the model: the
  χ machinery consumes interval delays only through their hi projection,
  so any divergence is a hole in that projection;
* **widening monotonicity** (``interval-monotonicity``) — widening every
  delay interval can only widen the topological ``[lo, hi]``
  required-time bounds (lo never rises, hi never falls).  Checked across
  a seeded chain of strictly growing widths;
* **bounds soundness** (``interval-soundness``) — the scalar required
  time always lies inside the interval bounds of any widening of its
  model (the ``widen = 0`` member of the box is the scalar assignment).

Any crash during the above is an ``interval-error`` finding.

Determinism contract (same as :mod:`repro.fuzz.gen`): the widths are a
pure function of ``(seed, profile, index)`` — drawn from one
``random.Random`` seeded with ``"{seed}:{index}:interval"`` — so a
verdict regenerates from its recorded seed alone.

Findings shrink the base circuit with the circuit shrinker and keep the
width chain fixed; a saved entry carries an ``"interval"`` metadata
block (the width seed and chain) so its replay re-runs these oracles.
"""

from __future__ import annotations

import hashlib
import json
import random
import time as _time
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.fuzz.checks import CaseResult, CheckFailure, EngineSuite
from repro.fuzz.corpus import save_repro
from repro.fuzz.gen import FuzzCase, FuzzProfile, generate_case
from repro.fuzz.shrink import shrink_case
from repro.obs.metrics import REGISTRY
from repro.timing.delay import IntervalDelayModel, unit_delay

#: Engine methods the point-parity oracle covers, with the same
#: deterministic budgets the circuit family runs under.
def _parity_methods(suite: EngineSuite) -> list[tuple[str, dict]]:
    """(method, options) pairs for the per-engine degeneracy check."""
    return [
        ("topological", {}),
        ("exact", {"max_nodes": suite.exact_max_nodes}),
        ("approx1", {"max_nodes": suite.approx1_max_nodes}),
        ("approx2", {"engine": "sat", "max_checks": suite.approx2_max_checks}),
    ]


@dataclass
class IntervalCase:
    """One interval-delay problem: a base case plus a widening chain."""

    case_id: str
    case: FuzzCase
    #: strictly increasing interval half-widths; index 0 is always 0.0
    #: (the point model the parity oracle compares against the scalar run)
    widths: tuple[float, ...]
    #: the exact rng seed string that regenerates the width draws
    seed: str
    profile: str
    family: ClassVar[str] = "interval"

    @property
    def num_inputs(self) -> int:
        return self.case.num_inputs

    @property
    def num_gates(self) -> int:
        return self.case.num_gates


def generate_interval_case(
    seed: int | str,
    profile: FuzzProfile | str = "default",
    index: int = 0,
) -> IntervalCase:
    """The ``index``-th interval case of the run seeded by ``seed``.

    Pure in its arguments (module-docstring contract): the base circuit
    is ``generate_case(seed, profile, index)`` and the widening chain is
    drawn from a rng seeded with ``"{seed}:{index}:interval"``.
    """
    case = generate_case(seed, profile, index)
    interval_seed = f"{seed}:{index}:interval"
    rng = random.Random(interval_seed)
    first = rng.choice((0.25, 0.5, 1.0))
    second = first + rng.choice((0.5, 1.0, 2.0))
    digest = hashlib.sha1(interval_seed.encode()).hexdigest()[:8]
    profile_name = profile.name if isinstance(profile, FuzzProfile) else profile
    return IntervalCase(
        case_id=f"{profile_name}-{index:04d}-interval-{digest}",
        case=case,
        widths=(0.0, first, second),
        seed=interval_seed,
        profile=profile_name,
    )


def _canonical_row(network, method, delays, output_required, options) -> dict:
    """One engine run reduced to its canonical time-free row."""
    from repro.cache.results import CachedRequiredResult
    from repro.core.required_time import (
        analyze_required_times,
        topological_input_required_times,
    )

    baseline = topological_input_required_times(network, delays, output_required)
    report = analyze_required_times(
        network, method, delays=delays, output_required=output_required, **options
    )
    return CachedRequiredResult.from_report(report, baseline).row()


def run_interval_differential(
    icase: IntervalCase,
    suite: EngineSuite | None = None,
) -> CaseResult:
    """All interval oracles on one case, reported as a
    :class:`~repro.fuzz.checks.CaseResult` over the base case."""
    from repro.core.required_time import topological_input_required_times
    from repro.timing.topological import required_time_bounds

    suite = suite or EngineSuite()
    result = CaseResult(case=icase.case)
    start = _time.monotonic()
    before = REGISTRY.snapshot()
    case = icase.case
    scalar = case.delays if case.delays is not None else unit_delay()
    point = IntervalDelayModel.from_scalar(scalar)
    required = case.output_required

    # --- point-interval ≡ scalar, per engine ---------------------------
    for method, options in _parity_methods(suite):
        check = f"interval-point-parity[{method}]"
        result.checks_run.append(check)
        try:
            scalar_row = _canonical_row(
                case.network, method, scalar, required, options
            )
            point_row = _canonical_row(
                case.network, method, point, required,
                {**options, "delay_model": "interval"},
            )
            a = json.dumps(scalar_row, sort_keys=True)
            b = json.dumps(point_row, sort_keys=True)
            if a != b:
                result.failures.append(
                    CheckFailure(
                        check,
                        f"point-interval row diverged from scalar: "
                        f"scalar={a} interval={b}",
                    )
                )
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            result.failures.append(
                CheckFailure(
                    "interval-error", f"{method}: {type(exc).__name__}: {exc}"
                )
            )

    # --- widening monotonicity + bounds soundness ----------------------
    result.checks_run.append("interval-monotonicity")
    result.checks_run.append("interval-soundness")
    try:
        scalar_req = topological_input_required_times(
            case.network, scalar, required
        )
        prev = None
        for width in icase.widths:
            model = IntervalDelayModel.from_scalar(scalar, widen=width)
            bounds = required_time_bounds(case.network, model, required)
            for pi in case.network.inputs:
                lo, hi = bounds[pi]
                if not (lo <= scalar_req[pi] <= hi):
                    result.failures.append(
                        CheckFailure(
                            "interval-soundness",
                            f"widen={width}: scalar requirement "
                            f"{scalar_req[pi]} of {pi} outside "
                            f"[{lo}, {hi}]",
                        )
                    )
                if prev is not None:
                    plo, phi = prev[1][pi]
                    if lo > plo or hi < phi:
                        result.failures.append(
                            CheckFailure(
                                "interval-monotonicity",
                                f"widen {prev[0]} -> {width} tightened "
                                f"{pi}: [{plo}, {phi}] -> [{lo}, {hi}]",
                            )
                        )
            prev = (width, bounds)
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        result.failures.append(
            CheckFailure(
                "interval-error", f"bounds: {type(exc).__name__}: {exc}"
            )
        )

    result.elapsed = _time.monotonic() - start
    result.metrics = REGISTRY.snapshot().diff(before)
    return result


class IntervalFamily:
    """The ``interval`` entry of the fuzz family table
    (:data:`repro.fuzz.runner.FAMILIES`)."""

    name = "interval"
    generate = staticmethod(generate_interval_case)
    differential = staticmethod(run_interval_differential)

    def shrink(self, icase: IntervalCase, predicate) -> IntervalCase:
        """Shrink the base circuit; the width chain stays as generated."""
        shrunk = shrink_case(
            icase.case,
            lambda case: predicate(replace(icase, case=case)),
            max_evals=300,
        )
        return replace(icase, case=shrunk)

    def size(self, icase: IntervalCase) -> int:
        return icase.num_gates

    def save(self, directory, icase, failures, original) -> str:
        return save_repro(
            directory,
            icase.case,
            failures,
            original=original,
            metadata={
                "case_id": icase.case_id,
                "family": self.name,
                "interval": {"seed": icase.seed, "widths": list(icase.widths)},
            },
        )

    def replay(self, entry, suite) -> CaseResult:
        block = entry.metadata["interval"]
        icase = IntervalCase(
            case_id=entry.case.case_id,
            case=entry.case,
            widths=tuple(block["widths"]),
            seed=block["seed"],
            profile=entry.case.profile,
        )
        return run_interval_differential(icase, suite)


#: Every check name the interval differential can emit.
INTERVAL_CHECKS = (
    "interval-point-parity[topological]",
    "interval-point-parity[exact]",
    "interval-point-parity[approx1]",
    "interval-point-parity[approx2]",
    "interval-monotonicity",
    "interval-soundness",
    "interval-error",
)

__all__ = [
    "INTERVAL_CHECKS",
    "IntervalCase",
    "IntervalFamily",
    "generate_interval_case",
    "run_interval_differential",
]
