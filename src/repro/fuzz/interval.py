"""The ``interval`` fuzz family: delay-bound differential oracles.

Where the ``circuit`` family cross-checks the four engines against each
other on one delay model, this family checks the delay model's
``[lo, hi]`` bounds (docs/DELAY_MODELS.md) against their defining
contracts:

* **point-spec round trip** (``interval-point-spec``) — the case's
  delay model, written in the scalar spec layout and in the interval
  layout with ``lo == hi``, must read back to the same ``to_spec()`` and
  the same cache key.  A point interval *is* the scalar delay, so no
  engine needs to run to check it;
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
import random
import time as _time
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.fuzz.checks import CaseResult, CheckFailure, EngineSuite
from repro.fuzz.corpus import save_repro
from repro.fuzz.gen import FuzzCase, FuzzProfile, generate_case
from repro.fuzz.shrink import shrink_case
from repro.obs.metrics import REGISTRY
from repro.timing.delay import DelayModel, unit_delay


def interval_layout(spec: dict) -> dict:
    """A scalar-layout delay spec rewritten in the interval layout, every
    ``[rise, fall]`` pair as ``[[rise, rise], [fall, fall]]``."""

    def point(pair):
        rise, fall = pair
        return [[rise, rise], [fall, fall]]

    return {
        "model": "interval",
        "default": point(spec["default"]),
        "overrides": {name: point(p) for name, p in spec["overrides"].items()},
    }


@dataclass
class IntervalCase:
    """One interval-delay problem: a base case plus a widening chain."""

    case_id: str
    case: FuzzCase
    #: strictly increasing interval half-widths; index 0 is always 0.0
    #: (the point model itself)
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


def run_interval_differential(
    icase: IntervalCase,
    suite: EngineSuite | None = None,
) -> CaseResult:
    """All interval oracles on one case, reported as a
    :class:`~repro.fuzz.checks.CaseResult` over the base case.  ``suite``
    is accepted for the family protocol; no check runs an engine."""
    from repro.cache.keys import required_key
    from repro.core.required_time import topological_input_required_times
    from repro.timing.topological import required_time_bounds

    result = CaseResult(case=icase.case)
    start = _time.monotonic()
    before = REGISTRY.snapshot()
    case = icase.case
    scalar = case.delays if case.delays is not None else unit_delay()
    required = case.output_required

    # --- a point interval reads back as the scalar model ----------------
    check = "interval-point-spec"
    result.checks_run.append(check)
    try:
        spec = scalar.to_spec()
        want = required_key(case.network, "exact", scalar, required).digest
        for layout in (spec, interval_layout(spec)):
            model = DelayModel.from_spec(layout)
            got = required_key(case.network, "exact", model, required).digest
            if model.to_spec() != spec or got != want:
                result.failures.append(
                    CheckFailure(
                        check,
                        f"spec {layout} read back as {model.to_spec()} "
                        f"(key {got[:12]}, scalar key {want[:12]})",
                    )
                )
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        result.failures.append(
            CheckFailure("interval-error", f"spec: {type(exc).__name__}: {exc}")
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
            model = scalar.widened(width)
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
    "interval-point-spec",
    "interval-monotonicity",
    "interval-soundness",
    "interval-error",
)

__all__ = [
    "INTERVAL_CHECKS",
    "IntervalCase",
    "IntervalFamily",
    "generate_interval_case",
    "interval_layout",
    "run_interval_differential",
]
