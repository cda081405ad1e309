#!/usr/bin/env python
"""Delay bounds: point intervals, bounds, and the lo-corner climb.

Walks the interval-delay story (docs/DELAY_MODELS.md) on the paper's
Figure 4 circuit and a carry-skip adder:

1. **a point interval is the scalar delay** — a spec whose bounds are
   all ``[d, d]`` reads back as the scalar model, so every engine gives
   the scalar row,
2. **conservative bounds** — widening the intervals yields ``[lo, hi]``
   required-time bounds per input that bracket the scalar answer
   (Figure 3 at both delay corners in one pass),
3. **the widened report** — a genuinely widened approx2 run stamps an
   ``interval`` block onto the report/row: the bounds plus the
   lo-corner lattice climb (``best_upper``), the best requirement any
   delay assignment in the box supports,
4. **the spec round-trip** — the JSON form the CLI's ``--delay-spec``
   reads, with its ``"model": "interval"`` marker.

Run:  python examples/interval_timing.py
"""

import json

from repro.cache.results import CachedRequiredResult
from repro.circuits import carry_skip_adder, figure4
from repro.core.required_time import (
    analyze_required_times,
    topological_input_required_times,
)
from repro.timing import DelayModel, required_time_bounds, unit_delay


def canonical_row(net, method, delays, **options):
    """One engine run reduced to its canonical (cacheable) row."""
    baseline = topological_input_required_times(net, delays, 2.0)
    report = analyze_required_times(
        net, method, delays=delays, output_required=2.0, **options
    )
    return CachedRequiredResult.from_report(report, baseline).row()


def main() -> None:
    net = figure4()
    scalar = unit_delay()
    point = DelayModel.from_spec(
        {"model": "interval", "default": [[1.0, 1.0], [1.0, 1.0]]}
    )

    # 1. a point interval is the scalar model, so every row is the scalar row
    print("== point intervals (Figure 4) ==")
    assert point.is_point() and point.to_spec() == scalar.to_spec()
    for method in ("topological", "exact", "approx1", "approx2"):
        a = json.dumps(canonical_row(net, method, scalar), sort_keys=True)
        b = json.dumps(canonical_row(net, method, point), sort_keys=True)
        assert a == b, f"{method}: point interval diverged from scalar"
        print(f"  {method:<12} scalar row == point-interval row")

    # 2. conservative bounds under widening: [lo, hi] brackets scalar
    widened = scalar.widened(0.5)
    scalar_req = topological_input_required_times(net, scalar, 2.0)
    bounds = required_time_bounds(net, widened, 2.0)
    print("\n== widened bounds (every gate delay in [0.5, 1.5]) ==")
    for pi in net.inputs:
        lo, hi = bounds[pi]
        assert lo <= scalar_req[pi] <= hi
        print(f"  {pi}: required in [{lo}, {hi}]  (scalar {scalar_req[pi]})")

    # 3. the widened report: bounds + the approx2 lo-corner climb
    adder = carry_skip_adder(2, 2)
    wide = unit_delay().widened(0.5)
    report = analyze_required_times(
        adder, "approx2", delays=wide, output_required=0.0, engine="sat",
    )
    stamp = report.stats["interval"]
    print(f"\n== widened approx2 on {adder.name} ==")
    print(f"  hi-corner nontrivial: {report.nontrivial}")
    print(f"  lo-corner (best_upper) nontrivial: "
          f"{stamp['best_upper']['nontrivial']}")
    sample = sorted(stamp["bounds"])[:4]
    for pi in sample:
        print(f"  {pi}: bounds {stamp['bounds'][pi]}")

    # 4. the JSON spec round-trip the CLI's --delay-spec reads
    spec = wide.to_spec()
    assert spec["model"] == "interval"
    assert DelayModel.from_spec(spec).to_spec() == spec
    print(f"\n== spec round-trip ==\n  {json.dumps(spec)}")


if __name__ == "__main__":
    main()
