"""Timing analysis: topological (STA) and functional (false-path aware).

* :mod:`~repro.timing.delay` — the delay model.  The paper's analysis is
  under the XBD0 (extended bounded delay-0) model: every gate delay floats
  between 0 and its maximum; the experiments use the unit delay model.
  A rise or fall delay may also be a ``[lo, hi]`` bound; a number is its
  point interval (docs/DELAY_MODELS.md).
* :mod:`~repro.timing.topological` — classical longest-path STA, including
  the exact algorithm of the paper's Figure 3 for backward required-time
  propagation.
* :mod:`~repro.timing.chi` — the χ-function engine of McGeer et al. [9]
  (Section 2.3): characteristic functions of the input vectors that
  stabilize a node to a constant by a given time.  The recursion over the
  primes of each node function is unrolled once and read as BDDs (with a
  leaf callback) or as one incremental SAT instance per (output, required
  time).
* :mod:`~repro.timing.functional` — functional delay analysis built on χ
  functions: stability checks on one reused BDD or SAT engine, each with
  an optional arrival map; true arrival times; false-path detection.
* :mod:`~repro.timing.sequential` — cutting sequential BLIF at latch
  boundaries into the combinational analysis problem (Section 3).
"""

from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import (
    TopologicalTiming,
    arrival_map,
    arrival_times,
    required_map,
    required_time_bounds,
    required_times,
    slacks,
)
from repro.timing.chi import (
    ChiBdd,
    ChiEngine,
    ChiSat,
    ChiUnrolling,
    candidate_times,
    known_arrival_leaf,
)
from repro.timing.functional import (
    FunctionalTiming,
    has_false_paths,
    stable_by,
    true_arrival_times,
)
from repro.timing.sequential import cut_at_latches
from repro.timing.ternary import (
    oracle_stable_by,
    oracle_true_arrival,
    stabilization_times,
    ternary_eval,
)
from repro.timing.report import TimingReport, timing_report
from repro.timing.paths import (
    Path,
    classify_path,
    classify_paths,
    enumerate_paths,
    false_path_report,
    is_statically_sensitizable,
    longest_paths,
    static_sensitization_condition,
)

__all__ = [
    "DelayModel",
    "unit_delay",
    "TopologicalTiming",
    "arrival_map",
    "arrival_times",
    "required_map",
    "required_time_bounds",
    "required_times",
    "slacks",
    "ChiUnrolling",
    "ChiBdd",
    "ChiEngine",
    "ChiSat",
    "known_arrival_leaf",
    "candidate_times",
    "FunctionalTiming",
    "stable_by",
    "true_arrival_times",
    "has_false_paths",
    "cut_at_latches",
    "ternary_eval",
    "stabilization_times",
    "oracle_stable_by",
    "oracle_true_arrival",
    "Path",
    "enumerate_paths",
    "longest_paths",
    "static_sensitization_condition",
    "is_statically_sensitizable",
    "classify_path",
    "classify_paths",
    "false_path_report",
    "TimingReport",
    "timing_report",
]
