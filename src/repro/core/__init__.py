"""The paper's primary contribution: required-time analysis via false-path
detection, and subcircuit timing flexibility.

* :mod:`~repro.core.leaves` — enumeration of the leaf χ variables (one per
  ⟨primary input, value, time⟩ triple needed by the backward recursion) and
  of the candidate required-time lattice R = R_1 × … × R_n.  Each analysis
  builds one :class:`~repro.timing.chi.ChiUnrolling` and reads both this
  inventory and its χ functions from it; only the leaves differ (fresh BDD
  variables for the exact algorithm, α/β parameter products for
  approximate approach 1, selectors for approximate approach 2).
* :mod:`~repro.core.exact` — Section 4.1: the Boolean relation
  F(X, χ_X) = 1, its per-minterm rows, minimal-element extraction (latest
  required times), and compatible-function selection (Boolean unification).
* :mod:`~repro.core.approx1` — Section 4.2: the monotone F(α, β), its
  primes, and their interpretation as value-dependent required times.
* :mod:`~repro.core.approx2` — Section 4.3: the lattice climb driven by
  repeated functional timing analysis (BDD or SAT engine), greedy with
  backtracking enumeration of all maximal safe vectors.
* :mod:`~repro.core.required_time` — shared result types, the topological
  baseline at primary inputs, and the unified analysis facade.
* :mod:`~repro.core.flexibility` — Section 5: arrival-time flexibility at
  subcircuit inputs and required-time flexibility at subcircuit outputs.
"""

from repro.core.leaves import LeafTimes, enumerate_leaf_times
from repro.core.required_time import (
    INF,
    RequiredTimeProfile,
    RequiredTimeReport,
    analyze_required_times,
    topological_input_required_times,
)
from repro.core.exact import ExactAnalysis, ExactRelation
from repro.core.approx1 import Approx1Analysis, Approx1Result
from repro.core.approx2 import Approx2Analysis, Approx2Result, LatticeClimbTrace
from repro.core.trueslack import SlackReport, true_slack, true_slacks
from repro.core.macromodel import TimingMacroModel, compose_arrivals
from repro.core.flexibility import (
    ArrivalFlexibility,
    CoupledFlexibility,
    CoupledRow,
    SubcircuitTiming,
    arrival_flexibility,
    coupled_flexibility,
    required_flexibility,
    subcircuit_timing,
)

__all__ = [
    "LeafTimes",
    "enumerate_leaf_times",
    "INF",
    "RequiredTimeProfile",
    "RequiredTimeReport",
    "analyze_required_times",
    "topological_input_required_times",
    "ExactAnalysis",
    "ExactRelation",
    "Approx1Analysis",
    "Approx1Result",
    "Approx2Analysis",
    "Approx2Result",
    "LatticeClimbTrace",
    "ArrivalFlexibility",
    "CoupledFlexibility",
    "CoupledRow",
    "SubcircuitTiming",
    "arrival_flexibility",
    "coupled_flexibility",
    "required_flexibility",
    "subcircuit_timing",
    "SlackReport",
    "true_slack",
    "true_slacks",
    "TimingMacroModel",
    "compose_arrivals",
]
