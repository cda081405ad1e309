"""Differential fuzzing of the required-time engines.

The paper's central claims are *ordering theorems* — the exact relation
is provably no tighter than approximation 1, which is no tighter than
approximation 2, which is no tighter than the topological baseline — and
the repository carries four independent engines plus two independent
semantic oracles (the ternary XBD0 simulator and the SAT validator) that
must all agree.  This package turns that redundancy into an adversarial
test harness:

* :mod:`repro.fuzz.gen` — a seeded, fully deterministic random-netlist
  generator with configurable gate mix, fanin, reconvergence density,
  delay models, and required-time profiles;
* :mod:`repro.fuzz.checks` — the differential runner: per circuit, run
  every engine, assert the looseness ordering, cross-check against the
  ternary oracle on small instances, and compare BDD vs SAT validation;
* :mod:`repro.fuzz.shrink` — a delta-debugging shrinker that minimizes a
  failing netlist while preserving the failure;
* :mod:`repro.fuzz.corpus` — the persistent repro format (minimal BLIF +
  JSON metadata) and the replayer that turns every past failure into a
  permanent regression test;
* :mod:`repro.fuzz.runner` — the budgeted generate → check → shrink →
  save loop behind ``repro fuzz`` and the nightly CI job, and the family
  table (:data:`~repro.fuzz.runner.FAMILIES`) it runs: ``circuit``,
  ``eco``, and ``interval``;
* :mod:`repro.fuzz.eco` — the ``eco`` family: seeded *edit traces*
  replayed through an incremental :class:`~repro.eco.NetworkSession`
  against a full-recompute parity oracle after every edit;
* :mod:`repro.fuzz.interval` — the ``interval`` family: interval-delay
  cases checked for point-interval/scalar canonical-row parity per
  engine and for widening monotonicity of the ``[lo, hi]``
  required-time bounds (docs/DELAY_MODELS.md).
"""

from repro.fuzz.checks import CaseResult, CheckFailure, EngineSuite, run_differential
from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry, save_repro
from repro.fuzz.eco import (
    ECO_CHECKS,
    EcoTrace,
    edits_replay_cleanly,
    generate_eco_trace,
    run_eco_differential,
    shrink_eco_trace,
)
from repro.fuzz.gen import PROFILES, FuzzCase, FuzzProfile, generate_case, iter_cases
from repro.fuzz.interval import (
    INTERVAL_CHECKS,
    IntervalCase,
    generate_interval_case,
    run_interval_differential,
)
from repro.fuzz.runner import FAMILIES, FuzzReport, FuzzRunner
from repro.fuzz.shrink import case_candidates, failure_predicate, shrink_case

__all__ = [
    "CaseResult",
    "CheckFailure",
    "CorpusEntry",
    "ECO_CHECKS",
    "EcoTrace",
    "EngineSuite",
    "FAMILIES",
    "FuzzCase",
    "FuzzProfile",
    "FuzzReport",
    "FuzzRunner",
    "INTERVAL_CHECKS",
    "IntervalCase",
    "PROFILES",
    "case_candidates",
    "edits_replay_cleanly",
    "failure_predicate",
    "generate_case",
    "generate_eco_trace",
    "generate_interval_case",
    "iter_cases",
    "load_corpus",
    "replay_entry",
    "run_differential",
    "run_eco_differential",
    "run_interval_differential",
    "save_repro",
    "shrink_case",
    "shrink_eco_trace",
]
