"""Shared measurement pieces: percentiles, the round loop, and the traced run.

The traced run measures layers from the outside.  ``LayerClock`` times
the benchmark's own calls into each layer's public functions, and
``instrumented`` wraps the two layer entry points the benchmark does not
call itself (the SAT solver's ``Solver.solve`` and the fuzz runner's
``generate_case``).  Every timed call also opens a ``repro.obs`` span,
so the program's own ``topo.*``/``chi.*``/phase spans nest under the
benchmark's and their self times stay comparable.  Counters come from
``REGISTRY.snapshot()`` diffs, restricted to monotone counters: gauges
such as ``bdd.nodes_live`` give negative deltas.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import REGISTRY, span, start_trace, stop_trace

#: span-name prefixes reported as ``span.<prefix>_s`` (summed self time)
SPAN_LAYERS = ("topo", "chi", "exact", "approx1", "approx2")

#: the monotone registry counters the traced run diffs
COUNTERS = (
    "bdd.ops",
    "bdd.cache_hits",
    "bdd.cache_evictions",
    "bdd.nodes_created",
    "bdd.gc_runs",
    "bdd.gc_reclaimed",
    "bdd.tracked",
    "sat.decisions",
    "sat.propagations",
    "sat.conflicts",
    "approx2.checks",
    "fuzz.cases",
    "fuzz.failures",
)


class SetupError(RuntimeError):
    """A workload cannot reach its measured state."""


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 1]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, round(p * (len(ordered) - 1))))]


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def geomean(samples) -> float:
    """Geometric mean of positive samples; 0.0 for no samples."""
    return statistics.geometric_mean(samples) if samples else 0.0


class LayerClock:
    """Seconds spent in calls into each layer, timed at the call site."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def timed(self, layer: str):
        with span(f"perfbench.{layer}"):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[layer] += time.perf_counter() - t0


@contextmanager
def instrumented(clock: LayerClock):
    """Time ``Solver.solve`` and the fuzz runner's ``generate_case``.

    Installed only around traced rounds: the wrappers cost a span per
    call.  The originals are restored on exit, whatever happens.
    """
    import repro.fuzz.runner as fuzz_runner
    from repro.sat.solver import Solver

    solve, generate = Solver.solve, fuzz_runner.generate_case

    def timed_solve(self, *args, **kwargs):
        with clock.timed("sat.solve"):
            return solve(self, *args, **kwargs)

    def timed_generate(*args, **kwargs):
        with clock.timed("fuzz.generate_case"):
            return generate(*args, **kwargs)

    Solver.solve = timed_solve
    fuzz_runner.generate_case = timed_generate
    try:
        yield
    finally:
        Solver.solve = solve
        fuzz_runner.generate_case = generate


class TracedRound:
    """One round under ``start_trace`` with a registry diff around it."""

    def __init__(self):
        self.clock = LayerClock()
        self.counters: dict[str, float] = {}
        self.span_self: dict[str, float] = {}
        self.trace = None

    @contextmanager
    def running(self):
        before = REGISTRY.snapshot()
        start_trace(capture_metrics=False)
        try:
            with instrumented(self.clock):
                yield self.clock
        finally:
            self.trace = stop_trace()
            delta = REGISTRY.snapshot().diff(before)
            self.counters = {name: delta.get(name, 0.0) for name in COUNTERS}
            self.span_self = span_self_times(self.trace)


def span_self_times(trace) -> dict[str, float]:
    """Self seconds per reported span group (``SPAN_LAYERS`` and fuzz.case)."""
    out: dict[str, float] = defaultdict(float)
    for sp, _depth in trace.walk():
        prefix = sp.name.split(".", 1)[0]
        if prefix in SPAN_LAYERS:
            out[prefix] += sp.self_time()
        elif sp.name == "fuzz.case":
            out["fuzz.case"] += sp.self_time()
    return dict(out)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: TracedRound, peak_live_nodes: float = 0.0,
                  aborted_rows: float = 0.0) -> dict[str, float]:
    """The per-layer metrics an in-process round can supply."""
    sec = traced.clock.seconds
    c = traced.counters
    bdd_time = sec["core.exact"] + sec["core.approx1"]
    return {
        "network.parse_s": sec["network.parse"],
        "timing.topo_s": sec["timing.topo"],
        "span.topo_s": traced.span_self.get("topo", 0.0),
        "span.chi_s": traced.span_self.get("chi", 0.0),
        "core.exact_s": sec["core.exact"],
        "core.approx1_s": sec["core.approx1"],
        "core.approx2_s": sec["core.approx2"],
        "span.exact_s": traced.span_self.get("exact", 0.0),
        "span.approx1_s": traced.span_self.get("approx1", 0.0),
        "span.approx2_s": traced.span_self.get("approx2", 0.0),
        "core.aborted_rows": aborted_rows,
        "bdd.ops": c["bdd.ops"],
        "bdd.nodes_created": c["bdd.nodes_created"],
        "bdd.peak_live_nodes": peak_live_nodes,
        "bdd.gc_runs": c["bdd.gc_runs"],
        "bdd.gc_reclaimed": c["bdd.gc_reclaimed"],
        "bdd.ops_per_s": ratio(c["bdd.ops"], bdd_time),
        "bdd.cache_hit_ratio": ratio(c["bdd.cache_hits"], c["bdd.ops"]),
        "bdd.cache_evictions": c["bdd.cache_evictions"],
        "bdd.managers": c["bdd.tracked"],
        "sat.solve_s": sec["sat.solve"],
        "sat.decisions": c["sat.decisions"],
        "sat.propagations": c["sat.propagations"],
        "sat.conflicts": c["sat.conflicts"],
        "approx2.checks": c["approx2.checks"],
        "sat.propagations_per_s": ratio(c["sat.propagations"], sec["sat.solve"]),
        "fuzz.gen_s": sec["fuzz.generate_case"],
        "fuzz.case_s": traced.span_self.get("fuzz.case", 0.0),
        "fuzz.cases": c["fuzz.cases"],
        "fuzz.failures": c["fuzz.failures"],
    }


def run_rounds(run_round, seconds: float, trace: bool):
    """Drive a round-based workload; returns ``(rounds, traced_round)``.

    Untraced: rounds repeat while another one is expected to finish
    within ``seconds`` (at least one).  Traced: exactly one untraced and
    one traced round, so the traced counts cover a fixed amount of work
    and repeat exactly across runs with the same seed.  ``run_round``
    takes a :class:`LayerClock` and returns one round's result.
    """
    rounds = []
    if trace:
        rounds.append(_timed(run_round, LayerClock()))
        traced = TracedRound()
        with traced.running() as clock:
            rounds.append(_timed(run_round, clock))
        return rounds, traced
    start = time.perf_counter()
    while True:
        rounds.append(_timed(run_round, LayerClock()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds, None


def _timed(run_round, clock):
    t0 = time.perf_counter()
    result = run_round(clock)
    return time.perf_counter() - t0, result
