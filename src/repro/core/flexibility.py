"""Section 5: timing flexibility of subcircuits.

Given a network N with a subcircuit boundary (inputs U, outputs V), the
timing specification handed to a resynthesis tool is

* **arrival flexibility at U** (Section 5.1) — computed on N_FI, the
  transitive fanin of U: for each vector at U, the set of (maximal)
  arrival-time tuples the environment can present, including the (∞,…,∞)
  rows for unreachable vectors (satisfiability don't cares);
* **required flexibility at V** (Section 5.2) — computed on N_FO, N with V
  relabeled as primary inputs, with the Section 4 machinery: one
  :class:`~repro.core.exact.ExactAnalysis` on N_FO whose original primary
  inputs keep their known arrival times (no leaf variables are introduced
  for them);
* optionally the **coupled analysis** of Section 5.3 when the subcircuit's
  function is preserved: arrival and required times indexed by the full
  primary-input vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.bdd import BddManager, BddNode
from repro.core.exact import ExactAnalysis, ExactRelation
from repro.core.required_time import INF, RequiredTimeProfile
from repro.errors import ResourceLimitError, TimingError
from repro.network.network import Network
from repro.network.transform import fanin_network, fanout_network
from repro.network.verify import global_functions
from repro.timing.chi import ChiEngine, ChiUnrolling, candidate_times
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import arrival_map


@dataclass
class ArrivalFlexibility:
    """Section 5.1 result: arrival-time behaviors at the subcircuit inputs.

    ``table[u_vector]`` is the list of maximal arrival tuples (one float
    per subcircuit input, in ``boundary`` order) that the environment can
    exhibit while driving that vector; ``[(inf, …, inf)]`` marks vectors
    the environment never produces (satisfiability don't cares).
    """

    boundary: list[str]
    table: dict[tuple[int, ...], list[tuple[float, ...]]]

    def rows(self) -> list[tuple[tuple[int, ...], list[tuple[float, ...]]]]:
        return sorted(self.table.items())

    def is_dont_care(self, u_vector: tuple[int, ...]) -> bool:
        entry = self.table[u_vector]
        return len(entry) == 1 and all(math.isinf(t) for t in entry[0])


def _first_stable_classes(
    network: Network,
    boundary: list[str],
    delays: DelayModel,
    input_arrivals: Mapping[str, object] | None,
) -> tuple[Network, BddManager, dict[str, list[tuple[float, BddNode]]]]:
    """The Section 5.1 partition on N_FI, the transitive fanin of
    ``boundary``: per boundary signal u, the non-empty classes
    S_k = χ̃_u^{t_k} ∧ ¬χ̃_u^{t_{k-1}} of input vectors that first
    stabilize u at t_k, as ``(t_k, S_k)`` pairs in time order.

    Returns ``(nfi, manager, classes)``.
    """
    known = arrival_map(network, input_arrivals)
    nfi = fanin_network(network, boundary)
    arrivals = {pi: known[pi] for pi in nfi.inputs}
    engine = ChiEngine(ChiUnrolling(nfi, delays), arrivals)
    m = engine.manager
    cands = candidate_times(nfi, delays, arrivals)
    classes: dict[str, list[tuple[float, BddNode]]] = {}
    for u in boundary:
        found: list[tuple[float, BddNode]] = []
        prev = m.false
        for t in cands[u]:
            cur = engine.stable(u, t)
            cls = cur & ~prev
            if not cls.is_false:
                found.append((t, cls))
            prev = cur
        if not prev.is_true:
            raise TimingError(
                f"signal {u!r} not stable at its topological delay"
            )
        classes[u] = found
    return nfi, m, classes


def arrival_flexibility(
    network: Network,
    boundary: Sequence[str],
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
    max_boundary: int = 12,
) -> ArrivalFlexibility:
    """Compute the Section 5.1 arrival-time table at a subcircuit boundary.

    Exact over the primary-input space via χ̃ functions on N_FI; the final
    fold onto boundary vectors drops strictly-earlier (dominated) tuples,
    per the paper's footnote 11 (synthesis must assume the worst case).
    """
    boundary = list(boundary)
    if len(boundary) > max_boundary:
        raise ResourceLimitError(
            f"boundary of {len(boundary)} signals exceeds max_boundary="
            f"{max_boundary} (the fold enumerates 2^|U| vectors)"
        )
    nfi, m, classes = _first_stable_classes(
        network, boundary, delays or unit_delay(), input_arrivals
    )
    funcs = global_functions(nfi, m)

    table: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    for bits in itertools.product((0, 1), repeat=len(boundary)):
        preimage = m.true
        for u, b in zip(boundary, bits):
            preimage = preimage & (funcs[u] if b else ~funcs[u])
        if preimage.is_false:
            table[bits] = [tuple(INF for _ in boundary)]
            continue
        tuples: set[tuple[float, ...]] = set()
        _collect_tuples(m, preimage, boundary, classes, 0, [], tuples)
        table[bits] = _maximal_tuples(tuples)
    return ArrivalFlexibility(boundary=boundary, table=table)


def _collect_tuples(m, region, boundary, partitions, idx, prefix, out) -> None:
    """Recursively intersect partition classes to enumerate arrival tuples."""
    if region.is_false:
        return
    if idx == len(boundary):
        out.add(tuple(prefix))
        return
    u = boundary[idx]
    for t, cls in partitions[u]:
        _collect_tuples(
            m, region & cls, boundary, partitions, idx + 1, prefix + [t], out
        )


def _maximal_tuples(tuples: set[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Drop tuples strictly dominated by (i.e. everywhere ≤) another —
    footnote 11: synthesis is performed under the worst case."""
    result = []
    for t in tuples:
        if not any(
            o != t and all(a <= b for a, b in zip(t, o)) for o in tuples
        ):
            result.append(t)
    return sorted(result)


# ----------------------------------------------------------------------
# Section 5.2: required times at subcircuit outputs
# ----------------------------------------------------------------------


@dataclass
class RequiredFlexibility:
    """Required-time relation at subcircuit outputs V.

    ``per_vector[v_vector]`` is the set of latest required-time profiles
    over the V signals valid for *every* assignment of the remaining
    (known-arrival) primary inputs — the fold of the exact relation G =
    ∀X.F onto the boundary.  An **empty** profile set for a vector means
    the output requirement is infeasible for that boundary value no matter
    how early V stabilizes (e.g. the required time is below the delay of
    logic fed by the known-arrival inputs alone).
    """

    boundary: list[str]
    per_vector: dict[tuple[int, ...], set[RequiredTimeProfile]]

    def rows(self):
        return sorted(self.per_vector.items())


def _fanout_relation(
    network: Network,
    boundary: list[str],
    delays: DelayModel,
    output_required: Mapping[str, float] | float,
    input_arrivals: Mapping[str, object] | None,
    max_nodes: int | None = None,
) -> ExactRelation:
    """The exact Section 4.1 relation on N_FO: leaf χ variables only at
    the boundary, every other input of N_FO at its known arrival time.

    A boundary signal that feeds only other boundary signals is not an
    input of N_FO; nothing outside the subcircuit observes it, so the
    relation has no variable for it.
    """
    arrivals = arrival_map(network, input_arrivals)
    nfo = fanout_network(network, boundary)
    cut = set(boundary)
    return ExactAnalysis(
        nfo,
        delays,
        output_required,
        max_nodes=max_nodes,
        max_leaves=100_000,
        known_arrivals={pi: arrivals[pi] for pi in nfo.inputs if pi not in cut},
    ).relation()


def required_flexibility(
    network: Network,
    boundary: Sequence[str],
    delays: DelayModel | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    input_arrivals: Mapping[str, float] | None = None,
    max_boundary: int = 10,
    max_nodes: int | None = None,
) -> RequiredFlexibility:
    """Compute the Section 5.2 required-time relation at boundary V.

    Builds N_FO (V relabeled as primary inputs), runs the exact Section 4.1
    construction with leaf χ variables only at V (the original primary
    inputs keep their known arrival times), universally quantifies the
    known inputs, and extracts the latest required times per V vector.  A
    boundary signal absent from N_FO reads ``INF`` for both values.
    """
    boundary = list(boundary)
    if len(boundary) > max_boundary:
        raise ResourceLimitError(
            f"boundary of {len(boundary)} signals exceeds max_boundary={max_boundary}"
        )
    relation = _fanout_relation(
        network, boundary, delays or unit_delay(), output_required,
        input_arrivals, max_nodes,
    )
    m = relation.manager
    nfo_inputs = relation.network.inputs
    known = [pi for pi in nfo_inputs if pi not in boundary]

    # fold over the known inputs: the requirement must be safe for all X
    folded = m.forall(known, relation.F) if known else relation.F

    per_vector: dict[tuple[int, ...], set[RequiredTimeProfile]] = {}
    for bits in itertools.product((0, 1), repeat=len(boundary)):
        values = dict(zip(boundary, bits))
        restricted = m.restrict(
            folded, {v: b for v, b in values.items() if v in nfo_inputs}
        )
        per_vector[bits] = relation.profiles(restricted, values)
    return RequiredFlexibility(boundary=boundary, per_vector=per_vector)


@dataclass
class CoupledRow:
    """One primary-input minterm of the Section 5.3 coupled analysis."""

    x_vector: tuple[int, ...]
    u_arrivals: tuple[float, ...]
    v_vector: tuple[int, ...]
    required: set[RequiredTimeProfile]


@dataclass
class CoupledFlexibility:
    """Section 5.3: arrival and required times coupled through X.

    When the subcircuit's functionality is preserved by resynthesis, both
    sides of the timing specification can be indexed by the primary-input
    vector: one arrival tuple at U and the latest required-time profiles
    at V per minterm.  This is strictly more accurate than the decoupled
    Section 5.1/5.2 tables.
    """

    inputs: list[str]
    sub_inputs: list[str]
    sub_outputs: list[str]
    rows: list[CoupledRow]

    def row_for(self, x_vector: tuple[int, ...]) -> CoupledRow:
        for row in self.rows:
            if row.x_vector == x_vector:
                return row
        raise TimingError(f"no row for input vector {x_vector}")


def coupled_flexibility(
    network: Network,
    sub_inputs: Sequence[str],
    sub_outputs: Sequence[str],
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    max_inputs: int = 10,
    max_boundary: int = 10,
) -> CoupledFlexibility:
    """The Section 5.3 analysis: per primary-input vector, the arrival
    tuple at the subcircuit inputs and the required-time profiles at its
    outputs.  Exponential in |X| (guarded by ``max_inputs``) — the paper's
    accuracy/cost endpoint."""
    sub_inputs = list(sub_inputs)
    sub_outputs = list(sub_outputs)
    if len(network.inputs) > max_inputs:
        raise ResourceLimitError(
            f"{len(network.inputs)} primary inputs exceed max_inputs={max_inputs}"
        )
    if len(sub_outputs) > max_boundary:
        raise ResourceLimitError(
            f"boundary of {len(sub_outputs)} signals exceeds max_boundary={max_boundary}"
        )
    delays = delays or unit_delay()

    # arrival side: kept in terms of X (no folding onto U vectors)
    nfi, fm, classes = _first_stable_classes(
        network, sub_inputs, delays, input_arrivals
    )
    # required side: the N_FO relation, restricted per X minterm
    relation = _fanout_relation(
        network, sub_outputs, delays, output_required, input_arrivals
    )
    m = relation.manager

    rows: list[CoupledRow] = []
    for bits in itertools.product((0, 1), repeat=len(network.inputs)):
        env = dict(zip(network.inputs, bits))
        values = {k: int(v) for k, v in network.simulate(env).items()}
        fanin_env = {x: env[x] for x in nfi.inputs}
        u_arrivals = tuple(
            next((t for t, cls in classes[u] if fm.evaluate(cls, fanin_env)), INF)
            for u in sub_inputs
        )
        v_values = {v: values[v] for v in sub_outputs}
        # every input of N_FO is a boundary signal or a primary input, so
        # the minterm fixes them all
        restricted = m.restrict(
            relation.F, {x: values[x] for x in relation.network.inputs}
        )
        rows.append(
            CoupledRow(
                x_vector=bits,
                u_arrivals=u_arrivals,
                v_vector=tuple(v_values.values()),
                required=relation.profiles(restricted, v_values),
            )
        )
    return CoupledFlexibility(
        inputs=list(network.inputs),
        sub_inputs=sub_inputs,
        sub_outputs=sub_outputs,
        rows=rows,
    )


# ----------------------------------------------------------------------
# combined facade
# ----------------------------------------------------------------------


@dataclass
class SubcircuitTiming:
    """The full Section 5 timing specification of one subcircuit."""

    sub_inputs: list[str]
    sub_outputs: list[str]
    arrivals: ArrivalFlexibility
    required: RequiredFlexibility


def subcircuit_timing(
    network: Network,
    sub_inputs: Sequence[str],
    sub_outputs: Sequence[str],
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    **limits,
) -> SubcircuitTiming:
    """Arrival flexibility at U and required flexibility at V in one call."""
    return SubcircuitTiming(
        sub_inputs=list(sub_inputs),
        sub_outputs=list(sub_outputs),
        arrivals=arrival_flexibility(
            network,
            sub_inputs,
            delays,
            input_arrivals,
            **{k: v for k, v in limits.items() if k == "max_boundary"},
        ),
        required=required_flexibility(
            network,
            sub_outputs,
            delays,
            output_required,
            input_arrivals,
            **{k: v for k, v in limits.items() if k in ("max_boundary", "max_nodes")},
        ),
    )
