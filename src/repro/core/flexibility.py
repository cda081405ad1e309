"""Section 5: timing flexibility of subcircuits.

Given a network N with a subcircuit boundary (inputs U, outputs V), the
timing specification handed to a resynthesis tool is

* **arrival flexibility at U** (Section 5.1) — computed on N_FI, the
  transitive fanin of U: for each vector at U, the set of (maximal)
  arrival-time tuples the environment can present, including the (∞,…,∞)
  rows for unreachable vectors (satisfiability don't cares);
* **required flexibility at V** (Section 5.2) — computed on N_FO, N with V
  relabeled as primary inputs, with the Section 4 machinery; inputs of
  N_FO that are original primary inputs keep their known arrival times
  (no leaf variables are introduced for them);
* optionally the **coupled analysis** of Section 5.3 when the subcircuit's
  function is preserved: arrival and required times indexed by the full
  primary-input vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.bdd import BddManager, BddNode, create_manager, minimal_elements
from repro.core.leaves import enumerate_leaf_times
from repro.core.required_time import INF, RequiredTimeProfile
from repro.errors import ResourceLimitError, TimingError
from repro.network.network import Network
from repro.network.transform import fanin_network, fanout_network
from repro.network.verify import global_functions
from repro.timing.chi import (
    ChiBdd,
    ChiEngine,
    ChiUnrolling,
    candidate_times,
    known_arrival_leaf,
)
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import required_map


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
    delays = delays or unit_delay()
    nfi = fanin_network(network, boundary)
    relevant_arrivals = {
        pi: t for pi, t in (input_arrivals or {}).items() if pi in set(nfi.inputs)
    }
    engine = ChiEngine(nfi, delays, relevant_arrivals)
    input_arrivals = relevant_arrivals
    m = engine.manager

    # per boundary signal: its candidate arrival moments and the partition
    # {S_1, ..., S_l} of the input space by first-stable time
    cands = candidate_times(nfi, delays, input_arrivals)
    partitions: dict[str, list[tuple[float, BddNode]]] = {}
    for u in boundary:
        classes: list[tuple[float, BddNode]] = []
        prev = m.false
        for t in cands[u]:
            cur = engine.stable(u, t)
            cls = cur & ~prev
            if not cls.is_false:
                classes.append((t, cls))
            prev = cur
        if not prev.is_true:
            raise TimingError(
                f"signal {u!r} not stable at its topological delay"
            )
        partitions[u] = classes

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
        _collect_tuples(m, preimage, boundary, partitions, 0, [], tuples)
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


def _boundary_relation(
    network: Network,
    boundary: list[str],
    delays: DelayModel,
    output_required: Mapping[str, float] | float,
    input_arrivals: Mapping[str, float] | None,
    manager: BddManager | None,
    max_nodes: int | None,
):
    """Build the exact Section 4.1 relation on N_FO with leaf χ variables
    only at the boundary (known-arrival inputs keep concrete leaves).

    Returns ``(manager, relation_bdd, leaf_order, nfo, known_inputs)``
    where ``leaf_order`` is a list of (signal, value, time, var_name).
    """
    nfo = fanout_network(network, boundary)
    known_inputs = [pi for pi in nfo.inputs if pi not in boundary]
    req = required_map(nfo, output_required)

    unrolling = ChiUnrolling(nfo, delays)
    leaves = enumerate_leaf_times(unrolling, req)
    m = manager or create_manager(max_nodes=max_nodes)
    for pi in nfo.inputs:
        if not m.has_var(pi):
            m.add_var(pi)

    leaf_index: dict[tuple[str, int, float], str] = {}
    leaf_order: list[tuple[str, int, float, str]] = []
    for v in boundary:
        for value, table in ((1, leaves.for_one), (0, leaves.for_zero)):
            for t in table.get(v, ()):
                name = f"chi[{v},{value},{t:g}]"
                if not m.has_var(name):
                    m.add_var(name)
                leaf_index[(v, value, t)] = name
                leaf_order.append((v, value, t, name))

    known = known_arrival_leaf(
        m, {pi: (input_arrivals or {}).get(pi, 0.0) for pi in known_inputs}
    )

    def leaf(name: str, value: int, t: float) -> BddNode:
        var = leaf_index.get((name, value, t))
        if var is None:  # a primary input with a known arrival time
            return known(name, value, t)
        return m.var(var)

    chi = ChiBdd(unrolling, m, leaf)

    onsets = global_functions(nfo, m)
    relation = m.true
    for out, t in req.items():
        on = onsets[out]
        relation = relation & chi.chi(out, 1, t).equiv(on)
        relation = relation & chi.chi(out, 0, t).equiv(~on)

    # ordering chains / bounds for the boundary leaves
    for v in boundary:
        for value, table in ((1, leaves.for_one), (0, leaves.for_zero)):
            times = table.get(v, ())
            bound = m.var(v) if value else m.nvar(v)
            prev: BddNode | None = None
            for t in times:
                cur = m.var(leaf_index[(v, value, t)])
                if prev is not None:
                    relation = relation & prev.implies(cur)
                prev = cur
            if prev is not None:
                relation = relation & prev.implies(bound)

    return m, relation, leaf_order, nfo, known_inputs


def _profiles_from_restricted(
    m: BddManager,
    restricted: BddNode,
    boundary: list[str],
    bits: tuple[int, ...],
    leaf_order,
) -> set[RequiredTimeProfile]:
    """Minimal elements of a relation slice, read as required-time profiles."""
    leaf_names = [name for *_, name in leaf_order]
    if restricted.is_false:
        return set()
    minimal = minimal_elements(restricted, leaf_names)
    profiles: set[RequiredTimeProfile] = set()
    for sol in m.sat_iter(minimal, leaf_names):
        times: dict[str, tuple[float, float]] = {}
        for v, b in zip(boundary, bits):
            demanded = [
                t
                for (sig, value, t, name) in leaf_order
                if sig == v and value == b and sol[name] == 1
            ]
            r = min(demanded) if demanded else INF
            times[v] = (r, INF) if b == 0 else (INF, r)
        profiles.add(RequiredTimeProfile.from_dict(times))
    return profiles


def required_flexibility(
    network: Network,
    boundary: Sequence[str],
    delays: DelayModel | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    input_arrivals: Mapping[str, float] | None = None,
    max_boundary: int = 10,
    manager: BddManager | None = None,
    max_nodes: int | None = None,
) -> RequiredFlexibility:
    """Compute the Section 5.2 required-time relation at boundary V.

    Builds N_FO (V relabeled as primary inputs), runs the exact Section 4.1
    construction with leaf χ variables only at V (the original primary
    inputs keep their known arrival times), universally quantifies the
    known inputs, and extracts the latest required times per V vector.
    """
    boundary = list(boundary)
    if len(boundary) > max_boundary:
        raise ResourceLimitError(
            f"boundary of {len(boundary)} signals exceeds max_boundary={max_boundary}"
        )
    delays = delays or unit_delay()
    m, relation, leaf_order, _nfo, known_inputs = _boundary_relation(
        network, boundary, delays, output_required, input_arrivals, manager, max_nodes
    )

    # fold over the known inputs: the requirement must be safe for all X
    folded = m.forall(known_inputs, relation) if known_inputs else relation

    per_vector: dict[tuple[int, ...], set[RequiredTimeProfile]] = {}
    for bits in itertools.product((0, 1), repeat=len(boundary)):
        restricted = m.restrict(folded, dict(zip(boundary, bits)))
        per_vector[bits] = _profiles_from_restricted(
            m, restricted, boundary, bits, leaf_order
        )
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
    nfi = fanin_network(network, sub_inputs)
    relevant_arrivals = {
        pi: t
        for pi, t in (input_arrivals or {}).items()
        if pi in set(nfi.inputs)
    }
    eng = ChiEngine(nfi, delays, relevant_arrivals)
    cands = candidate_times(nfi, delays, relevant_arrivals)
    stables = {
        u: [(t, eng.stable(u, t)) for t in cands[u]] for u in sub_inputs
    }

    # required side: the boundary relation, restricted per X minterm
    m, relation, leaf_order, _nfo, known_inputs = _boundary_relation(
        network, sub_outputs, delays, output_required, input_arrivals, None, None
    )

    funcs = global_functions(network)
    fm = funcs[network.outputs[0]].manager if network.outputs else None

    rows: list[CoupledRow] = []
    for bits in itertools.product((0, 1), repeat=len(network.inputs)):
        env = dict(zip(network.inputs, bits))
        values = network.simulate(env)
        # arrival tuple at U for this minterm
        u_tuple = []
        for u in sub_inputs:
            arr = INF
            for t, stable in stables[u]:
                if eng.manager.evaluate(stable, {k: env[k] for k in nfi.inputs}):
                    arr = t
                    break
            u_tuple.append(arr)
        v_bits = tuple(int(values[v]) for v in sub_outputs)
        # restrict the relation to this minterm: boundary values plus the
        # known-arrival inputs present in N_FO
        assignment = {pi: env[pi] for pi in known_inputs}
        assignment.update(dict(zip(sub_outputs, v_bits)))
        restricted = m.restrict(relation, assignment)
        profiles = _profiles_from_restricted(
            m, restricted, sub_outputs, v_bits, leaf_order
        )
        rows.append(
            CoupledRow(
                x_vector=bits,
                u_arrivals=tuple(u_tuple),
                v_vector=v_bits,
                required=profiles,
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
