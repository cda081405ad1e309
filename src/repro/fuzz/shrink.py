"""Delta-debugging shrinker: minimize a failing case, keep the failure.

Given a case and a *failure predicate* (re-runs the differential checks
and reports whether the interesting failure is still present), the
shrinker greedily applies structure-removing transformations until a
fixpoint:

* drop primary outputs (then sweep the dead cone),
* bypass a gate — replace every reference to it by one of its fanins,
* drop a fanin of a gate — cofactor the local cover against one phase,
* merge two primary inputs into one,
* drop unused primary inputs,
* simplify the delay model to unit delays,
* simplify the output required times to the scalar 0.

Every transformation produces a *valid* network (checked) and is only
kept when the predicate still holds, so the final case is a locally
minimal repro.  The pass order and candidate order are deterministic,
making shrinking reproducible.  Gate bypassing can create duplicate
fanin columns; those are collapsed by rebuilding the local cover from
its truth table (node fanin counts are small by construction).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

from repro.network.network import Network
from repro.network.opt import sweep
from repro.sop import Cover
from repro.fuzz.checks import CaseResult, EngineSuite, run_differential
from repro.fuzz.gen import FuzzCase

Predicate = Callable[[FuzzCase], bool]


def failure_predicate(
    suite: EngineSuite | None = None,
    checks: set[str] | None = None,
    differential: Callable[..., CaseResult] = run_differential,
) -> Predicate:
    """The standard predicate: the case still fails the differential run.

    ``checks`` restricts interest to specific check names (so shrinking
    one repro cannot wander off to a different failure class); by default
    any failure keeps the candidate.  ``differential`` is the family's
    check runner (``run_differential`` for circuit cases; an eco or
    interval family passes its own, and the predicate then takes that
    family's cases).
    """
    suite = suite or EngineSuite()

    def predicate(case) -> bool:
        result = differential(case, suite)
        if checks is None:
            return not result.ok
        return any(f.check in checks for f in result.failures)

    return predicate


# ----------------------------------------------------------------------
# network surgery
# ----------------------------------------------------------------------


def _truth_table_cover(fanins: list[str], cover: Cover) -> tuple[list[str], Cover]:
    """Collapse duplicate fanin columns by re-tabulating the function."""
    unique = list(dict.fromkeys(fanins))
    if len(unique) == len(fanins):
        return fanins, cover
    minterms = []
    for m in range(1 << len(unique)):
        values = {s: (m >> i) & 1 for i, s in enumerate(unique)}
        assignment = 0
        for i, s in enumerate(fanins):
            if values[s]:
                assignment |= 1 << i
        if cover.evaluate(assignment):
            minterms.append(m)
    return unique, Cover.from_minterms(len(unique), minterms)


def _rebuild(
    net: Network,
    rename: dict[str, str],
    drop: set[str],
    outputs: list[str] | None = None,
    name: str | None = None,
) -> Network:
    """Copy ``net`` with nodes in ``drop`` removed and every reference
    renamed through ``rename`` (applied to fanins and outputs)."""

    def ref(s: str) -> str:
        while s in rename:
            s = rename[s]
        return s

    clone = Network(name or net.name)
    for pi in net.inputs:
        if pi in drop:
            continue
        clone.add_input(pi)
    for node_name in net.topological_order():
        node = net.nodes[node_name]
        if node.is_input or node_name in drop:
            continue
        fanins = [ref(f) for f in node.fanins]
        fanins, cover = _truth_table_cover(fanins, node.cover)
        clone.add_node(node_name, fanins, cover.copy())
    outs = []
    for o in outputs if outputs is not None else net.outputs:
        o = ref(o)
        if o in clone.nodes and o not in outs:
            outs.append(o)
    clone.set_outputs(outs)
    sweep(clone)
    return clone


def _narrow_gate(
    net: Network, gate: str, fanins: list[str], cover: Cover
) -> Network:
    """Copy ``net`` with one gate's fanin list and cover replaced."""
    clone = Network(net.name)
    for pi in net.inputs:
        clone.add_input(pi)
    for node_name in net.topological_order():
        node = net.nodes[node_name]
        if node.is_input:
            continue
        if node_name == gate:
            fi, cv = _truth_table_cover(list(fanins), cover)
            clone.add_node(node_name, fi, cv)
        else:
            clone.add_node(node_name, list(node.fanins), node.cover.copy())
    clone.set_outputs(list(net.outputs))
    sweep(clone)
    return clone


def _with_network(case: FuzzCase, net: Network) -> FuzzCase:
    """The case rebased onto a surgically altered network: delay
    overrides for removed gates are dropped, per-output required times
    are restricted to the surviving outputs."""
    required = case.output_required
    if isinstance(required, dict):
        required = {o: required[o] for o in net.outputs if o in required}
        missing = [o for o in net.outputs if o not in required]
        for o in missing:  # outputs renamed onto other nodes keep 0.0
            required[o] = 0.0
    return dataclasses.replace(
        case,
        network=net,
        delays=case.delays.restricted_to(net),
        output_required=required,
    )


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Every one-step simplification of ``case``, deterministic order,
    most aggressive (largest expected deletion) first."""
    net = case.network

    # simplify the environment before the structure: a repro that fails
    # under unit delays and zero required times is easier to read
    from repro.timing.delay import unit_delay

    if case.delays.to_spec() != unit_delay().to_spec():
        yield dataclasses.replace(case, delays=unit_delay())
    if case.output_required != 0.0:
        yield dataclasses.replace(case, output_required=0.0)

    # drop outputs (and their now-dead cones)
    if len(net.outputs) > 1:
        for out in list(net.outputs):
            keep = [o for o in net.outputs if o != out]
            yield _with_network(case, _rebuild(net, {}, set(), outputs=keep))

    gates = [n for n in net.reverse_topological_order() if not net.nodes[n].is_input]

    # bypass a gate: every reference to it becomes one of its fanins
    for g in gates:
        for f in net.nodes[g].fanins:
            yield _with_network(case, _rebuild(net, {g: f}, {g}))

    # drop one fanin of a gate by cofactoring its cover against a phase
    for g in gates:
        node = net.nodes[g]
        if len(node.fanins) < 2:
            continue
        for i in range(len(node.fanins)):
            for phase in (1, 0):
                # the cofactor frees column i ('-' in every cube), so the
                # column can be deleted from the patterns afterwards
                reduced = node.cover.cofactor(i, phase)
                patterns = [
                    c.to_pattern()[:i] + c.to_pattern()[i + 1 :] for c in reduced
                ]
                new_fanins = node.fanins[:i] + node.fanins[i + 1 :]
                cover = (
                    Cover.from_patterns(patterns)
                    if patterns
                    else Cover.zero(len(new_fanins))
                )
                yield _with_network(
                    case, _narrow_gate(net, g, new_fanins, cover)
                )

    # merge one primary input into the first input
    if len(net.inputs) > 1:
        first = net.inputs[0]
        for a in net.inputs[1:]:
            yield _with_network(case, _rebuild(net, {a: first}, {a}))

    # drop inputs that feed nothing and are not outputs
    fanouts = net.fanouts()
    dead = [
        pi
        for pi in net.inputs
        if not fanouts[pi] and pi not in net.outputs and len(net.inputs) > 1
    ]
    if dead:
        yield _with_network(case, _rebuild(net, {}, set(dead)))


def case_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Every one-step simplification of ``case``, deterministic order,
    most aggressive first — the same candidate stream :func:`shrink_case`
    consumes.  Public so the ECO shrinker can reuse it for base-circuit
    surgery (:func:`repro.fuzz.eco.shrink_eco_trace`): there the stream
    is pre-filtered by replaying the edit trace, not by a differential
    run."""
    return _candidates(case)


def shrink_case(
    case: FuzzCase,
    predicate: Predicate,
    max_evals: int = 400,
) -> FuzzCase:
    """Greedy fixpoint shrink of ``case`` under ``predicate``.

    ``max_evals`` caps the number of predicate evaluations (each one is a
    full differential run); the best case found so far is returned when
    the budget runs out.
    """
    current = case
    evals = 0
    progress = True
    while progress and evals < max_evals:
        progress = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            if not candidate.network.outputs or not candidate.network.inputs:
                continue
            try:
                candidate.network.validate()
            except Exception:  # pragma: no cover - defensive
                continue
            evals += 1
            try:
                keep = predicate(candidate)
            except Exception:  # noqa: BLE001 - a crashier candidate is
                keep = False  # a *different* repro; stay on course
            if keep:
                current = candidate
                progress = True
                break  # restart the pass list on the smaller case
    return current


__all__ = ["Predicate", "case_candidates", "failure_predicate", "shrink_case"]
