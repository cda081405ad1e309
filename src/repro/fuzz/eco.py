"""The ``eco`` fuzz family: seeded edit traces with a parity oracle.

Where the ``circuit`` family generates one static analysis problem per
case, this family generates a base circuit *plus a trace of valid edits*
(:mod:`repro.eco.edits`) and replays the trace through a
:class:`~repro.eco.session.NetworkSession` per method, asserting after
**every** edit that the session's incrementally maintained rows and
merged view are bit-identical to a cold full recompute of the current
network state (``eco-parity[<method>]``).  A final ``eco-atomicity``
check throws deterministic invalid edits at the evolved session and
requires an :class:`~repro.errors.EcoError` with the session observably
unchanged.

Determinism contract (same as :mod:`repro.fuzz.gen`): the trace is a
pure function of ``(seed, profile, index)`` — the base circuit comes
from ``generate_case(seed, profile, index)`` and every edit draw flows
through one ``random.Random`` seeded with ``"{seed}:{index}:eco"``, with
all candidate lists sorted before drawing, so the same seed yields the
same trace JSON across processes and machines.
"""

from __future__ import annotations

import hashlib
import random
import time as _time
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from repro.eco.edits import (
    AddNode,
    Edit,
    RemoveNode,
    Resubstitute,
    RetargetFanout,
    RetargetOutputs,
    SetDelay,
    edit_from_dict,
)
from repro.errors import EcoError
from repro.fuzz.checks import CaseResult, CheckFailure, EngineSuite
from repro.fuzz.corpus import save_repro
from repro.fuzz.gen import FuzzCase, FuzzProfile, PROFILES, generate_case
from repro.network.network import Network
from repro.network.transform import transitive_fanout
from repro.obs.metrics import REGISTRY

TRACE_FORMAT = 1

#: weighted edit kinds of the generator (resubstitution dominates — it is
#: the restructuring move the paper's Section 5 loop performs)
_EDIT_MIX: tuple[tuple[str, int], ...] = (
    ("resubstitute", 4),
    ("set_delay", 3),
    ("add_node", 2),
    ("retarget_fanout", 2),
    ("remove_node", 1),
    ("retarget_outputs", 1),
)

#: gate kinds drawn for generated resubstitutions / additions
_BINARY_KINDS = ("AND", "OR", "NAND", "NOR", "XOR")
_UNARY_KINDS = ("NOT", "BUF")


@dataclass
class EcoTrace:
    """One fully specified ECO problem: a base case plus an edit trace."""

    trace_id: str
    case: FuzzCase
    edits: list[Edit]
    #: the exact rng seed string that regenerates the edit draws
    seed: str
    profile: str
    family: ClassVar[str] = "eco"

    @property
    def case_id(self) -> str:
        return self.trace_id

    @property
    def num_inputs(self) -> int:
        return self.case.num_inputs

    @property
    def num_gates(self) -> int:
        return self.case.num_gates

    @property
    def num_edits(self) -> int:
        return len(self.edits)

    def edits_json(self) -> list[dict]:
        """The edit list in the ``repro eco`` trace format."""
        return [e.to_dict() for e in self.edits]

    def to_json(self) -> dict:
        """The full trace document (``{"edits": ...}`` is what
        ``repro eco`` consumes; the rest is regeneration identity)."""
        return {
            "format": TRACE_FORMAT,
            "trace_id": self.trace_id,
            "seed": self.seed,
            "profile": self.profile,
            "base_case": self.case.case_id,
            "edits": self.edits_json(),
        }


# ----------------------------------------------------------------------
# edit construction against an evolving replica
# ----------------------------------------------------------------------


def _gates(net: Network) -> list[str]:
    return sorted(n for n, node in net.nodes.items() if not node.is_input)


def _draw_function(
    rng: random.Random, k: int
) -> str:
    """A gate kind legal for ``k`` fanins."""
    if k == 1:
        return _UNARY_KINDS[rng.randrange(len(_UNARY_KINDS))]
    return _BINARY_KINDS[rng.randrange(len(_BINARY_KINDS))]


def _try_resubstitute(rng: random.Random, net: Network, counter: list[int]):
    gates = _gates(net)
    if not gates:
        return None
    name = gates[rng.randrange(len(gates))]
    legal = sorted(set(net.nodes) - transitive_fanout(net, [name]))
    if not legal:
        return None
    k = rng.randint(1, min(3, len(legal)))
    fanins = tuple(sorted(rng.sample(legal, k)))
    return Resubstitute(name=name, fanins=fanins, gate=_draw_function(rng, k))


def _try_set_delay(rng: random.Random, net: Network, counter: list[int]):
    gates = _gates(net)
    if not gates:
        return None
    name = gates[rng.randrange(len(gates))]
    if rng.random() < 0.3:
        delay = (float(rng.randint(1, 3)), float(rng.randint(1, 3)))
    else:
        delay = float(rng.randint(1, 3))
    return SetDelay(name=name, delay=delay)


def _try_add_node(rng: random.Random, net: Network, counter: list[int]):
    signals = sorted(net.nodes)
    k = rng.randint(1, min(3, len(signals)))
    fanins = tuple(sorted(rng.sample(signals, k)))
    counter[0] += 1
    return AddNode(
        name=f"eco{counter[0]}", fanins=fanins, gate=_draw_function(rng, k)
    )


def _try_retarget_fanout(rng: random.Random, net: Network, counter: list[int]):
    fanouts = net.fanouts()
    driven = sorted(n for n, readers in fanouts.items() if readers)
    if not driven:
        return None
    old = driven[rng.randrange(len(driven))]
    readers = fanouts[old]
    blocked: set[str] = {old}
    for reader in readers:
        blocked.update(net.nodes[reader].fanins)
        blocked.update(transitive_fanout(net, [reader]))
    legal = sorted(set(net.nodes) - blocked)
    if not legal:
        return None
    return RetargetFanout(old=old, new=legal[rng.randrange(len(legal))])


def _try_remove_node(rng: random.Random, net: Network, counter: list[int]):
    fanouts = net.fanouts()
    dead = sorted(
        n
        for n, readers in fanouts.items()
        if not readers and n not in net.outputs
    )
    # never remove the last primary input: engines need at least one
    dead = [
        n for n in dead
        if not net.nodes[n].is_input or len(net.inputs) > 1
    ]
    if not dead:
        return None
    return RemoveNode(name=dead[rng.randrange(len(dead))])


def _try_retarget_outputs(rng: random.Random, net: Network, counter: list[int]):
    outputs = list(net.outputs)
    gates = _gates(net)
    extras = sorted(set(gates) - set(outputs))
    if extras and (len(outputs) < 2 or rng.random() < 0.5):
        new = extras[rng.randrange(len(extras))]
        outs = tuple(outputs + [new])
        return RetargetOutputs(
            outputs=outs, required=((new, float(rng.randint(0, 2))),)
        )
    if len(outputs) > 1:
        drop = outputs[rng.randrange(len(outputs))]
        return RetargetOutputs(
            outputs=tuple(o for o in outputs if o != drop)
        )
    return None


_BUILDERS: dict[str, Callable] = {
    "resubstitute": _try_resubstitute,
    "set_delay": _try_set_delay,
    "add_node": _try_add_node,
    "retarget_fanout": _try_retarget_fanout,
    "remove_node": _try_remove_node,
    "retarget_outputs": _try_retarget_outputs,
}


def generate_eco_trace(
    seed: int | str,
    profile: FuzzProfile | str = "tiny",
    index: int = 0,
    n_edits: int | None = None,
) -> EcoTrace:
    """The ``index``-th edit trace of the run seeded by ``seed``.

    Pure in its arguments (module-docstring contract).  Every generated
    edit validates against the evolving network replica before being
    committed to the trace, so a generated trace always replays cleanly.
    """
    from repro.timing.delay import unit_delay

    profile_name = profile.name if isinstance(profile, FuzzProfile) else profile
    if isinstance(profile, str) and profile not in PROFILES:
        # let generate_case raise the canonical error
        generate_case(seed, profile, index)
    case = generate_case(seed, profile, index)
    eco_seed = f"{seed}:{index}:eco"
    rng = random.Random(eco_seed)
    if n_edits is None:
        n_edits = rng.randint(3, 8)
    replica = case.network.copy()
    delays = case.delays if case.delays is not None else unit_delay()
    required = dict(case.required_map())
    edits: list[Edit] = []
    counter = [0]
    kinds = [k for k, _ in _EDIT_MIX]
    weights = [w for _, w in _EDIT_MIX]
    while len(edits) < n_edits:
        first = rng.choices(kinds, weights=weights, k=1)[0]
        order = kinds[kinds.index(first):] + kinds[: kinds.index(first)]
        committed = False
        for kind in order:
            edit = _BUILDERS[kind](rng, replica, counter)
            if edit is None:
                continue
            try:
                edit.validate(replica, delays, required)
            except EcoError:
                continue
            effect = edit.apply(replica, delays, required)
            if effect.delays is not None:
                delays = effect.delays
            if effect.required is not None:
                required = dict(effect.required)
                for name in list(required):
                    if name not in replica.outputs:
                        required.pop(name)
            edits.append(edit)
            committed = True
            break
        if not committed:  # pragma: no cover - every net has a legal move
            break
    digest = hashlib.sha1(eco_seed.encode()).hexdigest()[:8]
    trace_id = f"{profile_name}-{index:04d}-eco-{digest}"
    return EcoTrace(
        trace_id=trace_id,
        case=case,
        edits=edits,
        seed=eco_seed,
        profile=profile_name,
    )


# ----------------------------------------------------------------------
# the differential check: incremental session vs full recompute
# ----------------------------------------------------------------------

#: the per-method analysis options the eco differential runs (topological
#: is the cheap reference; approx2-sat exercises a real engine with a
#: deterministic check budget)
def _eco_methods(suite: EngineSuite) -> list[tuple[str, dict]]:
    return [
        ("topological", {}),
        ("approx2", {"engine": "sat", "max_checks": suite.approx2_max_checks}),
    ]


def run_eco_differential(
    trace: EcoTrace,
    suite: EngineSuite | None = None,
    methods: Sequence[tuple[str, dict]] | None = None,
) -> CaseResult:
    """Replay ``trace`` per method and check parity after every edit.

    Returns a :class:`~repro.fuzz.checks.CaseResult` over the *base*
    case, so the runner/shrinker/corpus machinery treats eco findings
    exactly like circuit findings.  Emitted checks:

    * ``eco-parity[<method>]`` — the incremental session's rows/merged
      view diverged from a cold full recompute after some edit;
    * ``eco-trace-invalid`` — an edit of the trace was rejected by the
      session (a generator bug, or a shrink candidate that broke edit
      preconditions — the restricted shrink predicate discards those);
    * ``eco-atomicity`` — an invalid edit mutated the session;
    * ``eco-error`` — any unexpected crash during replay.
    """
    from repro.eco import NetworkSession

    suite = suite or EngineSuite()
    if methods is None:
        methods = _eco_methods(suite)
    result = CaseResult(case=trace.case)
    start = _time.monotonic()
    before = REGISTRY.snapshot()
    final_session: NetworkSession | None = None
    for method, options in methods:
        check = f"eco-parity[{method}]"
        result.checks_run.append(check)
        try:
            session = NetworkSession(
                trace.case.network,
                method=method,
                delays=trace.case.delays,
                output_required=trace.case.output_required,
                options=options,
            )
            for i, edit in enumerate(trace.edits):
                try:
                    session.apply_edit(edit)
                except EcoError as exc:
                    result.failures.append(
                        CheckFailure(
                            "eco-trace-invalid",
                            f"{method}: edit #{i} {edit.to_dict()} "
                            f"rejected: {exc}",
                        )
                    )
                    break
                problems = session.verify_against_full_recompute()
                for problem in problems:
                    result.failures.append(
                        CheckFailure(
                            check,
                            f"after edit #{i} {edit.to_dict()}: {problem}",
                        )
                    )
                if problems:
                    break
            else:
                if method == "topological":
                    final_session = session
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            result.failures.append(
                CheckFailure(
                    "eco-error", f"{method}: {type(exc).__name__}: {exc}"
                )
            )
    if final_session is not None:
        result.checks_run.append("eco-atomicity")
        _check_atomicity(final_session, result)
    result.elapsed = _time.monotonic() - start
    result.metrics = REGISTRY.snapshot().diff(before)
    return result


def _invalid_edits(net: Network) -> list[Edit]:
    """Deterministic always-invalid edits against ``net``'s current state."""
    bad: list[Edit] = [
        Resubstitute(name="__eco_no_such_node__", fanins=("x",), gate="BUF"),
        RemoveNode(name="__eco_no_such_node__"),
        SetDelay(name="__eco_no_such_node__", delay=1.0),
        RetargetOutputs(outputs=("__eco_no_such_node__",)),
        SetDelay(name=net.outputs[0], delay=-1.0),
    ]
    gates = _gates(net)
    if gates:
        # dangling fanin
        bad.append(
            Resubstitute(
                name=gates[0], fanins=("__eco_dangling__",), gate="BUF"
            )
        )
        # self-cycle: a gate feeding itself
        bad.append(Resubstitute(name=gates[0], fanins=(gates[0],), gate="BUF"))
    return bad


def _check_atomicity(session, result: CaseResult) -> None:
    """Invalid edits must raise :class:`EcoError` and change nothing."""
    import json

    def state() -> str:
        return json.dumps(
            {
                "rows": session.rows(),
                "digests": session.digests(),
                "outputs": list(session.network.outputs),
                "nodes": sorted(session.network.nodes),
                "required": session.required,
                "edits_applied": session.edits_applied,
            },
            sort_keys=True,
        )

    before = state()
    for bad in _invalid_edits(session.network):
        try:
            session.apply_edit(bad)
        except EcoError:
            pass
        except Exception as exc:  # noqa: BLE001
            result.failures.append(
                CheckFailure(
                    "eco-atomicity",
                    f"invalid edit {bad.to_dict()} raised "
                    f"{type(exc).__name__} instead of EcoError: {exc}",
                )
            )
            continue
        else:
            result.failures.append(
                CheckFailure(
                    "eco-atomicity",
                    f"invalid edit {bad.to_dict()} did not raise EcoError",
                )
            )
            continue
        after = state()
        if after != before:
            result.failures.append(
                CheckFailure(
                    "eco-atomicity",
                    f"session changed after rejected edit {bad.to_dict()}",
                )
            )
            return


# ----------------------------------------------------------------------
# shrinking: minimize the edit list, keep the divergence
# ----------------------------------------------------------------------

EcoPredicate = Callable[[EcoTrace], bool]


def edits_replay_cleanly(case: FuzzCase, edits: Sequence[Edit]) -> bool:
    """Whether ``edits`` validate and apply in order against ``case``.

    The same replica/delays/required maintenance as
    :func:`generate_eco_trace`, reduced to a boolean — the cheap
    pre-filter that lets base-circuit shrinking discard a surgically
    altered netlist whose edit preconditions broke without spending a
    full predicate evaluation on it.
    """
    from repro.timing.delay import unit_delay

    replica = case.network.copy()
    delays = case.delays if case.delays is not None else unit_delay()
    required = dict(case.required_map())
    for edit in edits:
        try:
            edit.validate(replica, delays, required)
            effect = edit.apply(replica, delays, required)
        except EcoError:
            return False
        if effect.delays is not None:
            delays = effect.delays
        if effect.required is not None:
            required = dict(effect.required)
            for name in list(required):
                if name not in replica.outputs:
                    required.pop(name)
    return True


def shrink_eco_trace(
    trace: EcoTrace,
    predicate: EcoPredicate,
    max_evals: int = 100,
) -> EcoTrace:
    """Greedy fixpoint minimization of the edit list *and* the base
    circuit under ``predicate``.

    Edit-list passes run first: suffix truncation (a parity divergence
    found after edit *i* rarely needs the edits after it), then
    single-edit deletion, newest first.  When the edit list is locally
    minimal, a base-surgery pass tries every one-step simplification of
    the seed netlist from the circuit shrinker
    (:func:`repro.fuzz.shrink.case_candidates` — drop outputs, bypass
    gates, cofactor away fanins, merge inputs, simplify the
    environment), pre-filtered by :func:`edits_replay_cleanly` so a
    candidate whose edit preconditions broke is discarded for free.
    Any accepted candidate restarts the pass list.  Deterministic
    candidate order, so shrinking is reproducible; ``max_evals`` caps
    predicate evaluations (pre-filter rejections are not charged).
    """
    import dataclasses

    from repro.fuzz.shrink import case_candidates

    def try_candidate(candidate: EcoTrace) -> bool:
        try:
            return predicate(candidate)
        except Exception:  # noqa: BLE001 - a crashier candidate is
            return False  # a *different* repro; stay on course

    current = trace
    evals = 0
    progress = True
    while progress and evals < max_evals:
        progress = False
        candidates: list[list[Edit]] = []
        n = len(current.edits)
        for keep in range(n - 1, 0, -1):  # suffix truncation, biggest cut first
            candidates.append(current.edits[:keep])
        for i in range(n - 1, -1, -1):  # single deletion, newest first
            candidates.append(current.edits[:i] + current.edits[i + 1:])
        for edits in candidates:
            if evals >= max_evals:
                break
            if not edits:
                continue
            candidate = dataclasses.replace(current, edits=list(edits))
            evals += 1
            if try_candidate(candidate):
                current = candidate
                progress = True
                break
        if progress:
            continue  # re-minimize the edit list before more surgery
        for case in case_candidates(current.case):
            if evals >= max_evals:
                break
            if not case.network.outputs or not case.network.inputs:
                continue
            try:
                case.network.validate()
            except Exception:  # pragma: no cover - defensive
                continue
            if not edits_replay_cleanly(case, current.edits):
                continue  # free skip: the trace no longer applies
            candidate = dataclasses.replace(current, case=case)
            evals += 1
            if try_candidate(candidate):
                current = candidate
                progress = True
                break
    return current


def trace_from_entry(case: FuzzCase, metadata: dict) -> EcoTrace:
    """Rebuild an :class:`EcoTrace` from a corpus entry's pieces (the
    ``eco`` metadata block written by :meth:`EcoFamily.save`)."""
    eco = metadata.get("eco") or {}
    return EcoTrace(
        trace_id=metadata.get("case_id", case.case_id),
        case=case,
        edits=[edit_from_dict(spec) for spec in eco.get("edits", [])],
        seed=str(eco.get("seed", metadata.get("seed", ""))),
        profile=metadata.get("profile", "unknown"),
    )


class EcoFamily:
    """The ``eco`` entry of the fuzz family table
    (:data:`repro.fuzz.runner.FAMILIES`).

    Shrinking minimizes the edit list and the base circuit, so a
    verdict's ``shrunk_gates`` records the shrunk *edit count*.  A saved
    entry holds the base netlist plus an ``"eco"`` metadata block (the
    shrunk trace and its rng seed) that :meth:`replay` reads back.
    """

    name = "eco"
    generate = staticmethod(generate_eco_trace)
    differential = staticmethod(run_eco_differential)

    def shrink(self, trace: EcoTrace, predicate: EcoPredicate) -> EcoTrace:
        return shrink_eco_trace(trace, predicate, max_evals=100)

    def size(self, trace: EcoTrace) -> int:
        return trace.num_edits

    def save(self, directory, trace, failures, original) -> str:
        return save_repro(
            directory,
            trace.case,
            failures,
            metadata={
                "case_id": trace.trace_id,
                "family": self.name,
                "eco": {"seed": trace.seed, "edits": trace.edits_json()},
                "original": {
                    "case_id": original.trace_id,
                    "edits": original.num_edits,
                    "gates": original.num_gates,
                    "seed": original.seed,
                },
            },
        )

    def replay(self, entry, suite) -> CaseResult:
        trace = trace_from_entry(entry.case, entry.metadata)
        return run_eco_differential(trace, suite)


#: Every check name the eco differential can emit.
ECO_CHECKS = (
    "eco-parity[topological]",
    "eco-parity[approx2]",
    "eco-trace-invalid",
    "eco-atomicity",
    "eco-error",
)

__all__ = [
    "ECO_CHECKS",
    "EcoFamily",
    "EcoTrace",
    "edits_replay_cleanly",
    "generate_eco_trace",
    "run_eco_differential",
    "shrink_eco_trace",
    "trace_from_entry",
]
