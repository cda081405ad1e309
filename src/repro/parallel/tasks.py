"""The sharded task model of the process-parallel execution layer.

A :class:`Task` is one unit of work a pool worker can execute without any
shared state: everything it references must either travel in the (picklable)
payload or be reconstructable inside the worker from a :class:`CircuitRef`.
Required-time analysis shards along the natural axes of the paper's
experiments — per (circuit, output, engine) — the same per-output
decomposition ABC-style functional timing engines exploit: every output
cone is an independent required-time problem, and the network-level
requirement at an input is the earliest (min) requirement any cone imposes.

Scheduling metadata rides on the task itself:

* ``cost`` — an estimate of relative expense (node budgets, cone sizes,
  method weights).  The pool dispatches expensive tasks first so one big
  BDD job does not dangle off the end of the schedule (classic LPT
  ordering).
* ``circuit_key`` — the warm-cache identity.  Workers keep the parsed
  network (and a reusable :class:`~repro.bdd.BddManager`) per key, and the
  scheduler prefers handing a task to a worker that is already warm on
  its circuit.
* ``timeout`` / ``max_retries`` — the fault envelope (see
  :mod:`repro.parallel.pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.network.network import Network

#: method → relative expense weight used by :func:`estimate_cost`.  The
#: exact relation is the heavyweight (one fresh BDD variable per
#: ⟨input, value, time⟩ triple), approx1 builds a parameterized BDD per
#: output, approx2 is a lattice climb of cheap SAT/BDD checks.
METHOD_WEIGHTS = {
    "exact": 30.0,
    "approx1": 6.0,
    "approx2": 1.5,
    "topological": 0.01,
}


class ParallelError(ReproError):
    """A failure of the parallel execution layer itself (not of a task)."""


# ----------------------------------------------------------------------
# circuit references — how a worker obtains its Network
# ----------------------------------------------------------------------
#: registry of named circuit factories resolvable inside workers.  Keys
#: look like ``"mcnc:m4"`` or ``"example:figure4"``; values are zero-arg
#: callables returning a fresh :class:`Network`.
_FACTORIES: dict[str, object] = {}


def register_factory(name: str, factory) -> None:
    """Register a named zero-arg circuit factory (worker-resolvable)."""
    _FACTORIES[name] = factory


def _builtin_factory(name: str):
    """Resolve the built-in ``family:item`` factory namespace lazily."""
    family, _, item = name.partition(":")
    if family == "mcnc":
        from repro.circuits import mcnc_suite

        for spec in mcnc_suite():
            if spec.name == item:
                return lambda spec=spec: spec.network.copy()
        raise ParallelError(f"unknown mcnc suite circuit {item!r}")
    if family == "iscas":
        from repro.circuits import iscas_suite

        for spec in iscas_suite():
            if spec.name == item:
                return lambda spec=spec: spec.network.copy()
        raise ParallelError(f"unknown iscas suite circuit {item!r}")
    if family == "example":
        import repro.circuits as circuits

        factory = getattr(circuits, item, None)
        if factory is None:
            raise ParallelError(f"unknown example circuit {item!r}")
        return factory
    raise ParallelError(f"unknown circuit factory {name!r}")


@dataclass(frozen=True)
class CircuitRef:
    """A picklable recipe for materializing a :class:`Network` in a worker.

    ``kind`` is one of:

    * ``"inline"``  — ``payload`` is the Network itself (small circuits;
      pickled with the task);
    * ``"factory"`` — ``payload`` names a registered or built-in factory
      (``"mcnc:m4"``, ``"example:figure4"``), re-run inside the worker so
      only the name crosses the process boundary;
    * ``"blif"`` / ``"bench"`` — ``payload`` is netlist text, parsed in
      the worker.

    ``key`` identifies the circuit for warm caching; two refs with the
    same key are assumed to resolve to the same network.
    """

    kind: str
    payload: object
    key: str

    @classmethod
    def inline(cls, network: Network, key: str | None = None) -> "CircuitRef":
        return cls("inline", network, key or network.name)

    @classmethod
    def factory(cls, name: str) -> "CircuitRef":
        return cls("factory", name, name)

    @classmethod
    def from_file(cls, path: str) -> "CircuitRef":
        kind = "bench" if path.endswith(".bench") else "blif"
        with open(path) as fh:
            return cls(kind, fh.read(), path)

    def resolve(self) -> Network:
        """Materialize a fresh network (callers own mutation rights)."""
        if self.kind == "inline":
            return self.payload.copy()
        if self.kind == "factory":
            factory = _FACTORIES.get(self.payload) or _builtin_factory(
                str(self.payload)
            )
            return factory()
        if self.kind == "blif":
            from repro.network import parse_blif

            return parse_blif(str(self.payload))
        if self.kind == "bench":
            from repro.network import parse_bench

            return parse_bench(str(self.payload))
        raise ParallelError(f"unknown circuit ref kind {self.kind!r}")


# ----------------------------------------------------------------------
# output cones — the per-output shard
# ----------------------------------------------------------------------
def output_cone(network: Network, outputs: Sequence[str]) -> Network:
    """The sub-network feeding ``outputs`` (transitive fanin closure).

    Required times computed on the cone are exactly the requirements that
    subset of outputs imposes; min-merging cones over all outputs gives
    the network-level (value-independent) requirement.
    """
    unknown = [o for o in outputs if o not in network.nodes]
    if unknown:
        raise ParallelError(f"unknown outputs {unknown} in {network.name}")
    keep: set[str] = set()
    stack = list(outputs)
    while stack:
        name = stack.pop()
        if name in keep:
            continue
        keep.add(name)
        stack.extend(network.nodes[name].fanins)
    cone = Network(f"{network.name}")
    for name in network.topological_order():
        if name not in keep:
            continue
        node = network.nodes[name]
        if node.is_input:
            cone.add_input(name)
        else:
            cone.add_node(name, list(node.fanins), node.cover.copy())
    cone.set_outputs([o for o in network.outputs if o in set(outputs)])
    return cone


# ----------------------------------------------------------------------
# the task envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``kind`` selects the worker-side handler (see
    :data:`repro.parallel.worker.HANDLERS`); ``payload`` is the
    handler-specific picklable argument dict.
    """

    task_id: str
    kind: str
    payload: dict = field(default_factory=dict, hash=False)
    circuit_key: str | None = None
    cost: float = 1.0
    #: wall-clock seconds the pool allows one attempt before the worker
    #: is killed and the task requeued (None = no limit)
    timeout: float | None = None
    #: extra attempts after a worker death or timeout (a clean task
    #: exception is deterministic and is *not* retried)
    max_retries: int = 2


def estimate_cost(
    network: Network,
    method: str,
    options: Mapping[str, object] | None = None,
) -> float:
    """Relative cost of one required-time analysis, for LPT ordering.

    Scales the method weight by circuit size and depth; a ``max_nodes``
    budget caps the estimate (an aborting run costs roughly its budget).
    """
    options = options or {}
    size = max(1, network.num_gates)
    depth = max(1, network.depth())
    weight = METHOD_WEIGHTS.get(method, 1.0)
    cost = weight * size * (1.0 + depth / 16.0)
    max_nodes = options.get("max_nodes")
    if max_nodes:
        cost = min(cost, weight * float(max_nodes) / 100.0)
    time_budget = options.get("time_budget")
    if time_budget:
        cost = min(cost, 1e4 * float(time_budget))
    return cost


def required_time_task(
    circuit: CircuitRef,
    method: str,
    output_required: Mapping[str, float] | float = 0.0,
    outputs: Sequence[str] | None = None,
    delays=None,
    options: Mapping[str, object] | None = None,
    cost: float | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    task_id: str | None = None,
) -> Task:
    """Build one required-time analysis task.

    ``outputs=None`` analyzes the whole network (the Table-1 shard:
    one task per (circuit, method)); a non-empty tuple restricts the
    analysis to that output cone (the per-output shard).
    """
    if task_id is None:
        task_id = f"{circuit.key}/{method}"
        if outputs is not None:
            task_id += "/" + ",".join(outputs)
    payload = {
        "circuit": circuit,
        "method": method,
        "output_required": output_required,
        "outputs": tuple(outputs) if outputs is not None else None,
        "delays": delays,
        "options": dict(options or {}),
    }
    return Task(
        task_id=task_id,
        kind="required",
        payload=payload,
        circuit_key=circuit.key,
        cost=cost if cost is not None else 1.0,
        timeout=timeout,
        max_retries=max_retries,
    )


def cone_task(
    circuit: CircuitRef,
    cone: Network,
    method: str,
    required: float,
    delays=None,
    options: Mapping[str, object] | None = None,
    timeout: float | None = None,
) -> Task:
    """The task analyzing one single-output cone: the per-output shard.

    ``circuit`` resolves to ``cone`` itself or to a network containing
    it; the worker cuts ``cone``'s output either way.  Every per-cone
    task is built here.
    """
    (out,) = cone.outputs
    return required_time_task(
        circuit,
        method,
        output_required={out: required},
        outputs=(out,),
        delays=delays,
        options=options,
        cost=estimate_cost(cone, method, options),
        timeout=timeout,
        task_id=f"{cone.name}/{method}/{out}",
    )


def shard_required_time(
    network: Network,
    method: str,
    output_required: Mapping[str, float] | float = 0.0,
    delays=None,
    options: Mapping[str, object] | None = None,
    timeout: float | None = None,
) -> list[Task]:
    """Shard one network's required-time analysis per primary output.

    Each task analyzes one output cone; :func:`repro.parallel.merge
    .merge_required_outcomes` min-combines the per-cone input
    requirements.  The merge is *sound* for every method (each output's
    constraint is enforced by its own cone) and *exact* for the
    topological baseline; for the approximate methods it can be tighter
    (less loose) than a whole-network run — see docs/PARALLEL.md.
    """
    from repro.timing import required_map

    ref = CircuitRef.inline(network)
    req_map = required_map(network, output_required)
    return [
        cone_task(
            ref, output_cone(network, [out]), method, req_map[out],
            delays=delays, options=options, timeout=timeout,
        )
        for out in network.outputs
    ]


def order_by_cost(tasks: Iterable[Task]) -> list[Task]:
    """Longest-processing-time-first schedule order (stable on ties)."""
    indexed = list(enumerate(tasks))
    indexed.sort(key=lambda pair: (-pair[1].cost, pair[0]))
    return [task for _, task in indexed]


__all__ = [
    "CircuitRef",
    "METHOD_WEIGHTS",
    "ParallelError",
    "Task",
    "cone_task",
    "estimate_cost",
    "order_by_cost",
    "output_cone",
    "register_factory",
    "required_time_task",
    "shard_required_time",
]
