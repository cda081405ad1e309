"""The χ-function engine (McGeer-Saldanha-Brayton-Sangiovanni [9]).

``χ_{n,v}^t`` is the characteristic function of the primary-input vectors
under which node *n* is stable at value *v* by time *t*, computed
recursively (Section 2.3 of the paper):

.. math::

    χ_{n,v}^t = \\sum_{p ∈ P_n^v} \\; \\prod_{m_i ∈ p} χ_{m_i,1}^{t-d_n}
                \\cdot \\prod_{\\overline{m_i} ∈ p} χ_{m_i,0}^{t-d_n}

where ``P_n^1``/``P_n^0`` are the primes of the node function and of its
complement, with the terminal case ``χ_{x,v}^t = literal if t ≥ arr(x) else
0`` at primary inputs.

The recursion is unrolled once, by :class:`ChiUnrolling`, into a table
from each (signal, value, time) triple to its prime cubes of child
triples.  The table does not depend on arrival times; the paper's
algorithms differ only in what stands at the leaves, so three readers of
one unrolling serve them all:

* :class:`ChiBdd` — χ as BDDs over the primary inputs, with every leaf
  triple supplied by a callback: fresh variables for the exact relation
  (§4.1), α/β products for approximate approach 1 (§4.2), and known
  arrival times (:func:`known_arrival_leaf`) in :class:`ChiEngine`.
* :class:`ChiSat` — the recursion for one (output, T) emitted as CNF with
  the arrival times left open as selector variables, so one solver answers
  stability under every arrival map; the scalable engine of the paper's
  second approximate algorithm (§4.3).
* :func:`repro.core.leaves.enumerate_leaf_times` — the leaf inventory:
  every leaf triple the recursion references from the outputs.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.bdd import BddManager, BddNode, create_manager
from repro.errors import ResourceLimitError, TimingError
from repro.network.network import Network
from repro.network.verify import global_functions
from repro.obs.trace import span
from repro.sat import Cnf, Solver
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import arrival_map

#: one (signal, value, time) triple of the recursion
Triple = tuple[str, int, float]
#: the leaf callback of :class:`ChiBdd`: the BDD of one primary-input triple
LeafFn = Callable[[str, int, float], BddNode]
#: the ``table.get`` default that tells an unexpanded triple from an input
MISSING = object()


def _arrival_pair(t: object) -> tuple[float, float]:
    """Normalize a scalar or (arr_for_0, arr_for_1) pair arrival time."""
    if isinstance(t, (tuple, list)):
        if len(t) != 2:
            raise TimingError(f"arrival pair must have two entries, got {t!r}")
        return (float(t[0]), float(t[1]))
    return (float(t), float(t))


def _triple(name: str, value: int, t: float) -> Triple:
    """The memo key of χ_{name,value}^t; rejects a value other than 0/1."""
    if value not in (0, 1):
        raise TimingError(f"value must be 0 or 1, got {value}")
    return (name, value, float(t))


class ChiUnrolling:
    """The χ recursion of one network under one delay model, unrolled on
    demand.

    ``table`` maps every expanded (signal, value, t) triple to its prime
    cubes, in prime order, each cube a tuple of child triples in fanin
    order.  A primary input maps to ``None``.  An empty tuple of cubes is
    constant 0 (an empty prime cover); an empty cube is a literal-free
    prime, so that triple is constant 1.  The table holds no arrival time,
    so every reader and every arrival map can share it.

    :meth:`expand` is the only code that reads ``node.primes()`` for χ.
    Readers look a triple up with ``table.get(key, MISSING)`` and call
    :meth:`expand` only on a miss, which keeps a reader's cost per triple
    at one dict probe.
    """

    def __init__(self, network: Network, delays: DelayModel | None = None):
        self.network = network
        self.delays = delays or unit_delay()
        self.table: dict[Triple, tuple[tuple[Triple, ...], ...] | None] = {}

    def expand(self, key: Triple) -> tuple[tuple[Triple, ...], ...] | None:
        """Compute, store and return the cubes of one triple."""
        name, value, t = key
        node = self.network.node(name)
        if node.is_input:
            cubes = None
        else:
            onset_primes, offset_primes = node.primes()
            t_in = t - self.delays.of_value(name, value)
            fanins = node.fanins
            built = []
            for cube in onset_primes if value else offset_primes:
                children = []
                for i, fanin in enumerate(fanins):
                    phase = cube.literal(i)
                    if phase is not None:
                        children.append((fanin, phase, t_in))
                built.append(tuple(children))
            cubes = tuple(built)
        self.table[key] = cubes
        return cubes


class ChiBdd:
    """χ functions as BDDs, read from an unrolling.

    ``leaf(name, value, t)`` supplies the BDD of each primary-input triple
    the recursion reaches.  A product stops at its first constant-0 child,
    and the sum stops at the first product that is constant 1.
    """

    def __init__(
        self, unrolling: ChiUnrolling, manager: BddManager, leaf: LeafFn
    ):
        self.unrolling = unrolling
        self.manager = manager
        self.leaf = leaf
        self._memo: dict[Triple, BddNode] = {}

    def chi(self, name: str, value: int, t: float) -> BddNode:
        """The BDD of χ_{name,value}^t."""
        return self._build(_triple(name, value, t))

    def _build(self, key: Triple) -> BddNode:
        """Memoized fold of the unrolling below ``key``."""
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        cubes = self.unrolling.table.get(key, MISSING)
        if cubes is MISSING:
            cubes = self.unrolling.expand(key)
        if cubes is None:
            result = self.leaf(*key)
        else:
            m = self.manager
            terms: list[BddNode] = []
            saturated = False
            for cube in cubes:
                operands: list[BddNode] = []
                for child in cube:
                    operand = self._build(child)
                    if operand.is_false:
                        break
                    operands.append(operand)
                else:
                    term = m.conjoin(operands)
                    if term.is_true:
                        saturated = True
                        break
                    if not term.is_false:
                        terms.append(term)
            result = m.true if saturated else m.disjoin(terms)
        self._memo[key] = result
        return result


def known_arrival_leaf(
    manager: BddManager, arrivals: Mapping[str, object]
) -> LeafFn:
    """The leaf of functional timing: input x's literal once t reaches its
    arrival time for that value, constant 0 before.

    ``arrivals`` gives each input a scalar or an ``(arr_for_0,
    arr_for_1)`` pair; the paper's exact and approx-1 algorithms
    distinguish the two values.
    """
    pairs = {name: _arrival_pair(t) for name, t in arrivals.items()}

    def leaf(name: str, value: int, t: float) -> BddNode:
        if t >= pairs[name][value]:
            return manager.var(name) if value else manager.nvar(name)
        return manager.false

    return leaf


class ChiEngine(ChiBdd):
    """BDD-based χ functions for a network with *known* arrival times: a
    :class:`ChiBdd` over its own unrolling with :func:`known_arrival_leaf`
    (inputs missing from ``arrivals`` arrive at 0)."""

    def __init__(
        self,
        network: Network,
        delays: DelayModel | None = None,
        arrivals: Mapping[str, object] | None = None,
        manager: BddManager | None = None,
    ):
        known = arrival_map(network, arrivals)
        manager = manager or create_manager()
        for pi in network.inputs:
            if not manager.has_var(pi):
                manager.add_var(pi)
        super().__init__(
            ChiUnrolling(network, delays), manager, known_arrival_leaf(manager, known)
        )

    def chi(self, name: str, value: int, t: float) -> BddNode:
        """The BDD of χ_{name,value}^t."""
        key = _triple(name, value, t)
        cached = self._memo.get(key)
        if cached is not None:  # memo hits skip the span entirely
            return cached
        # one span per top-level query; the recursion below goes uninstrumented
        with span("chi.build", node=name, value=value, t=key[2]):
            return self._build(key)

    def stable(self, name: str, t: float) -> BddNode:
        """χ̃ — the set of input vectors stabilizing ``name`` by ``t``."""
        return self.chi(name, 1, t) | self.chi(name, 0, t)

    def is_stable_by(self, name: str, t: float) -> bool:
        """All input vectors stabilize ``name`` by ``t``?"""
        return self.stable(name, t).is_true

    def check_onset_invariant(self, name: str, t: float) -> bool:
        """Verify χ_{n,1}^t ⊆ onset(n) and χ_{n,0}^t ⊆ offset(n).

        Holds by construction under the XBD0 model (Lemma 3's boundary
        case); exposed for the test suite.
        """
        funcs = global_functions(self.unrolling.network, self.manager)
        on = funcs[name]
        return (
            self.chi(name, 1, t).implies(on).is_true
            and self.chi(name, 0, t).implies(~on).is_true
        )


class ChiSat:
    """SAT stability oracle for one output and required time.

    The recursion for ``χ_{output,1}^T ∨ χ_{output,0}^T`` is read once from
    the unrolling, straight into CNF.  Arrival times are left open: each
    leaf triple ⟨x, v, t'⟩ gets a selector variable meaning "t' ≥ arr(x,
    v)", and :meth:`stable_by` passes the selectors' values for one arrival
    map as solver assumptions.  One :class:`~repro.sat.Solver`, built once,
    thus answers every arrival map and keeps what it learnt between
    queries.

    χ is positive in its children, and the only question asked is whether
    the union can be 0, so one-sided (Plaisted-Greenbaum) clauses suffice:
    ``n ∨ ¬c_1 ∨ … ∨ ¬c_k`` per prime cube, ``leaf ∨ ¬lit(x, v) ∨ ¬sel``
    per leaf triple, and the units ``¬χ_1`` and ``¬χ_0``.  Structural
    constants still fold (an empty prime cover is 0, a literal-free prime
    is 1), repeated children merge, and only the primary inputs the
    unrolling reaches get a variable.
    """

    def __init__(self, unrolling: ChiUnrolling, output: str, required_time: float):
        self.output = output
        self.required_time = float(required_time)
        table = unrolling.table
        expand = unrolling.expand
        cnf = Cnf()
        input_var: dict[str, int] = {}
        #: per primary input, its leaf triples as (value, t', selector)
        self._leaves: dict[str, list[tuple[int, float, int]]] = {}
        # (signal, value, t) -> CNF variable, or a bool for a constant
        memo: dict[Triple, int | bool] = {}

        def chi(key: Triple) -> int | bool:
            hit = memo.get(key)
            if hit is not None:
                return hit
            cubes = table.get(key, MISSING)
            if cubes is MISSING:
                cubes = expand(key)
            if cubes is None:
                name, value, t = key
                x = input_var.get(name)
                if x is None:
                    x = input_var[name] = cnf.new_var()
                sel = cnf.new_var()
                result = cnf.new_var()
                cnf.add_clause_unchecked([result, -x if value else x, -sel])
                self._leaves.setdefault(name, []).append((value, t, sel))
            else:
                products: list[list[int]] = []
                result = False
                for cube in cubes:
                    children: list[int] = []
                    for child_key in cube:
                        child = chi(child_key)
                        if child is False:
                            break
                        if child is not True and child not in children:
                            children.append(child)
                    else:
                        if not children:
                            result = True
                            break
                        products.append(children)
                if result is not True and products:
                    result = cnf.new_var()
                    for children in products:
                        cnf.add_clause_unchecked([result] + [-c for c in children])
            memo[key] = result
            return result

        t = self.required_time
        with span("chi.unroll", output=output, t=t) as sp:
            roots = (chi((output, 1, t)), chi((output, 0, t)))
            sp.set(variables=cnf.num_vars, clauses=cnf.num_clauses)
        # the recursive closure refers to itself; break that cycle so the
        # memo and the Cnf are freed on return, not at the next full GC
        del chi
        # variable ids are ints, so constants are told apart by identity
        #: the verdict when χ_1 ∨ χ_0 folded to a constant, else None
        self._constant: bool | None = None
        self._solver: Solver | None = None
        if any(root is True for root in roots):
            self._constant = True
        elif all(root is False for root in roots):
            self._constant = False
        else:
            for root in roots:
                if root is not False:
                    cnf.add_clause_unchecked([-root])
            self._solver = Solver(cnf)

    def stable_by(
        self,
        arrivals: Mapping[str, object],
        max_conflicts: int | None = None,
    ) -> bool:
        """Is the output stable by the required time for every input vector,
        under ``arrivals`` (scalar or ``(arr0, arr1)`` per input; missing
        inputs arrive at 0)?"""
        with span(
            "chi.stability_check", output=self.output, t=self.required_time,
            engine="sat",
        ):
            if self._solver is None:
                return self._constant
            assumptions: list[int] = []
            for name, leaves in self._leaves.items():
                arr = _arrival_pair(arrivals.get(name, 0.0))
                for value, t, sel in leaves:
                    assumptions.append(sel if t >= arr[value] else -sel)
            return not self._solver.solve(assumptions, max_conflicts=max_conflicts)


def candidate_times(
    network: Network,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    max_per_node: int = 10_000,
) -> dict[str, list[float]]:
    """All potential stabilization moments of every node.

    ``times(x) = {arr(x)}`` at a primary input; ``times(n) = {t + d_n}``
    over all fanin times at a gate.  The true arrival time of a node under
    the XBD0 model is always one of its candidate times, so delay search
    can restrict itself to this set.  ``max_per_node`` guards against the
    exponential blowup possible with irrational delay mixes.
    """
    delays = delays or unit_delay()
    arrivals = arrival_map(network, arrivals)
    times: dict[str, list[float]] = {}
    with span("chi.candidate_times", nodes=len(network.nodes)):
        _candidate_times_into(network, delays, arrivals, max_per_node, times)
    return times


def _candidate_times_into(
    network: Network,
    delays: DelayModel,
    arrivals: Mapping[str, float],
    max_per_node: int,
    times: dict[str, list[float]],
) -> None:
    """Fill ``times`` with each node's candidate stabilization instants."""
    for name in network.topological_order():
        node = network.nodes[name]
        if node.is_input:
            times[name] = sorted(set(_arrival_pair(arrivals[name])))
            continue
        gate_delays = {delays.of_value(name, 0), delays.of_value(name, 1)}
        merged: set[float] = set()
        for fanin in node.fanins:
            for d in gate_delays:
                merged.update(t + d for t in times[fanin])
        if not merged:
            merged = set(gate_delays)
        if len(merged) > max_per_node:
            raise ResourceLimitError(
                f"node {name!r} has more than {max_per_node} candidate times"
            )
        times[name] = sorted(merged)
