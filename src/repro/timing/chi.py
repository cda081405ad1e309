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

Three realizations are provided:

* :class:`ChiEngine` — BDD-based: χ functions are BDDs over the primary
  inputs.
* :class:`ChiSat` — SAT-based: the recursion for one (output, T) is
  unrolled once into CNF with the arrival times left open as selector
  variables, so one solver answers stability under every arrival map;
  the scalable engine of the paper's second approximate algorithm.
* :func:`build_chi_network` — network-based: the χ recursion is *unrolled
  into a Boolean network* whose nodes are (signal, value, time) triples,
  with the arrival times folded in; the readable view of the same
  unrolling.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.bdd import BddManager, BddNode, create_manager
from repro.errors import ResourceLimitError, TimingError
from repro.network.network import Network
from repro.network.verify import global_functions
from repro.obs.trace import span
from repro.sat import Cnf, Solver
from repro.sop import Cover, Cube
from repro.timing.delay import DelayModel, unit_delay


def _arrival_pair(t: object) -> tuple[float, float]:
    """Normalize a scalar or (arr_for_0, arr_for_1) pair arrival time."""
    if isinstance(t, (tuple, list)):
        if len(t) != 2:
            raise TimingError(f"arrival pair must have two entries, got {t!r}")
        return (float(t[0]), float(t[1]))
    return (float(t), float(t))


class ChiEngine:
    """BDD-based χ functions for a network with *known* arrival times."""

    def __init__(
        self,
        network: Network,
        delays: DelayModel | None = None,
        arrivals: Mapping[str, float] | None = None,
        manager: BddManager | None = None,
    ):
        self.network = network
        self.delays = delays or unit_delay()
        # per-input arrival times, distinguished by value: (arr_for_0,
        # arr_for_1).  Callers may pass a scalar (same for both values) or a
        # 2-tuple; the paper's exact/approx-1 algorithms distinguish the two.
        self.arrivals: dict[str, tuple[float, float]] = {
            pi: (0.0, 0.0) for pi in network.inputs
        }
        if arrivals:
            for name, t in arrivals.items():
                if name not in self.arrivals:
                    raise TimingError(f"arrival time for non-input {name!r}")
                self.arrivals[name] = _arrival_pair(t)
        self.manager = manager or create_manager()
        for pi in network.inputs:
            if not self.manager.has_var(pi):
                self.manager.add_var(pi)
        self._memo: dict[tuple[str, int, float], BddNode] = {}

    def chi(self, name: str, value: int, t: float) -> BddNode:
        """The BDD of χ_{name,value}^t."""
        if value not in (0, 1):
            raise TimingError(f"value must be 0 or 1, got {value}")
        key = (name, value, float(t))
        if key in self._memo:  # memo hits skip the span entirely
            return self._memo[key]
        # one span per top-level query; the recursion below goes uninstrumented
        with span("chi.build", node=name, value=value, t=float(t)):
            return self._chi(name, value, float(t))

    def _chi(self, name: str, value: int, t: float) -> BddNode:
        """Memoized χ recursion body behind :meth:`chi`."""
        key = (name, value, t)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        node = self.network.node(name)
        m = self.manager
        if node.is_input:
            if t >= self.arrivals[name][value]:
                result = m.var(name) if value else m.nvar(name)
            else:
                result = m.false
        else:
            onset_primes, offset_primes = node.primes()
            primes = onset_primes if value else offset_primes
            t_in = t - self.delays.of_value(name, value)
            terms: list[BddNode] = []
            saturated = False
            for cube in primes:
                operands: list[BddNode] = []
                dead = False
                for i, fanin in enumerate(node.fanins):
                    phase = cube.literal(i)
                    if phase is None:
                        continue
                    child = self._chi(fanin, phase, t_in)
                    if child.is_false:
                        dead = True
                        break
                    operands.append(child)
                if dead:
                    continue
                term = m.conjoin(operands)
                if term.is_true:
                    saturated = True
                    break
                if not term.is_false:
                    terms.append(term)
            result = m.true if saturated else m.disjoin(terms)
        self._memo[key] = result
        return result

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
        funcs = global_functions(self.network, self.manager)
        on = funcs[name]
        return (
            self.chi(name, 1, t).implies(on).is_true
            and self.chi(name, 0, t).implies(~on).is_true
        )


class ChiSat:
    """SAT stability oracle for one output and required time.

    The recursion for ``χ_{output,1}^T ∨ χ_{output,0}^T`` is unrolled once,
    straight into CNF.  Arrival times are left open: each leaf triple
    ⟨x, v, t'⟩ gets a selector variable meaning "t' ≥ arr(x, v)", and
    :meth:`stable_by` passes the selectors' values for one arrival map as
    solver assumptions.  One :class:`~repro.sat.Solver`, built once, thus
    answers every arrival map and keeps what it learnt between queries.

    χ is positive in its children, and the only question asked is whether
    the union can be 0, so one-sided (Plaisted-Greenbaum) clauses suffice:
    ``n ∨ ¬c_1 ∨ … ∨ ¬c_k`` per prime cube, ``leaf ∨ ¬lit(x, v) ∨ ¬sel``
    per leaf triple, and the units ``¬χ_1`` and ``¬χ_0``.  Structural
    constants still fold (an empty prime cover is 0, a literal-free prime
    is 1), and only the primary inputs the unrolling reaches get a
    variable.
    """

    def __init__(
        self,
        network: Network,
        output: str,
        required_time: float,
        delays: DelayModel | None = None,
    ):
        delays = delays or unit_delay()
        self.output = output
        self.required_time = float(required_time)
        cnf = Cnf()
        input_var: dict[str, int] = {}
        #: per primary input, its leaf triples as (value, t', selector)
        self._leaves: dict[str, list[tuple[int, float, int]]] = {}
        # (signal, value, t) -> CNF variable, or a bool for a constant
        memo: dict[tuple[str, int, float], int | bool] = {}

        def chi(name: str, value: int, t: float) -> int | bool:
            key = (name, value, t)
            hit = memo.get(key)
            if hit is not None:
                return hit
            node = network.node(name)
            if node.is_input:
                x = input_var.get(name)
                if x is None:
                    x = input_var[name] = cnf.new_var()
                sel = cnf.new_var()
                result = cnf.new_var()
                cnf.add_clause_unchecked([result, -x if value else x, -sel])
                self._leaves.setdefault(name, []).append((value, t, sel))
            else:
                onset_primes, offset_primes = node.primes()
                primes = onset_primes if value else offset_primes
                t_in = t - delays.of_value(name, value)
                products: list[list[int]] = []
                result = False
                for cube in primes:
                    children: list[int] = []
                    for i, fanin in enumerate(node.fanins):
                        phase = cube.literal(i)
                        if phase is None:
                            continue
                        child = chi(fanin, phase, t_in)
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
            roots = (chi(output, 1, t), chi(output, 0, t))
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
    arrivals = arrivals or {}
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
            times[name] = sorted(set(_arrival_pair(arrivals.get(name, 0.0))))
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


def build_chi_network(
    network: Network,
    output: str,
    required_time: float,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    include_value: int | None = None,
) -> tuple[Network, str]:
    """Unroll the χ recursion into a Boolean network.

    The returned network has the same primary inputs as ``network`` and one
    output named ``__stable__`` computing ``χ_{output,1}^T ∨ χ_{output,0}^T``
    (or just one χ when ``include_value`` is 0 or 1).  A SAT check that
    ``__stable__`` can be 0 decides whether some input vector fails to
    stabilize the output by ``required_time``.
    """
    delays = delays or unit_delay()
    arrivals = arrivals or {}
    arr = {pi: _arrival_pair(arrivals.get(pi, 0.0)) for pi in network.inputs}

    chi_net = Network(f"chi_{network.name}")
    for pi in network.inputs:
        chi_net.add_input(pi)

    created: dict[tuple[str, int, float], str] = {}
    const_of: dict[str, int] = {}  # labels folded to constants

    def make_const(label: str, value: int) -> str:
        chi_net.add_node(label, [], Cover.one(0) if value else Cover.zero(0))
        const_of[label] = value
        return label

    def chi_name(name: str, value: int, t: float) -> str:
        key = (name, value, t)
        if key in created:
            return created[key]
        label = f"chi[{name},{value},{t:g}]"
        node = network.node(name)
        if node.is_input:
            if t >= arr[name][value]:
                chi_net.add_gate(label, "BUF" if value else "NOT", [name])
            else:
                make_const(label, 0)
        else:
            onset_primes, offset_primes = node.primes()
            primes = onset_primes if value else offset_primes
            t_in = t - delays.of_value(name, value)
            fanin_labels: list[str] = []
            fanin_index: dict[str, int] = {}
            cubes: list[Cube] = []
            is_const_one = False
            for cube in primes:
                # resolve children, folding constants: a 0-child kills the
                # product, a 1-child drops out of it
                lits: list[str] = []
                dead = False
                seen_children: set[str] = set()
                for i, fanin in enumerate(node.fanins):
                    phase = cube.literal(i)
                    if phase is None:
                        continue
                    child = chi_name(fanin, phase, t_in)
                    cval = const_of.get(child)
                    if cval == 0:
                        dead = True
                        break
                    if cval == 1 or child in seen_children:
                        continue
                    seen_children.add(child)
                    lits.append(child)
                if dead:
                    continue
                if not lits:
                    is_const_one = True
                    break
                cubes.append((lits,))
            if is_const_one:
                make_const(label, 1)
            elif not cubes:
                make_const(label, 0)
            else:
                for (lits,) in cubes:
                    for child in lits:
                        if child not in fanin_index:
                            fanin_index[child] = len(fanin_labels)
                            fanin_labels.append(child)
                width = len(fanin_labels)
                cover = Cover(
                    width,
                    [
                        Cube.from_literals(
                            width, {fanin_index[c]: 1 for c in lits}
                        )
                        for (lits,) in cubes
                    ],
                )
                chi_net.add_node(label, fanin_labels, cover)
        created[key] = label
        return label

    t = float(required_time)
    with span("chi.unroll", output=output, t=t) as sp:
        if include_value is None:
            one = chi_name(output, 1, t)
            zero = chi_name(output, 0, t)
            chi_net.add_gate("__stable__", "OR", [one, zero])
        else:
            target = chi_name(output, include_value, t)
            chi_net.add_gate("__stable__", "BUF", [target])
        sp.set(chi_nodes=len(chi_net.nodes))
    chi_net.set_outputs(["__stable__"])
    return chi_net, "__stable__"
