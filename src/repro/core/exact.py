"""The exact algorithm (Section 4.1): required times as a Boolean relation.

Construction:

1. enumerate the leaf χ variables (one fresh BDD variable per
   ⟨input, value, time⟩ triple; inputs with a known arrival time keep
   concrete leaves instead),
2. build χ_{z,1}^T and χ_{z,0}^T over those unknowns from the same χ
   unrolling that enumerated them,
3. constrain them to equal the output onset/offset, conjoined with the
   subset-ordering chains  ∅ ⊆ χ_{x,v}^{t_1} ⊆ … ⊆ χ_{x,v}^{t_k} ⊆ literal,
4. the result F(X, χ_X) is the characteristic function of a Boolean
   relation: for every input minterm, the set of permissible stability
   vectors.

Queries on the relation reproduce the paper's Section 4.1 tables: full
per-minterm rows, the minimal-element (latest required time) sub-relation,
the required-time profiles of any slice of the relation, and a compatible
function assignment (one Boolean-unification solution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.bdd import BddManager, BddNode, create_manager, minimal_elements
from repro.bdd.reorder import sift
from repro.core.leaves import LeafTimes, enumerate_leaf_times
from repro.core.required_time import INF, RequiredTimeProfile
from repro.errors import ResourceLimitError, TimingError
from repro.network.network import Network
from repro.network.verify import global_functions
from repro.obs.trace import span
from repro.timing.chi import ChiBdd, ChiUnrolling, known_arrival_leaf
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import required_map


@dataclass(frozen=True)
class LeafVar:
    """One leaf χ variable: χ_{input,value}^{time} as a BDD variable."""

    input: str
    value: int
    time: float
    var_name: str


class ExactAnalysis:
    """Builds the exact Boolean relation for one network.

    ``known_arrivals`` names the primary inputs whose arrival times are
    given (a scalar or an ``(arr_for_0, arr_for_1)`` pair each): they keep
    concrete χ leaves (:func:`~repro.timing.chi.known_arrival_leaf`) and
    get no leaf variable and no ordering chain.  Section 5.2 runs this on
    N_FO, where only the subcircuit outputs are unknown.

    ``reorder`` mirrors the paper's §6 setup ("the exact algorithm was run
    with dynamic variable reordering being set"): automatic sifting while
    the relation is built, plus a final :func:`repro.bdd.reorder.sift`
    pass over the finished relation.  ``backend`` selects the BDD kernel
    (``object`` / ``native``; ``None`` defers to ``REPRO_BDD_BACKEND``,
    see docs/BDD_BACKENDS.md).
    """

    def __init__(
        self,
        network: Network,
        delays: DelayModel | None = None,
        output_required: Mapping[str, float] | float = 0.0,
        max_nodes: int | None = None,
        reorder: bool = False,
        max_leaves: int = 50_000,
        output_dc: Mapping[str, object] | None = None,
        backend: str | None = None,
        known_arrivals: Mapping[str, object] | None = None,
    ):
        self.network = network
        self.delays = delays or unit_delay()
        self.output_required = required_map(network, output_required)
        self.known_arrivals = dict(known_arrivals or {})
        stray = set(self.known_arrivals) - set(network.inputs)
        if stray:
            raise TimingError(f"known arrival times for non-inputs {sorted(stray)}")
        #: footnote 3 extension: per-output don't-care sets (a
        #: :class:`repro.sop.Cover` over the primary inputs, in
        #: ``network.inputs`` column order).  On don't-care vectors no
        #: stability is demanded at all, which enlarges the relation.
        self.output_dc = dict(output_dc or {})
        #: the one χ unrolling both the inventory and the relation read
        self.unrolling = ChiUnrolling(network, self.delays)
        with span("exact.enumerate_leaves", circuit=network.name):
            self.leaves: LeafTimes = enumerate_leaf_times(
                self.unrolling, self.output_required, max_leaves=max_leaves
            )
        self.manager = create_manager(
            backend,
            max_nodes=max_nodes,
            auto_reorder=reorder,
            reorder_threshold=50_000,
        )
        self.reorder = reorder
        self._relation: ExactRelation | None = None

    def relation(self) -> "ExactRelation":
        if self._relation is not None:
            return self._relation
        with span("exact.build_relation", circuit=self.network.name) as sp:
            relation = self._build_relation()
            sp.set(
                leaf_vars=len(relation.leaf_vars),
                relation_nodes=self.manager.size(relation.F),
            )
        return relation

    def _build_relation(self) -> "ExactRelation":
        m = self.manager
        net = self.network

        # Interleave each primary-input variable with its own leaf
        # variables: the relation couples an input only with its own χ
        # chain and its cluster's neighbors, so this order keeps the
        # constraint BDDs local (the all-X-then-all-leaves order exhibits
        # the classical interleaving blowup on clustered circuits).
        known = self.known_arrivals
        unknown = [pi for pi in net.inputs if pi not in known]
        leaf_vars: list[LeafVar] = []
        leaf_index: dict[tuple[str, int, float], LeafVar] = {}
        for pi in net.inputs:
            m.add_var(pi)
            if pi in known:
                continue
            for value, table in ((1, self.leaves.for_one), (0, self.leaves.for_zero)):
                for t in table.get(pi, ()):
                    name = f"chi[{pi},{value},{t:g}]"
                    m.add_var(name)
                    lv = LeafVar(pi, value, t, name)
                    leaf_vars.append(lv)
                    leaf_index[(pi, value, t)] = lv

        # the inventory visited every triple the χ fold can reach
        arrival = known_arrival_leaf(m, known)

        def leaf(name: str, value: int, t: float) -> BddNode:
            if name in known:
                return arrival(name, value, t)
            return m.var(leaf_index[(name, value, t)].var_name)

        chi = ChiBdd(self.unrolling, m, leaf)
        req = self.output_required

        with span("exact.global_functions"):
            onsets = global_functions(net, m)

        def maybe_gc() -> None:
            # safe point between top-level operations: every needed node is
            # protected by a BddNode wrapper (relation, onsets, χ memo), so
            # construction garbage can be reclaimed against the budget
            threshold = (
                self.manager.max_nodes // 2
                if self.manager.max_nodes
                else 500_000
            )
            if m.num_nodes > threshold:
                m.garbage_collect()

        constraints: list[BddNode] = []
        with span("exact.output_constraints", outputs=len(req)):
            for out, t in req.items():
                on = onsets[out]
                one_ok = chi.chi(out, 1, t).equiv(on)
                zero_ok = chi.chi(out, 0, t).equiv(~on)
                dc_cover = self.output_dc.get(out)
                if dc_cover is not None:
                    from repro.network.verify import _cover_bdd

                    dc = _cover_bdd(m, dc_cover, [m.var(pi) for pi in net.inputs])
                    care = ~dc
                    constraints.append(care.implies(one_ok))
                    constraints.append(care.implies(zero_ok))
                else:
                    constraints.append(one_ok)
                    constraints.append(zero_ok)
                maybe_gc()

        # ordering chains and literal bounds (balanced conjunction per
        # input keeps the intermediate relation BDDs from going lopsided)
        with span("exact.chain_constraints", inputs=len(unknown)):
            for pi in unknown:
                chain_constraints: list[BddNode] = []
                for value, table in ((1, self.leaves.for_one), (0, self.leaves.for_zero)):
                    times = table.get(pi, ())
                    bound = m.var(pi) if value else m.nvar(pi)
                    prev: BddNode | None = None
                    for t in times:  # ascending
                        cur = m.var(leaf_index[(pi, value, t)].var_name)
                        if prev is not None:
                            chain_constraints.append(prev.implies(cur))
                        prev = cur
                    if prev is not None:
                        chain_constraints.append(prev.implies(bound))
                if chain_constraints:
                    constraints.append(m.conjoin(chain_constraints))
                maybe_gc()

        # Balanced pairwise reduction over *handles*, with a GC safe point
        # between rounds: the handles of a finished round are dropped as the
        # list is rebuilt, so intermediate products are reclaimable instead
        # of pinning the unique table for the whole construction.
        with span("exact.conjoin", constraints=len(constraints)):
            while len(constraints) > 1:
                nxt: list[BddNode] = []
                for i in range(0, len(constraints) - 1, 2):
                    nxt.append(constraints[i] & constraints[i + 1])
                if len(constraints) % 2:
                    nxt.append(constraints[-1])
                constraints = nxt
                maybe_gc()
            relation = constraints[0] if constraints else m.true

        if self.reorder:
            with span("exact.reorder"):
                sift(m)

        self._relation = ExactRelation(
            manager=m,
            network=net,
            relation_bdd=relation,
            leaf_vars=leaf_vars,
            output_required=req,
        )
        return self._relation


class ExactRelation:
    """The relation F(X, χ_X) = 1 with the paper's query surface."""

    def __init__(
        self,
        manager: BddManager,
        network: Network,
        relation_bdd: BddNode,
        leaf_vars: list[LeafVar],
        output_required: dict[str, float],
    ):
        self.manager = manager
        self.network = network
        self.F = relation_bdd
        self.leaf_vars = leaf_vars
        self.output_required = output_required

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_leaf_variables(self) -> int:
        return len(self.leaf_vars)

    @property
    def leaf_var_names(self) -> list[str]:
        return [lv.var_name for lv in self.leaf_vars]

    def _restrict_to_minterm(self, minterm: Mapping[str, int]) -> BddNode:
        missing = set(self.network.inputs) - set(minterm)
        if missing:
            raise TimingError(f"minterm missing inputs {sorted(missing)}")
        return self.manager.restrict(
            self.F, {x: int(minterm[x]) for x in self.network.inputs}
        )

    # ------------------------------------------------------------------
    # relation rows (the paper's Section 4.1 tables)
    # ------------------------------------------------------------------
    def _bit_rows(self, node: BddNode) -> set[str]:
        names = self.leaf_var_names
        return {
            "".join(str(sol[n]) for n in names)
            for sol in self.manager.sat_iter(node, names)
        }

    def rows(self, minterm: Mapping[str, int]) -> set[str]:
        """All permissible stability vectors at one input minterm, rendered
        as bit strings in ``leaf_vars`` order (the paper's table format)."""
        return self._bit_rows(self._restrict_to_minterm(minterm))

    def minimal_rows(self, minterm: Mapping[str, int]) -> set[str]:
        """The minimal elements: the latest-required-time sub-relation."""
        restricted = self._restrict_to_minterm(minterm)
        with span("exact.minimal_elements"):
            minimal = minimal_elements(restricted, self.leaf_var_names)
        return self._bit_rows(minimal)

    def profiles(
        self, slice_: BddNode, values: Mapping[str, int]
    ) -> set[RequiredTimeProfile]:
        """The minimal elements of one slice of F, read as required-time
        profiles over the signals in ``values`` at those values.

        ``slice_`` is F with some variables fixed (``F|m`` for a minterm,
        or a §5 fold restricted to a boundary vector).  In each minimal
        row, the required time of signal x at its value b is the earliest
        t with χ_{x,b}^t = 1; ``INF`` when no stability is demanded, also
        for a signal with no leaf variable at all.
        """
        chains: dict[tuple[str, int], list[LeafVar]] = {}
        for lv in self.leaf_vars:  # ascending time within each chain
            chains.setdefault((lv.input, lv.value), []).append(lv)
        names = self.leaf_var_names
        with span("exact.minimal_elements"):
            minimal = minimal_elements(slice_, names)
        result = set()
        for sol in self.manager.sat_iter(minimal, names):
            times: dict[str, tuple[float, float]] = {}
            for x, b in values.items():
                req = next(
                    (lv.time for lv in chains.get((x, b), ()) if sol[lv.var_name]),
                    INF,
                )
                times[x] = (req, INF) if b == 0 else (INF, req)
            result.add(RequiredTimeProfile.from_dict(times))
        return result

    def required_tuples(
        self, minterm: Mapping[str, int]
    ) -> set[RequiredTimeProfile]:
        """The latest required-time tuples at one minterm:
        :meth:`profiles` of ``F|minterm`` over every primary input.  An
        input with a known arrival time has no leaf variable, so it reads
        ``INF``: the relation demands nothing more of it."""
        restricted = self._restrict_to_minterm(minterm)
        return self.profiles(
            restricted, {x: int(minterm[x]) for x in self.network.inputs}
        )

    # ------------------------------------------------------------------
    # non-triviality
    # ------------------------------------------------------------------
    def topological_assignment(self) -> BddNode:
        """The BDD forcing every leaf χ variable to its literal bound — the
        assignment corresponding to topological required times (footnote 4
        of the paper: 'pick the last output pattern for each minterm')."""
        m = self.manager
        return m.conjoin(
            [
                m.var(lv.var_name).equiv(
                    m.var(lv.input) if lv.value else m.nvar(lv.input)
                )
                for lv in self.leaf_vars
            ]
        )

    def contains_topological(self) -> bool:
        """Sanity invariant: the topological assignment is always in F."""
        # ∀vars.(topo → F), fused: true iff topo ∧ ¬F is empty
        m = self.manager
        topo = self.topological_assignment()
        return m.forall_implied(m.var_names, topo, self.F).is_true

    def nontrivial(self) -> bool:
        """Some permissible row differs from the topological one, i.e. the
        relation encodes a strictly looser requirement somewhere."""
        # ∃vars.(F ∧ ¬topo), fused: the conjunction BDD is never built
        m = self.manager
        with span("exact.nontrivial"):
            topo = self.topological_assignment()
            return m.and_exists(m.var_names, self.F, ~topo).is_true

    # ------------------------------------------------------------------
    # compatible-function extraction (Boolean unification)
    # ------------------------------------------------------------------
    def choose_compatible(self, max_inputs: int = 14) -> dict[str, BddNode]:
        """One function assignment to the leaf χ variables compatible with F.

        Picks, per input minterm, the lexicographically smallest minimal
        row, and assembles each leaf variable's function of X as the union
        of the minterms where its bit is 1.  Exponential in |X|; guarded by
        ``max_inputs``.
        """
        inputs = self.network.inputs
        if len(inputs) > max_inputs:
            raise ResourceLimitError(
                f"compatible extraction over {len(inputs)} inputs exceeds "
                f"max_inputs={max_inputs}"
            )
        m = self.manager
        chosen: dict[str, BddNode] = {
            lv.var_name: m.false for lv in self.leaf_vars
        }
        import itertools

        for bits in itertools.product((0, 1), repeat=len(inputs)):
            minterm = dict(zip(inputs, bits))
            rows = self.minimal_rows(minterm)
            if not rows:
                raise TimingError(
                    f"relation empty at minterm {minterm}: inconsistent constraints"
                )
            row = min(rows)
            cube = m.from_cube(minterm)
            for name, bit in zip(self.leaf_var_names, row):
                if bit == "1":
                    chosen[name] = chosen[name] | cube
        return chosen

    def verify_assignment(self, assignment: Mapping[str, BddNode]) -> bool:
        """Check a leaf-function assignment satisfies F for every minterm."""
        m = self.manager
        ok = self.F
        # substitute each leaf variable with its function
        for name, func in assignment.items():
            ok = m.compose(ok, name, func)
        return ok.is_true
