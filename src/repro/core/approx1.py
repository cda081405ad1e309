"""Approximate approach 1 (Section 4.2): the monotone F(α, β).

The subset-ordering chains of the exact formulation are *encoded away*
with fresh parameter variables:

    χ_{x,1}^{t_{p_x}}   = x · α_1
    χ_{x,1}^{t_{p_x-1}} = x · α_1 α_2
    ...
    χ_{x,1}^{t_1}       = x · α_1 α_2 … α_{p_x}

(and dually with β for value 0).  Universally quantifying the primary
inputs from the two output-equality constraints yields F(α, β), which is a
**monotone increasing** function (Theorem 1, proved through Lemmas 1–3 and
Corollary 1, all of which the test suite checks on constructed instances).
Each *prime* of F — a set of parameters that must be 1, minimal — is one
latest required-time assignment; the all-ones assignment is the
topological one, so the analysis is non-trivial exactly when some prime is
a proper subset of the parameter set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.bdd import BddNode, create_manager, monotone_primes
from repro.bdd.minimal import is_monotone_increasing
from repro.bdd.reorder import sift
from repro.core.leaves import LeafTimes, enumerate_leaf_times
from repro.core.required_time import INF, RequiredTimeProfile
from repro.errors import TimingError
from repro.network.network import Network
from repro.network.verify import global_functions
from repro.obs.trace import span
from repro.timing.chi import ChiBdd, ChiUnrolling
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import required_map


@dataclass
class Approx1Result:
    """Primes of F(α, β) interpreted as required-time profiles."""

    circuit: str
    primes: list[frozenset[str]]
    profiles: list[RequiredTimeProfile]
    num_parameters: int
    parameter_names: list[str]
    nontrivial: bool
    #: name of every parameter variable, per (input, value): the chain
    chains: dict[tuple[str, int], list[str]] = field(default_factory=dict)

    def topological_profile_index(self) -> int | None:
        """Index of the prime equal to the full parameter set, if any."""
        full = frozenset(self.parameter_names)
        for i, p in enumerate(self.primes):
            if p == full:
                return i
        return None


class Approx1Analysis:
    """Builds F(α, β) and extracts its primes."""

    def __init__(
        self,
        network: Network,
        delays: DelayModel | None = None,
        output_required: Mapping[str, float] | float = 0.0,
        max_nodes: int | None = None,
        reorder: bool = False,
        max_leaves: int = 50_000,
        check_theorems: bool = True,
        backend: str | None = None,
    ):
        self.network = network
        self.delays = delays or unit_delay()
        self.output_required = required_map(network, output_required)
        #: the one χ unrolling both the inventory and F(α, β) read
        self.unrolling = ChiUnrolling(network, self.delays)
        with span("approx1.enumerate_leaves", circuit=network.name):
            self.leaves: LeafTimes = enumerate_leaf_times(
                self.unrolling, self.output_required, max_leaves=max_leaves
            )
        self.manager = create_manager(backend, max_nodes=max_nodes)
        self.reorder = reorder
        self.check_theorems = check_theorems
        self._built: tuple[BddNode, dict[tuple[str, int], list[str]]] | None = None

    # ------------------------------------------------------------------
    def build_f(self) -> tuple[BddNode, dict[tuple[str, int], list[str]]]:
        """Construct F(α, β); returns it with the per-(input,value) chains."""
        if self._built is not None:
            return self._built
        with span("approx1.build_f", circuit=self.network.name) as sp:
            built = self._build_f()
            sp.set(parameters=sum(len(v) for v in built[1].values()))
        return built

    def _build_f(self) -> tuple[BddNode, dict[tuple[str, int], list[str]]]:
        m = self.manager
        net = self.network

        # Variable order: all primary inputs first, then the parameter
        # chains grouped by input.  Unlike the exact relation (where each
        # input couples mostly with its own leaf chain, so interleaving
        # wins), the approx-1 constraints are universally quantified over
        # X at the end; keeping X contiguous at the top makes the
        # quantification local and measurably cheaper on arithmetic
        # circuits (~2x node count on the carry-skip suite).
        for pi in net.inputs:
            m.add_var(pi)
        chains: dict[tuple[str, int], list[str]] = {}
        for pi in net.inputs:
            for value, table, greek in (
                (1, self.leaves.for_one, "alpha"),
                (0, self.leaves.for_zero, "beta"),
            ):
                times = table.get(pi, ())
                names = []
                for j in range(1, len(times) + 1):
                    name = f"{greek}[{pi},{j}]"
                    m.add_var(name)
                    names.append(name)
                chains[(pi, value)] = names

        # leaf functions: sorted times ascending t_1 < ... < t_p; the leaf
        # at t_i is literal · α_1 · ... · α_{p-i+1}
        leaf_cache: dict[tuple[str, int, float], BddNode] = {}
        for pi in net.inputs:
            for value, table in ((1, self.leaves.for_one), (0, self.leaves.for_zero)):
                times = table.get(pi, ())
                p = len(times)
                literal = m.var(pi) if value else m.nvar(pi)
                chain = chains[(pi, value)]
                for i, t in enumerate(times, start=1):
                    leaf_cache[(pi, value, t)] = m.conjoin(
                        [literal] + [m.var(chain[j]) for j in range(p - i + 1)]
                    )

        # the inventory visited every triple the χ fold can reach
        chi = ChiBdd(
            self.unrolling,
            m,
            lambda name, value, t: leaf_cache[(name, value, t)],
        )
        req = self.output_required

        with span("approx1.global_functions"):
            onsets = global_functions(net, m)
        x_vars = list(net.inputs)

        f = m.true
        with span("approx1.quantify_outputs", outputs=len(req)):
            for out, t in req.items():
                on = onsets[out]
                c1 = chi.chi(out, 1, t).equiv(on)
                c0 = chi.chi(out, 0, t).equiv(~on)
                # ∀X.(c1 ∧ c0) fused: never materializes the conjunction BDD
                # (and equals ∀X.c1 ∧ ∀X.c0 since ∀ distributes over ∧)
                f = f & m.and_forall(x_vars, c1, c0)
                # safe point: everything needed is wrapper-protected
                m.maybe_garbage_collect()

        if self.check_theorems:
            with span("approx1.check_theorem1"):
                self._check_theorem1(f, chains)

        if self.reorder:
            with span("approx1.reorder"):
                sift(m)
        self._built = (f, chains)
        return self._built

    def _check_theorem1(self, f: BddNode, chains) -> None:
        m = self.manager
        # Corollary 1: the all-ones assignment satisfies F
        all_ones = {
            name: 1 for names in chains.values() for name in names
        }
        if all_ones and not m.restrict(f, all_ones).is_true:
            raise TimingError(
                "Corollary 1 violated: all-ones parameter assignment does "
                "not satisfy F — construction bug"
            )
        if not all_ones and not f.is_true:
            raise TimingError("parameter-free F should be a tautology")
        # Theorem 1: F monotone increasing in the parameters
        if not is_monotone_increasing(f):
            raise TimingError("Theorem 1 violated: F is not monotone increasing")

    # ------------------------------------------------------------------
    def run(self) -> Approx1Result:
        f, chains = self.build_f()
        parameter_names = [n for names in chains.values() for n in names]
        with span("approx1.enumerate_primes"):
            primes = sorted(monotone_primes(f), key=lambda p: (len(p), sorted(p)))
        chain_of = {name: key for key, names in chains.items() for name in names}
        profiles = [self._prime_to_profile(p, chains, chain_of) for p in primes]
        full = frozenset(parameter_names)
        nontrivial = any(p != full for p in primes)
        return Approx1Result(
            circuit=self.network.name,
            primes=primes,
            profiles=profiles,
            num_parameters=len(parameter_names),
            parameter_names=parameter_names,
            nontrivial=nontrivial,
            chains=chains,
        )

    def _prime_to_profile(
        self,
        prime: frozenset[str],
        chains: dict[tuple[str, int], list[str]],
        chain_of: Mapping[str, tuple[str, int]],
    ) -> RequiredTimeProfile:
        """Interpret one prime as per-input, per-value required times.

        In a prime the set parameters of each chain form a prefix α_1..α_k
        (a non-prefix assignment is never minimal because α_{j} only
        matters when α_1..α_{j-1} are all 1).  With k of p parameters set,
        the earliest time whose leaf χ is forced to the literal is
        t_{p-k+1}; with k = 0 the input is never required for that value.

        ``chain_of`` names each parameter's chain, so counting and the
        prefix test touch each parameter of the prime once.
        """
        count = Counter(map(chain_of.__getitem__, prime))
        for key, k in count.items():
            # k parameters of this chain are set: a prefix iff its first k are
            if not prime.issuperset(chains[key][:k]):
                raise TimingError(
                    f"non-prefix prime on chain {chains[key]}: {sorted(prime)}"
                )
        for_zero, for_one = self.leaves.for_zero, self.leaves.for_one
        times: dict[str, tuple[float, float]] = {}
        for pi in self.network.inputs:
            # t_{p-k+1} is the k-th time from the end of t_1 < ... < t_p
            k0, k1 = count[(pi, 0)], count[(pi, 1)]
            times[pi] = (
                for_zero[pi][-k0] if k0 else INF,
                for_one[pi][-k1] if k1 else INF,
            )
        return RequiredTimeProfile.from_dict(times)
