"""Functional (false-path aware) timing analysis.

Implements the delay-computation scenario of Section 2.3: stability of a
primary output by a required time is decided by comparing χ functions with
the output's onset/offset — here via the equivalent tautology check of
``χ_{z,1}^T ∨ χ_{z,0}^T`` (the χ functions are always contained in the
onset/offset under XBD0, so equality holds iff the union covers every
input vector).  Two interchangeable engines:

* ``engine="bdd"`` — build the χ BDDs and test for tautology,
* ``engine="sat"`` — emit the unrolled χ recursion as CNF
  (:class:`~repro.timing.chi.ChiSat`) and test unsatisfiability of its
  complement with the CDCL solver, following [9].

On top of the stability primitive: *true arrival times* by monotone search
over the candidate-time set, and *false-path detection* (true delay
strictly below the topological delay).
"""

from __future__ import annotations

from typing import Literal, Mapping

from repro.errors import TimingError
from repro.network.network import Network
from repro.obs.trace import span
from repro.timing.chi import ChiEngine, ChiSat, ChiUnrolling, candidate_times
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.topological import (
    arrival_map,
    arrival_times as topo_arrival_times,
    required_map,
)

Engine = Literal["bdd", "sat"]


class FunctionalTiming:
    """Functional timing analysis of one network under fixed delays; one
    engine answers every check, each under its own arrival map if given."""

    def __init__(
        self,
        network: Network,
        delays: DelayModel | None = None,
        arrivals: Mapping[str, float] | None = None,
        engine: Engine = "bdd",
        max_conflicts: int | None = None,
    ):
        if engine not in ("bdd", "sat"):
            raise TimingError(f"unknown engine {engine!r}")
        self.network = network
        self.delays = delays or unit_delay()
        # scalar or per-value (arr_for_0, arr_for_1) entries; normalization
        # happens in the χ engines
        self.arrivals = arrival_map(network, arrivals)
        self.engine = engine
        self.max_conflicts = max_conflicts
        #: the one χ unrolling every check reads, on either engine
        self.unrolling = ChiUnrolling(network, self.delays)
        self._outputs = frozenset(network.outputs)
        self._chi = ChiEngine(self.unrolling) if engine == "bdd" else None
        self._sat: dict[tuple[str, float], ChiSat] = {}
        # every node's candidate stabilization moments, computed once
        self._candidates: dict[str, list[float]] | None = None

    # ------------------------------------------------------------------
    # stability primitive
    # ------------------------------------------------------------------
    def output_stable_by(
        self, output: str, t: float, arrivals: Mapping[str, object] | None = None
    ) -> bool:
        """Is ``output`` stable (at its final value) by time ``t`` for every
        input vector, under the XBD0 model?"""
        return self.first_unstable({output: t}, arrivals) is None

    def all_stable_by(
        self,
        required: Mapping[str, float] | float,
        arrivals: Mapping[str, object] | None = None,
    ) -> bool:
        """Every primary output stable by its required time?"""
        return self.first_unstable(required_map(self.network, required), arrivals) is None

    def first_unstable(
        self, required: Mapping[str, float], arrivals: Mapping[str, object] | None = None
    ) -> str | None:
        """The first output of ``required``, in its order, that is not stable
        by its required time, or None when every one is."""
        unknown = required.keys() - self._outputs
        if unknown:
            raise TimingError(f"{sorted(unknown)[0]!r} is not a primary output")
        if arrivals is None:
            arrivals = self.arrivals
        if self._chi is not None:
            self._chi.set_arrivals(arrivals)  # checks the map itself
        elif not arrivals.keys() <= self.arrivals.keys():
            # ChiSat reads the map with .get: only a non-input name is wrong
            arrival_map(self.network, arrivals)  # raises TimingError
        for output, t in required.items():
            if self._chi is not None:
                stable = self._chi.is_stable_by(output, t)
            else:
                oracle = self._sat.get((output, t))
                if oracle is None:
                    oracle = self._sat[(output, t)] = ChiSat(self.unrolling, output, t)
                stable = oracle.stable_by(arrivals, self.max_conflicts)
            if not stable:
                return output
        return None

    # ------------------------------------------------------------------
    # true delay
    # ------------------------------------------------------------------
    def true_arrival(self, output: str) -> float:
        """The exact (false-path aware) arrival time of one output.

        Monotone binary search over the candidate-time set: stability is
        monotone non-decreasing in t, and the true arrival is always one of
        the candidate stabilization moments.
        """
        with span("chi.true_arrival", output=output, engine=self.engine):
            if self._candidates is None:
                self._candidates = candidate_times(
                    self.network, self.delays, self.arrivals
                )
            cands = self._candidates[output]
            lo, hi = 0, len(cands) - 1
            if not self.output_stable_by(output, cands[hi]):
                raise TimingError(
                    f"output {output!r} not stable even at its topological "
                    "delay; inconsistent model"
                )
            while lo < hi:
                mid = (lo + hi) // 2
                if self.output_stable_by(output, cands[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            return cands[lo]

    def true_arrivals(self) -> dict[str, float]:
        """Functional (false-path-aware) arrival per primary output."""
        return {o: self.true_arrival(o) for o in self.network.outputs}

    def functional_delay(self) -> float:
        """The false-path-aware delay of the whole network."""
        return max(self.true_arrivals().values())

    def topological_arrivals(self) -> dict[str, float]:
        """Longest-path arrival per primary output (the comparison base)."""
        arr = topo_arrival_times(self.network, self.delays, self.arrivals)
        return {o: arr[o] for o in self.network.outputs}


def stable_by(
    network: Network,
    required: Mapping[str, float] | float,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    engine: Engine = "bdd",
    max_conflicts: int | None = None,
) -> bool:
    """One-shot stability check of every primary output."""
    return FunctionalTiming(
        network, delays, arrivals, engine, max_conflicts
    ).all_stable_by(required)


def true_arrival_times(
    network: Network,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    engine: Engine = "bdd",
) -> dict[str, float]:
    """One-shot exact arrival times of every primary output."""
    return FunctionalTiming(network, delays, arrivals, engine).true_arrivals()


def has_false_paths(
    network: Network,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    engine: Engine = "bdd",
) -> bool:
    """True iff some output's exact arrival beats its topological arrival —
    i.e. the longest topological path to it is false."""
    ft = FunctionalTiming(network, delays, arrivals, engine)
    topo = ft.topological_arrivals()
    return any(ft.true_arrival(o) < topo[o] for o in network.outputs)
