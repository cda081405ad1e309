"""Topological (static) timing analysis.

Arrival times propagate forward with longest-path semantics; required times
propagate backward with the paper's Figure 3 algorithm (reverse topological
order, earliest requirement wins at multi-fanout nodes).  This analysis is
the baseline everything in the paper is compared against: it is safe but
pessimistic because it ignores false paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import TimingError
from repro.network.network import Network
from repro.obs.trace import span
from repro.timing.delay import DelayModel, unit_delay


def arrival_times(
    network: Network,
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Topological (longest-path) arrival time of every node.

    ``input_arrivals`` defaults to 0 at every primary input (see
    :func:`arrival_map`).
    """
    delays = delays or unit_delay()
    input_arrivals = arrival_map(network, input_arrivals)
    arr: dict[str, float] = {}
    with span("topo.arrival", nodes=len(network.nodes)):
        _arrival_into(network, delays, input_arrivals, arr)
    return arr


def _arrival_into(
    network: Network,
    delays: DelayModel,
    input_arrivals: Mapping[str, float],
    arr: dict[str, float],
) -> None:
    """Fill ``arr`` with longest-path arrivals in topological order."""
    for name in network.topological_order():
        node = network.nodes[name]
        if node.is_input:
            given = input_arrivals[name]
            if isinstance(given, (tuple, list)):
                # per-value arrival pair: longest-path analysis is
                # conservative, so take the later of the two
                given = max(given)
            arr[name] = float(given)
        else:
            if not node.fanins:
                # constant node: stable once its own delay has elapsed
                arr[name] = delays.of(name)
                continue
            arr[name] = delays.of(name) + max(arr[f] for f in node.fanins)


def required_times(
    network: Network,
    delays: DelayModel | None = None,
    output_required: Mapping[str, float] | float = 0.0,
) -> dict[str, float]:
    """The paper's Figure 3 algorithm.

    Sort nodes in reverse topological order, initialize every non-output
    node's required time to +inf, then for every node n and fanin m set
    ``req(m) = min(req(m), req(n) - d_n)``.  ``output_required`` is either a
    single number applied to every primary output or a per-output mapping.
    """
    delays = delays or unit_delay()
    req: dict[str, float] = {name: math.inf for name in network.nodes}
    req.update(required_map(network, output_required))

    with span("topo.required", nodes=len(network.nodes)):
        for name in network.reverse_topological_order():
            node = network.nodes[name]
            if node.is_input:
                continue
            here = req[name]
            if here == math.inf:
                continue
            d = delays.of(name)
            for fanin in node.fanins:
                if here - d < req[fanin]:
                    req[fanin] = here - d
    return req


def arrival_map(
    network: Network, arrivals: Mapping[str, object] | None
) -> dict[str, object]:
    """The primary-input arrival times as an explicit per-input map.

    The single normalization every arrival-side entry point uses: every
    primary input gets an entry — 0.0 by default, else the scalar or
    ``(arr_for_0, arr_for_1)`` pair given — and a name that is not a
    primary input raises :class:`TimingError`.
    """
    known = dict.fromkeys(network.inputs, 0.0)
    if arrivals:
        known.update(arrivals)
        if len(known) > len(network.inputs):
            extra = set(arrivals) - set(network.inputs)
            raise TimingError(f"arrival times given for non-inputs {sorted(extra)}")
    return known


def required_map(
    network: Network, output_required: Mapping[str, float] | float
) -> dict[str, float]:
    """The boundary condition as an explicit per-output float map.

    The single normalization every engine entry point, cache key, cone
    task and ECO session uses.  A map must name every primary output and
    nothing else: a missing output, a non-output name or a NaN time
    raises :class:`TimingError`, so a bad request fails the same way on
    every path, before any engine run or cache probe.
    """
    if not isinstance(output_required, Mapping):
        out = dict.fromkeys(network.outputs, float(output_required))
    else:
        missing = set(network.outputs) - set(output_required)
        if missing:
            raise TimingError(f"missing required times for outputs {sorted(missing)}")
        extra = set(output_required) - set(network.outputs)
        if extra:
            raise TimingError(f"required times given for non-outputs {sorted(extra)}")
        out = {o: float(output_required[o]) for o in network.outputs}
    if any(math.isnan(t) for t in out.values()):
        raise TimingError(f"required time is NaN: {output_required!r}")
    return out


def required_time_bounds(
    network: Network,
    delays: DelayModel | None = None,
    output_required: Mapping[str, float] | float = 0.0,
) -> dict[str, tuple[float, float]]:
    """Figure-3 backward propagation under delay bounds.

    Every gate delay floats in its ``[lo, hi]`` box independently, so the
    topological required time of each node spans an interval too:

    * the **lo** end assumes every downstream gate is at its *hi* delay —
      this is the conservative (safe) required time any fixed delay
      assignment in the box must satisfy;
    * the **hi** end assumes every downstream gate is at its *lo* delay —
      the most optimistic requirement achievable inside the box.

    Concretely, with ``req(n) = [req_lo, req_hi]`` the candidate pushed
    into fanin ``m`` is ``[req_lo - d_hi(n), req_hi - d_lo(n)]`` and both
    ends min-merge independently at multi-fanout nodes, which is exactly
    running :func:`required_times` once per corner — point intervals
    collapse both corners onto the scalar result (docs/DELAY_MODELS.md).
    """
    delays = delays or unit_delay()
    req_out = required_map(network, output_required)
    lo: dict[str, float] = {name: math.inf for name in network.nodes}
    hi: dict[str, float] = {name: math.inf for name in network.nodes}
    lo.update(req_out)
    hi.update(req_out)

    with span("topo.required_bounds", nodes=len(network.nodes)):
        for name in network.reverse_topological_order():
            node = network.nodes[name]
            if node.is_input:
                continue
            if lo[name] == math.inf and hi[name] == math.inf:
                continue
            d_lo, d_hi = delays.of_bounds(name)
            for fanin in node.fanins:
                if lo[name] - d_hi < lo[fanin]:
                    lo[fanin] = lo[name] - d_hi
                if hi[name] - d_lo < hi[fanin]:
                    hi[fanin] = hi[name] - d_lo
    return {name: (lo[name], hi[name]) for name in network.nodes}


def slacks(
    network: Network,
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
    output_required: Mapping[str, float] | float = 0.0,
) -> dict[str, float]:
    """Topological slack = required - arrival at every node."""
    arr = arrival_times(network, delays, input_arrivals)
    req = required_times(network, delays, output_required)
    return {name: req[name] - arr[name] for name in network.nodes}


@dataclass
class TopologicalTiming:
    """Bundled STA result with convenience accessors."""

    network: Network
    delays: DelayModel
    arrival: dict[str, float]
    required: dict[str, float]
    slack: dict[str, float] = field(default_factory=dict)

    @classmethod
    def analyze(
        cls,
        network: Network,
        delays: DelayModel | None = None,
        input_arrivals: Mapping[str, float] | None = None,
        output_required: Mapping[str, float] | float = 0.0,
    ) -> "TopologicalTiming":
        """Run forward arrival + backward required STA in one shot."""
        delays = delays or unit_delay()
        arr = arrival_times(network, delays, input_arrivals)
        req = required_times(network, delays, output_required)
        slack = {n: req[n] - arr[n] for n in network.nodes}
        return cls(network, delays, arr, req, slack)

    @property
    def worst_slack(self) -> float:
        """The minimum slack over all nodes (negative = violation)."""
        return min(self.slack[n] for n in self.network.nodes)

    def critical_path(self) -> list[str]:
        """One most-critical input-to-output path (minimum slack)."""
        # start from the PO with the worst slack
        start = min(self.network.outputs, key=lambda o: self.slack[o])
        path = [start]
        current = self.network.nodes[start]
        while not current.is_input:
            # predecessor on the longest path: arrival + delay == our arrival
            d = self.delays.of(current.name)
            best = max(current.fanins, key=lambda f: self.arrival[f])
            path.append(best)
            current = self.network.nodes[best]
        path.reverse()
        return path

    def topological_delay(self) -> float:
        """Longest-path delay from inputs to any primary output."""
        return max(self.arrival[o] for o in self.network.outputs)
