"""True (false-path aware) slack of gate outputs.

Section 3 of the paper: "An interesting subproblem of this application is
to compute the true slack of a gate output, where the slack is calculated
by taking false path effects into account."

For an internal node n,

* the **true arrival** is the exact XBD0 arrival time of n computed on
  its transitive-fanin network (forward functional analysis),
* the **true required time** is the latest arrival time of n — treated as
  a primary input of the fanout network N_FO — under which every primary
  output still meets its required time (a one-axis instance of the
  approximate-2 lattice search, solved by binary search since validity is
  downward closed),
* the **true slack** is their difference.

Topological slack underestimates this whenever the paths that determine
the node's topological arrival or required time are false.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from repro.core.leaves import enumerate_leaf_times
from repro.errors import TimingError
from repro.network.network import Network
from repro.network.transform import fanin_network, fanout_network
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.functional import FunctionalTiming
from repro.timing.topological import (
    arrival_map,
    arrival_times,
    required_map,
    required_times,
)


@dataclass
class SlackReport:
    """Topological vs false-path-aware timing of one node."""

    node: str
    topo_arrival: float
    topo_required: float
    true_arrival: float
    true_required: float

    @property
    def topo_slack(self) -> float:
        return self.topo_required - self.topo_arrival

    @property
    def true_slack(self) -> float:
        return self.true_required - self.true_arrival

    @property
    def slack_recovered(self) -> float:
        """How much pessimism false-path analysis removed."""
        return self.true_slack - self.topo_slack


def true_slack(
    network: Network,
    node: str,
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    engine: Literal["bdd", "sat"] = "bdd",
) -> SlackReport:
    """The false-path-aware slack of one internal node."""
    delays = delays or unit_delay()
    n = network.node(node)
    if n.is_input:
        raise TimingError(f"{node!r} is a primary input; cut it differently")

    arrivals = arrival_map(network, input_arrivals)
    topo_arr = arrival_times(network, delays, arrivals)[node]
    topo_req = required_times(network, delays, output_required)[node]

    # forward: exact arrival on the fanin cone
    nfi = fanin_network(network, [node])
    fi_arrivals = {pi: arrivals[pi] for pi in nfi.inputs}
    ft_in = FunctionalTiming(nfi, delays, fi_arrivals, engine=engine)
    t_arrival = ft_in.true_arrival(node)

    # backward: latest safe arrival of the node in N_FO
    t_required = _true_required(
        network, node, delays, arrivals, output_required, engine
    )

    return SlackReport(
        node=node,
        topo_arrival=topo_arr,
        topo_required=topo_req,
        true_arrival=t_arrival,
        true_required=t_required,
    )


def _true_required(
    network: Network,
    node: str,
    delays: DelayModel,
    arrivals: Mapping[str, object],
    output_required: Mapping[str, float] | float,
    engine: Literal["bdd", "sat"],
) -> float:
    nfo = fanout_network(network, [node])
    req = required_map(nfo, output_required)
    # one engine on N_FO for every probe; only the node's arrival moves
    ft = FunctionalTiming(nfo, delays, engine=engine)

    axis = enumerate_leaf_times(ft.unrolling, req).merged(node)
    if not axis:
        return math.inf  # the node never constrains any output

    # scalar or (arr0, arr1) entries, passed through to the χ engines
    probe = {pi: arrivals[pi] for pi in nfo.inputs if pi != node}

    def valid(r: float) -> bool:
        probe[node] = r
        return ft.all_stable_by(req, probe)

    if not valid(axis[0]):
        raise TimingError(
            f"even the topological requirement at {node!r} fails; the "
            "output required times are infeasible under the given arrivals"
        )
    # validity is downward closed along the axis: binary search the frontier
    lo, hi = 0, len(axis) - 1
    if valid(axis[hi]):
        # even the latest candidate is safe: check unbounded looseness by
        # probing one step beyond the axis
        if valid(axis[hi] + 1.0):
            return math.inf
        return axis[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if valid(axis[mid]):
            lo = mid
        else:
            hi = mid
    return axis[lo]


def true_slacks(
    network: Network,
    nodes: Sequence[str] | None = None,
    delays: DelayModel | None = None,
    input_arrivals: Mapping[str, float] | None = None,
    output_required: Mapping[str, float] | float = 0.0,
    engine: Literal["bdd", "sat"] = "bdd",
) -> dict[str, SlackReport]:
    """Slack reports for several nodes (default: every internal node that
    is not itself a primary output)."""
    if nodes is None:
        nodes = [
            name
            for name, n in network.nodes.items()
            if not n.is_input and name not in set(network.outputs)
        ]
    return {
        name: true_slack(
            network, name, delays, input_arrivals, output_required, engine
        )
        for name in nodes
    }
