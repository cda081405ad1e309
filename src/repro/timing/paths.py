"""Path enumeration and per-path false-path classification.

The paper's analyses never enumerate paths — that is their point — but a
false-path library should still let users *inspect* individual paths.
This module provides:

* :func:`enumerate_paths` — input-to-output paths with their delays,
  longest first;
* :func:`static_sensitization_condition` — the BDD of the input vectors
  that statically sensitize a path (every on-path gate's output depends
  on its on-path fanin, i.e. the product of Boolean differences).  Static
  sensitization is the classical — and famously *approximate* — criterion
  (Section 2's references [5, 6] discuss why); it is exposed for study,
  not as the arbiter;
* :func:`classify_paths` / :func:`classify_path` — a sound three-way
  verdict under XBD0:

  - ``"false"`` when the path is longer than its endpoint's exact arrival
    time (no event along it can ever be the last to arrive),
  - ``"true"`` when the path delay equals the endpoint's exact arrival
    and the path is statically sensitizable (a witness vector exists),
  - ``"undetermined"`` otherwise (the gap where static sensitization is
    known to be unreliable).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Literal, Mapping, Sequence

from repro.bdd import BddManager, BddNode, create_manager
from repro.errors import NetworkError, TimingError
from repro.network.network import Network
from repro.network.verify import _cover_bdd, global_functions
from repro.timing.delay import DelayModel, unit_delay
from repro.timing.functional import FunctionalTiming


@dataclass(frozen=True)
class Path:
    """One input-to-output path with its topological delay."""

    nodes: tuple[str, ...]
    delay: float

    @property
    def start(self) -> str:
        """First node of the path (usually a primary input)."""
        return self.nodes[0]

    @property
    def end(self) -> str:
        """Last node of the path (usually a primary output)."""
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.nodes)


def enumerate_paths(
    network: Network,
    delays: DelayModel | None = None,
    to_outputs: Sequence[str] | None = None,
    max_paths: int = 10_000,
) -> list[Path]:
    """All primary-input-to-output paths, sorted by decreasing delay.

    Uses the conservative (max over rise/fall) gate delays.  ``max_paths``
    guards the inherent exponential blowup.
    """
    delays = delays or unit_delay()
    outputs = list(to_outputs) if to_outputs is not None else list(network.outputs)
    for o in outputs:
        network.node(o)

    paths: list[Path] = []

    def walk(name: str, suffix: tuple[str, ...], delay: float) -> None:
        node = network.nodes[name]
        if node.is_input:
            paths.append(Path(nodes=(name,) + suffix, delay=delay))
            if len(paths) > max_paths:
                raise NetworkError(f"more than {max_paths} paths; tighten the query")
            return
        d = delays.of(name)
        for fanin in dict.fromkeys(node.fanins):
            walk(fanin, (name,) + suffix, delay + d)

    for out in outputs:
        walk(out, (), 0.0)
    paths.sort(key=lambda p: (-p.delay, p.nodes))
    return paths


def longest_paths(
    network: Network,
    delays: DelayModel | None = None,
    to_outputs: Sequence[str] | None = None,
    max_paths: int = 10_000,
) -> list[Path]:
    """The paths achieving the maximum topological delay."""
    paths = enumerate_paths(network, delays, to_outputs, max_paths)
    if not paths:
        return []
    top = paths[0].delay
    return [p for p in paths if p.delay == top]


def static_sensitization_condition(
    network: Network,
    path: Path | Sequence[str],
    manager: BddManager | None = None,
    funcs: Mapping[str, BddNode] | None = None,
) -> BddNode:
    """The set of input vectors statically sensitizing the path.

    For every on-path gate g with on-path fanin m, the condition requires
    the Boolean difference ∂f_g/∂m to hold: with the side inputs at their
    (global) values, g's output flips when m flips.  ``funcs`` are the
    global functions of ``network`` in ``manager``; a caller checking
    many paths builds them once.
    """
    nodes = tuple(path.nodes) if isinstance(path, Path) else tuple(path)
    if len(nodes) < 2:
        raise TimingError("a path needs at least an input and one gate")
    manager = manager or create_manager()
    if funcs is None:
        funcs = global_functions(network, manager)

    condition = manager.true
    for prev, name in zip(nodes, nodes[1:]):
        node = network.node(name)
        if node.is_input:
            raise NetworkError(f"path passes through primary input {name!r}")
        if prev not in node.fanins:
            raise NetworkError(f"{prev!r} is not a fanin of {name!r}")
        idx = node.fanins.index(prev)
        fanin_bdds_one = [
            manager.true if i == idx else funcs[f]
            for i, f in enumerate(node.fanins)
        ]
        fanin_bdds_zero = [
            manager.false if i == idx else funcs[f]
            for i, f in enumerate(node.fanins)
        ]
        with_one = _cover_bdd(manager, node.cover, fanin_bdds_one)
        with_zero = _cover_bdd(manager, node.cover, fanin_bdds_zero)
        condition = condition & (with_one ^ with_zero)
        if condition.is_false:
            break
    return condition


def is_statically_sensitizable(
    network: Network, path: Path | Sequence[str]
) -> bool:
    """True when some input vector statically sensitizes the path."""
    return not static_sensitization_condition(network, path).is_false


Verdict = Literal["false", "true", "undetermined"]


def classify_paths(
    network: Network,
    paths: Sequence[Path],
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    engine: Literal["bdd", "sat"] = "bdd",
) -> list[Verdict]:
    """Sound three-way classification of each path under XBD0 (see the
    module docstring for the exact semantics of each verdict), on one
    engine: one true arrival per distinct endpoint, and one set of global
    functions for every static sensitization check."""
    for path in paths:
        if path.end not in network.outputs:
            raise TimingError(f"path endpoint {path.end!r} is not a primary output")
    ft = FunctionalTiming(network, delays, arrivals, engine=engine)
    true_arrivals: dict[str, float] = {}
    manager = funcs = None
    verdicts: list[Verdict] = []
    for path in paths:
        if path.end not in true_arrivals:
            true_arrivals[path.end] = ft.true_arrival(path.end)
        start_arrival = ft.arrivals.get(path.start, 0.0)
        if isinstance(start_arrival, (tuple, list)):
            start_arrival = max(start_arrival)
        path_arrival = float(start_arrival) + path.delay
        verdict: Verdict = "undetermined"
        if path_arrival > true_arrivals[path.end]:
            verdict = "false"
        elif path_arrival == true_arrivals[path.end]:
            if funcs is None:
                manager = create_manager()
                funcs = global_functions(network, manager)
            condition = static_sensitization_condition(network, path, manager, funcs)
            if not condition.is_false:
                verdict = "true"
        verdicts.append(verdict)
    return verdicts


def classify_path(
    network: Network,
    path: Path,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    engine: Literal["bdd", "sat"] = "bdd",
) -> Verdict:
    """:func:`classify_paths` of one path."""
    return classify_paths(network, [path], delays, arrivals, engine)[0]


def false_path_report(
    network: Network,
    delays: DelayModel | None = None,
    arrivals: Mapping[str, float] | None = None,
    max_paths: int = 2_000,
) -> dict[str, int]:
    """Counts of path verdicts across the whole network — a quick summary
    of how false-path-rich a circuit is."""
    counts = {"false": 0, "true": 0, "undetermined": 0}
    paths = enumerate_paths(network, delays, max_paths=max_paths)
    for verdict in classify_paths(network, paths, delays, arrivals):
        counts[verdict] += 1
    return counts
