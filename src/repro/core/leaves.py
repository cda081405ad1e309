"""Enumeration of leaf χ variables and of the required-time lattice.

Running the χ recursion backward from each primary output at its required
time touches, at every primary input x, a finite set of times for value 1
(t_1 < … < t_{p_x}) and for value 0 (t'_1 < … < t'_{q_x}).  These are the
paper's *leaf χ variables* (Section 4): the unknowns of the exact Boolean
relation, the chain lengths of the α/β parameterization, and — merged per
input — the axes R_i of approximate approach 2's candidate lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ResourceLimitError
from repro.timing.chi import MISSING, ChiUnrolling
from repro.timing.topological import required_map


@dataclass
class LeafTimes:
    """The leaf χ variable inventory of one analysis problem."""

    #: per input: sorted times at which χ_{x,1}^t is referenced
    for_one: dict[str, list[float]] = field(default_factory=dict)
    #: per input: sorted times at which χ_{x,0}^t is referenced
    for_zero: dict[str, list[float]] = field(default_factory=dict)
    #: per *internal or input* node: every (value, time) pair the recursion
    #: visits — useful for cost prediction and clustering ablations
    visited: set[tuple[str, int, float]] = field(default_factory=set)

    def merged(self, name: str) -> list[float]:
        """R_i of approach 2: all times for either value, sorted."""
        times = set(self.for_one.get(name, ())) | set(self.for_zero.get(name, ()))
        return sorted(times)

    def num_leaf_variables(self) -> int:
        """How many Boolean variables the exact encoding introduces."""
        return sum(len(v) for v in self.for_one.values()) + sum(
            len(v) for v in self.for_zero.values()
        )

    def lattice_size(self) -> int:
        """|R| = ∏ |R_i| of the approach-2 candidate lattice."""
        size = 1
        for name in set(self.for_one) | set(self.for_zero):
            size *= max(1, len(self.merged(name)))
        return size


def enumerate_leaf_times(
    unrolling: ChiUnrolling,
    output_required: Mapping[str, float] | float = 0.0,
    max_leaves: int = 100_000,
) -> LeafTimes:
    """Walk the unrolled χ recursion from every output and record every
    leaf reference.

    ``output_required`` is a scalar applied to every primary output or a
    per-output mapping (the paper's experiments use 0 everywhere), checked
    by :func:`~repro.timing.required_map`.  Every child of every cube is
    visited, also after a constant-0 child, so the leaf axes are those of
    the full recursion.  ``max_leaves`` bounds the traversal —
    reconvergence can multiply the number of ⟨node, value, time⟩ triples,
    which is exactly the blowup the paper reports for the exact method on
    large circuits.
    """
    table = unrolling.table
    expand = unrolling.expand
    visited: set[tuple[str, int, float]] = set()
    stack: list[tuple[str, int, float]] = []
    for out, t in required_map(unrolling.network, output_required).items():
        stack.append((out, 1, t))
        stack.append((out, 0, t))

    ones: dict[str, set[float]] = {}
    zeros: dict[str, set[float]] = {}

    while stack:
        key = stack.pop()
        if key in visited:
            continue
        visited.add(key)
        if len(visited) > max_leaves:
            raise ResourceLimitError(
                f"leaf enumeration exceeded {max_leaves} (node, value, time) triples"
            )
        cubes = table.get(key, MISSING)
        if cubes is MISSING:
            cubes = expand(key)
        if cubes is None:
            name, value, t = key
            (ones if value else zeros).setdefault(name, set()).add(t)
            continue
        for cube in cubes:
            stack.extend(cube)

    return LeafTimes(
        for_one={n: sorted(ts) for n, ts in ones.items()},
        for_zero={n: sorted(ts) for n, ts in zeros.items()},
        visited=visited,
    )
