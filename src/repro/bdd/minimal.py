"""Lattice operators over BDD-encoded subsets of the Boolean cube.

The exact algorithm of Section 4.1 represents, for each primary-input
minterm, the set of permissible leaf-χ stability vectors as a BDD.  The
*latest* required times correspond to the **minimal elements** of that set
under the bitwise partial order (0 < 1: fewer 1s = fewer stability
obligations = later required times), cf. the paper's footnote 5: "all the
minimal elements in a given set under the Boolean lattice should be
extracted".

Approximate approach 1 (Section 4.2) needs the **primes of a monotone
increasing function** F(α, β) (Theorem 1): each prime, which contains only
positive literals, is one latest required-time assignment.  For a monotone
function the primes coincide with the minimal satisfying vectors over its
support, so both needs share the machinery below.

Minimal/maximal extraction walks an explicit variable list: a variable that
is skipped along a BDD path is a *cylinder* dimension of the encoded set,
and a cylinder point with that variable at 1 (resp. 0) is never minimal
(resp. maximal) — the closure-based recursion must see the variable to get
this right.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.bdd.manager import FALSE, TRUE, BddManager, BddNode
from repro.errors import BddError


def upward_closure(node: BddNode) -> BddNode:
    """``{y : ∃x ∈ S, x ≤ y}`` for the set S encoded by ``node``.

    Cylinder dimensions stay cylinders, so this recursion may safely skip
    variables absent from the BDD.
    """
    m = node.manager
    return m._wrap(_closure(m, node.id, up=True))


def downward_closure(node: BddNode) -> BddNode:
    """``{y : ∃x ∈ S, y ≤ x}`` for the set S encoded by ``node``."""
    m = node.manager
    return m._wrap(_closure(m, node.id, up=False))


def _closure(m: BddManager, f: int, up: bool) -> int:
    if f <= TRUE:
        return f
    key = ("upclose" if up else "downclose", f)
    cached = m._cache.get(key)
    if cached is not None:
        return cached
    var = m._var[f]
    low = _closure(m, m._low[f], up)
    high = _closure(m, m._high[f], up)
    if up:
        # y with var=1 is above x with var∈{0,1}: high branch absorbs low.
        result = m._mk(var, low, m._or(low, high))
    else:
        result = m._mk(var, m._or(low, high), high)
    m._cache[key] = result
    return result


def minimal_elements(node: BddNode, names: Sequence[str] | None = None) -> BddNode:
    """The minimal elements of the encoded set under the bitwise order.

    ``names`` fixes the dimensions of the lattice (default: the support of
    ``node``).  Variables outside ``names`` must not occur in the function.
    """
    m = node.manager
    if names is None:
        names = sorted(m.support(node))
    else:
        extra = m.support(node) - set(names)
        if extra:
            raise BddError(f"support variables {sorted(extra)} not in lattice dims")
    levels = sorted(m.level_of(n) for n in names)
    cache: dict[tuple[int, int], int] = {}

    def rec(f: int, i: int) -> int:
        if f == FALSE:
            return FALSE
        if i == len(levels):
            return f  # TRUE (support exhausted)
        key = (f, i)
        cached = cache.get(key)
        if cached is not None:
            return cached
        var = m._level2var[levels[i]]
        f0, f1 = m._cofactors(f, var)
        min0 = rec(f0, i + 1)
        # A point with var=1 is minimal iff it is minimal within f1 and its
        # var=0 projection is not above any point of f0.
        blocked = _closure(m, f0, up=True)
        min1 = m._and(rec(f1, i + 1), m._not(blocked))
        result = m._mk(var, min0, min1)
        cache[key] = result
        return result

    try:
        return m._wrap(rec(node.id, 0))
    finally:
        del rec  # rec refers to itself and to m: break the cycle


def maximal_elements(node: BddNode, names: Sequence[str] | None = None) -> BddNode:
    """The maximal elements of the encoded set under the bitwise order."""
    m = node.manager
    if names is None:
        names = sorted(m.support(node))
    else:
        extra = m.support(node) - set(names)
        if extra:
            raise BddError(f"support variables {sorted(extra)} not in lattice dims")
    levels = sorted(m.level_of(n) for n in names)
    cache: dict[tuple[int, int], int] = {}

    def rec(f: int, i: int) -> int:
        if f == FALSE:
            return FALSE
        if i == len(levels):
            return f
        key = (f, i)
        cached = cache.get(key)
        if cached is not None:
            return cached
        var = m._level2var[levels[i]]
        f0, f1 = m._cofactors(f, var)
        max1 = rec(f1, i + 1)
        blocked = _closure(m, f1, up=False)
        max0 = m._and(rec(f0, i + 1), m._not(blocked))
        result = m._mk(var, max0, max1)
        cache[key] = result
        return result

    try:
        return m._wrap(rec(node.id, 0))
    finally:
        del rec  # rec refers to itself and to m: break the cycle


def is_monotone_increasing(node: BddNode, names: list[str] | None = None) -> bool:
    """Check f(x) ≤ f(y) whenever x ≤ y (positive unateness in every var).

    Used by the test suite to validate Theorem 1 on constructed F(α, β)
    functions.  ``names`` restricts the check to the given variables
    (default: the support of the function).
    """
    m = node.manager
    if names is None:
        names = sorted(m.support(node))
    for name in names:
        f0 = m.restrict(node, {name: 0})
        f1 = m.restrict(node, {name: 1})
        if not f0.implies(f1).is_true:
            return False
    return True


def monotone_primes(node: BddNode) -> Iterator[frozenset[str]]:
    """Enumerate the primes of a monotone increasing function.

    Each prime of a monotone function consists of positive literals only and
    coincides with a minimal satisfying vector over the function's support;
    we therefore compute the minimal elements and read off, for each, the
    set of variables assigned 1.
    """
    m = node.manager
    if node.id == FALSE:
        return
    support = sorted(m.support(node))
    minimal = minimal_elements(node, support)
    seen: set[frozenset[str]] = set()
    for cube in m.cube_iter(minimal):
        prime = frozenset(n for n, v in cube.items() if v == 1 and n in support)
        if prime not in seen:
            seen.add(prime)
            yield prime
