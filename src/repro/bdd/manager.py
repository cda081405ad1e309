"""The BDD manager: unique table, apply ops, quantifiers, GC, variable order.

Implementation notes
--------------------

* Nodes are integer ids into three parallel lists ``_var``, ``_low``,
  ``_high``.  Ids 0 and 1 are the FALSE and TRUE terminals (``_var`` = -1).
* There are no complement edges; negation is a dedicated cached recursion.
* AND/OR/XOR/NOT run as dedicated two-operand apply recursions with
  commutatively normalized cache keys; the generic three-operand ITE is
  kept for the residual if-then-else cases and routes its binary
  specializations to the dedicated operators.
* Quantification can be fused with conjunction: ``and_exists`` (the
  relational product), ``and_forall`` and ``forall_implied`` never build
  the intermediate conjunction BDD.
* Every operation has its own size-bounded computed table with hit/miss/
  eviction counters; tables are invalidated as a group (generation bump)
  on garbage collection and on level swaps.  ``statistics()`` reports the
  counters, per-op totals, peak live nodes and reorder activity.
* Variable order is indirect: nodes store a *variable index*; the order is
  the pair of maps ``_var2level`` / ``_level2var``.  In-place adjacent-level
  swaps (see :mod:`repro.bdd.reorder`) only touch nodes of the upper level,
  so node ids — and therefore every BDD held by a client — survive dynamic
  reordering.
* External references are tracked with a refcount updated by the
  :class:`BddNode` wrapper (created on wrap, released on ``__del__``), which
  makes mark-and-sweep garbage collection possible without any client
  bookkeeping.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import BddError
from repro.obs.metrics import REGISTRY, EngineTelemetry

FALSE = 0
TRUE = 1
_TERMINAL_VAR = -1

#: default per-operation computed-table bound (entries); a table that
#: grows past this is dropped wholesale (CUDD-style lossy cache) and the
#: eviction is counted in :meth:`BddManager.statistics`.
DEFAULT_CACHE_BOUND = 1 << 20


class _ComputedTable:
    """One per-operation computed table: a bounded dict plus counters."""

    __slots__ = ("name", "table", "bound", "hits", "misses", "evictions")

    def __init__(self, name: str, bound: int):
        self.name = name
        self.table: dict = {}
        self.bound = bound
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, key, value) -> None:
        table = self.table
        if len(table) >= self.bound:
            # FIFO eviction: dicts iterate in insertion order, so dropping
            # the first key retires the oldest entry in O(1) — far gentler
            # on the hit rate than clearing the table wholesale.
            del table[next(iter(table))]
            self.evictions += 1
        table[key] = value

    def clear(self) -> None:
        self.table.clear()

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self.table),
        }


class BddNode:
    """A client-facing handle to a BDD node.

    Supports the Boolean operators ``& | ^ ~`` plus ``implies`` /
    ``equiv`` / ``ite`` and comparison by function identity (two handles
    compare equal iff they denote the same function in the same manager).
    """

    __slots__ = ("manager", "id", "__weakref__")

    def __init__(self, manager: "BddManager", node_id: int):
        self.manager = manager
        self.id = node_id
        manager._incref(node_id)

    def __del__(self):  # pragma: no cover - exercised indirectly
        # During interpreter shutdown the manager (or its tables) may
        # already be torn down, surfacing as AttributeError/TypeError from
        # the half-collected objects; anything else is a real bug and must
        # propagate.
        try:
            manager = self.manager
        except AttributeError:
            return
        try:
            manager._decref(self.id)
        except (AttributeError, TypeError):
            pass

    # -- operators ------------------------------------------------------
    def _check(self, other: "BddNode") -> None:
        if other.manager is not self.manager:
            raise BddError("operands belong to different BDD managers")

    def __and__(self, other: "BddNode") -> "BddNode":
        self._check(other)
        return self.manager._wrap(self.manager._and(self.id, other.id))

    def __or__(self, other: "BddNode") -> "BddNode":
        self._check(other)
        return self.manager._wrap(self.manager._or(self.id, other.id))

    def __xor__(self, other: "BddNode") -> "BddNode":
        self._check(other)
        return self.manager._wrap(self.manager._xor(self.id, other.id))

    def __invert__(self) -> "BddNode":
        return self.manager._wrap(self.manager._not(self.id))

    def implies(self, other: "BddNode") -> "BddNode":
        self._check(other)
        m = self.manager
        return m._wrap(m._ite(self.id, other.id, TRUE))

    def equiv(self, other: "BddNode") -> "BddNode":
        self._check(other)
        m = self.manager
        return m._wrap(m._not(m._xor(self.id, other.id)))

    def ite(self, then_: "BddNode", else_: "BddNode") -> "BddNode":
        self._check(then_)
        self._check(else_)
        return self.manager._wrap(self.manager._ite(self.id, then_.id, else_.id))

    # -- predicates ------------------------------------------------------
    @property
    def is_false(self) -> bool:
        return self.id == FALSE

    @property
    def is_true(self) -> bool:
        return self.id == TRUE

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BddNode)
            and other.manager is self.manager
            and other.id == self.id
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.id))

    def __bool__(self) -> bool:
        raise BddError(
            "BddNode truth value is ambiguous; use .is_true / .is_false"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.id == FALSE:
            return "<BDD FALSE>"
        if self.id == TRUE:
            return "<BDD TRUE>"
        return f"<BDD node {self.id} var={self.manager.var_name_of(self.id)}>"


def _node_counts(state: dict) -> tuple[int, int, int]:
    """``(created, live, peak)`` internal nodes of a manager's ``__dict__``.

    A native manager keeps its node store, and so these counts, in C;
    its ``_kernel`` handle reads them.
    """
    kernel = state.get("_kernel")
    if kernel is not None:
        return kernel.node_counts()
    return state["_nodes_created"], state["_nodes_live"], state["_peak_live"]


def _bdd_engine_counters(state: dict) -> dict[str, float]:
    """Monotone ``bdd.*`` totals from a manager's ``__dict__``.

    Polled lazily by the metrics registry at snapshot time (and once more
    when a manager is garbage collected), so ``_mk`` and the apply
    recursions carry no metrics code at all.  Note these restart if
    ``reset_statistics()`` is called on a live manager; interval accounting
    through :mod:`repro.obs.metrics` should bracket work with
    ``snapshot()``/``diff()`` instead of resetting.
    """
    hits = misses = evictions = 0
    for tab in state["_tables"]:
        hits += tab.hits
        misses += tab.misses
        evictions += tab.evictions
    return {
        "bdd.ops": float(hits + misses),
        "bdd.cache_hits": float(hits),
        "bdd.cache_misses": float(misses),
        "bdd.cache_evictions": float(evictions),
        "bdd.nodes_created": float(_node_counts(state)[0]),
        "bdd.gc_runs": float(state["_gc_runs"]),
        "bdd.gc_reclaimed": float(state["_gc_reclaimed"]),
        "bdd.level_swaps": float(state["_level_swaps"]),
        "bdd.reorder_events": float(state["_reorder_events"]),
    }


def _bdd_engine_gauges(state: dict) -> dict[str, float]:
    """Instantaneous values, summed over live managers only."""
    _, live, peak = _node_counts(state)
    return {"bdd.nodes_live": float(live), "bdd.peak_live": float(peak)}


_TELEMETRY = EngineTelemetry("bdd", _bdd_engine_counters, _bdd_engine_gauges)
REGISTRY.register_collector("bdd", _TELEMETRY.collect)


class BddManager:
    """A reduced ordered BDD manager with dynamic reordering support."""

    def __init__(
        self,
        auto_reorder: bool = False,
        reorder_threshold: int = 50_000,
        max_nodes: int | None = None,
        cache_bound: int = DEFAULT_CACHE_BOUND,
    ):
        # terminals occupy ids 0 and 1
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: list[int] = [FALSE, TRUE]
        self._high: list[int] = [FALSE, TRUE]
        self._free: list[int] = []
        # per-variable unique tables: var index -> {(low, high): id}
        self._unique: list[dict[tuple[int, int], int]] = []
        self._var2level: list[int] = []
        self._level2var: list[int] = []
        self._names: list[str] = []
        self._name2var: dict[str, int] = {}
        # per-operation computed tables
        self._not_tab = _ComputedTable("not", cache_bound)
        self._and_tab = _ComputedTable("and", cache_bound)
        self._or_tab = _ComputedTable("or", cache_bound)
        self._xor_tab = _ComputedTable("xor", cache_bound)
        self._ite_tab = _ComputedTable("ite", cache_bound)
        self._exists_tab = _ComputedTable("exists", cache_bound)
        self._andex_tab = _ComputedTable("and_exists", cache_bound)
        self._andall_tab = _ComputedTable("and_forall", cache_bound)
        self._restrict_tab = _ComputedTable("restrict", cache_bound)
        self._compose_tab = _ComputedTable("compose", cache_bound)
        self._tables = (
            self._not_tab,
            self._and_tab,
            self._or_tab,
            self._xor_tab,
            self._ite_tab,
            self._exists_tab,
            self._andex_tab,
            self._andall_tab,
            self._restrict_tab,
            self._compose_tab,
        )
        #: shared scratch cache for helper modules (e.g. the lattice
        #: closures in :mod:`repro.bdd.minimal`); invalidated with the
        #: per-operation tables.
        self._cache: dict = {}
        self._extref: dict[int, int] = {}
        self.auto_reorder = auto_reorder
        self.reorder_threshold = reorder_threshold
        #: raise :class:`~repro.errors.ResourceLimitError` when the node
        #: table exceeds this many entries — the library's analogue of the
        #: paper's "memory out" rows in Table 1.
        self.max_nodes = max_nodes
        self._reordering = False
        # instrumentation
        self._nodes_live = 0  # internal (table-resident) nodes, terminals excluded
        self._peak_live = 0
        self._nodes_created = 0  # lifetime _mk insertions (monotone)
        self._generation = 0
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._level_swaps = 0
        self._reorder_events = 0
        _TELEMETRY.track(self)

    # ------------------------------------------------------------------
    # reference counting / wrapping
    # ------------------------------------------------------------------
    def _incref(self, node_id: int) -> None:
        self._extref[node_id] = self._extref.get(node_id, 0) + 1

    def _decref(self, node_id: int) -> None:
        count = self._extref.get(node_id, 0) - 1
        if count <= 0:
            self._extref.pop(node_id, None)
        else:
            self._extref[node_id] = count

    def _wrap(self, node_id: int) -> BddNode:
        node = BddNode(self, node_id)
        # Safe point for dynamic reordering: no recursive operation is in
        # flight when a result is being wrapped for the client.
        if self.auto_reorder:
            self._maybe_auto_reorder()
        return node

    @property
    def false(self) -> BddNode:
        return self._wrap(FALSE)

    @property
    def true(self) -> BddNode:
        return self._wrap(TRUE)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> BddNode:
        """Declare a new variable at the bottom of the current order."""
        if name in self._name2var:
            raise BddError(f"variable {name!r} already declared")
        var = len(self._names)
        self._names.append(name)
        self._name2var[name] = var
        self._unique.append({})
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        return self._wrap(self._mk(var, FALSE, TRUE))

    def var(self, name: str) -> BddNode:
        """The BDD of an existing variable."""
        try:
            var = self._name2var[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None
        return self._wrap(self._mk(var, FALSE, TRUE))

    def nvar(self, name: str) -> BddNode:
        """The BDD of the negation of an existing variable."""
        try:
            var = self._name2var[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None
        return self._wrap(self._mk(var, TRUE, FALSE))

    def has_var(self, name: str) -> bool:
        return name in self._name2var

    @property
    def var_names(self) -> list[str]:
        return list(self._names)

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def var_index(self, name: str) -> int:
        try:
            return self._name2var[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def level_of(self, name: str) -> int:
        return self._var2level[self.var_index(name)]

    def var_at_level(self, level: int) -> str:
        return self._names[self._level2var[level]]

    def current_order(self) -> list[str]:
        return [self._names[v] for v in self._level2var]

    def var_name_of(self, node_id: int) -> str:
        var = self._var[node_id]
        if var == _TERMINAL_VAR:
            raise BddError("terminal node has no variable")
        return self._names[var]

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def _level(self, node_id: int) -> int:
        var = self._var[node_id]
        if var == _TERMINAL_VAR:
            return len(self._level2var) + 1  # below everything
        return self._var2level[var]

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        table = self._unique[var]
        key = (low, high)
        node_id = table.get(key)
        if node_id is not None:
            return node_id
        if (
            self.max_nodes is not None
            and len(self._var) - len(self._free) > self.max_nodes
        ):
            from repro.errors import ResourceLimitError

            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        if self._free:
            node_id = self._free.pop()
            self._var[node_id] = var
            self._low[node_id] = low
            self._high[node_id] = high
        else:
            node_id = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
        table[key] = node_id
        self._nodes_created += 1
        live = self._nodes_live + 1
        self._nodes_live = live
        if live > self._peak_live:
            self._peak_live = live
        return node_id

    @property
    def num_nodes(self) -> int:
        """Number of live (table-resident) internal nodes, plus terminals.

        Maintained incrementally by ``_mk`` / GC / level swaps, so reading
        it is O(1) — it is consulted on every auto-reorder safe point.
        """
        return 2 + _node_counts(self.__dict__)[1]

    def size(self, node: BddNode) -> int:
        """Number of nodes in the DAG rooted at ``node`` (incl. terminals)."""
        seen: set[int] = set()
        stack = [node.id]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if self._var[n] != _TERMINAL_VAR:
                stack.append(self._low[n])
                stack.append(self._high[n])
        return len(seen)

    # ------------------------------------------------------------------
    # core operations (internal, on ids)
    # ------------------------------------------------------------------
    def _not(self, f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        tab = self._not_tab
        table = tab.table
        result = table.get(f)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        result = self._mk(
            self._var[f], self._not(self._low[f]), self._not(self._high[f])
        )
        if len(table) >= tab.bound:
            del table[next(iter(table))]
            tab.evictions += 1
        table[f] = result
        return result

    def _and(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f > g:  # commutative: normalize operand order for the cache key
            f, g = g, f
        if f == FALSE:
            return FALSE
        if f == TRUE:
            return g
        tab = self._and_tab
        table = tab.table
        key = (f, g)
        result = table.get(key)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        var_ = self._var
        v2l = self._var2level
        lf = v2l[var_[f]]
        lg = v2l[var_[g]]
        if lf <= lg:
            var = var_[f]
            f0, f1 = self._low[f], self._high[f]
        else:
            var = var_[g]
            f0 = f1 = f
        if lg <= lf:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        low = self._and(f0, g0)
        high = self._and(f1, g1)
        result = low if low == high else self._mk(var, low, high)
        if len(table) >= tab.bound:
            del table[next(iter(table))]
            tab.evictions += 1
        table[key] = result
        return result

    def _or(self, f: int, g: int) -> int:
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f == FALSE:
            return g
        if f == TRUE:
            return TRUE
        tab = self._or_tab
        table = tab.table
        key = (f, g)
        result = table.get(key)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        var_ = self._var
        v2l = self._var2level
        lf = v2l[var_[f]]
        lg = v2l[var_[g]]
        if lf <= lg:
            var = var_[f]
            f0, f1 = self._low[f], self._high[f]
        else:
            var = var_[g]
            f0 = f1 = f
        if lg <= lf:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        low = self._or(f0, g0)
        high = self._or(f1, g1)
        result = low if low == high else self._mk(var, low, high)
        if len(table) >= tab.bound:
            del table[next(iter(table))]
            tab.evictions += 1
        table[key] = result
        return result

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return FALSE
        if f > g:
            f, g = g, f
        if f == FALSE:
            return g
        if f == TRUE:
            return self._not(g)
        tab = self._xor_tab
        table = tab.table
        key = (f, g)
        result = table.get(key)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        var_ = self._var
        v2l = self._var2level
        lf = v2l[var_[f]]
        lg = v2l[var_[g]]
        if lf <= lg:
            var = var_[f]
            f0, f1 = self._low[f], self._high[f]
        else:
            var = var_[g]
            f0 = f1 = f
        if lg <= lf:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        low = self._xor(f0, g0)
        high = self._xor(f1, g1)
        result = low if low == high else self._mk(var, low, high)
        if len(table) >= tab.bound:
            del table[next(iter(table))]
            tab.evictions += 1
        table[key] = result
        return result

    def _ite(self, f: int, g: int, h: int) -> int:
        # terminal cases
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        # binary specializations route to the dedicated apply operators
        if g == TRUE:
            return f if h == FALSE else self._or(f, h)
        if h == FALSE:
            return self._and(f, g)
        if g == FALSE and h == TRUE:
            return self._not(f)
        tab = self._ite_tab
        key = (f, g, h)
        result = tab.table.get(key)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        # split on the top variable
        level = min(self._level(f), self._level(g), self._level(h))
        var = self._level2var[level]

        f0, f1 = self._cofactors(f, var)
        g0, g1 = self._cofactors(g, var)
        h0, h1 = self._cofactors(h, var)
        low = self._ite(f0, g0, h0)
        high = self._ite(f1, g1, h1)
        result = low if low == high else self._mk(var, low, high)
        tab.put(key, result)
        return result

    def _cofactors(self, node_id: int, var: int) -> tuple[int, int]:
        if self._var[node_id] == var:
            return self._low[node_id], self._high[node_id]
        return node_id, node_id

    def _maybe_auto_reorder(self) -> None:
        if (
            self.auto_reorder
            and not self._reordering
            and self.num_nodes > self.reorder_threshold
        ):
            from repro.bdd.reorder import sift

            self._reordering = True
            try:
                sift(self)
            finally:
                self._reordering = False
            # back off so we do not thrash
            self.reorder_threshold = max(self.reorder_threshold, self.num_nodes * 2)

    # ------------------------------------------------------------------
    # public combinational helpers
    # ------------------------------------------------------------------
    def conjoin(self, nodes: Iterable[BddNode]) -> BddNode:
        """The conjunction of ``nodes``, combined as a balanced tree.

        Pairwise reduction rounds keep the intermediate BDDs balanced (a
        linear fold accumulates one lopsided conjunct that every further
        AND must traverse); an intermediate FALSE short-circuits.
        """
        ids = [node.id for node in nodes]
        return self._wrap(self._balanced(ids, self._and, TRUE, FALSE))

    def disjoin(self, nodes: Iterable[BddNode]) -> BddNode:
        """The disjunction of ``nodes``, combined as a balanced tree."""
        ids = [node.id for node in nodes]
        return self._wrap(self._balanced(ids, self._or, FALSE, TRUE))

    def _balanced(self, ids: list[int], op, unit: int, absorbing: int) -> int:
        if not ids:
            return unit
        while len(ids) > 1:
            merged: list[int] = []
            for i in range(0, len(ids) - 1, 2):
                r = op(ids[i], ids[i + 1])
                if r == absorbing:
                    return absorbing
                merged.append(r)
            if len(ids) % 2:
                merged.append(ids[-1])
            ids = merged
        return ids[0]

    # ------------------------------------------------------------------
    # restriction / composition
    # ------------------------------------------------------------------
    def restrict(self, node: BddNode, assignment: Mapping[str, int]) -> BddNode:
        """Cofactor with respect to a partial variable assignment."""
        pairs = sorted(
            ((self.var_index(name), value) for name, value in assignment.items()),
            key=lambda p: self._var2level[p[0]],
        )
        return self._wrap(self._restrict(node.id, tuple(pairs), 0))

    def _restrict(self, f: int, pairs: tuple[tuple[int, int], ...], start: int) -> int:
        if f <= TRUE or start >= len(pairs):
            return f
        tab = self._restrict_tab
        key = (f, pairs, start)
        result = tab.table.get(key)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        flevel = self._level(f)
        # skip assignment entries above f's top variable
        i = start
        while i < len(pairs) and self._var2level[pairs[i][0]] < flevel:
            i += 1
        if i >= len(pairs):
            result = f
        else:
            var, value = pairs[i]
            fvar = self._var[f]
            if fvar == var:
                branch = self._high[f] if value else self._low[f]
                result = self._restrict(branch, pairs, i + 1)
            else:
                low = self._restrict(self._low[f], pairs, i)
                high = self._restrict(self._high[f], pairs, i)
                result = self._mk(fvar, low, high)
        tab.put(key, result)
        return result

    def compose(self, node: BddNode, name: str, replacement: BddNode) -> BddNode:
        """Substitute ``replacement`` for variable ``name`` in ``node``."""
        var = self.var_index(name)
        return self._wrap(self._compose(node.id, var, replacement.id))

    def _compose(self, f: int, var: int, g: int) -> int:
        if f <= TRUE:
            return f
        if self._var2level[self._var[f]] > self._var2level[var]:
            return f  # var cannot appear below its own level
        tab = self._compose_tab
        key = (f, var, g)
        result = tab.table.get(key)
        if result is not None:
            tab.hits += 1
            return result
        tab.misses += 1
        if self._var[f] == var:
            result = self._ite(g, self._high[f], self._low[f])
        else:
            low = self._compose(self._low[f], var, g)
            high = self._compose(self._high[f], var, g)
            # children may now have tops above f's var; use ITE on f's var
            v = self._mk(self._var[f], FALSE, TRUE)
            result = self._ite(v, high, low)
        tab.put(key, result)
        return result

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------
    def _levels_of(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(
            sorted({self._var2level[self.var_index(n)] for n in names})
        )

    def exists(self, names: Sequence[str], node: BddNode) -> BddNode:
        return self._wrap(self._exists(node.id, self._levels_of(names)))

    def forall(self, names: Sequence[str], node: BddNode) -> BddNode:
        levels = self._levels_of(names)
        return self._wrap(self._not(self._exists(self._not(node.id), levels)))

    def _exists(self, f: int, levels: tuple[int, ...]) -> int:
        """∃ levels . f — ``levels`` is a sorted tuple of quantified levels."""
        if f <= TRUE or not levels:
            return f
        max_level = levels[-1]
        level_set = set(levels)
        var_ = self._var
        v2l = self._var2level
        low_ = self._low
        high_ = self._high
        tab = self._exists_tab
        table = tab.table

        def rec(f: int) -> int:
            if f <= TRUE:
                return f
            flevel = v2l[var_[f]]
            if flevel > max_level:
                return f  # below every quantified level: nothing to do
            key = (f, levels)
            result = table.get(key)
            if result is not None:
                tab.hits += 1
                return result
            tab.misses += 1
            low = rec(low_[f])
            if flevel in level_set:
                # ∃x.f = f0 ∨ f1: a TRUE cofactor decides immediately
                result = TRUE if low == TRUE else self._or(low, rec(high_[f]))
            else:
                high = rec(high_[f])
                result = low if low == high else self._mk(var_[f], low, high)
            tab.put(key, result)
            return result

        try:
            return rec(f)
        finally:
            del rec  # rec refers to itself and to self: break the cycle

    # -- fused quantifier-apply operators -------------------------------
    def _check_mine(self, f: BddNode, g: BddNode) -> None:
        if f.manager is not self or g.manager is not self:
            raise BddError("operands belong to different BDD managers")

    def and_exists(
        self, names: Sequence[str], f: BddNode, g: BddNode
    ) -> BddNode:
        """The relational product ∃ names . (f ∧ g), without building f ∧ g."""
        self._check_mine(f, g)
        return self._wrap(self._and_exists(f.id, g.id, self._levels_of(names)))

    def and_forall(
        self, names: Sequence[str], f: BddNode, g: BddNode
    ) -> BddNode:
        """∀ names . (f ∧ g), fused — the dual of :meth:`and_exists`."""
        self._check_mine(f, g)
        return self._wrap(self._and_forall(f.id, g.id, self._levels_of(names)))

    def forall_implied(
        self, names: Sequence[str], f: BddNode, g: BddNode
    ) -> BddNode:
        """∀ names . (f → g) = ¬∃ names . (f ∧ ¬g), fused."""
        self._check_mine(f, g)
        levels = self._levels_of(names)
        return self._wrap(
            self._not(self._and_exists(f.id, self._not(g.id), levels))
        )

    def _and_exists(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        max_level = levels[-1]
        level_set = set(levels)
        var_ = self._var
        v2l = self._var2level
        low_ = self._low
        high_ = self._high
        tab = self._andex_tab
        table = tab.table

        def rec(f: int, g: int) -> int:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return self._exists(g, levels)
            if g == TRUE:
                return self._exists(f, levels)
            if f == g:
                return self._exists(f, levels)
            if f > g:
                f, g = g, f
            lf = v2l[var_[f]]
            lg = v2l[var_[g]]
            top = lf if lf <= lg else lg
            if top > max_level:
                return self._and(f, g)
            key = (f, g, levels)
            result = table.get(key)
            if result is not None:
                tab.hits += 1
                return result
            tab.misses += 1
            if lf <= lg:
                var = var_[f]
                f0, f1 = low_[f], high_[f]
            else:
                var = var_[g]
                f0 = f1 = f
            if lg <= lf:
                g0, g1 = low_[g], high_[g]
            else:
                g0 = g1 = g
            low = rec(f0, g0)
            if top in level_set:
                result = TRUE if low == TRUE else self._or(low, rec(f1, g1))
            else:
                high = rec(f1, g1)
                result = low if low == high else self._mk(var, low, high)
            tab.put(key, result)
            return result

        try:
            return rec(f, g)
        finally:
            del rec  # rec refers to itself and to self: break the cycle

    def _and_forall(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        max_level = levels[-1]
        level_set = set(levels)
        var_ = self._var
        v2l = self._var2level
        low_ = self._low
        high_ = self._high
        tab = self._andall_tab
        table = tab.table

        def forall_one(f: int) -> int:
            return self._not(self._exists(self._not(f), levels))

        def rec(f: int, g: int) -> int:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return forall_one(g)
            if g == TRUE:
                return forall_one(f)
            if f == g:
                return forall_one(f)
            if f > g:
                f, g = g, f
            lf = v2l[var_[f]]
            lg = v2l[var_[g]]
            top = lf if lf <= lg else lg
            if top > max_level:
                return self._and(f, g)
            key = (f, g, levels)
            result = table.get(key)
            if result is not None:
                tab.hits += 1
                return result
            tab.misses += 1
            if lf <= lg:
                var = var_[f]
                f0, f1 = low_[f], high_[f]
            else:
                var = var_[g]
                f0 = f1 = f
            if lg <= lf:
                g0, g1 = low_[g], high_[g]
            else:
                g0 = g1 = g
            low = rec(f0, g0)
            if top in level_set:
                # ∀x.h = h0 ∧ h1: a FALSE cofactor decides immediately
                result = FALSE if low == FALSE else self._and(low, rec(f1, g1))
            else:
                high = rec(f1, g1)
                result = low if low == high else self._mk(var, low, high)
            tab.put(key, result)
            return result

        try:
            return rec(f, g)
        finally:
            del rec  # rec refers to itself and to self: break the cycle

    # ------------------------------------------------------------------
    # satisfiability / enumeration
    # ------------------------------------------------------------------
    def evaluate(self, node: BddNode, assignment: Mapping[str, int]) -> bool:
        f = node.id
        while f > TRUE:
            name = self._names[self._var[f]]
            try:
                value = assignment[name]
            except KeyError:
                raise BddError(f"assignment missing variable {name!r}") from None
            f = self._high[f] if value else self._low[f]
        return f == TRUE

    def pick(self, node: BddNode) -> dict[str, int] | None:
        """One satisfying partial assignment, or None if unsatisfiable."""
        if node.id == FALSE:
            return None
        result: dict[str, int] = {}
        f = node.id
        while f > TRUE:
            name = self._names[self._var[f]]
            if self._low[f] != FALSE:
                result[name] = 0
                f = self._low[f]
            else:
                result[name] = 1
                f = self._high[f]
        return result

    def sat_count(self, node: BddNode, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        if nvars is None:
            nvars = self.num_vars
        cache: dict[int, int] = {}
        nlevels = len(self._level2var)

        def count(f: int) -> int:
            # number of solutions over variables strictly below f's level,
            # normalized to level(f)
            if f == FALSE:
                return 0
            if f == TRUE:
                return 1
            if f in cache:
                return cache[f]
            lf = self._level(f)
            c0 = count(self._low[f]) << (self._gap(lf, self._low[f]))
            c1 = count(self._high[f]) << (self._gap(lf, self._high[f]))
            result = c0 + c1
            cache[f] = result
            return result

        if node.id <= TRUE:
            return node.id * (1 << nvars)
        top_gap = min(self._level(node.id), nlevels)
        try:
            total = count(node.id) << top_gap
        finally:
            del count  # count refers to itself and to self: break the cycle
        # count() assumed one variable per level; rescale to requested nvars
        shift = nvars - len(self._level2var)
        if shift >= 0:
            return total << shift
        # fewer vars requested than declared: legal only when the function
        # is independent of the surplus variables
        if total % (1 << (-shift)):
            raise BddError(
                "sat_count nvars smaller than the function's support"
            )
        return total >> (-shift)

    def _gap(self, parent_level: int, child: int) -> int:
        child_level = min(self._level(child), len(self._level2var))
        return child_level - parent_level - 1

    def sat_iter(
        self, node: BddNode, care_vars: Sequence[str] | None = None
    ) -> Iterator[dict[str, int]]:
        """Enumerate satisfying assignments, complete over ``care_vars``."""
        if care_vars is None:
            care = list(self._names)
        else:
            care = list(care_vars)
        care_set = set(care)

        def walk(f: int, partial: dict[str, int]) -> Iterator[dict[str, int]]:
            if f == FALSE:
                return
            if f == TRUE:
                free = [v for v in care if v not in partial]
                for bits in itertools.product((0, 1), repeat=len(free)):
                    full = dict(partial)
                    full.update(zip(free, bits))
                    yield full
                return
            name = self._names[self._var[f]]
            for value, child in ((0, self._low[f]), (1, self._high[f])):
                new_partial = dict(partial)
                if name in care_set:
                    new_partial[name] = value
                elif child == FALSE:
                    continue
                yield from walk(child, new_partial)

        try:
            yield from walk(node.id, {})
        finally:
            del walk  # walk refers to itself and to self: break the cycle

    def support(self, node: BddNode) -> set[str]:
        """Names of the variables the function depends on."""
        seen: set[int] = set()
        vars_: set[int] = set()
        stack = [node.id]
        while stack:
            f = stack.pop()
            if f <= TRUE or f in seen:
                continue
            seen.add(f)
            vars_.add(self._var[f])
            stack.append(self._low[f])
            stack.append(self._high[f])
        return {self._names[v] for v in vars_}

    # ------------------------------------------------------------------
    # cube covers
    # ------------------------------------------------------------------
    def cube_iter(self, node: BddNode) -> Iterator[dict[str, int]]:
        """Enumerate the (disjoint) path-cubes of the BDD."""

        def walk(f: int, partial: dict[str, int]) -> Iterator[dict[str, int]]:
            if f == FALSE:
                return
            if f == TRUE:
                yield dict(partial)
                return
            name = self._names[self._var[f]]
            partial[name] = 0
            yield from walk(self._low[f], partial)
            partial[name] = 1
            yield from walk(self._high[f], partial)
            del partial[name]

        try:
            yield from walk(node.id, {})
        finally:
            del walk  # walk refers to itself and to self: break the cycle

    def from_cube(self, literals: Mapping[str, int]) -> BddNode:
        """The conjunction of the given literals."""
        result = TRUE
        for name, value in sorted(
            literals.items(), key=lambda kv: -self.level_of(kv[0])
        ):
            var = self.var_index(name)
            v = self._mk(var, FALSE, TRUE)
            lit = v if value else self._not(v)
            result = self._and(result, lit)
        return self._wrap(result)

    # ------------------------------------------------------------------
    # computed-table management / observability
    # ------------------------------------------------------------------
    def _invalidate_caches(self) -> None:
        """Drop every computed table (new generation).

        Called on GC and on level swaps: both can change what a cached
        (operands → result) entry means — GC recycles node ids, swaps
        change the level structure the recursions keyed on.
        """
        self._generation += 1
        for tab in self._tables:
            tab.clear()
        self._cache.clear()

    def statistics(self) -> dict[str, object]:
        """Engine counters: per-op totals, cache behavior, node pressure.

        ``ops`` counts the recursion steps that consulted each computed
        table (hits + misses); terminal fast paths are not counted.
        ``caches`` carries per-table hit/miss/eviction/entry counts.
        Node counts include the two terminals.
        """
        ops: dict[str, int] = {}
        caches: dict[str, dict[str, int]] = {}
        total_hits = 0
        total_misses = 0
        for tab in self._tables:
            ops[tab.name] = tab.hits + tab.misses
            caches[tab.name] = tab.stats()
            total_hits += tab.hits
            total_misses += tab.misses
        lookups = total_hits + total_misses
        created, live, peak = _node_counts(self.__dict__)
        return {
            "ops": ops,
            "caches": caches,
            "cache_hits": total_hits,
            "cache_misses": total_misses,
            "cache_hit_rate": (total_hits / lookups) if lookups else 0.0,
            "cache_generation": self._generation,
            "nodes_created": created,
            "live_nodes": live + 2,
            "peak_live_nodes": peak + 2,
            "num_vars": self.num_vars,
            "gc_runs": self._gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
            "level_swaps": self._level_swaps,
            "reorder_events": self._reorder_events,
        }

    def reset_statistics(self) -> None:
        """Zero the op/cache/GC/reorder counters; peak restarts from now."""
        for tab in self._tables:
            tab.reset_counters()
        self._peak_live = self._nodes_live
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._level_swaps = 0
        self._reorder_events = 0

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def garbage_collect(self) -> int:
        """Sweep nodes unreachable from externally referenced roots.

        Returns the number of nodes reclaimed.  All operation caches are
        dropped (generation bump).
        """
        var_ = self._var
        low_ = self._low
        high_ = self._high
        # Byte-per-node mark vector: O(1) membership without hashing, which
        # matters when millions of nodes are traversed per sweep.
        marked = bytearray(len(var_))
        marked[FALSE] = 1
        marked[TRUE] = 1
        stack = [n for n, c in self._extref.items() if c > 0]
        while stack:
            f = stack.pop()
            if marked[f]:
                continue
            marked[f] = 1
            if var_[f] != _TERMINAL_VAR:
                stack.append(low_[f])
                stack.append(high_[f])
        reclaimed = 0
        free = self._free
        for var, table in enumerate(self._unique):
            # Rebuild each unique table in one pass instead of popping dead
            # keys individually (pop-heavy dicts never shrink their storage).
            survivors: dict[tuple[int, int], int] = {}
            for key, nid in table.items():
                if marked[nid]:
                    survivors[key] = nid
                else:
                    var_[nid] = _TERMINAL_VAR
                    low_[nid] = FALSE
                    high_[nid] = FALSE
                    free.append(nid)
                    reclaimed += 1
            self._unique[var] = survivors
        self._nodes_live -= reclaimed
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        self._invalidate_caches()
        return reclaimed

    # ------------------------------------------------------------------
    # reordering plumbing (used by repro.bdd.reorder)
    # ------------------------------------------------------------------
    def swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Node ids are preserved: only nodes labelled with the upper variable
        that reference the lower variable are rewritten.  All operation
        caches are invalidated (generation bump).
        """
        if not 0 <= level < len(self._level2var) - 1:
            raise BddError(f"cannot swap level {level}")
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        upper_table = self._unique[upper]
        lower_table = self._unique[lower]

        interacting: list[int] = []
        for key, nid in list(upper_table.items()):
            low, high = key
            if self._var[low] == lower or self._var[high] == lower:
                interacting.append(nid)
                del upper_table[key]
        self._nodes_live -= len(interacting)

        # Commit the level exchange before creating new upper-var nodes so
        # that _mk built levels are consistent.
        self._level2var[level], self._level2var[level + 1] = lower, upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level

        for nid in interacting:
            f0, f1 = self._low[nid], self._high[nid]
            if self._var[f0] == lower:
                f00, f01 = self._low[f0], self._high[f0]
            else:
                f00 = f01 = f0
            if self._var[f1] == lower:
                f10, f11 = self._low[f1], self._high[f1]
            else:
                f10 = f11 = f1
            new_low = self._mk(upper, f00, f10)
            new_high = self._mk(upper, f01, f11)
            self._var[nid] = lower
            self._low[nid] = new_low
            self._high[nid] = new_high
            key = (new_low, new_high)
            if key in lower_table and lower_table[key] != nid:
                raise BddError(
                    "unique-table collision during swap; manager corrupted"
                )
            lower_table[key] = nid
            self._nodes_live += 1
            if self._nodes_live > self._peak_live:
                self._peak_live = self._nodes_live

        self._level_swaps += 1
        self._invalidate_caches()

    def live_node_count(self) -> int:
        """Number of nodes reachable from externally referenced roots.

        Unlike :attr:`num_nodes` this ignores dead table entries, which is
        the metric sifting must minimize (swaps strand dead nodes in the
        unique tables until the next garbage collection).
        """
        marked = bytearray(len(self._var))
        count = 0
        stack = [n for n, c in self._extref.items() if c > 0 and n > TRUE]
        while stack:
            f = stack.pop()
            if f <= TRUE or marked[f]:
                continue
            marked[f] = 1
            count += 1
            stack.append(self._low[f])
            stack.append(self._high[f])
        return count + 2

    def level_sizes(self) -> list[int]:
        """Unique-table size per level (after GC this is the live profile)."""
        return [len(self._unique[self._level2var[lv]]) for lv in range(len(self._level2var))]
