"""The native-kernel BDD manager (backend name ``"native"``).

:class:`NativeBddManager` keeps the public surface and the id-level
conventions of :class:`repro.bdd.manager.BddManager` and runs on the C
kernel in ``_native/kernel.c`` (built lazily by
:mod:`repro.bdd._native.build`).  The kernel produces the same
node-creation sequence and the same budget-abort points as the object
kernel, so every consumer — the χ engines, enumeration helpers,
:mod:`repro.bdd.minimal`, the reorderer — keeps working unchanged.

The C kernel owns the one node store (Brace, Rudell and Bryant's
single-store design):

* **Node rows** are three parallel ``int32`` arrays ``var``/``low``/
  ``high``, terminals at ids 0 and 1, with no free list.
* **Unique tables** are per-variable open-addressed hash tables keyed by
  the packed ``(low << 32) | high`` with linear probing, growth at 2/3
  load (tombstones included), and tombstones for swept entries.
* **Garbage collection** (``nat_gc``) marks from the roots Python passes
  in — the ids of :attr:`_extref` — and tombstones every dead entry in
  place, zeroing its row: O(dead), ids untouched.  Only once the dead
  rows are at least half the rows does it compact: rows are rewritten
  densely in id order (terminals fixed), the tables are rebuilt (they
  never shrink; a table past a quarter tombstones is rehashed at the
  same capacity), and C returns the dense old→new remap, which Python
  applies to :attr:`_extref` and to every live :class:`BddNode` handle.
  The handles are tracked as a periodically purged list of weak
  references (a ``WeakSet`` would dedup handles that hash equal while
  owning distinct ``id`` fields).  The node budget counts live rows:
  the kernel's cap is ``max_nodes`` plus the dead rows not yet compacted,
  as the object kernel's free list gives.
* **Level swaps** (``nat_swap_levels``) rewrite the upper nodes that test
  the lower variable under their own ids.

Python reads rows through **row views**: ``_var``/``_low``/``_high`` are
read-only ``memoryview``s over the C arrays, as long as their allocated
capacity, so the readers inherited from
:class:`BddManager` (``_ite``, ``_compose``, enumeration, ``minimal.py``,
``reorder.py``, ``dump.py``) index them like lists.  Their lifetime
rule: growing the store moves the rows to new buffers, but C keeps each
outgrown buffer until the next collection or ``nat_free``; every call
returns the node count, and Python replaces its views whenever that
count passes their length, so ``self._var`` always covers every id
Python holds.  A collection first re-reads the current buffers (a budget
abort returns no count, so the store may have grown unseen); before it
frees the outgrown buffers, and before ``nat_free``, the kernel handle
releases every view it made over them, so a stale alias raises
``ValueError`` instead of reading freed memory.

The eight hot computed tables live in C; :class:`_KernelCacheView`
reads their counters, and the node counts (created, live, peak) come
from the same stats block, so ``statistics()``, the ``bdd.*`` telemetry
collector, and ``reset_statistics()`` need no special cases.  See
docs/BDD_BACKENDS.md for the layout and the measured crossover between
the kernels.
"""

from __future__ import annotations

import ctypes
import logging
import threading
import weakref

from repro.bdd._native.build import load_kernel
from repro.bdd.manager import (
    DEFAULT_CACHE_BOUND,
    FALSE,
    TRUE,
    BddManager,
    BddNode,
)
from repro.errors import BddError, ResourceLimitError
from repro.obs.metrics import REGISTRY

log = logging.getLogger("repro.bdd.native")

#: fallback reasons already warned about (one line per reason per process)
_WARNED: set[str] = set()

#: length of the kernel's stats block, and where its node counts start
_STATS_LEN = 35
_STAT_NODES = 32


def native_status() -> tuple[bool, str | None]:
    """``(available, fallback_reason)`` of the native kernel."""
    lib, reason = load_kernel()
    return lib is not None, reason


def _note_fallback(reason: str) -> None:
    REGISTRY.counter("bdd.native.fallback").inc()
    if reason not in _WARNED:
        _WARNED.add(reason)
        log.warning("native BDD kernel unavailable (%s); using object kernel", reason)


def create_native_manager(**kwargs):
    """A :class:`NativeBddManager`, or the object-kernel fallback when
    the kernel cannot be built/loaded (missing compiler, failed
    compile)."""
    lib, reason = load_kernel()
    if lib is None:
        _note_fallback(reason or "unknown")
        return BddManager(**kwargs)
    return NativeBddManager(_lib=lib, **kwargs)


class _KernelHandle:
    """Shared ownership of one C manager: pointer, liveness, stats, views.

    The telemetry collector may read counters from another thread while
    (or after) the owning manager is garbage-collected, so every C access
    goes through this handle: reads return the last snapshot once
    ``close()`` has run, and ``close()`` folds the final counter values
    into that snapshot before freeing the C manager.  The handle also
    makes the row views and releases them before C frees their buffers.
    """

    __slots__ = ("lib", "mgr", "alive", "dirty", "_snap", "_buf", "_lock", "_views")

    def __init__(self, lib, mgr):
        self.lib = lib
        self.mgr = mgr
        self.alive = True
        self.dirty = True
        self._buf = (ctypes.c_int64 * _STATS_LEN)()
        self._snap = [0] * _STATS_LEN
        self._lock = threading.Lock()
        # every view set handed out; all but the last cover outgrown buffers
        self._views: list[tuple[memoryview, ...]] = []

    def read(self) -> list[int]:
        if self.dirty:
            with self._lock:
                if self.alive:
                    self.lib.nat_read_stats(self.mgr, self._buf)
                    self._snap = list(self._buf)
                self.dirty = False
        return self._snap

    def node_counts(self) -> tuple[int, int, int]:
        """``(created, live, peak)`` internal nodes, terminals excluded."""
        created, live, peak = self.read()[_STAT_NODES : _STAT_NODES + 3]
        return created, live, peak

    def row_views(self) -> tuple[memoryview, ...]:
        """``int32`` views of the current ``var``/``low``/``high`` buffers."""
        ptrs = (ctypes.c_void_p * 3)()
        cap = self.lib.nat_rows(self.mgr, ptrs)
        views = tuple(
            memoryview((ctypes.c_int32 * cap).from_address(ptr))
            .cast("B")
            .cast("i")
            .toreadonly()
            for ptr in ptrs
        )
        self._views.append(views)
        return views

    def _release(self, view_sets) -> None:
        for views in view_sets:
            for view in views:
                view.release()

    def release_outgrown(self) -> None:
        """Release the views of outgrown buffers (before ``nat_gc``)."""
        self._release(self._views[:-1])
        del self._views[:-1]

    def invalidate_caches(self) -> None:
        with self._lock:
            if self.alive:
                self.lib.nat_invalidate_caches(self.mgr)
        self.dirty = True

    def reset_stats(self) -> None:
        with self._lock:
            if self.alive:
                self.lib.nat_reset_stats(self.mgr)
        self.dirty = True

    def close(self) -> None:
        with self._lock:
            if not self.alive:
                return
            self.lib.nat_read_stats(self.mgr, self._buf)
            self._snap = list(self._buf)
            self.alive = False
            self._release(self._views)
            self._views = []
            self.lib.nat_free(self.mgr)
        self.dirty = False


#: the C kernel's computed tables, in its stats-layout order
_KERNEL_TABLES = (
    "not", "and", "or", "xor", "exists", "and_exists", "and_forall", "restrict"
)


class _KernelCacheView:
    """One of the C kernel's computed tables, seen from Python.

    Offers the ``name``/``hits``/``misses``/``evictions``/``stats()``
    surface of :class:`~repro.bdd.manager._ComputedTable`, read from the
    kernel's counters.  ``clear`` and ``reset_counters`` are no-ops: the
    manager clears and resets all eight kernel tables in one call
    (``_invalidate_caches`` / ``reset_statistics``).
    """

    __slots__ = ("name", "_handle", "_base")

    def __init__(self, name: str, handle: _KernelHandle, index: int):
        self.name = name
        self._handle = handle
        self._base = index * 4

    @property
    def hits(self) -> int:
        return self._handle.read()[self._base]

    @property
    def misses(self) -> int:
        return self._handle.read()[self._base + 1]

    @property
    def evictions(self) -> int:
        return self._handle.read()[self._base + 2]

    def clear(self) -> None:
        pass

    def reset_counters(self) -> None:
        pass

    def stats(self) -> dict[str, int]:
        base = self._base
        hits, misses, evictions, entries = self._handle.read()[base : base + 4]
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": entries,
        }


class NativeBddManager(BddManager):
    """The C-kernel BDD manager; see the module docstring."""

    def __init__(
        self,
        auto_reorder: bool = False,
        reorder_threshold: int = 50_000,
        max_nodes: int | None = None,
        cache_bound: int = DEFAULT_CACHE_BOUND,
        _lib=None,
    ):
        if _lib is None:
            _lib, reason = load_kernel()
            if _lib is None:
                raise BddError(f"native BDD kernel unavailable: {reason}")
        super().__init__(auto_reorder, reorder_threshold, max_nodes, cache_bound)
        # One weakref per live handle, so compacting GC can remap their
        # ids.  A WeakSet would be wrong here: BddNode compares (and
        # hashes) by node id, so distinct handle objects sharing an id
        # would be deduplicated and all but one would miss the remap.
        self._handles: list["weakref.ref[BddNode]"] = []
        self._handles_purge_at = 1024
        mgr = _lib.nat_new(-1 if max_nodes is None else max_nodes, cache_bound)
        if not mgr:
            raise BddError("native BDD kernel allocation failed")
        handle = _KernelHandle(_lib, mgr)
        self._kernel = handle
        self._finalizer = weakref.finalize(self, handle.close)
        # hot entry points bound once (the per-op fast path is one
        # attribute load + one FFI call)
        self._c_mgr = mgr
        self._c_mk = _lib.nat_mk
        self._c_not = _lib.nat_not
        self._c_and = _lib.nat_and
        self._c_or = _lib.nat_or
        self._c_xor = _lib.nat_xor
        self._c_exists = _lib.nat_exists
        self._c_andex = _lib.nat_and_exists
        self._c_andall = _lib.nat_and_forall
        self._c_restrict = _lib.nat_restrict
        # the row views replace the object kernel's row lists
        self._refresh_rows()
        # per-levels-tuple ctypes arrays, interned by levels tuple; the
        # nonzero intern id stands for the tuple in the C cache key
        self._levels_c_arrays: dict[tuple[int, ...], tuple] = {}
        # per-assignment ctypes arrays for restrict, interned by pairs
        # tuple; the nonzero intern id stands for the whole assignment in
        # the C cache key (mirroring the Python key's ``pairs`` component)
        self._pairs_c_arrays: dict[tuple[tuple[int, int], ...], tuple] = {}
        # the hot computed tables live in C; ite/compose keep the
        # object kernel's recursions and dict tables
        (
            self._not_tab,
            self._and_tab,
            self._or_tab,
            self._xor_tab,
            self._exists_tab,
            self._andex_tab,
            self._andall_tab,
            self._restrict_tab,
        ) = (
            _KernelCacheView(name, handle, index)
            for index, name in enumerate(_KERNEL_TABLES)
        )
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

    # ------------------------------------------------------------------
    # row views
    # ------------------------------------------------------------------
    def _refresh_rows(self) -> None:
        """Point ``_var``/``_low``/``_high`` at the current C buffers."""
        self._var, self._low, self._high = self._kernel.row_views()
        self._rows = len(self._var)

    def _num_rows(self) -> int:
        """Rows in the store, terminals and uncompacted dead rows included."""
        return self._kernel.lib.nat_num_nodes(self._c_mgr)

    def _finish(self, ret: int) -> int:
        """Decode a packed op result; follow a grown store; raise on abort."""
        self._kernel.dirty = True
        if ret < 0:
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        if ret >> 32 > self._rows:
            self._refresh_rows()
        return ret & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # wrapping / variables
    # ------------------------------------------------------------------
    def _wrap(self, node_id: int) -> BddNode:
        node = super()._wrap(node_id)
        handles = self._handles
        handles.append(weakref.ref(node))
        if len(handles) > self._handles_purge_at:
            # amortized purge of dead references (no per-ref callbacks)
            self._handles = handles = [r for r in handles if r() is not None]
            self._handles_purge_at = max(1024, 2 * len(handles))
        return node

    def add_var(self, name: str) -> BddNode:
        """Declare a new variable at the bottom of the current order."""
        if name in self._name2var:
            raise BddError(f"variable {name!r} already declared")
        self._kernel.lib.nat_add_var(self._c_mgr)
        var = len(self._names)
        self._names.append(name)
        self._name2var[name] = var
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        return self._wrap(self._mk(var, FALSE, TRUE))

    # ------------------------------------------------------------------
    # node construction / apply operations
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        return self._finish(self._c_mk(self._c_mgr, var, low, high))

    def _not(self, f: int) -> int:
        return self._finish(self._c_not(self._c_mgr, f))

    def _and(self, f: int, g: int) -> int:
        return self._finish(self._c_and(self._c_mgr, f, g))

    def _or(self, f: int, g: int) -> int:
        return self._finish(self._c_or(self._c_mgr, f, g))

    def _xor(self, f: int, g: int) -> int:
        return self._finish(self._c_xor(self._c_mgr, f, g))

    def _levels_c(self, levels: tuple[int, ...]):
        entry = self._levels_c_arrays.get(levels)
        if entry is None:
            arr = (ctypes.c_int32 * len(levels))(*levels)
            entry = (arr, len(self._levels_c_arrays) + 1)
            self._levels_c_arrays[levels] = entry
        return entry

    def _exists(self, f: int, levels: tuple[int, ...]) -> int:
        if f <= TRUE or not levels:
            return f
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_exists(self._c_mgr, f, arr, len(levels), lid)
        )

    def _and_exists(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_andex(self._c_mgr, f, g, arr, len(levels), lid)
        )

    def _and_forall(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_andall(self._c_mgr, f, g, arr, len(levels), lid)
        )

    def _pairs_c(self, pairs: tuple[tuple[int, int], ...]):
        entry = self._pairs_c_arrays.get(pairs)
        if entry is None:
            flat = [x for pair in pairs for x in pair]
            arr = (ctypes.c_int32 * len(flat))(*flat)
            entry = (arr, len(self._pairs_c_arrays) + 1)
            self._pairs_c_arrays[pairs] = entry
        return entry

    def _restrict(
        self, f: int, pairs: tuple[tuple[int, int], ...], start: int
    ) -> int:
        if f <= TRUE or start >= len(pairs):
            return f
        arr, pid = self._pairs_c(pairs)
        return self._finish(
            self._c_restrict(self._c_mgr, f, arr, len(pairs), start, pid)
        )

    # ------------------------------------------------------------------
    # maintenance: the store changes in C; Python follows the ids
    # ------------------------------------------------------------------
    def garbage_collect(self) -> int:
        """Sweep dead nodes; compact the rows once dead rows dominate.

        C marks from the externally referenced roots and tombstones the
        dead nodes in place (ids untouched).  When it also compacts, the
        returned old→new remap is applied to the refcount table and to
        the ids inside all live :class:`BddNode` handles.  All operation
        caches are dropped.  Returns the number of nodes reclaimed.
        """
        kernel = self._kernel
        roots = list(self._extref)
        remap = (ctypes.c_int32 * self._num_rows())()
        # nat_gc frees the outgrown buffers: view the current ones (a budget
        # abort returns no node count, so the store may have grown unseen)
        # and release every older view first
        self._refresh_rows()
        kernel.release_outgrown()
        ret = kernel.lib.nat_gc(
            self._c_mgr, (ctypes.c_int32 * len(roots))(*roots), len(roots), remap
        )
        kernel.dirty = True
        if ret & 1:
            # Pin the live handles before remapping anything: a handle
            # collected halfway through would drop a refcount against a
            # stale id.
            handles = [h for h in (r() for r in self._handles) if h is not None]
            self._handles = [weakref.ref(h) for h in handles]
            self._handles_purge_at = max(1024, 2 * len(handles))
            self._extref = {remap[f]: c for f, c in self._extref.items()}
            for handle in handles:
                handle.id = remap[handle.id]
        reclaimed = ret >> 1
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        super()._invalidate_caches()  # C dropped its own tables
        return reclaimed

    def swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Same contract as the object kernel: node ids are preserved, only
        upper-level nodes that reference the lower variable are
        rewritten, and all operation caches are invalidated.
        """
        if not 0 <= level < len(self._level2var) - 1:
            raise BddError(f"cannot swap level {level}")
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        self._level2var[level], self._level2var[level + 1] = lower, upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level
        ret = self._kernel.lib.nat_swap_levels(self._c_mgr, level)
        if ret == -2:
            raise BddError("unique-table collision during swap; manager corrupted")
        self._finish(ret)
        self._level_swaps += 1
        super()._invalidate_caches()  # C dropped its own tables

    def level_sizes(self) -> list[int]:
        """Unique-table size per level (after GC this is the live profile)."""
        sizes = (ctypes.c_int64 * max(1, len(self._names)))()
        self._kernel.lib.nat_var_sizes(self._c_mgr, sizes)
        return [sizes[var] for var in self._level2var]

    def _invalidate_caches(self) -> None:
        self._kernel.invalidate_caches()
        super()._invalidate_caches()

    def reset_statistics(self) -> None:
        self._kernel.reset_stats()
        super().reset_statistics()


__all__ = [
    "NativeBddManager",
    "create_native_manager",
    "native_status",
]
