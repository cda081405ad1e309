"""The native-kernel BDD manager (backend name ``"native"``).

:class:`NativeBddManager` keeps the public surface and the id-level
conventions of :class:`repro.bdd.manager.BddManager` and hands the hot
apply/quantify operations to the C kernel in ``_native/kernel.c`` (built
lazily by :mod:`repro.bdd._native.build`).  The kernel produces the same
node-creation sequence and the same budget-abort points as the object
kernel, so every consumer — the χ engines, enumeration helpers,
:mod:`repro.bdd.minimal`, the reorderer — keeps working unchanged.

The Python half owns the node store's upkeep:

* **Node storage** is the three parallel lists ``_var``/``_low``/
  ``_high``, kept *dense*: there is no free list, and garbage collection
  compacts the rows in place (see below).
* **Unique tables** are per-variable open-addressed hash tables
  (:class:`_UniqueTable`): parallel ``keys``/``vals`` slot lists, the key
  packed as ``(low << 32) | high`` (never 0, since ``low == high`` nodes
  are reduced away before insertion — so 0 doubles as the empty
  sentinel), Fibonacci-style slot hash ``((low * 0x9E3779B1) ^ high)``,
  linear probing, growth at 2/3 load.  The C kernel uses the same layout.
* **Garbage collection** is tombstone-first mark/sweep with deferred
  compaction: every collection marks from the external roots and
  tombstones dead unique-table entries in place — O(dead), ids
  untouched — leaving zeroed dead rows in the node arrays.  Only once
  the accumulated dead rows outnumber the live ones does the
  mark-and-compact pass run: build an old→new remap, rewrite the rows
  densely, rebuild the unique tables, and remap every external id — the
  refcount table and all live :class:`BddNode` handles, which the
  manager tracks as a periodically purged list of weak references (a
  ``WeakSet`` would dedup handles that hash equal while owning distinct
  ``id`` fields).  Node *ids* are therefore stable across sweeps but not
  across compactions; everything observable at the function level is
  unchanged.

Two authority modes keep the Python and C views coherent:

* **native mode** (``_c_valid``): the C kernel owns node creation.  After
  every native call the newly created rows are mirrored into the Python
  ``_var``/``_low``/``_high`` lists (readers — enumeration, GC marking,
  ``minimal.py`` — never notice a difference), while the Python
  per-variable unique tables go stale (``_py_tables_valid`` False).
* **python mode**: garbage collection and level swaps mutate rows in
  place and remap ids, so they first rebuild the Python unique tables
  from the rows and invalidate the C kernel.  The next native operation
  bulk re-uploads the store (``nat_load``), which also drops the C
  computed caches whose node-id keys may have been remapped.

The eight hot computed tables live in C; :class:`_KernelCacheView`
reads their counters, so ``statistics()``, the ``bdd.*`` telemetry
collector, and ``reset_statistics()`` need no special cases.  See
docs/BDD_BACKENDS.md for the layout and the measured crossover between
the kernels.
"""

from __future__ import annotations

import ctypes
import logging
import threading
import weakref

try:
    import numpy as np
except ImportError:  # the kernel's store upkeep needs numpy; see _load
    np = None

from repro.bdd._native.build import load_kernel
from repro.bdd.manager import (
    _TERMINAL_VAR,
    DEFAULT_CACHE_BOUND,
    FALSE,
    TRUE,
    BddManager,
    BddNode,
)
from repro.errors import BddError, ResourceLimitError
from repro.obs.metrics import REGISTRY

log = logging.getLogger("repro.bdd.native")

_I32P = ctypes.POINTER(ctypes.c_int32)

#: Knuth multiplicative hash constant for slot indexing.
_H1 = 0x9E3779B1

#: fallback reasons already warned about (one line per reason per process)
_WARNED: set[str] = set()


def _pow2(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


def _rehash(old_keys: list[int], old_vals: list[int], slots: int):
    """Rehash the resident entries of an open-addressed table.

    Returns fresh ``(keys, vals)`` slot lists of ``slots`` slots with
    tombstones dropped.  The home slot of every resident is computed
    vectorized (the hash only depends on the low bits of the product,
    so 64-bit wraparound is exact); only collision probing runs in the
    interpreter, and at the post-grow load factor most entries place on
    their home slot.
    """
    mask = slots - 1
    keys = [0] * slots
    vals = [0] * slots
    if len(old_keys) < 4096:
        # below numpy's conversion break-even, rehash in plain Python
        for idx, packed in enumerate(old_keys):
            if packed > 0:
                j = (((packed >> 32) * _H1) ^ (packed & 0xFFFFFFFF)) & mask
                while keys[j]:
                    j = (j + 1) & mask
                keys[j] = packed
                vals[j] = old_vals[idx]
        return keys, vals
    kn = np.array(old_keys, dtype=np.int64)
    live = np.nonzero(kn > 0)[0]
    if live.size:
        packed = kn[live].astype(np.uint64)
        home = (
            ((packed >> np.uint64(32)) * np.uint64(_H1))
            ^ (packed & np.uint64(0xFFFFFFFF))
        ) & np.uint64(mask)
        vn = np.array(old_vals, dtype=np.int64)[live]
        for p, j, v in zip(kn[live].tolist(), home.tolist(), vn.tolist()):
            while keys[j]:
                j = (j + 1) & mask
            keys[j] = p
            vals[j] = v
    return keys, vals


class _UniqueTable:
    """One variable's open-addressed unique table.

    ``keys[j]`` holds the packed ``(low << 32) | high`` of the node in
    slot ``j``, ``vals[j]`` its id.  Slot states: ``0`` = never used
    (probe stop), ``-1`` = tombstone of a swept node (probes continue
    straight past it, so the inline probe in ``_py_mk`` needs no
    tombstone awareness at all), ``> 0`` = resident.  The GC sweep
    tombstones dead entries in place — O(dead), ids untouched — and a
    table whose tombstones exceed a quarter of its slots is rehashed at
    the same capacity (:meth:`rebuild`) so probe chains stay short and
    the load-factor triggers stay honest.
    """

    __slots__ = ("keys", "vals", "size", "tombs", "mask")

    def __init__(self, capacity: int = 8):
        slots = _pow2(max(8, capacity))
        self.keys: list[int] = [0] * slots
        self.vals: list[int] = [0] * slots
        self.size = 0
        self.tombs = 0
        self.mask = slots - 1

    def reset(self, capacity: int) -> None:
        """Empty the table, pre-sized for ``capacity`` entries.

        Never shrinks: a GC rebuild sized exactly to its survivors
        would re-grow step by step as the table refills (measured as the
        dominant cost of GC-heavy runs), so a table keeps its peak slot
        count for the life of the manager.
        """
        slots = max(_pow2(max(8, capacity * 2)), self.mask + 1)
        self.keys = [0] * slots
        self.vals = [0] * slots
        self.size = 0
        self.tombs = 0
        self.mask = slots - 1

    def lookup(self, low: int, high: int) -> int | None:
        key = (low << 32) | high
        keys = self.keys
        mask = self.mask
        j = ((low * _H1) ^ high) & mask
        while True:
            slot = keys[j]
            if slot == key:
                return self.vals[j]
            if slot == 0:
                return None
            j = (j + 1) & mask

    def insert(self, low: int, high: int, node_id: int) -> None:
        """Insert a (low, high) -> id entry assumed not present."""
        keys = self.keys
        mask = self.mask
        j = ((low * _H1) ^ high) & mask
        while keys[j] > 0:
            j = (j + 1) & mask
        if keys[j] < 0:
            self.tombs -= 1
        keys[j] = (low << 32) | high
        self.vals[j] = node_id
        self.size += 1
        if (self.size + self.tombs) * 3 >= (mask + 1) * 2:
            self.grow()

    def grow(self) -> None:
        """Grow the slot count and rehash every resident entry.

        Mid-size tables quadruple — repeated rehashing while a table
        climbs is a measured hot spot on node-heavy runs, and the
        geometric sum of rehash work drops from 2× to 1.33× the final
        size — while large tables double to bound slot memory.
        """
        slots = self.mask + 1
        slots <<= 1 if slots >= (1 << 16) else 2
        self.keys, self.vals = _rehash(self.keys, self.vals, slots)
        self.tombs = 0
        self.mask = slots - 1

    def rebuild(self) -> None:
        """Rehash at the same capacity, dropping tombstones."""
        self.keys, self.vals = _rehash(self.keys, self.vals, self.mask + 1)
        self.tombs = 0

    def node_ids(self) -> list[int]:
        """The ids of every resident node (unordered)."""
        keys = self.keys
        vals = self.vals
        return [vals[j] for j in range(len(keys)) if keys[j] > 0]


def _fill_unique_tables(unique: list[_UniqueTable], ids, var, low, high) -> None:
    """Reset every table in ``unique`` and insert the given nodes.

    Node ``ids[i]`` has variable ``var[i]`` and children ``low[i]`` /
    ``high[i]`` (aligned ``int64`` numpy arrays).  Nodes are inserted per
    variable in the order given; the home slots are computed vectorized
    and only collision probing runs in the interpreter.
    """
    counts = np.bincount(var, minlength=len(unique))
    home = (low.astype(np.uint64) * np.uint64(_H1)) ^ high.astype(np.uint64)
    packed = (low << 32) | high
    order = np.argsort(var, kind="stable")
    start = 0
    for v, ut in enumerate(unique):
        count = int(counts[v])
        ut.reset(count)
        if not count:
            continue
        grp = order[start : start + count]
        start += count
        mask = ut.mask
        keys = ut.keys
        vals = ut.vals
        homes = (home[grp] & np.uint64(mask)).tolist()
        for p, j, nid in zip(packed[grp].tolist(), homes, ids[grp].tolist()):
            while keys[j]:
                j = (j + 1) & mask
            keys[j] = p
            vals[j] = nid
        ut.size = count


def _load():
    """``(lib, reason)``: the loaded kernel, or ``None`` and why not.  A
    missing numpy makes the kernel unavailable like a missing compiler."""
    if np is None:
        return None, "numpy is not installed"
    return load_kernel()


def native_status() -> tuple[bool, str | None]:
    """``(available, fallback_reason)`` of the native kernel."""
    lib, reason = _load()
    return lib is not None, reason


def _note_fallback(reason: str) -> None:
    REGISTRY.counter("bdd.native.fallback").inc()
    if reason not in _WARNED:
        _WARNED.add(reason)
        log.warning("native BDD kernel unavailable (%s); using object kernel", reason)


def create_native_manager(**kwargs):
    """A :class:`NativeBddManager`, or the object-kernel fallback when
    the kernel cannot be built/loaded (missing compiler or numpy, failed
    compile)."""
    lib, reason = _load()
    if lib is None:
        _note_fallback(reason or "unknown")
        return BddManager(**kwargs)
    return NativeBddManager(_lib=lib, **kwargs)


class _KernelHandle:
    """Shared ownership of one C manager: pointer, liveness, stats cache.

    The telemetry collector may read counters from another thread while
    (or after) the owning manager is garbage-collected, so every C access
    goes through this handle: reads return the last snapshot once
    ``close()`` has run, and ``close()`` folds the final counter values
    into that snapshot before freeing the C manager.
    """

    __slots__ = ("lib", "mgr", "alive", "dirty", "_snap", "_buf", "_lock")

    def __init__(self, lib, mgr):
        self.lib = lib
        self.mgr = mgr
        self.alive = True
        self.dirty = True
        self._buf = (ctypes.c_int64 * 32)()
        self._snap = [0] * 32
        self._lock = threading.Lock()

    def read(self) -> list[int]:
        if self.dirty:
            with self._lock:
                if self.alive:
                    self.lib.nat_read_stats(self.mgr, self._buf)
                    self._snap = list(self._buf)
                self.dirty = False
        return self._snap

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
            _lib, reason = _load()
            if _lib is None:
                raise BddError(f"native BDD kernel unavailable: {reason}")
        super().__init__(auto_reorder, reorder_threshold, max_nodes, cache_bound)
        # open-addressed unique tables (the parent initialized dicts, but
        # no variable exists yet at this point)
        self._unique: list[_UniqueTable] = []
        # quantified level-tuples interned to small ints for key packing
        self._levels_intern: dict[tuple[int, ...], int] = {}
        # One weakref per live handle, so compacting GC can remap their
        # ids.  A WeakSet would be wrong here: BddNode compares (and
        # hashes) by node id, so distinct handle objects sharing an id
        # would be deduplicated and all but one would miss the remap.
        self._handles: list["weakref.ref[BddNode]"] = []
        self._handles_purge_at = 1024
        # Rows of swept-but-not-yet-compacted nodes still occupying the
        # node arrays.  ``len(self._var) - self._dead_rows`` is exactly
        # the object kernel's ``len(self._var) - len(self._free)``, so
        # the budget cap below keeps ResourceLimitError timing
        # bit-identical across kernels.
        self._dead_rows = 0
        self._node_cap = max_nodes
        mgr = _lib.nat_new(-1 if max_nodes is None else max_nodes, cache_bound)
        if not mgr:
            raise BddError("native BDD kernel allocation failed")
        handle = _KernelHandle(_lib, mgr)
        self._kernel = handle
        self._finalizer = weakref.finalize(self, handle.close)
        # hot entry points bound once (the per-op fast path is one
        # attribute load + one FFI call)
        self._c_mgr = mgr
        self._c_mk_ = _lib.nat_mk
        self._c_not = _lib.nat_not
        self._c_and = _lib.nat_and
        self._c_or = _lib.nat_or
        self._c_xor = _lib.nat_xor
        self._c_exists = _lib.nat_exists
        self._c_andex = _lib.nat_and_exists
        self._c_andall = _lib.nat_and_forall
        self._c_restrict = _lib.nat_restrict
        self._c_num_nodes = _lib.nat_num_nodes
        # authority flags: both sides start empty and coherent
        self._c_valid = True
        self._py_tables_valid = True
        # per-levels-tuple ctypes arrays, interned alongside _levels_id
        self._levels_c_arrays: dict[tuple[int, ...], tuple] = {}
        # per-assignment ctypes arrays for restrict, interned by pairs
        # tuple; the nonzero intern id stands for the whole assignment in
        # the C cache key (mirroring the Python key's ``pairs`` component)
        self._pairs_c_arrays: dict[tuple[tuple[int, int], ...], tuple] = {}
        # persistent row-readback buffers (grown on demand): a ctypes
        # slice-to-list is far cheaper than per-call numpy allocation for
        # the common few-new-rows case
        self._pull_cap = 256
        self._pull_bufs = tuple(
            (ctypes.c_int32 * self._pull_cap)() for _ in range(3)
        )
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
    # authority transitions
    # ------------------------------------------------------------------
    def _upload(self) -> None:
        """Re-establish C authority: bulk-load rows, order, and budget."""
        handle = self._kernel
        n = len(self._var)
        var_np = np.array(self._var, dtype=np.int32)
        low_np = np.array(self._low, dtype=np.int32)
        high_np = np.array(self._high, dtype=np.int32)
        v2l_np = np.array(self._var2level or [0], dtype=np.int32)
        handle.lib.nat_load(
            self._c_mgr,
            n,
            var_np.ctypes.data_as(_I32P),
            low_np.ctypes.data_as(_I32P),
            high_np.ctypes.data_as(_I32P),
            len(self._var2level),
            v2l_np.ctypes.data_as(_I32P),
            -1 if self._node_cap is None else self._node_cap,
        )
        handle.dirty = True
        self._c_valid = True

    def _ensure_py_tables(self) -> None:
        """Rebuild the Python unique tables from the (mirrored) rows."""
        if self._py_tables_valid:
            return
        var_np = np.array(self._var, dtype=np.int64)
        live = np.nonzero(var_np[2:] >= 0)[0] + 2
        _fill_unique_tables(
            self._unique,
            live,
            var_np[live],
            np.array(self._low, dtype=np.int64)[live],
            np.array(self._high, dtype=np.int64)[live],
        )
        self._py_tables_valid = True

    def _pull_rows(self, n: int) -> None:
        """Mirror rows ``[len(self._var), n)`` from the C kernel."""
        start = len(self._var)
        count = n - start
        if count > self._pull_cap:
            self._pull_cap = max(count, self._pull_cap * 2)
            self._pull_bufs = tuple(
                (ctypes.c_int32 * self._pull_cap)() for _ in range(3)
            )
        vb, lb, hb = self._pull_bufs
        self._kernel.lib.nat_read_rows(self._c_mgr, start, count, vb, lb, hb)
        self._var.extend(vb[:count])
        self._low.extend(lb[:count])
        self._high.extend(hb[:count])
        self._nodes_created += count
        live = self._nodes_live + count
        self._nodes_live = live
        if live > self._peak_live:
            self._peak_live = live
        self._py_tables_valid = False

    def _finish(self, ret: int) -> int:
        """Decode a packed op result; mirror new rows; raise on abort."""
        kernel = self._kernel
        kernel.dirty = True
        if ret < 0:
            n = self._c_num_nodes(self._c_mgr)
            if n > len(self._var):
                self._pull_rows(n)
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        n = ret >> 32
        if n > len(self._var):
            self._pull_rows(n)
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
        if self._c_valid:
            self._kernel.lib.nat_add_var(self._c_mgr)
        var = len(self._names)
        self._names.append(name)
        self._name2var[name] = var
        self._unique.append(_UniqueTable())
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        return self._wrap(self._mk(var, FALSE, TRUE))

    def _levels_id(self, levels: tuple[int, ...]) -> int:
        """A small interned int standing for a quantified-levels tuple."""
        intern = self._levels_intern
        lid = intern.get(levels)
        if lid is None:
            lid = len(intern) + 1
            intern[levels] = lid
        return lid

    # ------------------------------------------------------------------
    # node construction / apply operations
    # ------------------------------------------------------------------
    def _py_mk(self, var: int, low: int, high: int) -> int:
        """``_mk`` while Python owns the store (level swaps)."""
        if low == high:
            return low
        ut = self._unique[var]
        keys = ut.keys
        mask = ut.mask
        key = (low << 32) | high
        j = ((low * _H1) ^ high) & mask
        while True:
            slot = keys[j]
            if slot == key:
                return ut.vals[j]
            if slot == 0:
                break
            j = (j + 1) & mask
        var_ = self._var
        if self._node_cap is not None and len(var_) > self._node_cap:
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        node_id = len(var_)
        var_.append(var)
        self._low.append(low)
        self._high.append(high)
        keys[j] = key
        ut.vals[j] = node_id
        size = ut.size + 1
        ut.size = size
        if size * 3 >= (mask + 1) * 2:
            ut.grow()
        self._nodes_created += 1
        live = self._nodes_live + 1
        self._nodes_live = live
        if live > self._peak_live:
            self._peak_live = live
        return node_id

    def _mk(self, var: int, low: int, high: int) -> int:
        if not self._c_valid:
            return self._py_mk(var, low, high)
        # unlike the apply loops, a _mk can create at most one row and
        # its contents are exactly the arguments — mirror it directly
        # instead of reading it back across the FFI (the structured-key
        # operations inherited from the object kernel call _mk per
        # recursion step, so this path is hot)
        ret = self._c_mk_(self._c_mgr, var, low, high)
        kernel = self._kernel
        kernel.dirty = True
        if ret < 0:
            n = self._c_num_nodes(self._c_mgr)
            if n > len(self._var):
                self._pull_rows(n)
            raise ResourceLimitError(
                f"BDD node budget exceeded ({self.max_nodes} nodes)"
            )
        if (ret >> 32) > len(self._var):
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._nodes_created += 1
            live = self._nodes_live + 1
            self._nodes_live = live
            if live > self._peak_live:
                self._peak_live = live
            self._py_tables_valid = False
        return ret & 0xFFFFFFFF

    def _not(self, f: int) -> int:
        if not self._c_valid:
            self._upload()
        return self._finish(self._c_not(self._c_mgr, f))

    def _and(self, f: int, g: int) -> int:
        if not self._c_valid:
            self._upload()
        return self._finish(self._c_and(self._c_mgr, f, g))

    def _or(self, f: int, g: int) -> int:
        if not self._c_valid:
            self._upload()
        return self._finish(self._c_or(self._c_mgr, f, g))

    def _xor(self, f: int, g: int) -> int:
        if not self._c_valid:
            self._upload()
        return self._finish(self._c_xor(self._c_mgr, f, g))

    def _levels_c(self, levels: tuple[int, ...]):
        entry = self._levels_c_arrays.get(levels)
        if entry is None:
            arr = (ctypes.c_int32 * len(levels))(*levels)
            entry = (arr, self._levels_id(levels))
            self._levels_c_arrays[levels] = entry
        return entry

    def _exists(self, f: int, levels: tuple[int, ...]) -> int:
        if f <= TRUE or not levels:
            return f
        if not self._c_valid:
            self._upload()
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_exists(self._c_mgr, f, arr, len(levels), lid)
        )

    def _and_exists(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        if not self._c_valid:
            self._upload()
        arr, lid = self._levels_c(levels)
        return self._finish(
            self._c_andex(self._c_mgr, f, g, arr, len(levels), lid)
        )

    def _and_forall(self, f: int, g: int, levels: tuple[int, ...]) -> int:
        if not levels:
            return self._and(f, g)
        if not self._c_valid:
            self._upload()
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
        if not self._c_valid:
            self._upload()
        arr, pid = self._pairs_c(pairs)
        return self._finish(
            self._c_restrict(self._c_mgr, f, arr, len(pairs), start, pid)
        )

    # ------------------------------------------------------------------
    # maintenance: these run under python authority and leave the C
    # kernel to re-upload lazily
    # ------------------------------------------------------------------
    def garbage_collect(self) -> int:
        """Sweep dead nodes; compact the rows once dead rows dominate.

        Every collection marks from the externally referenced roots and
        *tombstones* dead unique-table entries in place — O(dead) per
        table plus a slot scan, node ids untouched, dead rows zeroed
        but left in the arrays (mirroring the object kernel's freed
        rows).  Only when the accumulated dead rows outnumber the live
        ones does the mark-and-compact pass run: build an old→new id
        remap (terminals stay put), rewrite the rows densely, rebuild
        the unique tables, and remap every external id — the refcount
        table and the ids inside all live :class:`BddNode` handles.
        This keeps the per-collection cost proportional to garbage
        (like the object kernel's dict sweeps) while bounding row
        memory at twice the live size.  All operation caches are
        dropped.  Returns the number of nodes reclaimed this call.
        """
        self._ensure_py_tables()
        self._c_valid = False
        var_ = self._var
        low_ = self._low
        high_ = self._high
        n = len(var_)
        marked = bytearray(n)
        marked[FALSE] = 1
        marked[TRUE] = 1
        marked_np = np.frombuffer(marked, dtype=np.uint8)
        low_np = high_np = None
        roots = [f for f, c in self._extref.items() if c > 0]
        if n < 4096:
            # small store: a plain DFS beats the numpy conversion cost
            stack = roots
            while stack:
                f = stack.pop()
                if marked[f]:
                    continue
                marked[f] = 1
                if var_[f] != _TERMINAL_VAR:
                    stack.append(low_[f])
                    stack.append(high_[f])
        elif roots:
            # vectorized breadth-first mark: gather both children of
            # the whole frontier at once; terminals and dead rows have
            # zeroed children, which are marked from the start, so the
            # filter needs no special cases.  Total gather work is
            # bounded by the edge count.
            low_np = np.array(low_, dtype=np.int64)
            high_np = np.array(high_, dtype=np.int64)
            frontier = np.unique(np.array(roots, dtype=np.int64))
            frontier = frontier[marked_np[frontier] == 0]
            marked_np[frontier] = 1
            while frontier.size:
                children = np.concatenate((low_np[frontier], high_np[frontier]))
                children = np.unique(children)
                children = children[marked_np[children] == 0]
                marked_np[children] = 1
                frontier = children
        # -- tombstone sweep: drop dead entries table by table ---------
        # The dead-slot scan is vectorized: stale ``vals`` under empty
        # or tombstoned slots are masked out by ``keys > 0`` (and are
        # always valid indices — ids only grow between compactions, and
        # compaction rebuilds every table fresh).
        reclaimed = 0
        for ut in self._unique:
            if not ut.size:
                continue
            keys = ut.keys
            vals = ut.vals
            if ut.mask < 2048:
                dead = 0
                for j, packed in enumerate(keys):
                    if packed > 0:
                        nid = vals[j]
                        if not marked[nid]:
                            keys[j] = -1
                            var_[nid] = _TERMINAL_VAR
                            low_[nid] = FALSE
                            high_[nid] = FALSE
                            dead += 1
            else:
                kn = np.array(keys, dtype=np.int64)
                vn = np.array(vals, dtype=np.int64)
                dead_slots = np.nonzero((kn > 0) & (marked_np[vn] == 0))[0]
                dead = int(dead_slots.size)
                for j in dead_slots.tolist():
                    nid = vals[j]
                    keys[j] = -1
                    var_[nid] = _TERMINAL_VAR
                    low_[nid] = FALSE
                    high_[nid] = FALSE
            if dead:
                ut.size -= dead
                ut.tombs += dead
                reclaimed += dead
                if ut.tombs * 4 > ut.mask + 1:
                    ut.rebuild()
        dead_rows = self._dead_rows + reclaimed
        if dead_rows * 2 >= n:
            # -- mark-and-compact: rewrite the rows densely ------------
            # Snapshot the live handles *before* mutating anything:
            # holding strong references pins them so no handle can be
            # collected (and drop a refcount against a stale id)
            # halfway through the remap.
            handles = [h for h in (r() for r in self._handles) if h is not None]
            self._handles = [weakref.ref(h) for h in handles]
            self._handles_purge_at = max(1024, 2 * len(handles))
            # The remap and the dense rewrite are pure gathers, so both
            # run vectorized.
            remap_np = np.cumsum(marked_np, dtype=np.int64) - 1
            live_idx = np.nonzero(marked_np)[0]
            # the mark-phase conversions (when present) predate the
            # sweep, but the sweep only zeroes *dead* rows and only
            # live rows are gathered here
            if low_np is None:
                low_np = np.array(low_, dtype=np.int64)
                high_np = np.array(high_, dtype=np.int64)
            var_np = np.array(var_, dtype=np.int64)[live_idx]
            low_np = remap_np[low_np[live_idx]]
            high_np = remap_np[high_np[live_idx]]
            self._var = var_np.tolist()
            self._low = low_np.tolist()
            self._high = high_np.tolist()
            _fill_unique_tables(
                self._unique,
                np.arange(2, live_idx.size, dtype=np.int64),
                var_np[2:],
                low_np[2:],
                high_np[2:],
            )
            self._extref = {
                int(remap_np[f]): c for f, c in self._extref.items() if c > 0
            }
            for handle in handles:
                handle.id = int(remap_np[handle.id])
            dead_rows = 0
        self._dead_rows = dead_rows
        if self.max_nodes is not None:
            self._node_cap = self.max_nodes + dead_rows
        self._nodes_live -= reclaimed
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        self._invalidate_caches()
        self._py_tables_valid = True
        return reclaimed

    def swap_levels(self, level: int) -> None:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Same contract as the object kernel: node ids are preserved, only
        upper-level nodes that reference the lower variable are
        rewritten, and all operation caches are invalidated.
        """
        self._ensure_py_tables()
        self._c_valid = False
        if not 0 <= level < len(self._level2var) - 1:
            raise BddError(f"cannot swap level {level}")
        upper = self._level2var[level]
        lower = self._level2var[level + 1]
        var_ = self._var
        low_ = self._low
        high_ = self._high
        upper_table = self._unique[upper]
        lower_table = self._unique[lower]

        residents = upper_table.node_ids()
        interacting = [
            nid
            for nid in residents
            if var_[low_[nid]] == lower or var_[high_[nid]] == lower
        ]
        if interacting:
            upper_table.reset(len(residents) - len(interacting))
            skip = set(interacting)
            for nid in residents:
                if nid not in skip:
                    upper_table.insert(low_[nid], high_[nid], nid)
        self._nodes_live -= len(interacting)

        # Commit the level exchange before creating new upper-var nodes
        # so that _mk built levels are consistent.
        self._level2var[level], self._level2var[level + 1] = lower, upper
        self._var2level[upper] = level + 1
        self._var2level[lower] = level

        for nid in interacting:
            f0, f1 = low_[nid], high_[nid]
            if var_[f0] == lower:
                f00, f01 = low_[f0], high_[f0]
            else:
                f00 = f01 = f0
            if var_[f1] == lower:
                f10, f11 = low_[f1], high_[f1]
            else:
                f10 = f11 = f1
            new_low = self._py_mk(upper, f00, f10)
            new_high = self._py_mk(upper, f01, f11)
            var_[nid] = lower
            low_[nid] = new_low
            high_[nid] = new_high
            existing = lower_table.lookup(new_low, new_high)
            if existing is not None and existing != nid:
                raise BddError(
                    "unique-table collision during swap; manager corrupted"
                )
            if existing is None:
                lower_table.insert(new_low, new_high, nid)
            self._nodes_live += 1
            if self._nodes_live > self._peak_live:
                self._peak_live = self._nodes_live

        self._level_swaps += 1
        self._invalidate_caches()

    def level_sizes(self) -> list[int]:
        """Unique-table size per level (after GC this is the live profile)."""
        self._ensure_py_tables()
        return [
            self._unique[self._level2var[lv]].size
            for lv in range(len(self._level2var))
        ]

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
