"""The multi-backend manager surface: protocol, registry, and factory.

Two interchangeable BDD kernels implement the same :class:`Manager`
surface:

* ``object`` — :class:`repro.bdd.manager.BddManager`, the reference
  kernel: recursive apply operations over per-variable dict unique
  tables and bounded-dict computed tables.
* ``native`` — :class:`repro.bdd.native_backend.NativeBddManager`, the
  performance kernel: apply/quantify loops in C (``_native/kernel.c``,
  built lazily with the system compiler) over flat node arrays,
  open-addressed unique tables, and compacting garbage collection.
  See docs/BDD_BACKENDS.md.  When no compiler is available the factory
  degrades to the object kernel, bumping the ``bdd.native.fallback``
  counter — no environment breaks.

Both backends are drop-in for every consumer (χ engines, exact,
approx-1, verification): they produce identical BDD semantics, publish
the same ``bdd.*`` telemetry counters, and report the same
``statistics()`` shape.  Backend choice is therefore an *observational*
property of a run except for wall time — which is why it still keys the
persistent result cache (`repro.cache.keys`) defensively.

Selection precedence: an explicit ``backend=`` argument, then the
``REPRO_BDD_BACKEND`` environment variable, then ``native``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import BddError

if TYPE_CHECKING:  # pragma: no cover
    from repro.bdd.manager import BddManager, BddNode

#: the recognized backend names, in documentation order
BACKENDS = ("object", "native")

#: environment variable consulted when no explicit backend is given
BACKEND_ENV = "REPRO_BDD_BACKEND"

#: the default kernel when neither an argument nor the env var selects one
#: (the native C kernel; it degrades to ``object`` without a C toolchain)
DEFAULT_BACKEND = "native"


@runtime_checkable
class Manager(Protocol):
    """The abstract BDD-manager surface both kernels implement.

    This is the contract the engines (χ, exact, approx-1, verification)
    and the lattice helpers program against.  It covers the public
    handle-level API; the id-level internals (``_mk``, ``_and``,
    ``_var``/``_low``/``_high``, ``_cache``) shared by
    :mod:`repro.bdd.minimal` and :mod:`repro.bdd.reorder` are a
    structural convention both concrete classes also honor.
    """

    # -- variables ------------------------------------------------------
    def add_var(self, name: str) -> "BddNode": ...
    def var(self, name: str) -> "BddNode": ...
    def nvar(self, name: str) -> "BddNode": ...
    def has_var(self, name: str) -> bool: ...
    def var_index(self, name: str) -> int: ...
    def level_of(self, name: str) -> int: ...

    # -- constants ------------------------------------------------------
    @property
    def false(self) -> "BddNode": ...
    @property
    def true(self) -> "BddNode": ...

    # -- combinational helpers -----------------------------------------
    def conjoin(self, nodes: Iterable["BddNode"]) -> "BddNode": ...
    def disjoin(self, nodes: Iterable["BddNode"]) -> "BddNode": ...
    def restrict(self, node: "BddNode", assignment: Mapping[str, int]) -> "BddNode": ...
    def compose(self, node: "BddNode", name: str, replacement: "BddNode") -> "BddNode": ...

    # -- quantification -------------------------------------------------
    def exists(self, names: Sequence[str], node: "BddNode") -> "BddNode": ...
    def forall(self, names: Sequence[str], node: "BddNode") -> "BddNode": ...
    def and_exists(self, names: Sequence[str], f: "BddNode", g: "BddNode") -> "BddNode": ...
    def and_forall(self, names: Sequence[str], f: "BddNode", g: "BddNode") -> "BddNode": ...
    def forall_implied(self, names: Sequence[str], f: "BddNode", g: "BddNode") -> "BddNode": ...

    # -- satisfiability / enumeration ----------------------------------
    def evaluate(self, node: "BddNode", assignment: Mapping[str, int]) -> bool: ...
    def pick(self, node: "BddNode") -> dict[str, int] | None: ...
    def sat_count(self, node: "BddNode", nvars: int | None = None) -> int: ...
    def sat_iter(self, node: "BddNode", care_vars: Sequence[str] | None = None) -> Iterator[dict[str, int]]: ...
    def cube_iter(self, node: "BddNode") -> Iterator[dict[str, int]]: ...
    def from_cube(self, literals: Mapping[str, int]) -> "BddNode": ...
    def support(self, node: "BddNode") -> set[str]: ...
    def size(self, node: "BddNode") -> int: ...

    # -- maintenance / observability -----------------------------------
    def garbage_collect(self) -> int: ...
    def maybe_garbage_collect(self) -> None: ...
    def swap_levels(self, level: int) -> None: ...
    def live_node_count(self) -> int: ...
    def level_sizes(self) -> list[int]: ...
    def statistics(self) -> dict[str, object]: ...
    def reset_statistics(self) -> None: ...


def resolve_backend(name: str | None = None) -> str:
    """The effective backend name for ``name``.

    ``None`` falls back to ``$REPRO_BDD_BACKEND``, then to ``native``.
    Unknown names raise :class:`~repro.errors.BddError` so a typo'd env
    var fails loudly instead of silently running the wrong kernel.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise BddError(
            f"unknown BDD backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    return name


def create_manager(backend: str | None = None, **kwargs) -> "BddManager":
    """Instantiate a manager of the selected backend.

    ``kwargs`` are the common constructor options (``max_nodes``,
    ``auto_reorder``, ``reorder_threshold``, ``cache_bound``); both
    kernels accept the same set.  The backends are imported lazily so
    importing :mod:`repro.bdd` never pays for the kernel it does not use.
    """
    name = resolve_backend(backend)
    if name == "native":
        from repro.bdd.native_backend import create_native_manager

        return create_native_manager(**kwargs)
    from repro.bdd.manager import BddManager

    return BddManager(**kwargs)


def backend_of(manager) -> str:
    """The backend name of a live manager instance."""
    from repro.bdd.native_backend import NativeBddManager

    return "native" if isinstance(manager, NativeBddManager) else "object"


def backend_resolution(requested: str | None = None) -> dict:
    """How a backend request resolves, for run metadata and daemons.

    Returns ``{"requested", "resolved", "effective", "fallback_reason"}``:
    ``resolved`` applies the flag > ``$REPRO_BDD_BACKEND`` > default
    precedence; ``effective`` is the kernel that would actually run —
    it differs from ``resolved`` only when ``native`` cannot build/load
    and degrades to ``object`` (``fallback_reason`` says why).
    """
    resolved = resolve_backend(requested)
    effective = resolved
    fallback_reason = None
    if resolved == "native":
        from repro.bdd.native_backend import native_status

        available, reason = native_status()
        if not available:
            effective = "object"
            fallback_reason = reason
    return {
        "requested": requested,
        "resolved": resolved,
        "effective": effective,
        "fallback_reason": fallback_reason,
    }


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "Manager",
    "backend_of",
    "backend_resolution",
    "create_manager",
    "resolve_backend",
]
