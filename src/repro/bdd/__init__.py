"""A self-contained reduced ordered binary decision diagram (ROBDD) package.

The paper's exact and first-approximate required-time algorithms are BDD
based ("All the Boolean operations in the exact and the first approximate
methods are done using BDD's", Section 6), and the exact algorithm "was run
with dynamic variable reordering being set".  No BDD library is available in
this environment, so this package implements one from scratch:

* :class:`~repro.bdd.manager.BddManager` — unique table, ITE with a compute
  cache, standard Boolean operators, restriction, composition, existential
  and universal quantification, satisfiability helpers.
* :class:`~repro.bdd.native_backend.NativeBddManager` — the native
  kernel: the same surface over one node store compiled to C at first
  use — flat node arrays, open-addressed unique tables, the hot
  apply/quantify loops, compacting GC and level swaps; bit-identical
  node sequences, graceful fallback to the object kernel without a
  compiler (see docs/BDD_BACKENDS.md).
* :mod:`~repro.bdd.api` — the backend :class:`~repro.bdd.api.Manager`
  protocol and the :func:`~repro.bdd.api.create_manager` factory that
  selects between the kernels (``REPRO_BDD_BACKEND`` env default).
* :mod:`~repro.bdd.reorder` — Rudell-style sifting dynamic variable
  reordering built on in-place adjacent-level swaps.
* :mod:`~repro.bdd.minimal` — lattice operators over BDD-encoded sets
  (minimal elements, upward/downward closures) used to extract the *latest*
  required times from the exact Boolean relation, and monotone prime
  enumeration used by approximate approach 1.
"""

from repro.bdd.api import (
    BACKENDS,
    Manager,
    backend_of,
    backend_resolution,
    create_manager,
    resolve_backend,
)
from repro.bdd.manager import BddManager, BddNode
from repro.bdd.minimal import (
    downward_closure,
    maximal_elements,
    minimal_elements,
    monotone_primes,
    upward_closure,
)

__all__ = [
    "BACKENDS",
    "BddManager",
    "BddNode",
    "Manager",
    "NativeBddManager",
    "backend_of",
    "backend_resolution",
    "create_manager",
    "resolve_backend",
    "minimal_elements",
    "maximal_elements",
    "upward_closure",
    "downward_closure",
    "monotone_primes",
]


def __getattr__(name: str):
    """Lazily expose the native kernel (PEP 562).

    It imports ctypes and loads (building, at first use) the C kernel;
    doing that eagerly would tax every process that only ever touches
    the object kernel.  ``create_manager`` performs the same lazy import
    internally.
    """
    if name == "NativeBddManager":
        from repro.bdd.native_backend import NativeBddManager

        return NativeBddManager
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
