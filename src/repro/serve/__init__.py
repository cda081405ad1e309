"""Analysis-as-a-service: the long-lived daemon behind ``repro serve``.

One resident process fronts the whole engine stack so a request pays
none of the per-invocation costs the CLI does: circuits stay parsed in a
digest-keyed warm registry, results sit in the two-tier content-addressed
cache, concurrent identical requests coalesce into one computation, a
bounded admission queue turns overload into an explicit ``429`` +
``Retry-After``, and execution runs through the worker-pool fault
envelope (kill-replace-requeue, never a hang).  ECO sessions
(:class:`repro.eco.NetworkSession`) are exposed as stateful HTTP
resources with idle eviction.  See docs/SERVING.md for the endpoint
reference and contracts, and ``benchmarks/bench_serve.py`` for the
seeded load harness that measures latency, throughput, coalescing, and
parity for the ``serve`` scenario of ``scripts/check_bench.py``.
"""

from repro.serve.app import DEBUG_TASK_KINDS, METHODS, ReproServer, ServerConfig
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import Request, read_request, response_bytes
from repro.serve.registry import CircuitRegistry, RegisteredCircuit
from repro.serve.sessions import SessionEntry, SessionStore

__all__ = [
    "Coalescer",
    "CircuitRegistry",
    "DEBUG_TASK_KINDS",
    "METHODS",
    "RegisteredCircuit",
    "ReproServer",
    "Request",
    "ServerConfig",
    "SessionEntry",
    "SessionStore",
    "read_request",
    "response_bytes",
]
