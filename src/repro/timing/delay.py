"""The delay model.

The paper analyzes circuits under the **extended bounded delay-0 (XBD0)**
model (Section 2.2): each gate has a maximum positive delay and a minimum
delay of zero, and sensitization reasons over *all* delay assignments in
between.  The monotone-speedup property of viability analysis corresponds
exactly to the zero minimum.  Operationally, only the maximum delays enter
the χ-function recursion, so a delay model here maps each gate to its
maximum delay.

The experiments in the paper use the **unit delay model** (every gate's
maximum delay is 1); :func:`unit_delay` builds it.

Rise/fall distinction (the paper's footnote 1: "it is possible to
differentiate rise delays from fall delays") is supported as an extension:
an entry may be a single number or a ``(rise, fall)`` pair, and the χ
recursion applies the rise delay when stabilizing a node to 1 and the fall
delay when stabilizing it to 0.

Each rise or fall delay may also be a ``[lo, hi]`` **bound** (delay
uncertainty before layout).  A number ``d`` is the point interval
``[d, d]``, so there is one model: the χ engines read the **hi** corner
through ``of`` / ``of_value`` (safe for every assignment in the box by
monotone speedup), and only
:func:`repro.timing.topological.required_time_bounds` reads both ends
(docs/DELAY_MODELS.md).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.errors import NetworkError, TimingError
from repro.network.network import Network


def _bound(value, delay) -> tuple[float, float]:
    """``(lo, hi)`` from a number or a ``[lo, hi]`` pair of numbers."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise TimingError(f"delay interval must be [lo, hi], got {value!r}")
        lo, hi = value
    else:
        lo = hi = value
    ends = []
    for end in (lo, hi):
        if isinstance(end, bool) or not isinstance(end, (int, float)):
            raise TimingError(f"gate delay must be a number, got {delay!r}")
        try:
            end = float(end)  # an int past the float range overflows
        except OverflowError:
            end = math.inf
        if not 0 <= end < math.inf:
            raise TimingError(
                f"gate delay must be finite and non-negative, got {delay!r}"
            )
        ends.append(end)
    lo, hi = ends
    if lo > hi:
        raise TimingError(f"delay interval has lo > hi: {delay!r}")
    return (lo, hi)


def normalize_delay(delay) -> tuple[tuple[float, float], tuple[float, float]]:
    """``((fall_lo, fall_hi), (rise_lo, rise_hi))`` from any accepted form,
    so ``entry[value]`` is the bound toward stabilizing at ``value``.

    * a number ``d`` — the point interval ``[d, d]`` for rise and fall;
    * a ``(rise, fall)`` pair, each a number or a ``[lo, hi]`` bound.

    Every delay must be a finite non-negative number (booleans, NaN and
    infinities raise :class:`TimingError`), and ``lo <= hi``.
    """
    if isinstance(delay, (tuple, list)):
        if len(delay) != 2:
            raise TimingError(f"delay pair must have two entries, got {delay!r}")
        rise, fall = _bound(delay[0], delay), _bound(delay[1], delay)
    else:
        rise = fall = _bound(delay, delay)
    return (fall, rise)


def _is_point(entry) -> bool:
    (fall_lo, fall_hi), (rise_lo, rise_hi) = entry
    return fall_lo == fall_hi and rise_lo == rise_hi


def _max_bounds(entry) -> tuple[float, float]:
    """Bounds of ``max(rise, fall)``: rise and fall float independently."""
    fall, rise = entry
    return (max(fall[0], rise[0]), max(fall[1], rise[1]))


class DelayModel:
    """Gate delays under the XBD0 model.

    ``overrides`` assigns specific delays by node name; every other gate
    gets ``default``.  Each delay is a number or a ``(rise, fall)`` pair,
    and each rise or fall delay a number or a ``[lo, hi]`` bound.
    Primary inputs have no delay (arrival times are boundary conditions,
    not gate properties).
    """

    def __init__(self, default=1.0, overrides: Mapping[str, object] | None = None):
        self._default = normalize_delay(default)
        self._overrides: dict[str, tuple] = {
            name: normalize_delay(d) for name, d in (overrides or {}).items()
        }

    @classmethod
    def _build(cls, default, overrides: dict[str, tuple]) -> "DelayModel":
        model = cls.__new__(cls)
        model._default = default
        model._overrides = overrides
        return model

    def _map(self, fn) -> "DelayModel":
        """A copy with ``fn`` applied to every normalized entry."""
        return self._build(
            fn(self._default),
            {name: fn(entry) for name, entry in self._overrides.items()},
        )

    # ------------------------------------------------------------------
    # what the engines read: the hi corner
    # ------------------------------------------------------------------
    @property
    def default(self) -> float:
        """The default maximum delay (hi bound, max of rise/fall)."""
        return _max_bounds(self._default)[1]

    @property
    def overrides(self) -> dict[str, float]:
        """Per-gate maximum delays (hi bound, max of rise/fall), for
        reporting."""
        return {name: _max_bounds(e)[1] for name, e in self._overrides.items()}

    def of(self, node_name: str) -> float:
        """Maximum delay of the named gate (hi bound, max over rise/fall)."""
        fall, rise = self._overrides.get(node_name, self._default)
        return max(fall[1], rise[1])

    def of_value(self, node_name: str, value: int) -> float:
        """Maximum delay toward stabilizing at ``value``: rise for 1, fall
        for 0 (footnote 1 of the paper), at the hi bound."""
        return self._overrides.get(node_name, self._default)[value][1]

    def is_value_dependent(self) -> bool:
        """True when any gate distinguishes rise from fall."""
        return any(
            fall != rise
            for fall, rise in (self._default, *self._overrides.values())
        )

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def of_bounds(self, node_name: str) -> tuple[float, float]:
        """``(lo, hi)`` bounds of the gate's maximum delay, ``max(rise,
        fall)``: ``[max(rise_lo, fall_lo), max(rise_hi, fall_hi)]``."""
        return _max_bounds(self._overrides.get(node_name, self._default))

    def is_point(self) -> bool:
        """True when every bound is a point (``lo == hi``): the model
        carries no delay uncertainty."""
        return _is_point(self._default) and all(
            _is_point(entry) for entry in self._overrides.values()
        )

    def _corner(self, end: int) -> "DelayModel":
        return self._map(lambda entry: tuple((b[end], b[end]) for b in entry))

    def lo_model(self) -> "DelayModel":
        """The best-case point model (every delay at its lo bound)."""
        return self._corner(0)

    def hi_model(self) -> "DelayModel":
        """The worst-case point model (every delay at its hi bound)."""
        return self._corner(1)

    def widened(self, widen: float) -> "DelayModel":
        """Every bound widened by ``widen`` on each side (lo clamped at 0)."""
        if not 0 <= widen < math.inf:
            raise TimingError(
                f"widen must be finite and non-negative, got {widen!r}"
            )
        return self._map(
            lambda entry: tuple((max(0.0, lo - widen), hi + widen) for lo, hi in entry)
        )

    # ------------------------------------------------------------------
    # edits, restriction, serialization
    # ------------------------------------------------------------------
    def with_override(self, node_name: str, delay) -> "DelayModel":
        """A copy with ``node_name``'s delay replaced (the ECO edit path)."""
        return self._build(
            self._default, {**self._overrides, node_name: normalize_delay(delay)}
        )

    def restricted_to(
        self, network: Network, outputs: Iterable[str] | None = None
    ) -> "DelayModel":
        """A copy keeping only the overrides naming nodes of ``network``
        (used when a circuit is shrunk out from under its delay model).

        ``outputs`` optionally narrows further to the transitive-fanin
        cones of those primary outputs; an unknown output name raises a
        typed :class:`~repro.errors.NetworkError` (never ``KeyError``),
        matching the CLI's unknown-output error contract.
        """
        keep = _restriction_names(network, outputs)
        return self._build(
            self._default,
            {name: e for name, e in self._overrides.items() if name in keep},
        )

    def to_spec(self) -> dict:
        """A JSON-serializable ``{default, overrides}`` description.

        A point model writes each delay as a ``[rise, fall]`` pair (the
        constructor's input order); a model with any non-point bound
        writes ``"model": "interval"`` and each delay as
        ``[[rise_lo, rise_hi], [fall_lo, fall_hi]]``.  Overrides are
        sorted, so equal models give equal specs (and cache keys).
        """
        point = self.is_point()

        def write(entry):
            fall, rise = entry
            return [rise[1], fall[1]] if point else [list(rise), list(fall)]

        spec = {} if point else {"model": "interval"}
        spec["default"] = write(self._default)
        spec["overrides"] = {
            name: write(e) for name, e in sorted(self._overrides.items())
        }
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping) -> "DelayModel":
        """Rebuild a model from :meth:`to_spec` output, in either layout.

        Hand-written specs (the CLI's ``--delay-spec``) may use any form
        the constructor accepts wherever a delay is expected.  An
        unknown ``"model"`` marker raises :class:`TimingError`.
        """
        if not isinstance(spec, Mapping):
            raise TimingError(f"a delay spec is a JSON object, got {spec!r}")
        kind = spec.get("model", "scalar")
        if kind not in ("scalar", "interval"):
            raise TimingError(
                f"unknown delay model {kind!r} (choose from ['scalar', 'interval'])"
            )
        overrides = spec.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise TimingError(f"delay overrides are a JSON object, got {overrides!r}")
        return cls(spec.get("default", 1.0), overrides)

    def validate(self, network: Network) -> None:
        """Check every override names a node of ``network`` (raises)."""
        for name in self._overrides:
            network.node(name)  # raises on unknown nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DelayModel default={self._default} "
            f"overrides={len(self._overrides)} point={self.is_point()}>"
        )


def _restriction_names(
    network: Network, outputs: Iterable[str] | None
) -> "set[str] | frozenset[str]":
    """The node names a restriction keeps: all of ``network``'s, or the
    transitive-fanin cones of ``outputs``.  Unknown output names raise a
    typed :class:`~repro.errors.NetworkError`."""
    if outputs is None:
        return set(network.nodes)
    from repro.network.transform import transitive_fanin

    names = list(outputs)
    for name in names:
        if name not in network.outputs:
            raise NetworkError(
                f"unknown output {name!r} "
                f"(outputs: {', '.join(network.outputs)})"
            )
    return transitive_fanin(network, names)


def unit_delay() -> DelayModel:
    """The paper's experimental delay model: every gate has delay 1."""
    return DelayModel(default=1.0)
