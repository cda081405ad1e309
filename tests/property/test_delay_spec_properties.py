"""Property tests: a delay model survives its JSON spec in both layouts.

The models are the fuzz generator's kinds (unit delays, integer
overrides, ``(rise, fall)`` pairs; ``repro.fuzz.gen``) and their
widenings.  A point model reads back from the scalar layout and from
the interval layout with ``lo == hi``; a widened one from the interval
layout.  Either way rise stays rise, fall stays fall, and the cache key
does not move.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import required_key
from repro.fuzz.interval import interval_layout
from repro.timing import DelayModel, required_time_bounds, required_times

from tests.strategies import multi_output_networks


@st.composite
def fuzz_delays(draw, net):
    """A generator-shaped model on ``net`` and its ``{gate: (rise, fall)}``."""
    gates = sorted(n for n, node in net.nodes.items() if not node.is_input)
    kind = draw(st.sampled_from(["unit", "integer", "risefall"]))
    pairs = {g: (1.0, 1.0) for g in gates}
    if kind != "unit":
        victims = draw(
            st.lists(st.sampled_from(gates), min_size=1, max_size=4, unique=True)
        )
        for g in victims:
            if kind == "integer":
                d = float(draw(st.integers(2, 3)))
                pairs[g] = (d, d)
            else:
                pairs[g] = (
                    float(draw(st.integers(1, 2))),
                    float(draw(st.integers(1, 2))),
                )
    overrides = {g: pair for g, pair in pairs.items() if pair != (1.0, 1.0)}
    return DelayModel(default=1.0, overrides=overrides), pairs


def layouts(model: DelayModel) -> list[dict]:
    """Every spec layout ``model`` can be written in."""
    spec = model.to_spec()
    return [spec, interval_layout(spec)] if model.is_point() else [spec]


@st.composite
def cases(draw):
    net = draw(multi_output_networks())
    model, pairs = draw(fuzz_delays(net))
    widen = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
    required = float(draw(st.integers(-2, 4)))
    return net, model, pairs, widen, required


def key(net, model, required):
    return required_key(net, "exact", model, required, {"backend": "object"})


@settings(max_examples=60, deadline=None)
@given(cases())
def test_spec_round_trip_keeps_rise_fall_bounds_and_key(case):
    net, model, pairs, widen, required = case
    widened = model.widened(widen)
    for m, shift in ((model, 0.0), (widened, widen)):
        for spec in layouts(m):
            back = DelayModel.from_spec(spec)
            for gate, (rise, fall) in pairs.items():
                assert back.of_value(gate, 1) == rise + shift
                assert back.of_value(gate, 0) == fall + shift
                assert back.lo_model().of_value(gate, 1) == max(0.0, rise - shift)
                assert back.lo_model().of_value(gate, 0) == max(0.0, fall - shift)
                assert back.of_bounds(gate) == m.of_bounds(gate)
            assert back.is_point() == m.is_point()
            assert back.to_spec() == m.to_spec()
            assert key(net, back, required) == key(net, m, required)
    assert model.widened(0).to_spec() == model.to_spec()
    assert key(net, model.widened(0), required) == key(net, model, required)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_point_bounds_are_the_scalar_requirement(case):
    net, model, _pairs, _widen, required = case
    for spec in layouts(model):
        point = DelayModel.from_spec(spec)
        req = required_times(net, point, required)
        assert required_time_bounds(net, point, required) == {
            name: (t, t) for name, t in req.items()
        }
