"""One reused :class:`~repro.timing.functional.FunctionalTiming` per engine
against fresh engines and the ternary oracle.

Approx-2, ``true_slack`` and the fuzzer keep one stability engine and pass
each check its own arrival map: the SAT side reuses one solver per
(output, t), and the BDD side drops only the memoized χ in the transitive
fanout of the inputs whose arrival changed.  Along a random sequence of
single-input bumps and multi-input jumps, with scalar and ``(arr0, arr1)``
entries, every verdict of the reused engine must equal that of a fresh
``FunctionalTiming(net, arrivals=map)`` and of
:func:`~repro.timing.ternary.oracle_stable_by`, which shares no χ, BDD or
CNF with either engine.
"""

from hypothesis import given, settings, strategies as st

from repro.timing import FunctionalTiming, oracle_stable_by
from repro.timing.delay import DelayModel
from tests.strategies import multi_output_networks

ARRIVALS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
ENTRY = st.one_of(ARRIVALS, st.tuples(ARRIVALS, ARRIVALS))
DEFAULT_DELAYS = st.sampled_from([1.0, (2.0, 1.0), (1.0, 1.5)])
TIMES = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


def arrival_steps(inputs):
    """Bumps of one input and jumps of several, applied in order."""
    bump = st.builds(lambda pi, entry: {pi: entry}, st.sampled_from(inputs), ENTRY)
    jump = st.dictionaries(st.sampled_from(inputs), ENTRY, min_size=2)
    return st.lists(st.one_of(bump, jump), min_size=1, max_size=8)


@given(net=multi_output_networks(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_reused_engine_matches_fresh_engines_and_oracle(net, data):
    delays = DelayModel(default=data.draw(DEFAULT_DELAYS, label="delays"))
    times = data.draw(st.lists(TIMES, min_size=1, max_size=3, unique=True), label="t")
    steps = data.draw(arrival_steps(net.inputs), label="steps")
    reused = {eng: FunctionalTiming(net, delays, engine=eng) for eng in ("bdd", "sat")}
    arrivals: dict[str, object] = {}
    for step in steps:
        arrivals = {**arrivals, **step}
        for t in times:
            expected = {
                out: oracle_stable_by(net, out, t, delays, arrivals)
                for out in net.outputs
            }
            for eng, ft in reused.items():
                fresh = FunctionalTiming(net, delays, arrivals=arrivals, engine=eng)
                for out in net.outputs:
                    verdict = ft.output_stable_by(out, t, arrivals)
                    assert verdict == expected[out], (eng, out, t, arrivals)
                    assert fresh.output_stable_by(out, t) == verdict
                assert ft.all_stable_by(t, arrivals) == all(expected.values())
