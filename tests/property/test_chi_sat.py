"""The SAT stability oracle against the network view and the BDD view.

One :class:`~repro.timing.chi.ChiSat` per (output, T) answers a random
sequence of arrival maps on the same solver.  Every verdict must equal
the ternary simulation of the network itself
(:func:`~repro.timing.ternary.oracle_stable_by`, which uses no primes and
no χ) and the BDD engine's tautology check, so learnt clauses carried
from one query to the next can never leak into another query's answer.
"""

from hypothesis import given, settings, strategies as st

from repro.timing import (
    ChiEngine,
    ChiSat,
    ChiUnrolling,
    candidate_times,
    oracle_stable_by,
)
from repro.timing.delay import DelayModel
from tests.strategies import small_networks

ARRIVALS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
#: a scalar default, and (rise, fall) pairs on either side of it
DEFAULT_DELAYS = st.sampled_from([1.0, (2.0, 1.0), (1.0, 1.5)])


def arrival_maps(inputs):
    """A map giving each input a scalar or an ``(arr0, arr1)`` pair."""
    entry = st.one_of(ARRIVALS, st.tuples(ARRIVALS, ARRIVALS))
    return st.fixed_dictionaries({pi: entry for pi in inputs})


@given(net=small_networks(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_reused_oracle_matches_network_and_bdd_views(net, data):
    out = net.outputs[0]
    delays = DelayModel(default=data.draw(DEFAULT_DELAYS, label="delays"))
    t = data.draw(
        st.sampled_from(candidate_times(net, delays)[out]), label="T"
    )
    oracle = ChiSat(ChiUnrolling(net, delays), out, t)
    maps = data.draw(
        st.lists(arrival_maps(net.inputs), min_size=1, max_size=6), label="maps"
    )
    for arrivals in maps:
        verdict = oracle.stable_by(arrivals)
        assert verdict == oracle_stable_by(net, out, t, delays, arrivals)
        assert verdict == ChiEngine(ChiUnrolling(net, delays), arrivals).is_stable_by(out, t)
