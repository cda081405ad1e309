"""The SAT stability oracle against both reference views of χ.

One :class:`~repro.timing.chi.ChiSat` per (output, T) answers a random
sequence of arrival maps on the same solver.  Every verdict must equal
an exhaustive evaluation of the unrolled χ network and the BDD engine's
tautology check, so learnt clauses carried from one query to the next
can never leak into another query's answer.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.timing import ChiEngine, ChiSat, build_chi_network, candidate_times
from repro.timing.delay import DelayModel
from tests.strategies import small_networks

ARRIVALS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
#: a scalar default, and (rise, fall) pairs on either side of it
DEFAULT_DELAYS = st.sampled_from([1.0, (2.0, 1.0), (1.0, 1.5)])


def arrival_maps(inputs):
    """A map giving each input a scalar or an ``(arr0, arr1)`` pair."""
    entry = st.one_of(ARRIVALS, st.tuples(ARRIVALS, ARRIVALS))
    return st.fixed_dictionaries({pi: entry for pi in inputs})


def exhaustively_stable(net, out, t, delays, arrivals) -> bool:
    chi_net, root = build_chi_network(net, out, t, delays, arrivals)
    return all(
        chi_net.output_values(dict(zip(net.inputs, bits)))[root]
        for bits in itertools.product((0, 1), repeat=len(net.inputs))
    )


@given(net=small_networks(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_reused_oracle_matches_network_and_bdd_views(net, data):
    out = net.outputs[0]
    delays = DelayModel(default=data.draw(DEFAULT_DELAYS, label="delays"))
    t = data.draw(
        st.sampled_from(candidate_times(net, delays)[out]), label="T"
    )
    oracle = ChiSat(net, out, t, delays)
    maps = data.draw(
        st.lists(arrival_maps(net.inputs), min_size=1, max_size=6), label="maps"
    )
    for arrivals in maps:
        verdict = oracle.stable_by(arrivals)
        assert verdict == exhaustively_stable(net, out, t, delays, arrivals)
        assert verdict == ChiEngine(net, delays, arrivals).is_stable_by(out, t)
