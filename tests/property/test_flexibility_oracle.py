"""Section 5.2 required flexibility against the ternary oracle.

For every boundary vector, every profile that
:func:`~repro.core.flexibility.required_flexibility` returns must be
safe: simulate N_FO with each boundary signal arriving at its profile
time for its value (``INF`` means never) and every other input at its
known arrival time, and every output meets its required time, for every
assignment of those other inputs.  The oracle
(:func:`~repro.timing.ternary.stabilization_times`) uses no primes and
no χ.  Cuts of one to three internal nodes include chained cuts, where
one cut signal feeds another.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.circuits import c17, figure4
from repro.core.flexibility import coupled_flexibility, required_flexibility
from repro.core.required_time import INF
from repro.network.transform import fanout_network
from repro.timing.ternary import stabilization_times
from repro.timing.topological import arrival_times
from tests.strategies import small_networks

ARRIVALS = st.sampled_from([0.0, 1.0, 2.0])


def assert_profiles_safe(net, cut, required, input_arrivals=None):
    """Check every returned profile with the oracle; return the result."""
    flex = required_flexibility(
        net, cut, output_required=required, input_arrivals=input_arrivals
    )
    nfo = fanout_network(net, cut)
    boundary = [v for v in cut if v in nfo.inputs]
    known = [pi for pi in nfo.inputs if pi not in cut]
    given_arrivals = {pi: (input_arrivals or {}).get(pi, 0.0) for pi in known}
    for bits, profiles in flex.per_vector.items():
        values = dict(zip(cut, bits))
        for profile in profiles:
            arrivals = dict(given_arrivals)
            arrivals.update({v: profile.of(v) for v in boundary})
            for xs in itertools.product((0, 1), repeat=len(known)):
                vector = dict(zip(known, xs))
                vector.update({v: values[v] for v in boundary})
                stab = stabilization_times(nfo, vector, arrivals=arrivals)
                late = {o: stab[o] for o in nfo.outputs if stab[o] > required}
                assert not late, (cut, bits, profile, vector, late)
    return flex


@st.composite
def cut_networks(draw):
    """A small network, a cut of 1-3 of its gates, and its input arrivals."""
    net = draw(small_networks())
    gates = [n for n in net.topological_order() if not net.nodes[n].is_input]
    cut = draw(st.lists(st.sampled_from(gates), min_size=1, max_size=3, unique=True))
    fed = [g for g in gates if any(f in gates for f in net.nodes[g].fanins)]
    if fed and draw(st.booleans(), label="chained"):
        # put a gate and one of its gate fanins on the cut
        g = draw(st.sampled_from(fed))
        f = draw(st.sampled_from([f for f in net.nodes[g].fanins if f in gates]))
        cut = list(dict.fromkeys([f, g] + cut))[:3]
    entry = st.one_of(ARRIVALS, st.tuples(ARRIVALS, ARRIVALS))
    input_arrivals = draw(st.fixed_dictionaries({pi: entry for pi in net.inputs}))
    return net, cut, input_arrivals


@given(case=cut_networks(), offset=st.sampled_from([-1.0, 0.0, 1.0]))
@settings(max_examples=40, deadline=None)
def test_required_profiles_hold_under_the_oracle(case, offset):
    net, cut, input_arrivals = case
    # longest-path arrivals take the later entry of each arrival pair
    topo = max(arrival_times(net, None, input_arrivals)[o] for o in net.outputs)
    flex = assert_profiles_safe(net, cut, topo + offset, input_arrivals)
    if offset >= 0:
        # the topological requirement is always met, so no vector is empty
        assert all(flex.per_vector.values()), flex.per_vector


def test_signal_feeding_only_the_cut_reads_inf():
    # w feeds only z, so N_FO has no w; nothing outside observes it
    flex = assert_profiles_safe(figure4(), ["w", "z"], 3.0)
    for profiles in flex.per_vector.values():
        assert profiles
        assert all(p.of("w") == (INF, INF) for p in profiles)
    flex = assert_profiles_safe(c17(), ["G10", "G22"], 3.0)
    assert all(
        p.of("G10") == (INF, INF)
        for profiles in flex.per_vector.values()
        for p in profiles
    )


def test_coupled_cut_with_dropped_signal_answers():
    flex = coupled_flexibility(figure4(), ["w"], ["w", "z"])
    assert len(flex.rows) == 4
    for row in flex.rows:
        assert row.required
        assert all(p.of("w") == (INF, INF) for p in row.required)
