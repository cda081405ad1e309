"""Approx-1's canonical row against a direct transcription of its rules.

The row builder reads each prime in time linear in the prime and writes
the digest straight into the JSON value model.  The oracle here keeps
the plain construction instead: the quadratic prefix test over every
chain, profiles rendered as ``sorted(profile.as_dict().items())``, the
loosest profile chosen over that rendering, and one ``jsonify`` over the
whole row.  Both must serialize to the same bytes on every fuzz case.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.results import CachedRequiredResult, jsonify
from repro.circuits import mcnc_suite
from repro.core.approx1 import Approx1Analysis
from repro.core.required_time import (
    INF,
    RequiredTimeProfile,
    RequiredTimeReport,
    topological_input_required_times,
)
from repro.errors import ResourceLimitError, TimingError
from repro.fuzz.gen import generate_case


def oracle_profile(analysis, prime, chains) -> RequiredTimeProfile:
    times = {}
    for pi in analysis.network.inputs:
        per_value = {}
        for value, table in (
            (1, analysis.leaves.for_one),
            (0, analysis.leaves.for_zero),
        ):
            chain = chains.get((pi, value), [])
            ts = table.get(pi, ())
            present = [name in prime for name in chain]
            if any(present[j] and not all(present[:j]) for j in range(len(chain))):
                raise TimingError(f"non-prefix prime on chain {chain}")
            k = sum(present)
            per_value[value] = INF if k == 0 or not ts else ts[len(ts) - k]
        times[pi] = (per_value[0], per_value[1])
    return RequiredTimeProfile.from_dict(times)


def oracle_input_times(profiles, baseline) -> dict:
    best, best_gain = dict(baseline), 0.0
    for profile in sorted(profiles, key=lambda p: sorted(p.as_dict().items())):
        times = profile.value_independent()
        gain = sum(
            (t - baseline[x]) if t != INF else 1.0
            for x, t in times.items()
            if x in baseline and t > baseline[x]
        )
        if gain > best_gain:
            best_gain = gain
            best = {x: times.get(x, baseline[x]) for x in baseline}
    return best


def oracle_row(analysis, result, baseline) -> dict:
    profiles = [oracle_profile(analysis, p, result.chains) for p in result.primes]
    return jsonify(
        {
            "circuit": result.circuit,
            "method": "approx1",
            "outputs": None,
            "nontrivial": result.nontrivial,
            "status": "ok",
            "digest": {
                "num_parameters": result.num_parameters,
                "primes": [sorted(p) for p in result.primes],
                "profiles": [sorted(pr.as_dict().items()) for pr in profiles],
            },
            "input_times": oracle_input_times(profiles, baseline),
            "baseline": baseline,
        }
    )


def canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def check_against_oracle(analysis):
    """Compare one analysis's row with the oracle's; return its result."""
    net = analysis.network
    result = analysis.run()
    baseline = topological_input_required_times(
        net, analysis.delays, analysis.output_required
    )
    report = RequiredTimeReport(
        method="approx1",
        circuit=net.name,
        nontrivial=result.nontrivial,
        elapsed=0.0,
        detail=result,
    )
    cached = CachedRequiredResult.from_report(report, baseline)
    want = oracle_row(analysis, result, baseline)
    assert canon(cached.row()) == canon(want)
    assert canon(cached.input_times) == canon(want["input_times"])
    return result


@given(st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_row_and_input_times_match_the_oracle(seed):
    case = generate_case(seed, "default")
    analysis = Approx1Analysis(
        case.network, case.delays, case.output_required, max_nodes=50_000
    )
    try:
        check_against_oracle(analysis)
    except ResourceLimitError:
        pass


def test_m3_with_several_profiles_matches_the_oracle():
    net = {spec.name: spec for spec in mcnc_suite()}["m3"].network
    result = check_against_oracle(Approx1Analysis(net))
    assert len(result.profiles) > 1
