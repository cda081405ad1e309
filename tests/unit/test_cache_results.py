"""Approx-1's digest: built once, with equal profile entries shared.

The pool returns results pickled and the cache stores them as JSON;
both must give back the row the shared digest renders.
"""

import json
import pickle

import pytest

from repro.cache.results import CachedRequiredResult, jsonify
from repro.circuits import mcnc_suite
from repro.core.required_time import (
    analyze_required_times,
    topological_input_required_times,
)


@pytest.fixture(scope="module")
def m3_approx1():
    net = {spec.name: spec for spec in mcnc_suite()}["m3"].network
    baseline = topological_input_required_times(net)
    report = analyze_required_times(net, "approx1")
    return CachedRequiredResult.from_report(report, baseline)


def canon(result) -> str:
    return json.dumps(result.row(), sort_keys=True)


class TestSharedProfileEntries:
    def test_equal_entries_are_one_object(self, m3_approx1):
        profiles = m3_approx1.digest["profiles"]
        assert len(profiles) >= 2
        first, second = profiles[0], profiles[1]
        assert len(first) == len(second)
        shared = [a is b for a, b in zip(first, second)]
        assert any(shared) and not all(shared)
        for a, b in zip(first, second):
            assert (a is b) == (a == b)

    def test_digest_is_in_the_json_value_model(self, m3_approx1):
        assert m3_approx1.digest == jsonify(m3_approx1.digest)

    def test_row_embeds_the_digest_without_copying(self, m3_approx1):
        assert m3_approx1.row()["digest"] is m3_approx1.digest

    def test_pickle_round_trip_keeps_the_row(self, m3_approx1):
        back = pickle.loads(pickle.dumps(m3_approx1))
        assert canon(back) == canon(m3_approx1)

    def test_payload_round_trip_keeps_the_row(self, m3_approx1):
        payload = json.loads(json.dumps(m3_approx1.to_payload()))
        back = CachedRequiredResult.from_payload(payload)
        assert canon(back) == canon(m3_approx1)
