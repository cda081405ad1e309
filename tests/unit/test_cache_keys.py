"""Key canonicalization: what must change the digest and what must not.

Every test here is one clause of the invalidation contract in
docs/CACHING.md — a wrong answer in either direction is a cache bug
(stale hits or pointless misses).
"""

import pytest

from repro.cache import (
    SCHEMA_VERSION,
    SEMANTIC_OPTIONS,
    canonical_network,
    network_digest,
    required_key,
)
from repro.circuits import c17, figure4
from repro.errors import TimingError
from repro.network import Network
from repro.timing import DelayModel

#: ``required_key(c17(), "exact", ...)`` digests under each kernel,
#: recorded when a separate Python kernel still answered to ``array``
C17_NATIVE_DIGEST = "4ff45028f3cb58d0247ab8e0cc564844f017a499d23c74cddcc243cad9c37051"
C17_OBJECT_DIGEST = "94d7a23d22c5b7d3d9461a393645fe282c61467b01b82da8cf35494538e23a75"


def build_figure4(name="figure4"):
    """Figure 4 with a controllable display name."""
    net = Network(name)
    net.add_input("x1")
    net.add_input("x2")
    net.add_gate("w", "AND", ["x1", "x2"])
    net.add_gate("z", "AND", ["w", "x2"])
    net.set_outputs(["z"])
    return net


class TestStability:
    def test_same_build_same_key(self):
        a = required_key(build_figure4(), "exact", output_required=2.0)
        b = required_key(build_figure4(), "exact", output_required=2.0)
        assert a.digest == b.digest

    def test_name_is_excluded(self):
        a = required_key(build_figure4("alpha"), "exact", output_required=2.0)
        b = required_key(build_figure4("beta"), "exact", output_required=2.0)
        assert a.digest == b.digest

    def test_copy_keys_identically(self):
        net = c17()
        assert (
            required_key(net, "approx1").digest
            == required_key(net.copy(name="other"), "approx1").digest
        )

    def test_scalar_and_map_required_agree(self):
        net = build_figure4()
        a = required_key(net, "exact", output_required=2.0)
        b = required_key(net, "exact", output_required={"z": 2.0})
        assert a.digest == b.digest


class TestBoundaryCondition:
    def test_missing_output_is_a_timing_error(self):
        missing = r"missing required times for outputs \['G23'\]"
        with pytest.raises(TimingError, match=missing):
            required_key(c17(), "approx2", output_required={"G22": 1.0})

    def test_non_output_name_is_a_timing_error(self):
        with pytest.raises(TimingError, match=r"non-outputs \['G10', 'bogus'\]"):
            required_key(
                c17(), "approx2",
                output_required={"G22": 1.0, "G23": 1.0, "G10": 0.0, "bogus": 3.0},
            )


class TestSensitivity:
    def test_method_changes_key(self):
        net = build_figure4()
        digests = {
            required_key(net, m, output_required=2.0).digest
            for m in ("topological", "exact", "approx1", "approx2")
        }
        assert len(digests) == 4

    def test_structure_changes_key(self):
        a = required_key(figure4(), "exact", output_required=2.0)
        mutated = Network("figure4")
        mutated.add_input("x1")
        mutated.add_input("x2")
        mutated.add_gate("w", "OR", ["x1", "x2"])  # AND -> OR
        mutated.add_gate("z", "AND", ["w", "x2"])
        mutated.set_outputs(["z"])
        b = required_key(mutated, "exact", output_required=2.0)
        assert a.digest != b.digest

    def test_required_time_changes_key(self):
        net = build_figure4()
        a = required_key(net, "exact", output_required=2.0)
        b = required_key(net, "exact", output_required=3.0)
        assert a.digest != b.digest

    def test_delays_change_key(self):
        net = build_figure4()
        a = required_key(net, "exact", output_required=2.0)
        b = required_key(
            net, "exact", DelayModel(1.0, {"w": 2.0}), output_required=2.0
        )
        assert a.digest != b.digest

    def test_irrelevant_delay_override_keys_identically(self):
        # an override for a node outside the network must not fragment
        # the key space (delays are restricted to the network first)
        net = build_figure4()
        a = required_key(net, "exact", DelayModel(1.0), output_required=2.0)
        b = required_key(
            net,
            "exact",
            DelayModel(1.0, {"not_in_this_network": 7.0}),
            output_required=2.0,
        )
        assert a.digest == b.digest


class TestOptions:
    def test_semantic_option_changes_key(self):
        net = c17()
        base = required_key(net, "approx2", options={"engine": "sat"})
        other = required_key(net, "approx2", options={"engine": "bdd"})
        assert base.digest != other.digest

    def test_unset_defaults_key_like_absent(self):
        net = c17()
        a = required_key(net, "exact", options=None)
        b = required_key(
            net, "exact", options={"max_nodes": None, "reorder": False}
        )
        assert a.digest == b.digest

    def test_transport_options_are_ignored(self):
        net = c17()
        a = required_key(net, "exact", options={})
        b = required_key(net, "exact", options={"cache_dir": "/tmp/x"})
        assert a.digest == b.digest

    def test_backend_is_semantic(self, monkeypatch):
        # the kernels produce bit-identical rows, but the backend still
        # keys the entry: cached stats/wall differ and a divergence bug
        # in one kernel must never serve results under the other's key
        assert "backend" in SEMANTIC_OPTIONS
        net = c17()
        a = required_key(net, "exact", options={"backend": "object"})
        b = required_key(net, "exact", options={"backend": "native"})
        assert a.digest != b.digest

    def test_default_backend_keys_like_array(self, monkeypatch):
        # the default kernel is native, which keys under the frozen
        # "array" literal (the name of a since-removed kernel that was
        # bit-identical to native); explicit "object" keys as the dropped
        # historical baseline.  Both digests are pinned, so existing
        # cache entries stay reachable.
        monkeypatch.delenv("REPRO_BDD_BACKEND", raising=False)
        net = c17()
        for options in ({}, {"backend": "native"}, {"backend": None}):
            assert required_key(net, "exact", options=options).digest == (
                C17_NATIVE_DIGEST
            )
        obj = required_key(net, "exact", options={"backend": "object"})
        assert obj.digest == C17_OBJECT_DIGEST

    def test_env_selected_backend_keys_like_explicit(self, monkeypatch):
        # a run under REPRO_BDD_BACKEND=object must never alias entries
        # computed under the default (native) kernel
        net = c17()
        monkeypatch.setenv("REPRO_BDD_BACKEND", "object")
        via_env = required_key(net, "exact", options={})
        monkeypatch.delenv("REPRO_BDD_BACKEND", raising=False)
        explicit = required_key(net, "exact", options={"backend": "object"})
        default = required_key(net, "exact", options={})
        assert via_env.digest == explicit.digest
        assert via_env.digest != default.digest

    def test_exact_row_counts_is_semantic(self):
        # it widens the exact digest payload, so it must key the entry
        assert "exact_row_counts" in SEMANTIC_OPTIONS
        net = figure4()
        a = required_key(net, "exact", options={})
        b = required_key(net, "exact", options={"exact_row_counts": True})
        assert a.digest != b.digest


class TestCanonicalForm:
    def test_canonical_network_is_name_free(self):
        doc = canonical_network(build_figure4("whatever"))
        assert "whatever" not in repr(doc)
        assert set(doc) == {"inputs", "outputs", "nodes"}

    def test_network_digest_differs_from_required_key(self):
        net = figure4()
        assert network_digest(net) != required_key(net, "exact").digest

    def test_schema_version_is_pinned(self):
        # bumping SCHEMA_VERSION intentionally orphans old entries; this
        # test makes that bump a conscious, reviewed act
        assert SCHEMA_VERSION == 1
