"""Unit tests for leaf χ variable enumeration."""

import pytest

from repro.circuits import figure4, carry_skip_block
from repro.core.leaves import enumerate_leaf_times
from repro.errors import ResourceLimitError, TimingError
from repro.network import Network
from repro.sop import Cover
from repro.timing import ChiEngine, ChiSat, ChiUnrolling, oracle_stable_by


class TestFigure4:
    def test_leaf_inventory_matches_paper(self):
        # Section 4: x1 is needed at time 0 for both values; x2 at times 0
        # and 1 for both values.
        leaves = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=2.0)
        assert leaves.for_one == {"x1": [0.0], "x2": [0.0, 1.0]}
        assert leaves.for_zero == {"x1": [0.0], "x2": [0.0, 1.0]}

    def test_leaf_variable_count(self):
        leaves = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=2.0)
        assert leaves.num_leaf_variables() == 6  # the paper's six columns

    def test_merged_axis(self):
        leaves = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=2.0)
        assert leaves.merged("x1") == [0.0]
        assert leaves.merged("x2") == [0.0, 1.0]

    def test_lattice_size(self):
        leaves = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=2.0)
        assert leaves.lattice_size() == 2  # 1 * 2


class TestGeneral:
    def test_required_time_shift(self):
        # shifting the output requirement shifts every leaf time
        l0 = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=2.0)
        l5 = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=7.0)
        assert l5.for_one["x2"] == [t + 5.0 for t in l0.for_one["x2"]]

    def test_per_output_required(self):
        net = figure4()
        leaves = enumerate_leaf_times(ChiUnrolling(net), output_required={"z": 0.0})
        assert leaves.for_one["x1"] == [-2.0]

    def test_missing_output_rejected(self):
        with pytest.raises(TimingError):
            enumerate_leaf_times(ChiUnrolling(figure4()), output_required={})

    def test_budget_enforced(self):
        net = carry_skip_block()
        with pytest.raises(ResourceLimitError):
            enumerate_leaf_times(ChiUnrolling(net), output_required=0.0, max_leaves=3)

    def test_carry_skip_multiplicity(self):
        # reconvergence gives cin several distinct leaf times
        leaves = enumerate_leaf_times(ChiUnrolling(carry_skip_block()), output_required=0.0)
        assert len(leaves.merged("cin")) >= 2

    def test_visited_includes_internal_nodes(self):
        leaves = enumerate_leaf_times(ChiUnrolling(figure4()), output_required=2.0)
        visited_names = {name for name, _, _ in leaves.visited}
        assert "w" in visited_names
        assert "z" in visited_names


class TestConstantNode:
    """A structurally constant node: the folded readers (BDD builder, CNF
    emitter) stop a product at its constant-0 child and the sum at its
    constant-1 product, while the inventory still visits every child."""

    @staticmethod
    def network() -> Network:
        net = Network("const")
        net.add_input("x0")
        net.add_input("x1")
        net.add_node("k", ["x0"], Cover.zero(1))
        net.add_gate("z", "AND", ["k", "x1"])
        net.set_outputs(["z"])
        return net

    def test_inventory_keeps_leaves_behind_a_constant(self):
        leaves = enumerate_leaf_times(ChiUnrolling(self.network()), 2.0)
        assert leaves.for_one == {"x1": [1.0]}
        assert leaves.for_zero == {"x1": [1.0]}

    def test_sat_oracle_folds_to_stable_without_leaves(self):
        oracle = ChiSat(ChiUnrolling(self.network()), "z", 2.0)
        assert oracle._leaves == {}
        assert oracle.stable_by({}) is True

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_bdd_engine_agrees_with_oracle(self, t):
        net = self.network()
        assert ChiEngine(ChiUnrolling(net)).is_stable_by("z", t) == oracle_stable_by(net, "z", t)

