"""The exact engine's opt-in dynamic variable reordering (§6 setup).

``ExactAnalysis(..., reorder=True)`` builds the relation with automatic
sifting enabled and runs a final :func:`repro.bdd.reorder.sift` pass.
Sifting permutes levels in place, so every externally held handle must
keep denoting the same Boolean function — checked here by re-querying
the paper's golden row counts through the sifted relation."""

import itertools

import pytest

from repro.circuits import carry_skip_block, figure4
from repro.core.exact import ExactAnalysis

REQUIRED = 2.0


class TestSiftedRelation:
    @pytest.fixture(scope="class")
    def relations(self):
        plain = ExactAnalysis(carry_skip_block(), output_required=REQUIRED)
        sifted = ExactAnalysis(
            carry_skip_block(),
            output_required=REQUIRED,
            reorder=True,
        )
        return plain, plain.relation(), sifted, sifted.relation()

    def test_handles_survive_sifting(self, relations):
        """Row and minimal-row queries through the sifted relation still
        produce the golden carry-skip counts (1521 / 48)."""
        _, _, _, sifted_rel = relations
        net = carry_skip_block()
        total = minimal = 0
        for vec in itertools.product([0, 1], repeat=len(net.inputs)):
            assign = dict(zip(net.inputs, vec))
            total += len(sifted_rel.rows(assign))
            minimal += len(sifted_rel.minimal_rows(assign))
        assert total == 1521
        assert minimal == 48
        assert sifted_rel.nontrivial()

    def test_node_count_drops(self, relations):
        plain, _, sifted, _ = relations
        # sifting (plus the GC it implies) shrinks the live node table
        assert sifted.manager.num_nodes < plain.manager.num_nodes

    def test_sift_actually_ran(self, relations):
        _, _, sifted, _ = relations
        assert sifted.manager.statistics()["level_swaps"] > 0

    def test_plain_manager_untouched(self, relations):
        plain, _, _, _ = relations
        assert plain.manager.statistics()["level_swaps"] == 0


class TestCliReorder:
    @pytest.fixture
    def fig4_blif(self, tmp_path):
        from repro.network import write_blif

        path = tmp_path / "fig4.blif"
        path.write_text(write_blif(figure4()))
        return str(path)

    def test_reorder_flag_accepted_for_exact(self, fig4_blif, capsys):
        from repro.cli import main

        assert main(
            ["required", fig4_blif, "--method", "exact", "--reorder",
             "--required", "2"]
        ) == 0
        assert "non-trivial: yes" in capsys.readouterr().out

    def test_reorder_flag_rejected_for_other_methods(self, fig4_blif, capsys):
        from repro.cli import main

        assert main(
            ["required", fig4_blif, "--method", "approx2", "--reorder"]
        ) == 2
        assert "--reorder" in capsys.readouterr().err
