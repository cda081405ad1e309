"""Unit tests for the exact Boolean-relation algorithm (Section 4.1).

The Figure 4 worked example is checked bit-for-bit against the paper's
tables (adjusting for leaf-variable column order).
"""

import itertools

import pytest

from repro.circuits import figure4, parity_tree
from repro.core.exact import ExactAnalysis
from repro.errors import ResourceLimitError


@pytest.fixture(scope="module")
def fig4_relation():
    return ExactAnalysis(figure4(), output_required=2.0).relation()


def translate(rel, paper_row: str) -> str:
    """Translate a row from the paper's column order to ours.

    Paper order: χ⁰_{x1,1} χ⁰_{x2,1} χ¹_{x2,1} χ⁰_{x1,0} χ⁰_{x2,0} χ¹_{x2,0}.
    """
    paper_cols = [
        ("x1", 1, 0.0),
        ("x2", 1, 0.0),
        ("x2", 1, 1.0),
        ("x1", 0, 0.0),
        ("x2", 0, 0.0),
        ("x2", 0, 1.0),
    ]
    bit_of = dict(zip(paper_cols, paper_row))
    return "".join(bit_of[(lv.input, lv.value, lv.time)] for lv in rel.leaf_vars)


class TestPaperTables:
    def test_full_relation_rows(self, fig4_relation):
        rel = fig4_relation
        paper = {
            (0, 0): ["000100", "000101", "000001", "000011", "000111"],
            (0, 1): ["000100", "001100", "011100"],
            (1, 0): ["000001", "000011", "100001", "100011"],
            (1, 1): ["111000"],
        }
        for (v1, v2), rows in paper.items():
            expected = {translate(rel, r) for r in rows}
            got = rel.rows({"x1": v1, "x2": v2})
            assert got == expected, f"minterm {(v1, v2)}"

    def test_minimal_subset_relation(self, fig4_relation):
        rel = fig4_relation
        paper_minimal = {
            (0, 0): ["000100", "000001"],
            (0, 1): ["000100"],
            (1, 0): ["000001"],
            (1, 1): ["111000"],
        }
        for (v1, v2), rows in paper_minimal.items():
            expected = {translate(rel, r) for r in rows}
            got = rel.minimal_rows({"x1": v1, "x2": v2})
            assert got == expected, f"minterm {(v1, v2)}"

    def test_required_time_tuples(self, fig4_relation):
        rel = fig4_relation
        INF = float("inf")
        paper_tuples = {
            (0, 0): {(0.0, INF), (INF, 1.0)},
            (0, 1): {(0.0, INF)},
            (1, 0): {(INF, 1.0)},
            (1, 1): {(0.0, 0.0)},
        }
        for (v1, v2), expected in paper_tuples.items():
            profiles = rel.required_tuples({"x1": v1, "x2": v2})
            got = {
                (p.value_independent()["x1"], p.value_independent()["x2"])
                for p in profiles
            }
            assert got == expected, f"minterm {(v1, v2)}"


class TestInvariants:
    def test_contains_topological(self, fig4_relation):
        # the paper's footnote 4: the topological assignment is always a
        # compatible choice
        assert fig4_relation.contains_topological()

    def test_nontrivial_on_fig4(self, fig4_relation):
        assert fig4_relation.nontrivial()

    def test_and_gate_nontrivial_through_controlling_values(self):
        # Even a bare AND gate has exact-level flexibility: when one input
        # is the controlling 0, the other input's stability is irrelevant.
        # This vector-dependent looseness is exactly what the exact method
        # captures and the approximations cannot.
        from repro.network import Network

        net = Network("and2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", "AND", ["a", "b"])
        net.set_outputs(["z"])
        rel = ExactAnalysis(net, output_required=1.0).relation()
        assert rel.contains_topological()
        assert rel.nontrivial()
        # at minterm (1, 0): b = 0 controls, so a's stability is free
        profiles = rel.required_tuples({"a": 1, "b": 0})
        loosest = {p.value_independent()["a"] for p in profiles}
        assert float("inf") in loosest

    def test_trivial_on_single_xor(self):
        # XOR has no controlling value: every input always matters, the
        # relation collapses to the topological requirement (the paper's
        # C499/C1355 behaviour in miniature)
        from repro.network import Network

        net = Network("xor2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", "XOR", ["a", "b"])
        net.set_outputs(["z"])
        rel = ExactAnalysis(net, output_required=1.0).relation()
        assert rel.contains_topological()
        assert not rel.nontrivial()

    def test_minimal_rows_subset_of_rows(self, fig4_relation):
        for bits in itertools.product((0, 1), repeat=2):
            mt = {"x1": bits[0], "x2": bits[1]}
            assert fig4_relation.minimal_rows(mt) <= fig4_relation.rows(mt)

    def test_missing_minterm_input_rejected(self, fig4_relation):
        from repro.errors import TimingError

        with pytest.raises(TimingError):
            fig4_relation.rows({"x1": 0})


class TestCompatibleExtraction:
    def test_choice_satisfies_relation(self, fig4_relation):
        chosen = fig4_relation.choose_compatible()
        assert fig4_relation.verify_assignment(chosen)

    def test_chosen_functions_respect_bounds(self, fig4_relation):
        rel = fig4_relation
        m = rel.manager
        chosen = rel.choose_compatible()
        for lv in rel.leaf_vars:
            bound = m.var(lv.input) if lv.value else m.nvar(lv.input)
            assert chosen[lv.var_name].implies(bound).is_true

    def test_input_budget_enforced(self):
        net = parity_tree(16)
        analysis = ExactAnalysis(net, output_required=4.0)
        rel = analysis.relation()
        with pytest.raises(ResourceLimitError):
            rel.choose_compatible(max_inputs=4)


class TestResourceLimits:
    def test_node_budget_aborts(self):
        from repro.circuits import carry_skip_adder

        net = carry_skip_adder(2, 3)
        with pytest.raises(ResourceLimitError):
            ExactAnalysis(net, output_required=0.0, max_nodes=200).relation()

    def test_reorder_option_runs(self):
        rel = ExactAnalysis(figure4(), output_required=2.0, reorder=True).relation()
        assert rel.nontrivial()


class TestKnownArrivals:
    INF = float("inf")

    def x1_requirements(self, x2_arrival):
        rel = ExactAnalysis(
            figure4(), output_required=2.0, known_arrivals={"x2": x2_arrival}
        ).relation()
        assert {lv.input for lv in rel.leaf_vars} == {"x1"}
        table = {}
        for bits in itertools.product((0, 1), repeat=2):
            profiles = rel.required_tuples(dict(zip(("x1", "x2"), bits)))
            # x2 has no leaf variable: the relation asks nothing more of it
            assert all(p.of("x2") == (self.INF, self.INF) for p in profiles)
            table[bits] = {p.value_independent()["x1"] for p in profiles}
        return table

    def test_known_input_keeps_its_arrival(self):
        # x2 at 0 meets the paper's (INF, 1) alternative at minterm 00
        assert self.x1_requirements(0.0) == {
            (0, 0): {self.INF},
            (0, 1): {0.0},
            (1, 0): {self.INF},
            (1, 1): {0.0},
        }
        # x2 at 1 is too late for w at minterm 11: no profile is safe there
        assert self.x1_requirements(1.0)[(1, 1)] == set()

    def test_non_input_rejected(self):
        from repro.errors import TimingError

        with pytest.raises(TimingError, match="'w'"):
            ExactAnalysis(figure4(), known_arrivals={"w": 0.0})
