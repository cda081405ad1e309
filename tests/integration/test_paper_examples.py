"""Integration tests: the paper's worked examples reproduced end to end.

Every number in these tests comes from the paper text (Sections 4.1, 4.2,
5.1); they are the ground-truth anchors of the reproduction.
"""

import pytest

from repro import (
    Network,
    analyze_required_times,
    arrival_flexibility,
    topological_input_required_times,
)
from repro.circuits import figure4, figure6
from repro.core.approx1 import Approx1Analysis
from repro.core.exact import ExactAnalysis


class TestSection41ExactExample:
    """The Figure 4 circuit under the exact algorithm."""

    @pytest.fixture(scope="class")
    def relation(self):
        return ExactAnalysis(figure4(), output_required=2.0).relation()

    def test_topological_baseline_is_zero(self):
        # "The required time computed by topological delay analysis is
        # time 0 for both inputs."
        base = topological_input_required_times(figure4(), output_required=2.0)
        assert base == {"x1": 0.0, "x2": 0.0}

    def test_six_leaf_variables(self, relation):
        assert relation.num_leaf_variables == 6

    def test_relation_row_counts(self, relation):
        # the paper's table: 5, 3, 4, 1 rows for minterms 00, 01, 10, 11
        counts = {
            (0, 0): 5,
            (0, 1): 3,
            (1, 0): 4,
            (1, 1): 1,
        }
        for (v1, v2), n in counts.items():
            assert len(relation.rows({"x1": v1, "x2": v2})) == n

    def test_minimal_row_counts(self, relation):
        counts = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        for (v1, v2), n in counts.items():
            assert len(relation.minimal_rows({"x1": v1, "x2": v2})) == n

    def test_two_incomparable_latest_required_times_at_00(self, relation):
        # "either x1 arriving by time 0 or x2 arriving by time 1 is
        # required for x1x2 = 00"
        profiles = relation.required_tuples({"x1": 0, "x2": 0})
        INF = float("inf")
        tuples = {
            (p.value_independent()["x1"], p.value_independent()["x2"])
            for p in profiles
        }
        assert tuples == {(0.0, INF), (INF, 1.0)}

    def test_example_chi_choice_from_paper(self, relation):
        # the paper picks rows 000100, 000100, 000001, 111000 and derives
        # specific leaf functions; verify that choice satisfies F
        m = relation.manager
        x1, x2 = m.var("x1"), m.var("x2")
        paper_choice = {
            "chi[x1,1,0]": x1 & x2,
            "chi[x2,1,0]": x1 & x2,
            "chi[x2,1,1]": x1 & x2,
            "chi[x1,0,0]": ~x1,
            "chi[x2,0,0]": m.false,
            "chi[x2,0,1]": x1 & ~x2,
        }
        assert relation.verify_assignment(paper_choice)

    def test_topological_choice_satisfies(self, relation):
        # footnote 4: the relation always contains the topological choice
        m = relation.manager
        x1, x2 = m.var("x1"), m.var("x2")
        topo_choice = {
            "chi[x1,1,0]": x1,
            "chi[x2,1,0]": x2,
            "chi[x2,1,1]": x2,
            "chi[x1,0,0]": ~x1,
            "chi[x2,0,0]": ~x2,
            "chi[x2,0,1]": ~x2,
        }
        assert relation.verify_assignment(topo_choice)


class TestSection42Approx1Example:
    """The Figure 4 circuit under approximate approach 1."""

    @pytest.fixture(scope="class")
    def result(self):
        return Approx1Analysis(figure4(), output_required=2.0).run()

    def test_six_parameters(self, result):
        assert result.num_parameters == 6

    def test_paper_prime(self, result):
        assert result.primes == [
            frozenset(
                {
                    "alpha[x1,1]",
                    "alpha[x2,1]",
                    "alpha[x2,2]",
                    "beta[x1,1]",
                    "beta[x2,1]",
                }
            )
        ]

    def test_two_satisfying_assignments(self, result):
        # "There are two satisfying assignments for the function:
        # (111110, 111111)"
        analysis = Approx1Analysis(figure4(), output_required=2.0)
        f, chains = analysis.build_f()
        m = analysis.manager
        count = m.sat_count(f, nvars=6)
        # F depends only on the six parameter variables (X is quantified)
        assert count == 2

    def test_paper_interpretation(self, result):
        # "x1 has to arrive by time 0 and x2 has to arrive by time 0 if
        # x2 = 1 but by time 1 if x2 = 0"
        profile = result.profiles[0]
        assert profile.of("x1") == (0.0, 0.0)
        assert profile.of("x2") == (1.0, 0.0)

    def test_looser_than_topological_tighter_than_exact(self, result):
        # the approx-1 answer sits strictly between topological (x2 by 0
        # always) and exact (x2's requirement can also depend on x1)
        base = topological_input_required_times(figure4(), output_required=2.0)
        profile = result.profiles[0]
        assert profile.is_strictly_looser_than(base)
        exact = ExactAnalysis(figure4(), output_required=2.0).relation()
        # exact at minterm 10 allows req(x2)=1 with x2's value 0 — same as
        # approx-1 — but at minterm 00 also allows dropping x1 entirely,
        # which approx-1 cannot express
        profiles_00 = exact.required_tuples({"x1": 0, "x2": 0})
        assert any(
            p.value_independent()["x1"] == float("inf") for p in profiles_00
        )


class TestSection51ArrivalExample:
    """The Figure 6 fanin network under the Section 5.1 analysis."""

    def test_chi_tilde_values(self):
        from repro.timing import ChiEngine, ChiUnrolling

        eng = ChiEngine(ChiUnrolling(figure6()))
        m = eng.manager
        # the paper: χ̃_{u1}^1 = ~x1, χ̃_{u2}^1 = x1, both 1 at t=2
        assert eng.stable("u1", 1.0) == m.nvar("x1")
        assert eng.stable("u2", 1.0) == m.var("x1")
        assert eng.stable("u1", 2.0).is_true
        assert eng.stable("u2", 2.0).is_true

    def test_full_eight_row_table(self):
        # the unfolded per-X table: x1=0 -> (1,2); x1=1 -> (2,1)
        from repro.timing import ChiEngine, ChiUnrolling

        eng = ChiEngine(ChiUnrolling(figure6()))
        m = eng.manager
        import itertools

        for bits in itertools.product((0, 1), repeat=3):
            env = dict(zip(["x1", "x2", "x3"], bits))
            arr_u1 = 1.0 if m.evaluate(eng.stable("u1", 1.0), env) else 2.0
            arr_u2 = 1.0 if m.evaluate(eng.stable("u2", 1.0), env) else 2.0
            expected = (1.0, 2.0) if bits[0] == 0 else (2.0, 1.0)
            assert (arr_u1, arr_u2) == expected

    def test_folded_table(self):
        flex = arrival_flexibility(figure6(), ["u1", "u2"])
        assert flex.table[(0, 0)] == [(1.0, 2.0)]
        assert sorted(flex.table[(0, 1)]) == [(1.0, 2.0), (2.0, 1.0)]
        assert flex.is_dont_care((1, 0))
        assert flex.table[(1, 1)] == [(2.0, 1.0)]


class TestMethodComparisonStory:
    """The paper's overall narrative on one slide: exact ⊒ approx1 ⊒
    approx2, with the documented gaps."""

    def test_fig4_summary(self):
        exact = analyze_required_times(figure4(), "exact", output_required=2.0)
        a1 = analyze_required_times(figure4(), "approx1", output_required=2.0)
        a2 = analyze_required_times(
            figure4(), "approx2", output_required=2.0, engine="bdd"
        )
        assert exact.nontrivial
        assert a1.nontrivial
        # approx2's value-independent search cannot see fig4's flexibility
        assert not a2.nontrivial
