"""Property-based tests for the SAT solver."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sat import Cnf, Solver, solve

NVARS = 6


@st.composite
def formulas(draw, nvars=NVARS, max_clauses=20):
    n = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        vars_ = draw(
            st.lists(
                st.integers(1, nvars), min_size=k, max_size=k, unique=True
            )
        )
        clause = [v if draw(st.booleans()) else -v for v in vars_]
        clauses.append(clause)
    return clauses


def brute_sat(nvars, clauses):
    for bits in itertools.product((False, True), repeat=nvars):
        env = dict(zip(range(1, nvars + 1), bits))
        if all(any(env[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


class TestSolverAgainstBruteForce:
    @given(formulas())
    @settings(max_examples=80, deadline=None)
    def test_sat_decision(self, clauses):
        cnf = Cnf()
        for _ in range(NVARS):
            cnf.new_var()
        for c in clauses:
            cnf.add_clause(c)
        assert (solve(cnf) is not None) == brute_sat(NVARS, clauses)

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_model_is_genuine(self, clauses):
        cnf = Cnf()
        for _ in range(NVARS):
            cnf.new_var()
        for c in clauses:
            cnf.add_clause(c)
        model = solve(cnf)
        if model is not None:
            for clause in cnf.clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)

    @given(
        formulas(max_clauses=30),
        st.lists(
            st.lists(st.integers(-NVARS, NVARS).filter(bool), max_size=4),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_reused_solver_under_assumptions(self, clauses, queries):
        cnf = Cnf()
        for _ in range(NVARS):
            cnf.new_var()
        for c in clauses:
            cnf.add_clause(c)
        solver = Solver(cnf)
        for assumptions in queries:
            expected = brute_sat(NVARS, clauses + [[a] for a in assumptions])
            assert solver.solve(assumptions) == expected
