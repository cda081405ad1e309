"""Unit tests for the CNF database and the CDCL solver."""

import itertools

import pytest

from repro.errors import ResourceLimitError, SatError
from repro.sat import Cnf, Solver, solve


class TestCnf:
    def test_new_var_and_names(self):
        cnf = Cnf()
        a = cnf.new_var("a")
        b = cnf.new_var()
        assert a == 1 and b == 2
        assert cnf.var("a") == 1
        assert cnf.name_of(1) == "a"
        assert cnf.name_of(2) is None

    def test_duplicate_name_rejected(self):
        cnf = Cnf()
        cnf.new_var("a")
        with pytest.raises(SatError):
            cnf.new_var("a")

    def test_unknown_name_rejected(self):
        with pytest.raises(SatError):
            Cnf().var("ghost")

    def test_add_clause_validates(self):
        cnf = Cnf()
        cnf.new_var()
        with pytest.raises(SatError):
            cnf.add_clause([0])
        with pytest.raises(SatError):
            cnf.add_clause([5])

    def test_tautological_clause_dropped(self):
        cnf = Cnf()
        v = cnf.new_var()
        cnf.add_clause([v, -v])
        assert cnf.num_clauses == 0

    def test_duplicate_literals_merged(self):
        cnf = Cnf()
        v = cnf.new_var()
        cnf.add_clause([v, v])
        assert cnf.clauses == [[v]]

    def test_dimacs_roundtrip(self):
        cnf = Cnf()
        a, b, c = (cnf.new_var() for _ in range(3))
        cnf.add_clauses([[a, -b], [b, c], [-a, -c]])
        again = Cnf.from_dimacs(cnf.to_dimacs())
        assert again.num_vars == 3
        assert again.clauses == cnf.clauses


class TestSolverBasics:
    def test_empty_formula_sat(self):
        assert solve(Cnf()) == {}

    def test_single_unit(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        assert solve(cnf) == {a: True}

    def test_contradiction(self):
        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clauses([[a], [-a]])
        assert solve(cnf) is None

    def test_empty_clause(self):
        cnf = Cnf()
        cnf.new_var()
        cnf.add_clause([])
        assert solve(cnf) is None

    def test_simple_2sat(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clauses([[a, b], [-a, b], [a, -b]])
        model = solve(cnf)
        assert model is not None
        assert model[a] and model[b]

    def test_model_satisfies_formula(self):
        cnf = Cnf()
        vs = [cnf.new_var() for _ in range(6)]
        cnf.add_clauses(
            [
                [vs[0], vs[1], -vs[2]],
                [-vs[0], vs[3]],
                [vs[2], vs[4], vs[5]],
                [-vs[3], -vs[4]],
                [vs[1], -vs[5]],
            ]
        )
        model = solve(cnf)
        assert model is not None
        for clause in cnf.clauses:
            assert any(
                model[abs(l)] == (l > 0) for l in clause
            ), f"clause {clause} unsatisfied"

    def test_assumptions(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        solver = Solver(cnf)
        assert solver.solve([-a])
        assert solver.model()[b]
        assert not solver.solve([-a, -b])
        # solver survives: still satisfiable without assumptions
        assert solver.solve([])

    def test_conflict_budget(self):
        cnf = _php(5, 4)
        with pytest.raises(ResourceLimitError):
            solve(cnf, max_conflicts=3)

    def test_conflict_budget_counts_each_call_from_its_start(self):
        import random

        rng = random.Random(4)
        cnf = Cnf()
        for _ in range(50):
            cnf.new_var()
        for _ in range(205):
            cnf.add_clause(
                [rng.choice((1, -1)) * rng.randint(1, 50) for _ in range(3)]
            )
        solver = Solver(cnf)
        assert solver.solve()
        spent = solver.conflicts
        assert spent > 17
        # the query needs fewer than 17 conflicts of its own; the 27 the
        # first call spent must not count against its budget
        assert not solver.solve([-3, 4, -5], max_conflicts=17)
        assert solver.conflicts > spent


def _php(pigeons: int, holes: int) -> Cnf:
    """The pigeonhole principle formula (UNSAT when pigeons > holes)."""
    cnf = Cnf()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestSolverHard:
    def test_pigeonhole_unsat(self):
        assert solve(_php(5, 4)) is None

    def test_pigeonhole_sat(self):
        model = solve(_php(4, 4))
        assert model is not None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_3sat_against_bruteforce(self, seed):
        import random

        rng = random.Random(seed)
        nvars, nclauses = 8, 28
        cnf = Cnf()
        vs = [cnf.new_var() for _ in range(nvars)]
        for _ in range(nclauses):
            clause_vars = rng.sample(vs, 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause_vars])

        def brute() -> bool:
            for bits in itertools.product((False, True), repeat=nvars):
                env = dict(zip(vs, bits))
                if all(
                    any(env[abs(l)] == (l > 0) for l in clause)
                    for clause in cnf.clauses
                ):
                    return True
            return False

        assert (solve(cnf) is not None) == brute()


class TestLuby:
    def test_sequence_prefix(self):
        from repro.sat.solver import _luby

        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_terminates_on_large_indices(self):
        from repro.sat.solver import _luby

        for i in [100, 1000, 12345]:
            v = _luby(i)
            assert v > 0 and (v & (v - 1)) == 0  # power of two

    def test_restarting_search_terminates(self):
        # regression: a buggy Luby implementation hung on the second
        # restart; this instance needs several restarts with base 64
        cnf = _php(7, 6)
        assert solve(cnf) is None


class TestEnumeration:
    def test_enumerate_all_models(self):
        from repro.sat.solver import enumerate_models

        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        models = list(enumerate_models(cnf))
        assert len(models) == 3
        for model in models:
            assert model[a] or model[b]

    def test_projection(self):
        from repro.sat.solver import enumerate_models

        cnf = Cnf()
        a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_clause([a])
        # project on {a, b}: c is free, so 2 projected models (b free too)
        models = list(enumerate_models(cnf, over=[a, b]))
        assert len(models) == 2
        assert all(m[a] for m in models)
        assert {m[b] for m in models} == {True, False}

    def test_unsat_yields_nothing(self):
        from repro.sat.solver import enumerate_models

        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clauses([[a], [-a]])
        assert list(enumerate_models(cnf)) == []

    def test_budget(self):
        from repro.errors import ResourceLimitError
        from repro.sat.solver import enumerate_models

        cnf = Cnf()
        for _ in range(5):
            cnf.new_var()
        with pytest.raises(ResourceLimitError):
            list(enumerate_models(cnf, max_models=3))

    def test_original_formula_untouched(self):
        from repro.sat.solver import enumerate_models

        cnf = Cnf()
        a = cnf.new_var()
        cnf.add_clause([a])
        before = len(cnf.clauses)
        list(enumerate_models(cnf))
        assert len(cnf.clauses) == before
