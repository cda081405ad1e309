"""A CDCL SAT solver.

Features: two-watched-literal unit propagation, first-UIP conflict analysis
with clause learning, VSIDS-style variable activities with exponential
decay, phase saving, Luby-sequence restarts, and optional conflict budgets
(so callers can enforce the paper-style "> 12 hours" resource aborts).

This is a from-scratch implementation with no external dependencies; it is
deliberately classical so its behavior is predictable and testable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ResourceLimitError, SatError
from repro.obs.metrics import REGISTRY, EngineTelemetry
from repro.sat.cnf import Cnf


def _sat_engine_counters(state: dict) -> dict[str, float]:
    """Monotone ``sat.*`` totals from a solver's ``__dict__``; polled
    lazily at metrics-snapshot time so the CDCL loop stays metrics-free."""
    return {
        "sat.propagations": float(state["propagations"]),
        "sat.decisions": float(state["decisions"]),
        "sat.conflicts": float(state["conflicts"]),
        "sat.learnt_clauses": float(len(state["learnts"])),
    }


_TELEMETRY = EngineTelemetry("sat", _sat_engine_counters)
REGISTRY.register_collector("sat", _TELEMETRY.collect)


class Solver:
    """CDCL solver over a :class:`Cnf`."""

    def __init__(self, cnf: Cnf):
        self.nvars = cnf.num_vars
        self.assign: list[int | None] = [None] * (self.nvars + 1)
        self.level: list[int] = [0] * (self.nvars + 1)
        self.reason: list[list[int] | None] = [None] * (self.nvars + 1)
        self.activity: list[float] = [0.0] * (self.nvars + 1)
        self.phase: list[int] = [0] * (self.nvars + 1)  # saved polarity
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.watches: dict[int, list[list[int]]] = {}
        self.clauses: list[list[int]] = []
        self.learnts: list[list[int]] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._unsat = False
        _TELEMETRY.track(self)

        # _add_clause never mutates or stores its argument (it builds a
        # fresh simplified list), so the cnf clauses are shared, not copied
        for clause in cnf.clauses:
            if not self._add_clause(clause):
                self._unsat = True
                break

    # ------------------------------------------------------------------
    # clause management
    # ------------------------------------------------------------------
    def _watch(self, lit: int, clause: list[int]) -> None:
        self.watches.setdefault(lit, []).append(clause)

    def _add_clause(self, clause: list[int]) -> bool:
        """Add an original clause; returns False on immediate conflict."""
        # single pass: dedup, tautology check, and level-0 simplification
        # (drop false literals, detect satisfied clauses)
        assign = self.assign
        seen: set[int] = set()
        simplified: list[int] = []
        for lit in clause:
            if lit in seen:
                continue
            if -lit in seen:
                return True  # tautology
            seen.add(lit)
            v = assign[lit if lit > 0 else -lit]
            if v is None:
                simplified.append(lit)
            elif v == (lit > 0):
                return True
        if not simplified:
            return False
        if len(simplified) == 1:
            return self._enqueue(simplified[0], None)
        self.clauses.append(simplified)
        watches = self.watches
        for lit in (simplified[0], simplified[1]):
            lst = watches.get(lit)
            if lst is None:
                watches[lit] = [simplified]
            else:
                lst.append(simplified)
        return True

    # ------------------------------------------------------------------
    # assignment plumbing
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> bool | None:
        v = self.assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        current = self._value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.

        The innermost loop of the solver: the literal-value test and the
        unit enqueue are inlined (no ``_value``/``_enqueue`` calls) and all
        instance attributes are bound to locals up front.
        """
        assign = self.assign
        watches = self.watches
        trail = self.trail
        level_ = self.level
        reason_ = self.reason
        trail_lim = self.trail_lim
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            falsified = -lit
            watchers = watches.get(falsified)
            if not watchers:
                continue
            new_watchers: list[list[int]] = []
            conflict: list[int] | None = None
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                if conflict is not None:
                    new_watchers.append(clause)
                    continue
                # normalize: watched literals at positions 0 and 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                v = assign[first] if first > 0 else assign[-first]
                if v is not None and (v if first > 0 else not v):
                    new_watchers.append(clause)
                    continue
                # search replacement watch
                found = False
                for k in range(2, len(clause)):
                    ck = clause[k]
                    cv = assign[ck] if ck > 0 else assign[-ck]
                    if cv is None or (cv if ck > 0 else not cv):
                        clause[1], clause[k] = clause[k], clause[1]
                        lst = watches.get(ck)
                        if lst is None:
                            watches[ck] = [clause]
                        else:
                            lst.append(clause)
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                new_watchers.append(clause)
                if v is not None:
                    # first is already false under the current assignment
                    conflict = clause
                else:
                    var = first if first > 0 else -first
                    assign[var] = first > 0
                    level_[var] = len(trail_lim)
                    reason_[var] = clause
                    trail.append(first)
            watches[falsified] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = []
        seen = [False] * (self.nvars + 1)
        counter = 0
        lit = 0
        clause: list[int] | None = conflict
        index = len(self.trail)
        current_level = len(self.trail_lim)

        while True:
            assert clause is not None
            for q in clause:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] == current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # pick the next trail literal to resolve on
            while True:
                index -= 1
                if seen[abs(self.trail[index])]:
                    break
            p = self.trail[index]
            var = abs(p)
            clause = self.reason[var]
            seen[var] = False
            counter -= 1
            if counter == 0:
                lit = -p
                break
            lit = p

        learnt.insert(0, lit)
        if len(learnt) == 1:
            return learnt, 0
        # backjump level: second-highest level in the learnt clause
        levels = sorted((self.level[abs(q)] for q in learnt[1:]), reverse=True)
        back = levels[0]
        # move one literal of the backjump level to position 1 for watching
        for i in range(1, len(learnt)):
            if self.level[abs(learnt[i])] == back:
                learnt[1], learnt[i] = learnt[i], learnt[1]
                break
        return learnt, back

    def _bump(self, var: int) -> None:
        self.activity[var] += self._var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _decay(self) -> None:
        self._var_inc /= self._var_decay

    # ------------------------------------------------------------------
    # backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        phase = self.phase
        assign = self.assign
        reason = self.reason
        for lit in reversed(self.trail[bound:]):
            if lit > 0:
                phase[lit] = 1
                assign[lit] = None
                reason[lit] = None
            else:
                phase[-lit] = 0
                assign[-lit] = None
                reason[-lit] = None
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    # ------------------------------------------------------------------
    # branching
    # ------------------------------------------------------------------
    def _decide(self) -> int | None:
        assign = self.assign
        activity = self.activity
        best_var = 0
        best_act = -1.0
        for var in range(1, self.nvars + 1):
            if assign[var] is None:
                act = activity[var]
                if act > best_act:
                    best_act = act
                    best_var = var
        if not best_var:
            return None
        return best_var if self.phase[best_var] else -best_var

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: int | None = None,
    ) -> bool:
        """Decide satisfiability.  Raises :class:`ResourceLimitError` when
        the conflict budget is exhausted."""
        if self._unsat:
            return False
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return False

        # assumptions become decision-level-1..k decisions
        for lit in assumptions:
            if abs(lit) > self.nvars:
                raise SatError(f"assumption {lit} out of range")

        restart_base = 64
        luby_index = 1
        # the budget counts this call's conflicts, not the solver's lifetime
        # total: a solver reused under assumptions gets a full budget per call
        start = self.conflicts

        while True:
            budget = restart_base * _luby(luby_index)
            result = self._search(assumptions, budget, max_conflicts, start)
            if result is not None:
                return result
            luby_index += 1
            self._cancel_until(0)

    def _search(
        self,
        assumptions: Sequence[int],
        restart_budget: int,
        max_conflicts: int | None,
        start: int,
    ) -> bool | None:
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if (
                    max_conflicts is not None
                    and self.conflicts - start > max_conflicts
                ):
                    raise ResourceLimitError(
                        f"SAT conflict budget ({max_conflicts}) exhausted"
                    )
                if len(self.trail_lim) == 0:
                    self._unsat = True
                    return False
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(max(back_level, 0))
                if len(learnt) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learnt[0], None):
                        self._unsat = True
                        return False
                else:
                    self.learnts.append(learnt)
                    self._watch(learnt[0], learnt)
                    self._watch(learnt[1], learnt)
                    self._enqueue(learnt[0], learnt)
                self._decay()
                if conflicts_here >= restart_budget:
                    return None  # restart
                continue

            # assumption i owns decision level i + 1 (left empty when it is
            # already implied), so the next one to apply is found by index
            # instead of rescanning the list after every propagation
            level = len(self.trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._value(lit)
                if value is False:
                    return False  # assumptions conflict
                self.trail_lim.append(len(self.trail))
                if value is None:
                    self._enqueue(lit, None)
                continue

            decision = self._decide()
            if decision is None:
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, None)

    def model(self) -> dict[int, bool]:
        """The satisfying assignment after a True ``solve()`` result."""
        return {
            var: bool(self.assign[var])
            for var in range(1, self.nvars + 1)
            if self.assign[var] is not None
        }


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed).

    If i = 2^k - 1 the value is 2^(k-1); otherwise recurse on
    i - (2^(k-1) - 1) for the largest k with 2^(k-1) - 1 < i.
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def solve(
    cnf: Cnf,
    assumptions: Sequence[int] = (),
    max_conflicts: int | None = None,
) -> dict[int, bool] | None:
    """One-shot convenience wrapper: a model dict, or None when UNSAT."""
    solver = Solver(cnf)
    if solver.solve(assumptions, max_conflicts=max_conflicts):
        return solver.model()
    return None


def enumerate_models(
    cnf: Cnf,
    over: Sequence[int] | None = None,
    max_models: int = 1_000,
    max_conflicts: int | None = None,
):
    """Yield satisfying assignments, distinct over the ``over`` variables.

    Classic blocking-clause enumeration: after each model, a clause
    negating its projection onto ``over`` (default: all variables) is
    added.  ``max_models`` bounds the enumeration; exceeding it raises
    :class:`~repro.errors.ResourceLimitError`.
    """
    from repro.errors import ResourceLimitError

    projection = list(over) if over is not None else list(
        range(1, cnf.num_vars + 1)
    )
    # work on a private copy so the caller's formula is untouched
    work = Cnf()
    for _ in range(cnf.num_vars):
        work.new_var()
    for clause in cnf.clauses:
        work.add_clause(list(clause))

    count = 0
    while True:
        solver = Solver(work)
        if not solver.solve(max_conflicts=max_conflicts):
            return
        model = solver.model()
        count += 1
        if count > max_models:
            raise ResourceLimitError(
                f"more than {max_models} models; tighten the projection"
            )
        yield {v: model.get(v, False) for v in projection}
        blocking = [
            -v if model.get(v, False) else v for v in projection
        ]
        if not blocking:
            return
        work.add_clause(blocking)
