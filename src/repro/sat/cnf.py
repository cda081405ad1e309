"""CNF clause database with named variables and DIMACS I/O.

Literals follow the DIMACS convention: variable ids are positive integers,
a negative integer denotes the negated variable.
"""

from __future__ import annotations

import io
from typing import Iterable, TextIO

from repro.errors import SatError


class Cnf:
    """A growable CNF formula."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self._name2var: dict[str, int] = {}
        self._var2name: dict[int, str] = {}

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable, optionally registering a name."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            if name in self._name2var:
                raise SatError(f"variable name {name!r} already in use")
            self._name2var[name] = var
            self._var2name[var] = name
        return var

    def var(self, name: str) -> int:
        try:
            return self._name2var[name]
        except KeyError:
            raise SatError(f"unknown variable name {name!r}") from None

    def has_var(self, name: str) -> bool:
        return name in self._name2var

    def name_of(self, var: int) -> str | None:
        return self._var2name.get(abs(var))

    # ------------------------------------------------------------------
    # clauses
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[int]) -> None:
        clause = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise SatError("literal 0 is reserved")
            if abs(lit) > self.num_vars:
                raise SatError(f"literal {lit} references an unallocated variable")
            if -lit in seen:
                return  # tautological clause: drop
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_clause_unchecked(self, clause: list[int]) -> None:
        """Append a clause known to be well-formed.

        Skips the duplicate/tautology/bounds screening of
        :meth:`add_clause`; for generators (e.g.
        :class:`repro.timing.chi.ChiSat`) whose clauses are duplicate-free
        by construction.  The list is stored as-is, not copied.
        """
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    # ------------------------------------------------------------------
    # DIMACS
    # ------------------------------------------------------------------
    def to_dimacs(self, handle: TextIO | None = None) -> str:
        out = io.StringIO()
        out.write(f"p cnf {self.num_vars} {len(self.clauses)}\n")
        for var, name in sorted(self._var2name.items()):
            out.write(f"c var {var} = {name}\n")
        for clause in self.clauses:
            out.write(" ".join(map(str, clause)) + " 0\n")
        text = out.getvalue()
        if handle is not None:
            handle.write(text)
        return text

    @classmethod
    def from_dimacs(cls, text: str) -> "Cnf":
        cnf = cls()
        declared_vars = 0
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise SatError(f"malformed problem line: {line!r}")
                declared_vars = int(parts[2])
                while cnf.num_vars < declared_vars:
                    cnf.new_var()
                continue
            literals = [int(tok) for tok in line.split()]
            if literals and literals[-1] == 0:
                literals = literals[:-1]
            for lit in literals:
                while abs(lit) > cnf.num_vars:
                    cnf.new_var()
            cnf.add_clause(literals)
        return cnf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cnf {self.num_vars} vars, {len(self.clauses)} clauses>"
