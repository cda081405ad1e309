"""A self-contained CNF SAT solver.

The paper's second approximate algorithm validates candidate required-time
vectors with a *SAT-based* functional timing analyzer (McGeer, Saldanha,
Brayton, Sangiovanni-Vincentelli [9]: "Each comparison is done by creating
a Boolean network which computes the difference between two functions and
using a SAT solver to check whether the output of the network is
satisfiable").  This package supplies that engine:

* :class:`~repro.sat.cnf.Cnf` — clause database with DIMACS I/O,
* :class:`~repro.sat.solver.Solver` — CDCL (conflict-driven clause
  learning) with two-watched-literal propagation, VSIDS-style branching,
  Luby restarts and phase saving.

The χ recursion reaches the solver as CNF through
:class:`repro.timing.chi.ChiSat`, which emits it straight from the
unrolled recursion.
"""

from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, solve

__all__ = ["Cnf", "Solver", "solve"]
