"""The fuzz-campaign workload: ``FuzzRunner`` over many tiny problems.

Circuit family, default profile, serial, no shrinking, no corpus
writes.  Each case builds several BDD managers and SAT solvers for a
small netlist, so per-manager and per-call fixed costs dominate: a kernel
change that wins on ``cold-bdd`` but costs on small problems shows here.
The engine budgets are counts (nodes, checks), tighter than the
fuzzer's defaults so that no single case dominates a round.

A round is a fixed set of short campaigns whose order the seed draws.
Cases differ widely in cost (one default-profile case can outweigh
twenty others), so letting the seed pick the cases would make the
figure compare case mixes rather than commits.
"""

from __future__ import annotations

import random

from repro.fuzz import FuzzRunner
from repro.fuzz.checks import EngineSuite

#: campaigns per round, and cases per campaign
CAMPAIGNS = 4
CASES_PER_CAMPAIGN = 5
SUITE_BUDGETS = {
    "exact_max_nodes": 20_000,
    "approx1_max_nodes": 20_000,
    "approx2_max_checks": 200,
}


class FuzzWorkload:
    """The fixed campaigns, run in a seeded order each round."""

    def __init__(self, seed: int):
        self.campaigns = [f"perfbench:{i}" for i in range(CAMPAIGNS)]
        self.cases = CAMPAIGNS * CASES_PER_CAMPAIGN
        self._rng = random.Random(f"fuzz-campaign:{seed}")

    def run_round(self, clock) -> list:
        """Every campaign once; returns ``(campaign, verdict)`` pairs."""
        order = list(self.campaigns)
        self._rng.shuffle(order)
        out = []
        for campaign in order:
            runner = FuzzRunner(
                seed=campaign,
                budget=CASES_PER_CAMPAIGN,
                profile="default",
                suite=EngineSuite(**SUITE_BUDGETS),
                corpus_dir=None,
                shrink=False,
                jobs=1,
            )
            out += [(campaign, v) for v in runner.run().verdicts]
        return out
