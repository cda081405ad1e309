"""One workload process: set up, say ``ready``, measure, print one result.

``run.py`` starts this once per setup sample (with ``--setup-only``) and
once for the measured run, so ``setup_s`` and ``peak_rss_mb`` belong to
one workload alone.  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed``, ``problems``, ``info`` and the
raw ``metrics`` values; ``run.py`` attaches units and adds ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from collections import defaultdict

from measure import SetupError, geomean, layer_metrics, run_rounds
import refs


def require_native_kernel() -> None:
    """Load the native BDD kernel; fail by name on a silent fallback.

    Also imports the engines that the analysis entry points import on
    first use, so that set-up pays for them rather than the first round.
    """
    import repro.core.approx1  # noqa: F401
    import repro.core.approx2  # noqa: F401
    import repro.core.exact  # noqa: F401
    from repro.bdd.api import backend_of, backend_resolution, create_manager

    resolution = backend_resolution(None)
    effective = backend_of(create_manager())
    if effective != "native":
        raise SetupError(
            f"effective BDD kernel is {effective!r}, not 'native' "
            f"(fallback reason: {resolution['fallback_reason']})"
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds_metrics(samples_by_op: dict[str, list[float]]) -> dict:
    """End-to-end metrics of a round-based workload.

    Each operation's time is its fastest over the run's rounds.  On a
    shared machine other tenants only ever add time, in stretches of
    seconds, so the minimum is the steadiest estimate of what the work
    costs.  ``wall_s`` sums them, ``throughput_ops_s`` is one round's
    operations over that sum, and ``op_geomean_ms`` is their geometric
    mean.  Operations differ in cost by two orders of magnitude, so a
    median over them would jump between neighbouring operations from run
    to run.
    """
    per_op = [min(values) for values in samples_by_op.values()]
    return {
        "wall_s": sum(per_op),
        "throughput_ops_s": len(per_op) / sum(per_op),
        "peak_rss_mb": peak_rss_mb(),
        "op_geomean_ms": 1000.0 * geomean(per_op),
    }


class RoundBased:
    """A workload of fixed rounds, measured in this process.

    Subclasses set ``name``, ``seed``, ``workdir`` and ``workload`` and
    say how one round's results are timed and checked.
    """

    def check_round(self, result, samples) -> list[str]:
        """Append each operation's seconds to ``samples[op]``; problems."""
        raise NotImplementedError

    def check_run(self, last) -> list[str]:
        return []

    def layer_metrics(self, traced, last) -> dict:
        return layer_metrics(traced)

    def measure(self, seconds: float, trace: bool) -> dict:
        rounds, traced = run_rounds(self.workload.run_round, seconds, trace)
        samples = defaultdict(list)
        problems = []
        for _wall, result in rounds:
            problems += self.check_round(result, samples)
        attempted = sum(len(values) for values in samples.values())
        failed = len(problems)
        last = rounds[-1][1]
        problems += self.check_run(last)
        metrics = rounds_metrics(samples)
        if traced is not None:
            metrics.update(self.layer_metrics(traced, last))
            metrics["obs.trace_overhead_frac"] = rounds[1][0] / rounds[0][0] - 1.0
            metrics["failed_frac"] = failed / attempted
            # next to the scratch directory, which is removed when the run ends
            traced.trace.save(os.path.join(
                os.path.dirname(self.workdir), f"trace-{self.name}-{self.seed}.jsonl"))
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "problems": problems[:10], "metrics": metrics}

    def close(self) -> None:
        pass


class Cold(RoundBased):
    """cold-bdd / cold-sat: rows checked against the reference rows."""

    def __init__(self, name: str, seed: int, workdir: str):
        from cold import ColdWorkload

        require_native_kernel()
        self.name, self.seed, self.workdir = name, seed, workdir
        self.workload = ColdWorkload(name, seed, workdir)
        self.refs = refs.load(name)
        self.other_refs = refs.load("cold-sat" if name == "cold-bdd" else "cold-bdd")

    def check_round(self, rows, samples) -> list[str]:
        problems = []
        for key, result in rows.items():
            samples[key].append(result["seconds"])
            if refs.row_digest(result["row"]) != self.refs[key]["sha256"]:
                problems.append(f"{key}: row differs from the reference")
        return problems

    def check_run(self, last) -> list[str]:
        from cold import shape_problems

        status = {k: (v["status"], v["nontrivial"]) for k, v in self.other_refs.items()}
        status.update({k: (r["row"]["status"], r["row"]["nontrivial"])
                       for k, r in last.items()})
        return shape_problems(status)

    def layer_metrics(self, traced, last) -> dict:
        return layer_metrics(
            traced,
            peak_live_nodes=max(r["peak_live_nodes"] for r in last.values()),
            aborted_rows=sum(r["row"]["status"] != "ok" for r in last.values()),
        )


class Fuzz(RoundBased):
    """fuzz-campaign: every case must run and pass."""

    def __init__(self, seed: int, workdir: str):
        from fuzzing import FuzzWorkload

        require_native_kernel()
        self.name, self.seed, self.workdir = "fuzz-campaign", seed, workdir
        self.workload = FuzzWorkload(seed)

    def check_round(self, verdicts, samples) -> list[str]:
        problems = []
        if len(verdicts) != self.workload.cases:
            problems.append(f"round ran {len(verdicts)} of {self.workload.cases} cases")
        for campaign, v in verdicts:
            samples[(campaign, v.index)].append(v.elapsed)
            if not v.ok:
                problems.append(f"{v.case_id}: {','.join(v.failed_checks)}")
        return problems


def setup(args, env: dict):
    if args.workload in ("cold-bdd", "cold-sat"):
        return Cold(args.workload, args.seed, args.workdir)
    if args.workload == "fuzz-campaign":
        return Fuzz(args.seed, args.workdir)
    if args.workload == "served-mix":
        from served import ServedWorkload

        return ServedWorkload(args.seed, args.workdir, env, refs.load("served-mix"))
    raise SetupError(f"unknown workload {args.workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        workload = setup(args, dict(os.environ))
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        result = workload.measure(args.seconds, bool(args.trace))
    finally:
        workload.close()
    result["info"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": "native",
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
