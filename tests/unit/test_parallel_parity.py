"""Serial/parallel parity: ``--jobs 1`` and ``--jobs 4`` must agree bit
for bit on every canonical result row, including the golden paper values
(the Figure-4 relation tables and the carry-skip approx2 fixpoint from
:mod:`tests.unit.test_golden_paper_values`)."""

import pytest

from repro.circuits import carry_skip_block, figure4
from repro.fuzz import FAMILIES, FuzzRunner
from repro.parallel import (
    CircuitRef,
    merge_required_outcomes,
    required_time_task,
    run_batch,
    shard_required_time,
)

REQUIRED = 2.0

#: golden values carried over from test_golden_paper_values (any change
#: there must land here in the same commit)
GOLDEN_FIG4_ROWS = {"00": [5, 2], "01": [3, 1], "10": [4, 1], "11": [1, 1]}
GOLDEN_FIG4_PRIME = sorted(
    ["alpha[x1,1]", "alpha[x2,1]", "alpha[x2,2]", "beta[x1,1]", "beta[x2,1]"]
)
GOLDEN_CSKIP_BEST = {"cin": 0.0, "p0": -5.0, "p1": -3.0, "g0": -4.0, "g1": -2.0}


def example_tasks():
    """A Table-1-shaped grid over the worked examples (fast, exhaustive
    across methods: exact digests, approx1 primes, approx2 fixpoints,
    topological baselines)."""
    fig4 = CircuitRef.factory("example:figure4")
    cskip = CircuitRef.factory("example:carry_skip_block")
    return [
        required_time_task(
            fig4, "exact", output_required=REQUIRED,
            options={"exact_row_counts": 6},
        ),
        required_time_task(fig4, "approx1", output_required=REQUIRED),
        required_time_task(fig4, "topological", output_required=REQUIRED),
        required_time_task(cskip, "approx2", output_required=REQUIRED),
        required_time_task(cskip, "approx1", output_required=REQUIRED),
        required_time_task(cskip, "topological", output_required=REQUIRED),
    ]


class TestBatchParity:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        serial = run_batch(example_tasks(), jobs=1)
        parallel = run_batch(example_tasks(), jobs=4)
        return serial, parallel

    def test_rows_bit_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.ok and parallel.ok
        srows = [o.value.row() for o in serial.outcomes]
        prows = [o.value.row() for o in parallel.outcomes]
        assert srows == prows

    def test_golden_fig4_exact_rows_both_paths(self, serial_and_parallel):
        for batch in serial_and_parallel:
            digest = batch.outcome("example:figure4/exact").value.digest
            assert digest["rows"] == GOLDEN_FIG4_ROWS
            assert digest["leaf_variables"] == 6

    def test_golden_fig4_approx1_prime_both_paths(self, serial_and_parallel):
        for batch in serial_and_parallel:
            digest = batch.outcome("example:figure4/approx1").value.digest
            assert digest["primes"] == [GOLDEN_FIG4_PRIME]
            assert digest["num_parameters"] == 6

    def test_golden_carry_skip_approx2_fixpoint_both_paths(
        self, serial_and_parallel
    ):
        # the paper's motivating case: the carry-skip false path lets cin
        # arrive 6 units later than topological analysis allows
        for batch in serial_and_parallel:
            value = batch.outcome("example:carry_skip_block/approx2").value
            assert value.nontrivial
            assert value.digest["best"] == GOLDEN_CSKIP_BEST

    def test_input_times_and_baselines_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for s, p in zip(serial.outcomes, parallel.outcomes):
            assert s.value.input_times == p.value.input_times
            assert s.value.baseline == p.value.baseline


class TestShardedMergeParity:
    def test_topological_sharded_merge_equals_whole_network(self):
        """Per-output min-merge is *exact* for the topological baseline."""
        net = carry_skip_block()
        tasks = shard_required_time(net, "topological", output_required=0.0)
        serial = merge_required_outcomes(
            [o.value for o in run_batch(tasks, jobs=1).outcomes]
        )
        parallel = merge_required_outcomes(
            [o.value for o in run_batch(tasks, jobs=4).outcomes]
        )
        assert serial["input_times"] == parallel["input_times"]

        from repro.core.required_time import topological_input_required_times

        whole = topological_input_required_times(net, None, 0.0)
        assert serial["input_times"] == whole
        assert not serial["nontrivial_merged"]

    def test_approx2_sharded_merge_is_sound(self):
        """The merged vector never exceeds what any cone allows, and is
        identical across jobs."""
        net = carry_skip_block()
        tasks = shard_required_time(net, "approx2", output_required=0.0)
        merged1 = merge_required_outcomes(
            [o.value for o in run_batch(tasks, jobs=1).outcomes]
        )
        merged4 = merge_required_outcomes(
            [o.value for o in run_batch(tasks, jobs=4).outcomes]
        )
        assert merged1["input_times"] == merged4["input_times"]
        assert merged1["nontrivial_any_cone"] == merged4["nontrivial_any_cone"]
        for x, t in merged1["input_times"].items():
            assert t >= merged1["baseline"][x]  # sound: never looser-negated


class TestFuzzParity:
    def test_fuzz_verdicts_identical_across_jobs(self):
        serial = FuzzRunner(seed=11, budget=6, shrink=False, jobs=1).run()
        pooled = FuzzRunner(seed=11, budget=6, shrink=False, jobs=2).run()

        def key(report):
            return [
                (v.index, v.case_id, v.ok, tuple(v.failed_checks))
                for v in report.verdicts
            ]

        assert key(serial) == key(pooled)
        assert serial.num_failures == pooled.num_failures

    @pytest.mark.parametrize("family", ["eco", "interval"])
    def test_family_verdicts_identical_across_jobs(self, family):
        def run(jobs):
            return FuzzRunner(
                seed=f"jobs-{family}", budget=4, profile="tiny",
                family=family, jobs=jobs,
            ).run()

        def key(report):
            return [
                (v.index, v.case_id, v.family, v.num_inputs, v.num_gates,
                 v.ok, tuple(v.failed_checks))
                for v in report.verdicts
            ]

        serial, pooled = run(1), run(2)
        assert pooled.metrics.get("parallel.tasks_completed") == 4
        assert len(key(serial)) == 4
        assert all(v.family == family for v in serial.verdicts)
        assert key(pooled) == key(serial)

    def test_pool_error_becomes_failed_verdict(self):
        from repro.parallel.results import TaskOutcome

        runner = FuzzRunner(seed=1, budget=1, jobs=2)
        verdict = runner._pooled_verdict(
            FAMILIES["circuit"],
            TaskOutcome(task_id="case-7", ok=False, error="worker lost"),
        )
        assert not verdict.ok
        assert verdict.index == 7
        assert verdict.failed_checks == ["pool-error"]

    def test_failing_pooled_case_runs_the_serial_tail(self, tmp_path):
        """A failure verdict coming back from a worker regenerates the
        case in the parent and runs the same shrink/corpus tail as the
        serial loop (here with shrinking off so the saved repro is the
        regenerated netlist itself)."""
        from repro.fuzz.gen import generate_case
        from repro.parallel.results import FuzzCaseOutcome, TaskOutcome

        runner = FuzzRunner(
            seed=9,
            budget=1,
            profile="tiny",
            jobs=2,
            shrink=False,
            corpus_dir=str(tmp_path),
        )
        case = generate_case(9, "tiny", 0)
        value = FuzzCaseOutcome(
            index=0,
            case_id=case.case_id,
            family=case.family,
            num_inputs=case.num_inputs,
            num_gates=case.num_gates,
            ok=False,
            failed_checks=["synthetic"],
            failures=[("synthetic", "injected by test")],
        )
        verdict = runner._pooled_verdict(
            FAMILIES["circuit"],
            TaskOutcome(task_id="case-0", ok=True, value=value),
        )
        assert not verdict.ok
        assert verdict.repro is not None
        assert list(tmp_path.iterdir())  # the repro landed in the corpus

    def test_fuzz_subclassed_suite_falls_back_to_serial(self):
        from repro.fuzz.checks import EngineSuite

        class Hooked(EngineSuite):
            pass

        runner = FuzzRunner(seed=1, budget=2, suite=Hooked(), jobs=2)
        assert not runner._parallel_capable()
        report = runner.run()  # runs serially, no fork
        assert report.num_cases == 2


def test_figure4_network_matches_example(tmp_path):
    """CircuitRef round-trip sanity: factory and inline refs agree."""
    inline = CircuitRef.inline(figure4())
    factory = CircuitRef.factory("example:figure4")
    a, b = inline.resolve(), factory.resolve()
    assert a.inputs == b.inputs
    assert a.outputs == b.outputs
    assert a.num_gates == b.num_gates
