"""Unit tests for the interval delay model (docs/DELAY_MODELS.md)."""

import json

import pytest

from repro.cache.keys import required_key
from repro.cache.results import CachedRequiredResult
from repro.circuits import c17, carry_skip_block, figure4, figure6, figure6_extended
from repro.cli import main
from repro.core.required_time import (
    analyze_required_times,
    topological_input_required_times,
)
from repro.errors import NetworkError, TimingError
from repro.fuzz import (
    INTERVAL_CHECKS,
    generate_interval_case,
    run_interval_differential,
)
from repro.network import write_blif
from repro.timing import (
    DelayModel,
    IntervalDelayModel,
    delay_model_from_spec,
    required_time_bounds,
    required_times,
    unit_delay,
    unit_interval_delay,
)

#: the five example circuits the degeneracy goldens run on
EXAMPLES = (figure4, figure6, figure6_extended, c17, carry_skip_block)


def canonical_row(net, method, delays, required=0.0, **options):
    baseline = topological_input_required_times(net, delays, required)
    report = analyze_required_times(
        net, method, delays=delays, output_required=required, **options
    )
    return CachedRequiredResult.from_report(report, baseline).row()


class TestIntervalModel:
    def test_point_model_matches_scalar_projection(self):
        model = IntervalDelayModel.from_scalar(
            DelayModel(default=2.0, overrides={"g": (3.0, 1.0)})
        )
        assert model.is_point()
        assert model.of("x") == 2.0
        assert model.of_value("g", 1) == 3.0
        assert model.of_value("g", 0) == 1.0
        assert model.of_bounds("g") == (3.0, 3.0)

    def test_widen_clamps_lo_at_zero(self):
        model = IntervalDelayModel.from_scalar(unit_delay(), widen=2.0)
        lo, hi = model.of_bounds("anything")
        assert lo == 0.0 and hi == 3.0

    def test_negative_widen_rejected(self):
        with pytest.raises(TimingError):
            IntervalDelayModel.from_scalar(unit_delay(), widen=-0.5)

    def test_lo_above_hi_rejected(self):
        with pytest.raises(TimingError):
            IntervalDelayModel(default=([2.0, 1.0], [1.0, 1.0]))

    def test_corner_projections(self):
        model = IntervalDelayModel(
            default=([1.0, 2.0], [0.5, 1.5]),
            overrides={"g": ([2.0, 4.0], [2.0, 4.0])},
        )
        hi, lo = model.hi_model(), model.lo_model()
        assert hi.of_value("x", 1) == 2.0 and lo.of_value("x", 1) == 1.0
        assert hi.of("g") == 4.0 and lo.of("g") == 2.0

    def test_unit_interval_delay_is_point_unit(self):
        model = unit_interval_delay()
        assert model.is_point()
        assert model.of("n") == unit_delay().of("n")


class TestSpecRoundTrip:
    def test_interval_round_trip(self):
        model = IntervalDelayModel(
            default=([1.0, 2.0], [0.5, 1.5]),
            overrides={"b": ([2.0, 3.0], [2.0, 3.0]), "a": 1.0},
        )
        spec = model.to_spec()
        assert spec["model"] == "interval"
        again = IntervalDelayModel.from_spec(spec)
        assert again.to_spec() == spec
        for name in ("x", "a", "b"):
            assert again.of_bounds(name) == model.of_bounds(name)

    def test_dispatcher_scalar_and_interval(self):
        scalar = delay_model_from_spec({"default": 1.0, "overrides": {}})
        assert isinstance(scalar, DelayModel)
        interval = delay_model_from_spec(unit_interval_delay().to_spec())
        assert isinstance(interval, IntervalDelayModel)

    def test_dispatcher_rejects_unknown_model(self):
        with pytest.raises(TimingError, match="unknown delay model"):
            delay_model_from_spec({"model": "statistical", "default": 1.0})

    def test_scalar_spec_layout_unchanged_by_interval_support(self):
        # old digests stay reachable only if scalar specs never grew a marker
        assert "model" not in unit_delay().to_spec()


class TestRestrictedTo:
    def test_unknown_output_raises_typed_error_scalar(self):
        net = figure4()
        with pytest.raises(NetworkError, match="unknown output"):
            unit_delay().restricted_to(net, outputs=["nope"])

    def test_unknown_output_raises_typed_error_interval(self):
        net = figure4()
        with pytest.raises(NetworkError, match="unknown output"):
            unit_interval_delay().restricted_to(net, outputs=["nope"])

    def test_restriction_keeps_cone_overrides(self):
        net = c17()
        model = IntervalDelayModel(
            default=1.0,
            overrides={"G22": ([2.0, 3.0], [2.0, 3.0]),
                       "not-in-network": 9.0},
        )
        cone = model.restricted_to(net, outputs=["G22"])
        assert "G22" in cone.overrides
        assert "not-in-network" not in cone.overrides


class TestPointScalarGoldens:
    @pytest.mark.parametrize("builder", EXAMPLES, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("method", ["topological", "exact", "approx1", "approx2"])
    def test_point_interval_row_equals_scalar_row(self, builder, method):
        net = builder()
        scalar_row = canonical_row(net, method, unit_delay())
        point_row = canonical_row(
            net, method, unit_interval_delay(), delay_model="interval"
        )
        assert json.dumps(scalar_row, sort_keys=True) == json.dumps(
            point_row, sort_keys=True
        )

    def test_point_report_carries_no_interval_stamp(self):
        report = analyze_required_times(
            figure4(), "topological", delays=unit_interval_delay(),
            delay_model="interval",
        )
        assert "interval" not in report.stats
        assert "interval" not in report.table_row()

    def test_widened_report_carries_interval_stamp(self):
        model = IntervalDelayModel.from_scalar(unit_delay(), widen=0.5)
        report = analyze_required_times(
            figure4(), "approx2", delays=model, output_required=2.0,
            delay_model="interval", engine="sat",
        )
        stamp = report.stats["interval"]
        assert stamp["point"] is False
        assert set(stamp["bounds"]) == set(figure4().inputs)
        assert "best_upper" in stamp
        assert report.table_row()["interval"] == stamp


class TestRequiredTimeBounds:
    def test_point_bounds_collapse_to_scalar(self):
        net = figure6()
        req = required_times(net, unit_delay(), 2.0)
        bounds = required_time_bounds(net, unit_interval_delay(), 2.0)
        for name in net.nodes:
            assert bounds[name] == (req[name], req[name])

    def test_bounds_equal_corner_runs(self):
        net = c17()
        model = IntervalDelayModel.from_scalar(unit_delay(), widen=0.5)
        lo_run = required_times(net, model.hi_model(), 0.0)
        hi_run = required_times(net, model.lo_model(), 0.0)
        bounds = required_time_bounds(net, model, 0.0)
        for name in net.nodes:
            assert bounds[name] == (lo_run[name], hi_run[name])

    def test_missing_output_required_raises(self):
        with pytest.raises(TimingError, match="missing required times"):
            required_time_bounds(figure4(), unit_interval_delay(), {})


class TestCacheKeySensitivity:
    def test_explicit_scalar_keys_like_unset(self):
        net = figure4()
        base = required_key(net, "approx1", unit_delay(), 2.0, {})
        explicit = required_key(
            net, "approx1", unit_delay(), 2.0, {"delay_model": "scalar"}
        )
        assert base.digest == explicit.digest

    def test_interval_option_changes_key(self):
        net = figure4()
        base = required_key(net, "approx1", unit_delay(), 2.0, {})
        interval = required_key(
            net, "approx1", unit_delay(), 2.0, {"delay_model": "interval"}
        )
        assert base.digest != interval.digest

    def test_point_interval_spec_changes_key(self):
        # even a point interval model keys differently: the spec carries
        # the "model" marker, so scalar digests can never alias interval
        net = figure4()
        scalar = required_key(net, "approx1", unit_delay(), 2.0, {})
        point = required_key(net, "approx1", unit_interval_delay(), 2.0, {})
        assert scalar.digest != point.digest


class TestCli:
    @pytest.fixture
    def fig4_blif(self, tmp_path):
        path = tmp_path / "fig4.blif"
        path.write_text(write_blif(figure4()))
        return str(path)

    def test_required_delay_model_interval_parity(self, fig4_blif, capsys):
        assert main(["required", fig4_blif, "--method", "approx1",
                     "--required", "2", "--json"]) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert main(["required", fig4_blif, "--method", "approx1",
                     "--required", "2", "--delay-model", "interval",
                     "--json"]) == 0
        interval = json.loads(capsys.readouterr().out)
        # cpu_time is a measured time, outside the time-free canonical
        # row; everything else of a point interval is byte-identical
        for row in (scalar, interval):
            assert "cpu_time" in row
            row.pop("cpu_time")
        assert json.dumps(scalar) == json.dumps(interval)

    def test_required_widened_spec_emits_bounds(self, fig4_blif, tmp_path, capsys):
        spec = tmp_path / "delays.json"
        model = IntervalDelayModel.from_scalar(unit_delay(), widen=0.5)
        spec.write_text(json.dumps(model.to_spec()))
        assert main(["required", fig4_blif, "--method", "topological",
                     "--required", "2", "--delay-spec", str(spec),
                     "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["interval"]["point"] is False
        assert set(row["interval"]["bounds"]) == {"x1", "x2"}

    def test_required_spec_model_mismatch_rejected(self, fig4_blif, tmp_path, capsys):
        spec = tmp_path / "delays.json"
        spec.write_text(json.dumps(unit_interval_delay().to_spec()))
        assert main(["required", fig4_blif, "--delay-spec", str(spec),
                     "--delay-model", "scalar"]) == 2
        assert "interval" in capsys.readouterr().err

    def test_required_corrupt_spec_rejected(self, fig4_blif, tmp_path, capsys):
        spec = tmp_path / "delays.json"
        spec.write_text('{"model": "bogus"}')
        # bad file *content* takes the generic error path (1), unlike
        # flag-validation conflicts which exit 2
        assert main(["required", fig4_blif, "--delay-spec", str(spec)]) == 1
        assert "unknown delay model" in capsys.readouterr().err


class TestIntervalFuzzFamily:
    def test_case_generation_is_deterministic(self):
        a = generate_interval_case("seed", "tiny", 3)
        b = generate_interval_case("seed", "tiny", 3)
        assert a.case_id == b.case_id
        assert a.widths == b.widths
        assert a.widths[0] == 0.0
        assert list(a.widths) == sorted(a.widths)

    def test_differential_passes_on_seeded_case(self):
        icase = generate_interval_case("unit", "tiny", 0)
        result = run_interval_differential(icase)
        assert result.failures == []
        assert set(result.checks_run) <= set(INTERVAL_CHECKS)
        assert "interval-monotonicity" in result.checks_run

    def test_runner_family_smoke(self, tmp_path):
        from repro.fuzz import FuzzRunner

        report = FuzzRunner(
            seed="unit-interval", budget=2, profile="tiny", family="interval"
        ).run()
        assert report.num_cases == 2
        assert report.num_failures == 0
        assert all(v.family == "interval" for v in report.verdicts)
