"""Unit tests for the delay model's [lo, hi] bounds (docs/DELAY_MODELS.md)."""

import json
import math

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
from repro.fuzz.interval import interval_layout
from repro.network import write_blif
from repro.timing import (
    DelayModel,
    required_time_bounds,
    required_times,
    unit_delay,
)

#: the five example circuits the degeneracy goldens run on
EXAMPLES = (figure4, figure6, figure6_extended, c17, carry_skip_block)

#: digests recorded before the interval model folded into DelayModel,
#: under the object kernel (which keys with no ``backend`` entry, so the
#: pins hold whatever kernel the suite runs on); a change that re-keys
#: any of them orphans existing cache entries
PINNED_DIGESTS = {
    "c17-exact-unit": "94d7a23d22c5b7d3d9461a393645fe282c61467b01b82da8cf35494538e23a75",
    "c17-exact-risefall": "f470e0f9382cd139317a04f6eb928396ebd6ad8e840de08ce64fb9a76d371517",
    "c17-approx2-widened": "cc8169bcff80b3bba5e4ac6f81a80851ead9eacaab2272878b2712f3a2edbd0d",
}


def canonical_row(net, method, delays, required=0.0, **options):
    baseline = topological_input_required_times(net, delays, required)
    report = analyze_required_times(
        net, method, delays=delays, output_required=required, **options
    )
    return CachedRequiredResult.from_report(report, baseline).row()


def point_model(model):
    """``model`` read back from its interval-layout spec (lo == hi)."""
    return DelayModel.from_spec(interval_layout(model.to_spec()))


class TestIntervalModel:
    def test_point_model_matches_scalar_projection(self):
        model = point_model(DelayModel(default=2.0, overrides={"g": (3.0, 1.0)}))
        assert model.is_point()
        assert model.of("x") == 2.0
        assert model.of_value("g", 1) == 3.0
        assert model.of_value("g", 0) == 1.0
        assert model.of_bounds("g") == (3.0, 3.0)

    def test_widen_clamps_lo_at_zero(self):
        model = unit_delay().widened(2.0)
        lo, hi = model.of_bounds("anything")
        assert lo == 0.0 and hi == 3.0

    def test_negative_widen_rejected(self):
        with pytest.raises(TimingError):
            unit_delay().widened(-0.5)

    def test_lo_above_hi_rejected(self):
        with pytest.raises(TimingError):
            DelayModel(default=([2.0, 1.0], [1.0, 1.0]))

    def test_corner_projections(self):
        model = DelayModel(
            default=([1.0, 2.0], [0.5, 1.5]),
            overrides={"g": ([2.0, 4.0], [2.0, 4.0])},
        )
        hi, lo = model.hi_model(), model.lo_model()
        assert hi.of_value("x", 1) == 2.0 and lo.of_value("x", 1) == 1.0
        assert hi.of("g") == 4.0 and lo.of("g") == 2.0
        assert hi.is_point() and lo.is_point() and not model.is_point()

    def test_unit_delay_is_point(self):
        model = unit_delay()
        assert model.is_point()
        assert model.of_bounds("n") == (1.0, 1.0)


class TestSpecRoundTrip:
    def test_interval_round_trip(self):
        model = DelayModel(
            default=([1.0, 2.0], [0.5, 1.5]),
            overrides={"b": ([2.0, 3.0], [2.0, 3.0]), "a": 1.0},
        )
        spec = model.to_spec()
        assert spec["model"] == "interval"
        again = DelayModel.from_spec(spec)
        assert again.to_spec() == spec
        for name in ("x", "a", "b"):
            assert again.of_bounds(name) == model.of_bounds(name)

    def test_dispatcher_scalar_and_interval(self):
        # both layouts read into the one model; a point reads as a scalar
        scalar = DelayModel.from_spec({"default": 1.0, "overrides": {}})
        interval = DelayModel.from_spec(unit_delay().widened(0.5).to_spec())
        point = DelayModel.from_spec(interval_layout(unit_delay().to_spec()))
        assert scalar.to_spec() == point.to_spec() == unit_delay().to_spec()
        assert not interval.is_point()
        assert interval.of_bounds("g") == (0.5, 1.5)

    def test_dispatcher_rejects_unknown_model(self):
        with pytest.raises(TimingError, match="unknown delay model"):
            DelayModel.from_spec({"model": "statistical", "default": 1.0})

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
            unit_delay().widened(0.5).restricted_to(net, outputs=["nope"])

    def test_restriction_keeps_cone_overrides(self):
        net = c17()
        model = DelayModel(
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
        point_row = canonical_row(net, method, point_model(unit_delay()))
        assert json.dumps(scalar_row, sort_keys=True) == json.dumps(
            point_row, sort_keys=True
        )

    def test_point_report_carries_no_interval_stamp(self):
        report = analyze_required_times(
            figure4(), "topological", delays=point_model(unit_delay())
        )
        assert "interval" not in report.stats
        assert "interval" not in report.table_row()

    def test_widened_report_carries_interval_stamp(self):
        model = unit_delay().widened(0.5)
        report = analyze_required_times(
            figure4(), "approx2", delays=model, output_required=2.0,
            engine="sat",
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
        bounds = required_time_bounds(net, point_model(unit_delay()), 2.0)
        for name in net.nodes:
            assert bounds[name] == (req[name], req[name])

    def test_bounds_equal_corner_runs(self):
        net = c17()
        model = unit_delay().widened(0.5)
        lo_run = required_times(net, model.hi_model(), 0.0)
        hi_run = required_times(net, model.lo_model(), 0.0)
        bounds = required_time_bounds(net, model, 0.0)
        for name in net.nodes:
            assert bounds[name] == (lo_run[name], hi_run[name])

    def test_missing_output_required_raises(self):
        with pytest.raises(TimingError, match="missing required times"):
            required_time_bounds(figure4(), unit_delay(), {})


class TestCacheKeySensitivity:
    def test_explicit_scalar_keys_like_unset(self):
        net = figure4()
        base = required_key(net, "approx1", None, 2.0, {})
        explicit = required_key(net, "approx1", unit_delay(), 2.0, {})
        assert base.digest == explicit.digest

    def test_point_interval_spec_keys_like_scalar(self):
        net = c17()
        scalar = DelayModel(default=1.0, overrides={"G22": (2.0, 1.0)})
        assert (
            required_key(net, "exact", point_model(scalar), 0.0, {}).digest
            == required_key(net, "exact", scalar, 0.0, {}).digest
        )
        widened = required_key(net, "exact", scalar.widened(0.5), 0.0, {})
        assert widened.digest != required_key(net, "exact", scalar, 0.0, {}).digest

    def test_digests_recorded_before_the_merge_repeat(self):
        net = c17()
        risefall = DelayModel(
            default=1.0, overrides={"G22": (2.0, 1.0), "G16": (1.5, 3.0)}
        )
        widened = unit_delay().widened(0.5)
        keys = {
            "c17-exact-unit": required_key(
                net, "exact", unit_delay(), 0.0, {"backend": "object"}
            ),
            "c17-exact-risefall": required_key(
                net, "exact", risefall, 0.0, {"backend": "object"}
            ),
            "c17-approx2-widened": required_key(
                net, "approx2", widened, 0.0, {"engine": "sat", "backend": "object"}
            ),
        }
        assert {name: key.digest for name, key in keys.items()} == PINNED_DIGESTS

    def test_widened_override_outside_network_stamps_like_its_key(self, tmp_path):
        from repro.cache.layer import cached_analyze_required_times
        from repro.cache.store import ResultCache

        # the key hashes the model restricted to the network, so a bound
        # on a node the network lacks must not stamp the shared row
        net = c17()
        model = DelayModel(default=1.0, overrides={"nope": ([0.5, 1.5], 1.0)})
        assert required_key(net, "exact", model).digest == required_key(
            net, "exact", None
        ).digest
        cache = ResultCache(str(tmp_path))
        cold, hit = cached_analyze_required_times(net, "exact", cache, model)
        assert not hit and "interval" not in cold.table_row()
        warm, hit = cached_analyze_required_times(net, "exact", cache, None)
        assert hit and "interval" not in warm.table_row()


class TestNonFiniteTimes:
    @pytest.mark.parametrize(
        "delay",
        [math.nan, math.inf, -math.inf, True, (1.0, math.nan), ([1.0, math.inf], 1.0),
         10**400],
        ids=["nan", "inf", "-inf", "bool", "nan-fall", "inf-hi", "huge-int"],
    )
    def test_delay_model_refuses_non_finite_delays(self, delay):
        with pytest.raises(TimingError):
            DelayModel(default=delay)
        with pytest.raises(TimingError):
            DelayModel.from_spec({"default": 1.0, "overrides": {"z": delay}})
        with pytest.raises(TimingError):
            unit_delay().with_override("z", delay)

    @pytest.mark.parametrize("method", ["topological", "exact", "approx1", "approx2"])
    def test_nan_output_required_raises(self, method):
        with pytest.raises(TimingError, match="NaN"):
            analyze_required_times(figure4(), method, output_required=math.nan)
        with pytest.raises(TimingError, match="NaN"):
            analyze_required_times(
                figure4(), method, output_required={"z": math.nan}
            )


class TestCli:
    @pytest.fixture
    def fig4_blif(self, tmp_path):
        path = tmp_path / "fig4.blif"
        path.write_text(write_blif(figure4()))
        return str(path)

    def test_required_point_spec_parity(self, fig4_blif, tmp_path, capsys):
        assert main(["required", fig4_blif, "--method", "approx1",
                     "--required", "2", "--json"]) == 0
        scalar = json.loads(capsys.readouterr().out)
        spec = tmp_path / "delays.json"
        spec.write_text(json.dumps(interval_layout(unit_delay().to_spec())))
        assert main(["required", fig4_blif, "--method", "approx1",
                     "--required", "2", "--delay-spec", str(spec),
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
        spec.write_text(json.dumps(unit_delay().widened(0.5).to_spec()))
        assert main(["required", fig4_blif, "--method", "topological",
                     "--required", "2", "--delay-spec", str(spec),
                     "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["interval"]["point"] is False
        assert set(row["interval"]["bounds"]) == {"x1", "x2"}

    def test_required_corrupt_spec_rejected(self, fig4_blif, tmp_path, capsys):
        spec = tmp_path / "delays.json"
        spec.write_text('{"model": "bogus"}')
        # a bad --delay-spec is refused before any analysis, like a bad flag
        assert main(["required", fig4_blif, "--delay-spec", str(spec)]) == 2
        assert "unknown delay model" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"default": NaN}', '{"default": Infinity}',
                                      '{"default": 1, "overrides": {"z": [1, NaN]}}',
                                      # an integer past the float range
                                      pytest.param('{"default": 1%s}' % ("0" * 400),
                                                   id="huge-int")])
    def test_required_non_finite_spec_exits_2(self, fig4_blif, tmp_path, capsys, text):
        spec = tmp_path / "delays.json"
        spec.write_text(text)
        assert main(["required", fig4_blif, "--method", "approx1",
                     "--required", "2", "--delay-spec", str(spec)]) == 2
        assert "finite" in capsys.readouterr().err


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
        assert "interval-point-spec" in result.checks_run

    def test_runner_family_smoke(self, tmp_path):
        from repro.fuzz import FuzzRunner

        report = FuzzRunner(
            seed="unit-interval", budget=2, profile="tiny", family="interval"
        ).run()
        assert report.num_cases == 2
        assert report.num_failures == 0
        assert all(v.family == "interval" for v in report.verdicts)
