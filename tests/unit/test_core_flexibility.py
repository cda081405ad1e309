"""Unit tests for Section 5 subcircuit timing flexibility."""

import math

import pytest

from repro.circuits import figure4, figure6, figure6_extended
from repro.core.flexibility import (
    arrival_flexibility,
    coupled_flexibility,
    required_flexibility,
    subcircuit_timing,
)
from repro.core.required_time import INF
from repro.core.trueslack import true_slack
from repro.errors import ResourceLimitError
from repro.timing import arrival_times


class TestArrivalFlexibilityPaperTable:
    def test_figure6_folded_table(self):
        # The paper's Section 5.1 table:
        #   u1u2=00 -> {(1,2)}; 01 -> {(1,2),(2,1)}; 10 -> {(inf,inf)};
        #   11 -> {(2,1)}
        flex = arrival_flexibility(figure6(), ["u1", "u2"])
        assert flex.table[(0, 0)] == [(1.0, 2.0)]
        assert sorted(flex.table[(0, 1)]) == [(1.0, 2.0), (2.0, 1.0)]
        assert flex.table[(1, 1)] == [(2.0, 1.0)]
        assert flex.is_dont_care((1, 0))
        assert not flex.is_dont_care((0, 1))

    def test_figure6_inside_bigger_network(self):
        flex = arrival_flexibility(figure6_extended(), ["u1", "u2"])
        assert flex.table[(0, 0)] == [(1.0, 2.0)]
        assert flex.is_dont_care((1, 0))

    def test_rows_sorted(self):
        flex = arrival_flexibility(figure6(), ["u1", "u2"])
        vectors = [v for v, _ in flex.rows()]
        assert vectors == sorted(vectors)


class TestArrivalFlexibilityGeneral:
    def test_input_arrival_offsets_shift_table(self):
        flex = arrival_flexibility(
            figure6(), ["u1", "u2"], input_arrivals={"x1": 1.0}
        )
        # delaying x1 pushes the early u1 stabilization (which relied on
        # x1=0 being a controlling value) later
        assert flex.table[(0, 0)] == [(2.0, 2.0)]

    def test_single_signal_boundary(self):
        flex = arrival_flexibility(figure6(), ["a"])
        # a = x2 & x3 stabilizes to 0 by 1 when either input is 0 at time
        # 0; to 1 only by 1 as well (both inputs at 0) -> single time
        assert flex.table[(0,)] == [(1.0,)]
        assert flex.table[(1,)] == [(1.0,)]

    def test_boundary_budget(self):
        with pytest.raises(ResourceLimitError):
            arrival_flexibility(figure6(), ["u1", "u2"], max_boundary=1)

    def test_dominated_tuples_dropped(self):
        # footnote 11: strictly-earlier tuples are dropped; every kept
        # tuple must be maximal
        flex = arrival_flexibility(figure6(), ["u1", "u2"])
        for _, tuples in flex.rows():
            for t in tuples:
                assert not any(
                    o != t and all(a <= b for a, b in zip(t, o)) for o in tuples
                )


class TestRequiredFlexibility:
    def test_figure4_boundary_w(self):
        # cut at w: N_FO computes z = w & x2 with unit delay; required time
        # 2 at z puts the boundary requirement at w
        flex = required_flexibility(figure4(), ["w"], output_required=2.0)
        # when w = 1: z must rise; w must be stable by 1 (2 - d_z)
        profiles_1 = flex.per_vector[(1,)]
        assert profiles_1, "no profile for w=1"
        loosest = {p.of("w")[1] for p in profiles_1}
        assert 1.0 in loosest
        # when w = 0: x2=0 vectors exist where w's stability is irrelevant,
        # but for x2=1 the requirement must hold for all X -> w needed by 1
        profiles_0 = flex.per_vector[(0,)]
        assert profiles_0

    def test_profiles_only_constrain_boundary(self):
        flex = required_flexibility(figure4(), ["w"], output_required=2.0)
        for _, profiles in flex.rows():
            for p in profiles:
                assert set(p.as_dict()) == {"w"}

    def test_boundary_budget(self):
        with pytest.raises(ResourceLimitError):
            required_flexibility(
                figure4(), ["w"], output_required=2.0, max_boundary=0
            )


class TestSubcircuitTiming:
    def test_combined_facade(self):
        # subcircuit of figure6_extended: the consumer gate y with inputs
        # (u1, u2); arrival side analyzed on N_FI, required side trivial
        net = figure6_extended()
        spec = subcircuit_timing(
            net,
            sub_inputs=["u1", "u2"],
            sub_outputs=["y"],
            output_required=3.0,
        )
        assert spec.arrivals.table[(0, 0)] == [(1.0, 2.0)]
        assert spec.required.boundary == ["y"]
        # y = 1 requires stability by 3 (it *is* the output)
        profiles = spec.required.per_vector[(1,)]
        assert any(p.of("y")[1] == 3.0 for p in profiles)


def _topological_delay(net, input_arrivals) -> float:
    arrivals = arrival_times(net, None, input_arrivals)
    return max(arrivals[o] for o in net.outputs)


#: figure 6 cut at gate a: x1 is a known-arrival input of N_FO
KNOWN_ARRIVAL_ENTRY_POINTS = {
    "required_flexibility": lambda net, ia: required_flexibility(
        net, ["a"], input_arrivals=ia, output_required=2.0
    ),
    "coupled_flexibility": lambda net, ia: coupled_flexibility(
        net, ["x2", "x3"], ["a"], input_arrivals=ia, output_required=2.0
    ),
    "subcircuit_timing": lambda net, ia: subcircuit_timing(
        net, ["x2", "x3"], ["a"], input_arrivals=ia, output_required=2.0
    ),
    # a feasible requirement, as the CLI's slack command picks it
    "true_slack": lambda net, ia: true_slack(
        net, "a", input_arrivals=ia, output_required=_topological_delay(net, ia)
    ),
}


@pytest.mark.parametrize("entry", sorted(KNOWN_ARRIVAL_ENTRY_POINTS))
def test_arrival_pair_matches_its_scalar(entry):
    run = KNOWN_ARRIVAL_ENTRY_POINTS[entry]
    assert run(figure6(), {"x1": (1.0, 1.0)}) == run(figure6(), {"x1": 1.0})

