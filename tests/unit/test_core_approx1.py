"""Unit tests for approximate approach 1 (Section 4.2)."""

import pytest

from repro.circuits import figure4, parity_tree
from repro.core.approx1 import Approx1Analysis
from repro.core.required_time import INF
from repro.bdd.minimal import is_monotone_increasing
from repro.errors import TimingError
from repro.network import Network


@pytest.fixture(scope="module")
def fig4_result():
    return Approx1Analysis(figure4(), output_required=2.0).run()


class TestPaperExample:
    def test_unique_prime(self, fig4_result):
        # the paper: "The only prime of F(α, β) is α1^x1 α1^x2 α2^x2 β1^x1 β1^x2"
        assert len(fig4_result.primes) == 1
        prime = fig4_result.primes[0]
        assert prime == frozenset(
            {
                "alpha[x1,1]",
                "alpha[x2,1]",
                "alpha[x2,2]",
                "beta[x1,1]",
                "beta[x2,1]",
            }
        )

    def test_beta2_x2_is_relaxed(self, fig4_result):
        # β2^{x2} missing from the prime: x2 (when 0) only needs to arrive
        # by time 1, not 0
        assert "beta[x2,2]" not in fig4_result.primes[0]

    def test_profile_interpretation(self, fig4_result):
        # "x1 has to arrive by time 0, and x2 by time 0 if x2 = 1 but by
        # time 1 if x2 = 0"
        profile = fig4_result.profiles[0]
        assert profile.of("x1") == (0.0, 0.0)
        assert profile.of("x2") == (1.0, 0.0)

    def test_nontrivial(self, fig4_result):
        assert fig4_result.nontrivial

    def test_parameter_count(self, fig4_result):
        # one α and one β for x1, two of each for x2
        assert fig4_result.num_parameters == 6


class TestTheorems:
    def test_theorem1_monotonicity(self):
        analysis = Approx1Analysis(figure4(), output_required=2.0)
        f, _ = analysis.build_f()
        assert is_monotone_increasing(f)

    def test_corollary1_all_ones(self):
        analysis = Approx1Analysis(figure4(), output_required=2.0)
        f, chains = analysis.build_f()
        m = analysis.manager
        all_ones = {n: 1 for names in chains.values() for n in names}
        assert m.restrict(f, all_ones).is_true

    def test_checks_can_be_disabled(self):
        analysis = Approx1Analysis(
            figure4(), output_required=2.0, check_theorems=False
        )
        assert analysis.run().nontrivial


class TestTrivialCases:
    def test_single_and_gate_trivial(self):
        net = Network("and2")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("z", "AND", ["a", "b"])
        net.set_outputs(["z"])
        result = Approx1Analysis(net, output_required=1.0).run()
        assert not result.nontrivial
        assert len(result.primes) == 1
        assert result.primes[0] == frozenset(result.parameter_names)

    def test_parity_tree_trivial(self):
        # XOR logic: every input always matters at the topological time
        net = parity_tree(4)
        result = Approx1Analysis(net, output_required=2.0).run()
        assert not result.nontrivial

    def test_profiles_never_earlier_than_topological(self):
        from repro.core.required_time import topological_input_required_times

        for net, req in [(figure4(), 2.0), (parity_tree(4), 2.0)]:
            baseline = topological_input_required_times(net, output_required=req)
            result = Approx1Analysis(net, output_required=req).run()
            for profile in result.profiles:
                assert profile.is_at_least_as_loose_as(baseline)


class TestProfileStructure:
    def test_infinite_for_unconstrained(self):
        # z = a AND (a delayed): b unused -> b has no parameters at all
        net = Network("partial")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("d", "BUF", ["a"])
        net.add_gate("z", "AND", ["a", "d"])
        net.set_outputs(["z"])
        result = Approx1Analysis(net, output_required=2.0).run()
        for profile in result.profiles:
            assert profile.of("b") == (INF, INF)

    def test_multi_output(self):
        net = figure4()
        net.add_gate("y", "NOT", ["w"])
        net.set_outputs(["z", "y"])
        result = Approx1Analysis(net, output_required={"z": 2.0, "y": 2.0}).run()
        # still a valid monotone analysis with at least one prime
        assert result.primes


class TestPrimeReading:
    """One prime read as a profile: the prefix rule and the t_{p-k+1} time."""

    @pytest.fixture(scope="class")
    def analysis(self):
        analysis = Approx1Analysis(figure4(), output_required=2.0)
        analysis.build_f()
        return analysis

    @staticmethod
    def read(analysis, prime):
        _, chains = analysis.build_f()
        chain_of = {name: key for key, names in chains.items() for name in names}
        return analysis._prime_to_profile(frozenset(prime), chains, chain_of)

    def test_non_prefix_prime_raises(self, analysis):
        # the paper's prime with α_1 of x2 taken out: α_2 without α_1
        prime = {"alpha[x1,1]", "alpha[x2,2]", "beta[x1,1]", "beta[x2,1]"}
        with pytest.raises(TimingError, match="non-prefix prime"):
            self.read(analysis, prime)

    def test_lone_later_parameter_raises(self, analysis):
        with pytest.raises(TimingError, match=r"non-prefix prime on chain"):
            self.read(analysis, {"beta[x2,2]"})

    def test_prefix_of_k_reads_t_p_minus_k_plus_1(self, analysis):
        _, chains = analysis.build_f()
        leaves = analysis.leaves
        assert max(len(chain) for chain in chains.values()) == 2
        for (pi, value), chain in chains.items():
            times = (leaves.for_one if value else leaves.for_zero)[pi]
            p = len(chain)
            for k in range(p + 1):
                profile = self.read(analysis, chain[:k])
                # times are t_1 < ... < t_p; t_{p-k+1} is times[p - k]
                want = INF if k == 0 else times[p - k]
                assert profile.of(pi)[value] == want, (pi, value, k)
                for other in analysis.network.inputs:
                    if other != pi:
                        assert profile.of(other) == (INF, INF)
