"""Tests for the Monte Carlo coding experiments.

Block lengths here are tiny, so none of these runs demonstrates vanishing
error; each scenario instead pins a finite-n quantity that has an exact
analytic value (collision probabilities, atypicality mass, degenerate
instances with zero error) or a direction that must hold (more rate, fewer
errors). Every campaign is seeded, and the expected numbers are frozen.
"""

import numpy as np
import pytest

from actrate.binary import make_binary_example
from actrate.errors import DomainError, SearchSpaceError, UsageError
from actrate.model import ActionPolicy, AuxiliaryChoice, ProblemSpec
from actrate.sim import (
    SimConfig,
    is_jointly_typical,
    run_campaign,
)
from actrate.sim import _splitmix64, _U64

H2_01 = 0.4689955935892812  # binary entropy of 0.1


def copy_channel_spec(state_joint=None):
    """Y = A exactly, all actions free."""
    channel = np.zeros((2, 2, 2))
    channel[0, :, 0] = 1.0
    channel[1, :, 1] = 1.0
    return ProblemSpec(
        state_joint=np.array([[0.5], [0.5]]) if state_joint is None else state_joint,
        channel=channel,
        cost=np.zeros((2, 2, 2)),
    )


def echo_state_aux():
    """|V| = 1, a = s: the action echoes the state."""
    return AuxiliaryChoice(
        policy=ActionPolicy(np.array([[0], [1]])), v_marginal=np.array([1.0])
    )


def idle_aux():
    """|V| = 1, a = 0: no action at all."""
    return AuxiliaryChoice(
        policy=ActionPolicy(np.array([[0], [0]])), v_marginal=np.array([1.0])
    )


def xor_mask_aux():
    """a = s xor v with V uniform and state-independent: Y = V xor noise."""
    return AuxiliaryChoice(
        policy=ActionPolicy(np.array([[0, 1], [1, 0]])),
        v_given_s=np.full((2, 2), 0.5),
    )


class TestJointTypicality:
    def test_exact_frequencies_pass_any_epsilon(self):
        joint = np.array([[0.25, 0.25], [0.25, 0.25]])
        x = np.array([0, 0, 1, 1])
        y = np.array([0, 1, 0, 1])
        assert is_jointly_typical([x, y], joint, 1e-9)

    def test_zero_probability_tuple_disqualifies(self):
        """A single occurrence of a zero-mass tuple fails, no matter how
        loose epsilon is."""
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        x = np.array([0, 1, 0, 1])
        y = np.array([0, 1, 0, 0])  # (0 -> 0 fine, but (1, 0)? no: x=1,y=0
        assert not is_jointly_typical([x, y], joint, 100.0)

    def test_window_is_relative_to_cell_mass(self):
        """The slack is epsilon * p per tuple: a constant sequence needs
        its one occupied cell to satisfy 1 - p <= epsilon * p, while the
        empty cells are always fine (0 is within any [p - ep, p + ep] once
        epsilon >= 1)."""
        joint = np.array([[0.5, 0.1], [0.2, 0.2]])
        x = np.array([0] * 6)
        heavy = np.array([0] * 6)  # occupies the p = 0.5 cell
        light = np.array([1] * 6)  # occupies the p = 0.1 cell
        assert is_jointly_typical([x, heavy], joint, 1.0)
        assert not is_jointly_typical([x, heavy], joint, 0.5)
        assert not is_jointly_typical([x, light], joint, 1.0)
        assert is_jointly_typical([x, light], joint, 9.0)

    def test_single_axis(self):
        p = np.array([0.5, 0.5])
        assert is_jointly_typical([np.array([0, 1, 0, 1])], p, 0.01)
        assert not is_jointly_typical([np.array([0, 0, 0, 1])], p, 0.25)

    def test_usage_errors(self):
        joint = np.full((2, 2), 0.25)
        with pytest.raises(UsageError):
            is_jointly_typical([np.array([0, 1])], joint, 0.1)
        with pytest.raises(UsageError):
            is_jointly_typical([np.array([0, 1]), np.array([0])], joint, 0.1)


class TestSimConfigValidation:
    def test_mode_names(self):
        with pytest.raises(UsageError):
            SimConfig(n=8, trials=10, seed=0, mode="bogus", rate=1.0)

    def test_positive_sizes(self):
        with pytest.raises(UsageError):
            SimConfig(n=0, trials=10, seed=0, rate=1.0, codebook_rate_v=0.1)
        with pytest.raises(UsageError):
            SimConfig(n=8, trials=0, seed=0, rate=1.0, codebook_rate_v=0.1)

    def test_epsilon_must_be_positive(self):
        # epsilon >= 1 is legitimate (accept anything the support allows),
        # zero or negative is not.
        with pytest.raises(DomainError):
            SimConfig(n=8, trials=10, seed=0, rate=1.0, codebook_rate_v=0.1,
                      epsilon=0.0)
        SimConfig(n=8, trials=10, seed=0, rate=1.0, codebook_rate_v=0.1,
                  epsilon=1.5)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_epsilon_must_be_finite(self, epsilon):
        """NaN would fail every typicality test and inf pass every one,
        giving all-decoder-none or all-decoder-ambiguous reports."""
        with pytest.raises(DomainError, match="epsilon"):
            SimConfig(n=8, trials=10, seed=0, rate=1.0, codebook_rate_v=0.1,
                      epsilon=epsilon)

    def test_mode_specific_requirements(self):
        with pytest.raises(UsageError):
            SimConfig(n=8, trials=10, seed=0, mode="binning",
                      codebook_rate_v=0.1)
        with pytest.raises(UsageError):
            SimConfig(n=8, trials=10, seed=0, mode="timeshare")
        with pytest.raises(UsageError):
            SimConfig(n=8, trials=10, seed=0, mode="covering")

    def test_campaign_guards(self):
        spec = make_binary_example(0.1)
        with pytest.raises(SearchSpaceError):
            run_campaign(spec, idle_aux(),
                         SimConfig(n=25, trials=1, seed=0, mode="timeshare",
                                   rate=1.0))
        erased = make_binary_example(0.1, pe=0.3)
        with pytest.raises(UsageError):
            run_campaign(erased, echo_state_aux(),
                         SimConfig(n=8, trials=1, seed=0, mode="covering",
                                   codebook_rate_v=0.2))


class TestBinPartition:
    def test_splitmix_bins_are_balanced(self):
        """The hash partition of the n = 10 sequence space into 16 bins
        stays within five standard deviations of uniform for every bin."""
        n_bins = 16
        idx = np.arange(1 << 10, dtype=_U64)
        sigma = np.sqrt((1 << 10) * (1 / n_bins) * (1 - 1 / n_bins))
        for salt in (0, 1, 123456789, 2**63 + 11, 2**64 - 1):
            bins = _splitmix64(idx ^ _U64(salt)) % _U64(n_bins)
            counts = np.bincount(bins.astype(np.int64), minlength=n_bins)
            assert np.all(np.abs(counts - (1 << 10) / n_bins) <= 5 * sigma)


class TestDeterminism:
    def test_identical_seeds_reproduce_byte_identical_reports(self):
        spec = make_binary_example(0.1)
        cfg = SimConfig(n=10, trials=40, seed=123, mode="timeshare", rate=0.8,
                        epsilon=0.5)
        a = run_campaign(spec, idle_aux(), cfg)
        b = run_campaign(spec, idle_aux(), cfg)
        assert a.to_json() == b.to_json()

    def test_report_echoes_config(self):
        spec = copy_channel_spec()
        rep = run_campaign(
            spec,
            AuxiliaryChoice(policy=ActionPolicy(np.array([[0, 1], [0, 1]])),
                            v_marginal=np.array([0.5, 0.5])),
            SimConfig(n=8, trials=1, seed=9, mode="timeshare", rate=1.0,
                      epsilon=0.5),
        )
        assert rep.seed == 9
        assert rep.trials == 1
        assert rep.n == 8
        # y = a = v: the decoder knows the codeword, so one trial, no error
        assert rep.error_rate == 0.0


class TestBinningThresholds:
    """Random binning at rates above vs below the conditional entropy."""

    def run(self, rate):
        return run_campaign(
            make_binary_example(0.1),
            xor_mask_aux(),
            SimConfig(n=14, trials=500, seed=11, mode="binning", rate=rate,
                      codebook_rate_v=0.25, epsilon=0.5),
        )

    def test_rate_above_entropy_beats_rate_below(self):
        hi = self.run(H2_01 + 0.15)
        lo = self.run(H2_01 - 0.10)
        np.testing.assert_allclose(hi.error_rate, 0.93, atol=1e-12)
        np.testing.assert_allclose(lo.error_rate, 1.0, atol=1e-12)
        assert hi.error_rate < lo.error_rate

    def test_cost_concentrates_on_analytic_value(self):
        """Half the positions flip (V uniform), so E[cost] = 1/2."""
        rep = self.run(H2_01 + 0.15)
        np.testing.assert_allclose(rep.empirical_cost, 0.5021, atol=1e-4)
        np.testing.assert_allclose(rep.empirical_cost_se, 0.0036, atol=1e-4)
        assert abs(rep.empirical_cost - 0.5) <= 3 * rep.empirical_cost_se

    def test_breakdown_accounts_for_every_error(self):
        rep = self.run(H2_01 + 0.15)
        assert sum(rep.breakdown.values()) == round(rep.error_rate * rep.trials)


class TestCollisionRegime:
    def test_uniform_output_alone_in_its_bin(self):
        """Y = A = S uniform: every sequence is typical at epsilon = 1, so
        the only error mode is a bin collision. With 2^10 sequences in
        2^10 bins the collision probability is 1 - (1 - 2^-10)^(2^10 - 1),
        about 0.632."""
        rep = run_campaign(
            copy_channel_spec(),
            echo_state_aux(),
            SimConfig(n=10, trials=200, seed=3, mode="timeshare", rate=1.0,
                      epsilon=1.0),
        )
        np.testing.assert_allclose(rep.error_rate, 0.615, atol=1e-12)
        analytic = 1.0 - (1.0 - 1.0 / 1024) ** 1023
        se = np.sqrt(analytic * (1 - analytic) / 200)
        assert abs(rep.error_rate - analytic) <= 3 * se
        assert rep.breakdown["decoder-ambiguous"] == 123
        assert rep.breakdown["decoder-none"] == 0

    def test_collision_rate_scales_with_bin_count(self):
        """Idle action makes Y uniform; more bins, fewer collisions, and
        both error rates sit inside a 3-sigma window of the exact
        collision probability."""
        spec = make_binary_example(0.1)
        errs = {}
        for rate, expect in ((1.1, 0.2325), (0.8, 0.98)):
            rep = run_campaign(
                spec, idle_aux(),
                SimConfig(n=14, trials=400, seed=5, mode="timeshare",
                          rate=rate, epsilon=1.0),
            )
            np.testing.assert_allclose(rep.error_rate, expect, atol=1e-12)
            analytic = 1.0 - (1.0 - 1.0 / rep.n_bins) ** (2**14 - 1)
            se = np.sqrt(max(analytic * (1 - analytic), 1e-12) / 400)
            assert abs(rep.error_rate - analytic) <= 3 * se
            errs[rate] = rep.error_rate
        assert errs[1.1] < errs[0.8]

    def test_perfect_side_information_kills_all_errors(self):
        """Z = S and Y = A = S: the decoder's typicality filter leaves only
        the true sequence in any bin, even at 2 bins total."""
        spec = copy_channel_spec(state_joint=np.diag([0.5, 0.5]))
        rep = run_campaign(
            spec, echo_state_aux(),
            SimConfig(n=10, trials=200, seed=3, mode="timeshare", rate=0.1,
                      epsilon=1.0),
        )
        assert rep.error_rate == 0.0


class TestTimeshareThresholds:
    def test_noisy_floor_rate_threshold(self):
        """a = s turns the output into pure channel noise; binning that
        noise works above H2(p) and degrades below it."""
        spec = make_binary_example(0.1)
        errs = {}
        for rate in (H2_01 + 0.15, H2_01 - 0.10):
            rep = run_campaign(
                spec, echo_state_aux(),
                SimConfig(n=14, trials=400, seed=5, mode="timeshare",
                          rate=rate, epsilon=0.5),
            )
            errs[rate] = rep.error_rate
        np.testing.assert_allclose(errs[H2_01 + 0.15], 0.4825, atol=1e-12)
        np.testing.assert_allclose(errs[H2_01 - 0.10], 0.88, atol=1e-12)

    def test_error_estimate_stable_under_trial_doubling(self):
        spec = make_binary_example(0.1)
        reps = [
            run_campaign(spec, idle_aux(),
                         SimConfig(n=14, trials=t, seed=s, mode="timeshare",
                                   rate=1.05, epsilon=1.0))
            for t, s in ((200, 21), (400, 22))
        ]
        p1, p2 = reps[0].error_rate, reps[1].error_rate
        np.testing.assert_allclose([p1, p2], [0.415, 0.3875], atol=1e-12)
        pooled = (200 * p1 + 400 * p2) / 600
        gap_se = np.sqrt(pooled * (1 - pooled) * (1 / 200 + 1 / 400))
        assert abs(p1 - p2) <= 1.96 * gap_se


class TestSweepMonotonicity:
    def test_binning_error_falls_as_rate_grows(self):
        spec = make_binary_example(0.1)
        errs = []
        for rate in (0.3, 0.45, 0.6, 0.75, 0.9):
            rep = run_campaign(
                spec, xor_mask_aux(),
                SimConfig(n=14, trials=300, seed=31, mode="binning",
                          rate=rate, codebook_rate_v=0.25, epsilon=0.5),
            )
            errs.append(rep.error_rate)
        np.testing.assert_allclose(
            errs, [1.0, 1.0, 0.9566666666666667, 0.8833333333333333,
                   0.8433333333333334], atol=1e-12)
        inversions = sum(b > a for a, b in zip(errs, errs[1:]))
        assert inversions <= 1


class TestCovering:
    def test_trivial_codebook_error_is_pure_atypicality(self):
        """|V| = 1: the description is just y's rank among typical
        sequences, so errors are exactly the atypical outputs. At n = 10,
        eps = 0.5 the typical set is {one flip}, mass 10 * 0.1 * 0.9^9."""
        spec = make_binary_example(0.1)
        rep = run_campaign(
            spec, echo_state_aux(),
            SimConfig(n=10, trials=400, seed=7, mode="covering",
                      codebook_rate_v=0.1, epsilon=0.5),
        )
        np.testing.assert_allclose(rep.error_rate, 0.665, atol=1e-12)
        atypical = 1.0 - 10 * 0.1 * 0.9**9
        se = np.sqrt(atypical * (1 - atypical) / 400)
        assert abs(rep.error_rate - atypical) <= 3 * se
        assert rep.breakdown["decoder-ambiguous"] == 0
        assert rep.vhat_mismatch_count == 0
        assert rep.rank_capacity == 1024

    def test_mismatched_codeword_still_decodes(self):
        """The description codeword can differ from the encoder's pick and
        the reconstruction is still correct; the report must show a large
        mismatch count with every one of those trials succeeding."""
        spec = make_binary_example(0.1)
        rep = run_campaign(
            spec, xor_mask_aux(),
            SimConfig(n=14, trials=500, seed=11, mode="covering",
                      codebook_rate_v=0.6, epsilon=0.5),
        )
        assert rep.vhat_mismatch_count == 353
        assert rep.vhat_mismatch_decoded_ok == 353
        assert rep.rank_capacity == 16384

    def test_codebook_rate_controls_coverage(self):
        """With V = S, finding any usable description codeword is the whole
        game; a bigger codebook must cut the error rate."""
        spec = make_binary_example(0.1)
        aux = AuxiliaryChoice(
            policy=ActionPolicy(np.array([[0, 0], [0, 0]])), v_given_s=np.eye(2)
        )
        out = {}
        for vr in (0.7, 0.3):
            rep = run_campaign(
                spec, aux,
                SimConfig(n=14, trials=400, seed=7, mode="covering",
                          codebook_rate_v=vr, epsilon=0.5),
            )
            assert rep.vhat_mismatch_count == rep.vhat_mismatch_decoded_ok
            out[vr] = rep.error_rate
        np.testing.assert_allclose(out[0.7], 0.22, atol=1e-12)
        np.testing.assert_allclose(out[0.3], 0.93, atol=1e-12)

    def test_effective_rate_sums_codebook_and_rank(self):
        spec = make_binary_example(0.1)
        rep = run_campaign(
            spec, echo_state_aux(),
            SimConfig(n=10, trials=5, seed=7, mode="covering",
                      codebook_rate_v=0.1, epsilon=0.5),
        )
        expect = (np.log2(rep.codebook_size) + np.log2(rep.rank_capacity)) / 10
        np.testing.assert_allclose(rep.rate, expect, atol=1e-12)


class TestReportSerialization:
    def test_json_is_stable_and_sorted(self):
        spec = make_binary_example(0.1)
        rep = run_campaign(
            spec, idle_aux(),
            SimConfig(n=10, trials=20, seed=1, mode="timeshare", rate=0.9,
                      epsilon=0.75),
        )
        text = rep.to_json()
        assert text == rep.to_json()
        import json

        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert doc["mode"] == "timeshare"
        assert doc["error_rate"] == rep.error_rate
