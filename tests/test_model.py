"""Tests for problem specs, strategy objects, joint assembly, and JSON I/O."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrate.binary import (
    binary_structured_aux,
    binary_timeshare_aux,
    make_binary_example,
)
from actrate.cli import main
from actrate.errors import (
    InvalidDistributionError,
    SpecFormatError,
    UsageError,
)
from actrate.kernel import (
    conditional_mutual_information,
    mutual_information,
)
from actrate.model import (
    ActionPolicy,
    AuxiliaryChoice,
    ProblemSpec,
    assemble_joint,
    aux_from_json,
    aux_to_json,
    causal_lossy_rate,
    causal_rate,
    expected_cost,
    expected_distortion,
    expected_distortion_mapped,
    lossy_bound_si_both,
    lossy_bound_si_decoder,
    lossy_bound_si_decoder_vaware,
    noncausal_rate,
    reduced_cost,
    spec_from_json,
    spec_to_json,
)


def random_spec(rng, s=2, z=2, a=2, y=2, distortion=False):
    """A random valid problem instance with strictly positive masses."""
    sj = rng.random((s, z)) + 0.1
    sj /= sj.sum()
    ch = rng.random((a, s, y)) + 0.1
    ch /= ch.sum(axis=-1, keepdims=True)
    cost = rng.random((a, s, y))
    dist = None
    if distortion:
        dist = rng.random((y, y))
        np.fill_diagonal(dist, 0.0)
    return ProblemSpec(state_joint=sj, channel=ch, cost=cost, distortion=dist)


def random_aux(rng, spec, v=2, causal=False):
    policy = ActionPolicy(rng.integers(0, spec.a_size, size=(spec.s_size, v)))
    if causal:
        pv = rng.random(v) + 0.1
        return AuxiliaryChoice(policy=policy, v_marginal=pv / pv.sum())
    pv_s = rng.random((spec.s_size, v)) + 0.1
    pv_s /= pv_s.sum(axis=-1, keepdims=True)
    return AuxiliaryChoice(policy=policy, v_given_s=pv_s)


def identity_recon(spec, v_size):
    """p(yhat | y, v, z) that copies y, shape (y, v, z, yhat)."""
    y = spec.y_size
    recon = np.zeros((y, v_size, spec.z_size, spec.yhat_size))
    for i in range(y):
        recon[i, :, :, i] = 1.0
    return recon


class TestProblemSpecValidation:
    def test_rejects_wrong_ranks(self):
        with pytest.raises(UsageError):
            ProblemSpec(
                state_joint=np.array([0.5, 0.5]),
                channel=np.full((2, 2, 2), 0.5),
                cost=np.zeros((2, 2, 2)),
            )
        with pytest.raises(UsageError):
            ProblemSpec(
                state_joint=np.array([[0.5], [0.5]]),
                channel=np.full((2, 2), 0.5),
                cost=np.zeros((2, 2)),
            )

    def test_rejects_shape_mismatches(self):
        with pytest.raises(UsageError):
            ProblemSpec(
                state_joint=np.array([[0.5], [0.5]]),
                channel=np.full((2, 2, 2), 0.5),
                cost=np.zeros((2, 2, 3)),
            )
        with pytest.raises(UsageError):
            ProblemSpec(
                state_joint=np.array([[1.0 / 3] * 3]).T.reshape(3, 1),
                channel=np.full((2, 2, 2), 0.5),
                cost=np.zeros((2, 2, 2)),
            )

    def test_rejects_non_pmfs(self):
        with pytest.raises(InvalidDistributionError):
            ProblemSpec(
                state_joint=np.array([[0.6], [0.6]]),
                channel=np.full((2, 2, 2), 0.5),
                cost=np.zeros((2, 2, 2)),
            )
        with pytest.raises(InvalidDistributionError):
            ProblemSpec(
                state_joint=np.array([[0.5], [0.5]]),
                channel=np.full((2, 2, 2), 0.6),
                cost=np.zeros((2, 2, 2)),
            )

    def test_rejects_negative_cost(self):
        with pytest.raises(InvalidDistributionError):
            ProblemSpec(
                state_joint=np.array([[0.5], [0.5]]),
                channel=np.full((2, 2, 2), 0.5),
                cost=np.full((2, 2, 2), -1.0),
            )

    def test_rejects_non_finite_entries(self):
        """NaN passes every comparison-based pmf check, so it needs its own."""
        base = make_binary_example(0.1, with_distortion=True)
        nan_row = np.array(base.channel)
        nan_row[0, 0] = [np.nan, 1.0]
        inf_cost = np.array(base.cost)
        inf_cost[1, 1, 0] = np.inf
        inf_dist = np.array(base.distortion)
        inf_dist[0, 1] = np.inf
        for channel, cost, dist in ((nan_row, base.cost, None),
                                    (base.channel, inf_cost, None),
                                    (base.channel, base.cost, inf_dist)):
            with pytest.raises(InvalidDistributionError, match="finite"):
                ProblemSpec(state_joint=base.state_joint, channel=channel,
                            cost=cost, distortion=dist)

    def test_distortion_shape_and_sign(self):
        good = make_binary_example(0.1, with_distortion=True)
        assert good.yhat_size == 2
        with pytest.raises(UsageError):
            ProblemSpec(
                state_joint=good.state_joint,
                channel=good.channel,
                cost=good.cost,
                distortion=np.zeros((3, 2)),
            )
        with pytest.raises(InvalidDistributionError):
            ProblemSpec(
                state_joint=good.state_joint,
                channel=good.channel,
                cost=good.cost,
                distortion=np.array([[0.0, -1.0], [1.0, 0.0]]),
            )

    def test_sizes_and_marginals(self):
        spec = make_binary_example(0.1, pe=0.3)
        assert (spec.s_size, spec.z_size, spec.a_size, spec.y_size) == (2, 3, 2, 2)
        np.testing.assert_allclose(spec.state_marginal, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(
            spec.side_info_marginal, [0.35, 0.35, 0.3], atol=1e-15
        )

    def test_fingerprint_tracks_content(self):
        a = make_binary_example(0.1)
        b = make_binary_example(0.1)
        c = make_binary_example(0.2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestAuxiliaryChoice:
    def test_exactly_one_v_law(self):
        pol = ActionPolicy(np.array([[0, 1], [1, 0]]))
        with pytest.raises(UsageError):
            AuxiliaryChoice(policy=pol)
        with pytest.raises(UsageError):
            AuxiliaryChoice(
                policy=pol,
                v_given_s=np.eye(2),
                v_marginal=np.array([0.5, 0.5]),
            )

    def test_at_most_one_u_kernel(self):
        pol = ActionPolicy(np.array([[0, 1], [1, 0]]))
        with pytest.raises(UsageError):
            AuxiliaryChoice(
                policy=pol,
                v_marginal=np.array([0.5, 0.5]),
                u_given_y=np.eye(2),
                u_given_yv=np.full((2, 2, 2), 0.5),
            )

    def test_rows_must_be_pmfs(self):
        pol = ActionPolicy(np.array([[0, 1], [1, 0]]))
        with pytest.raises(InvalidDistributionError):
            AuxiliaryChoice(policy=pol, v_marginal=np.array([0.5, 0.6]))
        with pytest.raises(InvalidDistributionError):
            AuxiliaryChoice(policy=pol, v_given_s=np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_non_finite_entries(self):
        """A NaN row sums to NaN, which no `> tol` mass check catches; the
        error must name the offending field."""
        pol = ActionPolicy(np.array([[0, 1], [1, 0]]))
        recon = np.zeros((2, 2, 1, 2))
        recon[..., 0] = 1.0
        recon[0, 1, 0] = [np.nan, 1.0]
        for name, kwargs in (
            ("v_marginal", {"v_marginal": np.array([np.nan, 1.0])}),
            ("v_given_s", {"v_given_s": np.array([[0.5, 0.5], [np.nan, 1.0]])}),
            ("recon", {"v_marginal": np.array([0.5, 0.5]), "recon": recon}),
        ):
            with pytest.raises(InvalidDistributionError, match=f"{name} .*finite"):
                AuxiliaryChoice(policy=pol, **kwargs)

    def test_causal_flag_follows_storage(self):
        assert binary_timeshare_aux(0.5).causal
        assert not binary_structured_aux(0.5, 0.2).causal

    def test_v_weights(self):
        spec = make_binary_example(0.1)
        aux = binary_structured_aux(0.6, 0.2)
        # rows mix with the uniform state marginal
        expect = 0.5 * aux.v_given_s[0] + 0.5 * aux.v_given_s[1]
        np.testing.assert_allclose(aux.v_weights(spec), expect, atol=1e-15)
        ts = binary_timeshare_aux(0.3)
        np.testing.assert_allclose(ts.v_weights(spec), [0.3, 0.7], atol=1e-15)

    def test_policy_validation(self):
        with pytest.raises(UsageError):
            ActionPolicy(np.array([0, 1]))
        with pytest.raises(UsageError):
            ActionPolicy(np.array([[0, -1], [1, 0]]))
        spec = make_binary_example(0.1)
        with pytest.raises(UsageError):
            ActionPolicy(np.array([[0, 2], [1, 0]])).check_against(spec)
        with pytest.raises(UsageError):
            ActionPolicy(np.array([[0, 1]])).check_against(spec)

    def test_summary_mentions_policy_and_law(self):
        s = binary_timeshare_aux(0.25).summary()
        assert "policy=" in s and "pv=" in s
        s2 = binary_structured_aux(0.5, 0.1).summary()
        assert "pv_s=" in s2


class TestAssembleJoint:
    """The assembled joint must reproduce its factors exactly."""

    def test_axis_names(self):
        spec = make_binary_example(0.1)
        j = assemble_joint(spec, binary_structured_aux(0.5, 0.2), causal=False)
        assert j.axis_names == ("z", "s", "v", "a", "y")

    def test_optional_axes_append_in_order(self):
        spec = make_binary_example(0.1, with_distortion=True)
        base = binary_structured_aux(0.5, 0.2)
        aux = AuxiliaryChoice(
            policy=base.policy,
            v_given_s=base.v_given_s,
            recon=identity_recon(spec, 3),
            u_given_y=np.eye(2),
        )
        j = assemble_joint(spec, aux, causal=False)
        assert j.axis_names == ("z", "s", "v", "a", "y", "yhat", "u")

    def test_state_marginal_is_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            spec = random_spec(rng, s=2, z=2, a=2, y=3)
            aux = random_aux(rng, spec, v=3)
            j = assemble_joint(spec, aux, causal=False)
            got = j.marginal([j.axis("s"), j.axis("z")])
            np.testing.assert_allclose(got, spec.state_joint, atol=1e-12)

    def test_action_is_policy_of_state_and_v(self):
        """The (s, v, a) marginal puts all mass on a = policy[s, v]."""
        rng = np.random.default_rng(11)
        spec = random_spec(rng, a=3)
        aux = random_aux(rng, spec, v=2)
        j = assemble_joint(spec, aux, causal=False)
        p_sva = j.marginal([j.axis("s"), j.axis("v"), j.axis("a")])
        for s in range(spec.s_size):
            for v in range(2):
                row = p_sva[s, v]
                off = row.sum() - row[aux.policy.table[s, v]]
                assert abs(off) < 1e-15

    def test_noncausal_markov_properties(self):
        """V depends on S only (not Z), and Y sees only (A, S)."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            spec = random_spec(rng, s=2, z=3, a=2, y=2)
            aux = random_aux(rng, spec, v=3)
            j = assemble_joint(spec, aux, causal=False)
            zax, sax, vax, aax, yax = range(5)
            assert conditional_mutual_information(j, [vax], [zax], [sax]) <= 1e-10
            assert (
                conditional_mutual_information(j, [yax], [vax, zax], [aax, sax])
                <= 1e-10
            )

    def test_causal_v_is_independent_of_state(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = random_spec(rng, s=3, z=2)
            aux = random_aux(rng, spec, v=2, causal=True)
            j = assemble_joint(spec, aux, causal=True)
            assert mutual_information(j, [2], [0, 1]) <= 1e-12

    def test_causal_flag_must_match_storage(self):
        spec = make_binary_example(0.1)
        with pytest.raises(UsageError):
            assemble_joint(spec, binary_structured_aux(0.5, 0.2), causal=True)
        with pytest.raises(UsageError):
            assemble_joint(spec, binary_timeshare_aux(0.5), causal=False)

    def test_recon_requires_distortion_table(self):
        spec = make_binary_example(0.1)
        base = binary_structured_aux(0.5, 0.2)
        lossy = make_binary_example(0.1, with_distortion=True)
        aux = AuxiliaryChoice(
            policy=base.policy,
            v_given_s=base.v_given_s,
            recon=identity_recon(lossy, 3),
        )
        with pytest.raises(UsageError):
            assemble_joint(spec, aux, causal=False)

    def test_recon_shape_checked(self):
        spec = make_binary_example(0.1, with_distortion=True)
        base = binary_structured_aux(0.5, 0.2)
        bad = np.zeros((2, 2, 1, 2))
        bad[:, :, :, 0] = 1.0
        aux = AuxiliaryChoice(policy=base.policy, v_given_s=base.v_given_s, recon=bad)
        with pytest.raises(UsageError):
            assemble_joint(spec, aux, causal=False)


class TestCostAndDistortion:
    def test_expected_cost_matches_direct_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            spec = random_spec(rng, a=3, y=3)
            aux = random_aux(rng, spec, v=2)
            j = assemble_joint(spec, aux, causal=False)
            p = j.marginal([j.axis("a"), j.axis("s"), j.axis("y")])
            direct = float((p * spec.cost).sum())
            np.testing.assert_allclose(
                expected_cost(j, spec), direct, rtol=0, atol=1e-15
            )

    def test_reduced_cost_preserves_expectations(self):
        """Averaging cost over the channel must not move any expected cost.

        The reduced (s, a) table lets searches drop the y axis; this checks
        the identity E[cost(A,S,Y)] = E[reduced(S,A)] over random instances
        and strategies.
        """
        rng = np.random.default_rng(15)
        for _ in range(100):
            spec = random_spec(
                rng,
                s=int(rng.integers(2, 4)),
                z=int(rng.integers(1, 3)),
                a=int(rng.integers(2, 4)),
                y=int(rng.integers(2, 4)),
            )
            aux = random_aux(rng, spec, v=int(rng.integers(1, 4)))
            j = assemble_joint(spec, aux, causal=False)
            red = reduced_cost(spec)
            p_sa = j.marginal([j.axis("s"), j.axis("a")])
            np.testing.assert_allclose(
                expected_cost(j, spec),
                float((p_sa * red).sum()),
                rtol=0,
                atol=1e-12,
            )

    def test_identity_recon_has_zero_distortion(self):
        spec = make_binary_example(0.1, with_distortion=True)
        base = binary_structured_aux(0.7, 0.2)
        aux = AuxiliaryChoice(
            policy=base.policy,
            v_given_s=base.v_given_s,
            recon=identity_recon(spec, 3),
        )
        j = assemble_joint(spec, aux, causal=False)
        assert expected_distortion(j, spec) == 0.0

    def test_flip_recon_has_unit_distortion(self):
        spec = make_binary_example(0.1, with_distortion=True)
        base = binary_structured_aux(0.7, 0.2)
        flip = np.zeros((2, 3, 1, 2))
        flip[0, :, :, 1] = 1.0
        flip[1, :, :, 0] = 1.0
        aux = AuxiliaryChoice(policy=base.policy, v_given_s=base.v_given_s, recon=flip)
        j = assemble_joint(spec, aux, causal=False)
        np.testing.assert_allclose(expected_distortion(j, spec), 1.0, atol=1e-15)

    def test_mapped_distortion_identity_and_flip(self):
        spec = make_binary_example(0.1, with_distortion=True)
        base = binary_structured_aux(0.7, 0.2)
        aux = AuxiliaryChoice(
            policy=base.policy, v_given_s=base.v_given_s, u_given_y=np.eye(2)
        )
        j = assemble_joint(spec, aux, causal=False)
        assert expected_distortion_mapped(j, spec, np.array([[0, 1]])) == 0.0
        np.testing.assert_allclose(
            expected_distortion_mapped(j, spec, np.array([[1, 0]])), 1.0, atol=1e-15
        )

    def test_mapped_distortion_needs_u_axis(self):
        spec = make_binary_example(0.1, with_distortion=True)
        j = assemble_joint(spec, binary_structured_aux(0.7, 0.2), causal=False)
        with pytest.raises(UsageError, match="'u' not present"):
            expected_distortion_mapped(j, spec, np.array([[0, 1]]))

    def test_distortion_needs_a_table(self):
        spec = make_binary_example(0.1)
        j = assemble_joint(spec, binary_structured_aux(0.7, 0.2), causal=False)
        with pytest.raises(UsageError):
            expected_distortion(j, spec)


class TestRateObjectives:
    def test_identity_recon_collapses_si_both_to_noncausal(self):
        """With yhat = y the both-sided lossy objective equals the lossless one."""
        rng = np.random.default_rng(16)
        for _ in range(20):
            spec = random_spec(rng, s=2, z=2, a=2, y=2, distortion=True)
            base = random_aux(rng, spec, v=2)
            aux = AuxiliaryChoice(
                policy=base.policy,
                v_given_s=base.v_given_s,
                recon=identity_recon(spec, 2),
            )
            j = assemble_joint(spec, aux, causal=False)
            np.testing.assert_allclose(
                lossy_bound_si_both(j), noncausal_rate(j), rtol=0, atol=1e-12
            )

    def test_identity_recon_collapses_causal_lossy_to_causal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_spec(rng, s=2, z=2, a=2, y=3, distortion=True)
            base = random_aux(rng, spec, v=2, causal=True)
            aux = AuxiliaryChoice(
                policy=base.policy,
                v_marginal=base.v_marginal,
                recon=identity_recon(spec, 2),
            )
            j = assemble_joint(spec, aux, causal=True)
            np.testing.assert_allclose(
                causal_lossy_rate(j), causal_rate(j), rtol=0, atol=1e-12
            )

    def test_rates_are_nonnegative_and_ordered(self):
        """For a shared aux shape, conditioning on less cannot help the
        noncausal objective below I(V;S|Z)."""
        rng = np.random.default_rng(18)
        for _ in range(20):
            spec = random_spec(rng, s=2, z=2)
            aux = random_aux(rng, spec, v=2)
            j = assemble_joint(spec, aux, causal=False)
            nc = noncausal_rate(j)
            assert nc >= 0.0
            assert nc >= conditional_mutual_information(j, [2], [1], [0]) - 1e-12

    def test_decoder_side_description_markov_flag(self):
        """u_given_y keeps the description blind to (V, Z); u_given_yv that
        actually consults V must trip the flag."""
        spec = make_binary_example(0.1, with_distortion=True)
        base = binary_structured_aux(0.7, 0.2)
        blind = AuxiliaryChoice(
            policy=base.policy, v_given_s=base.v_given_s, u_given_y=np.eye(2)
        )
        jb = assemble_joint(spec, blind, causal=False)
        _, ok = lossy_bound_si_decoder(jb)
        assert ok
        peek = np.zeros((2, 3, 2))
        peek[:, 0, 0] = 1.0  # u echoes whether v = 0, ignoring y
        peek[:, 1, 1] = 1.0
        peek[:, 2, 1] = 1.0
        aware = AuxiliaryChoice(
            policy=base.policy, v_given_s=base.v_given_s, u_given_yv=peek
        )
        ja = assemble_joint(spec, aware, causal=False)
        _, ok2 = lossy_bound_si_decoder(ja)
        assert not ok2

    def test_vaware_feasibility_flag(self):
        """Recovering V first needs I(V;S) <= I(V;Y)."""
        spec = make_binary_example(0.1, with_distortion=True)
        pol = ActionPolicy(np.array([[0, 0], [0, 0]]))
        # V = S exactly, but with a = 0 always, Y is a noisy copy of S, so
        # I(V;S) = 1 > I(V;Y): the decoder cannot recover V.
        vs = AuxiliaryChoice(
            policy=pol, v_given_s=np.eye(2), u_given_yv=np.full((2, 2, 2), 0.5)
        )
        j = assemble_joint(spec, vs, causal=False)
        _, feasible = lossy_bound_si_decoder_vaware(j)
        assert not feasible
        # independent V is always recoverable (nothing to recover)
        ind = AuxiliaryChoice(
            policy=pol,
            v_given_s=np.full((2, 2), 0.5),
            u_given_yv=np.full((2, 2, 2), 0.5),
        )
        ji = assemble_joint(spec, ind, causal=False)
        _, feasible2 = lossy_bound_si_decoder_vaware(ji)
        assert feasible2


class TestJsonRoundTrips:
    def test_spec_round_trip(self):
        for spec in (
            make_binary_example(0.1),
            make_binary_example(0.2, pe=0.3),
            make_binary_example(0.1, with_distortion=True),
        ):
            back = spec_from_json(spec_to_json(spec))
            np.testing.assert_allclose(back.state_joint, spec.state_joint, atol=1e-12)
            np.testing.assert_allclose(back.channel, spec.channel, atol=1e-12)
            np.testing.assert_allclose(back.cost, spec.cost, atol=1e-12)
            if spec.distortion is None:
                assert back.distortion is None
            else:
                np.testing.assert_allclose(
                    back.distortion, spec.distortion, atol=1e-12
                )

    def test_aux_round_trip(self):
        spec = make_binary_example(0.1)
        for aux in (binary_structured_aux(0.6, 0.2), binary_timeshare_aux(0.4)):
            back = aux_from_json(aux_to_json(aux), spec)
            assert back.causal == aux.causal
            np.testing.assert_array_equal(back.policy.table, aux.policy.table)
            if aux.causal:
                np.testing.assert_allclose(back.v_marginal, aux.v_marginal, atol=1e-12)
            else:
                np.testing.assert_allclose(back.v_given_s, aux.v_given_s, atol=1e-12)

    def test_spec_errors_name_the_json_path(self):
        with pytest.raises(SpecFormatError, match=r"\$: not valid JSON"):
            spec_from_json("{not json")
        with pytest.raises(SpecFormatError, match="alphabets"):
            spec_from_json('{"state_joint": [0.5, 0.5]}')
        good = json.loads(spec_to_json(make_binary_example(0.1)))
        bad = dict(good)
        bad["channel"] = [[[0.9, 0.2], [0.9, 0.1]], good["channel"][1]]
        with pytest.raises(SpecFormatError, match=r"channel\[0\]\[0\]"):
            spec_from_json(json.dumps(bad))
        bad2 = dict(good)
        bad2["state_joint"] = [0.5, 0.6]
        with pytest.raises(SpecFormatError, match="state_joint"):
            spec_from_json(json.dumps(bad2))

    def test_non_finite_numbers_name_the_json_path(self):
        """json accepts NaN and Infinity; the loader must not."""
        good = json.loads(spec_to_json(make_binary_example(0.1)))
        for key, value in (("cost", float("inf")), ("channel", float("nan"))):
            bad = dict(good)
            bad[key] = json.loads(json.dumps(good[key]))
            bad[key][0][1][0] = value
            path = rf"{key}\[0\]\[1\]\[0\]: expected a finite"
            with pytest.raises(SpecFormatError, match=path):
                spec_from_json(json.dumps(bad))
        bad = dict(good, state_joint=[0.5, 10**400])
        with pytest.raises(SpecFormatError, match=r"state_joint\[1\]"):
            spec_from_json(json.dumps(bad))

    def test_spec_alphabets_validated(self):
        good = json.loads(spec_to_json(make_binary_example(0.1)))
        bad = dict(good)
        bad["alphabets"] = dict(good["alphabets"], s=0)
        with pytest.raises(SpecFormatError, match=r"alphabets\.s"):
            spec_from_json(json.dumps(bad))

    def test_aux_errors_name_the_json_path(self):
        spec = make_binary_example(0.1)
        with pytest.raises(SpecFormatError, match="policy: expected 2 state rows"):
            aux_from_json('{"policy": [[0, 2]], "v_marginal": [1.0]}', spec)
        with pytest.raises(SpecFormatError, match=r"policy\[0\]\[1\]"):
            aux_from_json(
                '{"policy": [[0, 2], [1, 0]], "v_marginal": [0.5, 0.5]}', spec
            )
        with pytest.raises(SpecFormatError, match="v_marginal: sums to 1.1"):
            aux_from_json(
                '{"policy": [[0, 1], [1, 0]], "v_marginal": [0.5, 0.6]}', spec
            )
        with pytest.raises(SpecFormatError, match="exactly one of"):
            aux_from_json('{"policy": [[0, 1], [1, 0]]}', spec)

    def test_format_error_carries_path_prefix(self):
        err = SpecFormatError("channel[2][0]", "row sums to 0.9")
        assert str(err) == "channel[2][0]: row sums to 0.9"


def pmfs(n):
    """n-atom pmfs in multiples of 1/1024, whose float sums are exact, so
    that the loader's renormalization leaves them unchanged."""
    cuts = st.lists(st.integers(0, 1024), min_size=n - 1, max_size=n - 1)
    return cuts.map(lambda c: np.diff([0, *sorted(c), 1024]) / 1024)


@st.composite
def valid_specs(draw):
    """Specs with every alphabet in 1..3, any finite costs and distortions."""
    s, z, a, y = (draw(st.integers(1, 3)) for _ in range(4))
    values = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
    channel = np.array([[draw(pmfs(y)) for _ in range(s)] for _ in range(a)])
    distortion = None
    if draw(st.booleans()):
        yhat = draw(st.integers(1, 3))
        distortion = np.array(draw(st.lists(values, min_size=y * yhat, max_size=y * yhat)))
        distortion = distortion.reshape(y, yhat)
    return ProblemSpec(
        state_joint=draw(pmfs(s * z)).reshape(s, z), channel=channel,
        cost=np.array(draw(st.lists(values, min_size=a * s * y,
                                    max_size=a * s * y))).reshape(a, s, y),
        distortion=distortion,
    )


@st.composite
def malformed_docs(draw):
    """(document, JSON path) with one malformed entry: a non-finite number,
    a row of the wrong length, or a probability row off its pmf."""
    doc = json.loads(spec_to_json(draw(valid_specs())))
    kind = draw(st.sampled_from(["non-finite", "length", "pmf"]))
    names = ["state_joint", "channel"]
    if kind != "pmf":
        names += ["cost"] + (["distortion"] if "distortion" in doc else [])
    name = draw(st.sampled_from(names))
    if name == "state_joint":
        parent, key, path = doc, name, name
    elif name == "distortion":
        key = draw(st.integers(0, len(doc[name]) - 1))
        parent, path = doc[name], f"distortion[{key}]"
    else:
        a = draw(st.integers(0, len(doc[name]) - 1))
        key = draw(st.integers(0, len(doc[name][a]) - 1))
        parent, path = doc[name][a], f"{name}[{a}][{key}]"
    row = parent[key]
    i = draw(st.integers(0, len(row) - 1))
    if kind == "non-finite":
        row[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        path = f"{path}[{i}]"
    elif kind == "length":
        parent[key] = row + [0.0] if draw(st.booleans()) else row[:i] + row[i + 1:]
    else:
        row[i] += 0.5
    return json.dumps(doc), path


class TestLoaderProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(valid_specs())
    def test_spec_json_round_trips_exactly(self, spec):
        back = spec_from_json(spec_to_json(spec))
        assert back.fingerprint() == spec.fingerprint()
        for name in ("state_joint", "channel", "cost", "distortion"):
            mine, theirs = getattr(spec, name), getattr(back, name)
            assert (mine is None and theirs is None) or np.array_equal(mine, theirs)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(malformed_docs())
    def test_malformed_entry_exits_2_with_its_path(self, case):
        text, path = case
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / "spec.json"
            spec_path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["curve", "--spec", str(spec_path), "--budgets", "0.1"])
        assert code == 2
        assert f"{path}:" in err.getvalue()
