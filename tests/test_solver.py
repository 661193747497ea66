"""Tests for the grid-search solvers, oracle, and lossy machinery.

Closed forms from the binary instance serve as ground truth throughout;
search tolerances follow the documented accuracy model (about one grid
step of slack, which the non-causal polish closes).
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from actrate import solver
from actrate.binary import (
    bstar,
    make_binary_example,
    rate_causal_binary,
    rate_noncausal_binary,
)
from actrate.errors import DomainError, SearchSpaceError, UsageError
from actrate.kernel import binary_entropy
from actrate.model import (
    ProblemSpec,
    assemble_joint,
    causal_rate,
    expected_cost,
    noncausal_rate,
    reduced_cost,
)
from actrate.solver import (
    DEFAULT_LAGRANGE_SWEEP,
    RateCostPoint,
    SolveConfig,
    brute_force_oracle,
    evaluate_lossy_bounds,
    lagrangian_sweep,
    lower_convex_envelope,
    solve_causal,
    solve_lossy_causal,
    solve_noncausal,
    trace_curve,
)

# grid12 with three description symbols, polished (any refine_rounds > 0
# polishes): the standard quick-but-honest setting used by the full self-check
QUICK = SolveConfig(grid_steps=12, v_size_max=3, refine_rounds=2)


def copy_channel_spec():
    """Y = A exactly; cost is the Hamming mismatch between A and S."""
    channel = np.zeros((2, 2, 2))
    channel[0, :, 0] = 1.0
    channel[1, :, 1] = 1.0
    cost = np.zeros((2, 2, 2))
    cost[0, 1, :] = 1.0
    cost[1, 0, :] = 1.0
    return ProblemSpec(
        state_joint=np.array([[0.5], [0.5]]), channel=channel, cost=cost
    )


def unit_cost_spec(distortion=False):
    """Every action costs 1, so budgets below 1 are infeasible."""
    base = make_binary_example(0.1, with_distortion=distortion)
    return ProblemSpec(
        state_joint=base.state_joint,
        channel=base.channel,
        cost=np.ones((2, 2, 2)),
        distortion=base.distortion,
    )


def flat_spec(distortion=False):
    """|S| = 1: no state to describe, so the two lossy problems coincide."""
    rng = np.random.default_rng(40)
    ch = rng.random((2, 1, 2)) + 0.2
    ch /= ch.sum(axis=-1, keepdims=True)
    dist = None
    if distortion:
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    return ProblemSpec(
        state_joint=np.array([[1.0]]),
        channel=ch,
        cost=rng.random((2, 1, 2)),
        distortion=dist,
    )


class TestSolveConfig:
    def test_grid_must_allow_interior_points(self):
        with pytest.raises(UsageError):
            SolveConfig(grid_steps=1)
        SolveConfig(grid_steps=2)  # coarsest legal grid

    def test_other_bounds(self):
        with pytest.raises(UsageError):
            SolveConfig(refine_rounds=-1)
        with pytest.raises(UsageError):
            SolveConfig(v_size_max=0)
        with pytest.raises(UsageError):
            SolveConfig(u_size_max=0)

    def test_resolved_defaults(self):
        spec = make_binary_example(0.1)
        cfg = SolveConfig()
        assert cfg.resolved_v_max(spec) == spec.s_size + 2
        assert cfg.resolved_u_max(spec) == spec.y_size + 2
        cfg2 = SolveConfig(v_size_max=3, u_size_max=2)
        assert cfg2.resolved_v_max(spec) == 3
        assert cfg2.resolved_u_max(spec) == 2


class TestLosslessSolves:
    def test_noncausal_tracks_closed_form(self):
        spec = make_binary_example(0.1)
        for b in (0.1, 0.35):
            pt = solve_noncausal(spec, b, QUICK)
            assert pt.feasible
            err = pt.rate - rate_noncausal_binary(b, 0.1)
            assert -1e-9 <= err <= 2e-2

    def test_causal_tracks_closed_form(self):
        spec = make_binary_example(0.1)
        for b in (0.1, 0.35):
            pt = solve_causal(spec, b, QUICK)
            err = pt.rate - rate_causal_binary(b, 0.1)
            assert -1e-9 <= err <= 2e-2

    def test_zero_budget_is_exact(self):
        """At B = 0 the best strategy is a single silent symbol: rate 1."""
        spec = make_binary_example(0.1)
        pt = solve_noncausal(spec, 0.0, QUICK)
        np.testing.assert_allclose(pt.rate, 1.0, rtol=0, atol=1e-9)

    def test_argmin_reevaluates_to_reported_rate(self):
        """The returned strategy must reproduce its own numbers through the
        independent model-level evaluation path."""
        spec = make_binary_example(0.1)
        for mode, solve, rate_of in (
            ("noncausal", solve_noncausal, noncausal_rate),
            ("causal", solve_causal, causal_rate),
        ):
            pt = solve(spec, 0.3, QUICK)
            j = assemble_joint(spec, pt.argmin, causal=(mode == "causal"))
            np.testing.assert_allclose(
                rate_of(j), pt.solved_rate, rtol=0, atol=1e-9
            )
            assert expected_cost(j, spec) <= 0.3 + 1e-9
            assert pt.argmin_summary()  # non-empty one-liner

    def test_solves_are_deterministic(self):
        spec = make_binary_example(0.1)
        a = solve_noncausal(spec, 0.2, QUICK)
        b = solve_noncausal(spec, 0.2, QUICK)
        assert a.rate == b.rate
        assert a.argmin.summary() == b.argmin.summary()

    def test_infeasible_budget_is_typed_not_raised(self):
        pt = solve_causal(unit_cost_spec(), 0.2, SolveConfig(grid_steps=4,
                                                             v_size_max=2,
                                                             refine_rounds=0))
        assert not pt.feasible
        assert pt.rate == np.inf
        assert pt.argmin is None
        np.testing.assert_allclose(pt.metadata["min_achievable_cost"], 1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            solve_causal(make_binary_example(0.1), -0.1, QUICK)

    def test_non_finite_budgets_rejected(self):
        """NaN compares false against every bound, so it must be refused
        explicitly rather than answered as a feasible point."""
        spec = make_binary_example(0.1, with_distortion=True)
        tiny = SolveConfig(grid_steps=2, v_size_max=1, refine_rounds=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                solve_noncausal(spec, bad, tiny)
            with pytest.raises(DomainError):
                brute_force_oracle(spec, bad, dense_steps=2, v_size=1)
            with pytest.raises(DomainError):
                solve_lossy_causal(spec, 0.2, bad, tiny)
            with pytest.raises(DomainError):
                evaluate_lossy_bounds(spec, bad, 0.1, tiny)

    def test_copy_channel_respects_rd_lower_bound(self):
        """Describing Y = A within Hamming budget B of S cannot beat the
        rate-distortion line 1 - H2(B)."""
        pt = solve_noncausal(copy_channel_spec(), 0.11, QUICK)
        floor = 1.0 - binary_entropy(0.11)
        assert pt.rate >= floor - 1e-9
        assert pt.rate <= floor + 2e-2


def box_spec(rng):
    """A random instance with |S|, |A|, |Y| in {2, 3} and |Z| in {1, 2}."""
    s, z, a, y = (int(rng.integers(lo, 4)) for lo in (2, 1, 2, 2))
    sj = rng.random((s, z)) + 0.05
    ch = rng.random((a, s, y)) + 0.05
    return ProblemSpec(
        state_joint=sj / sj.sum(),
        channel=ch / ch.sum(axis=-1, keepdims=True),
        cost=rng.random((a, s, y)),
    )


class TestDistinctColumns:
    """The sweeps enumerate distinct action columns; the oracle keeps the
    full multiset of columns."""

    def test_counts_match_the_enumeration(self):
        for spec in (make_binary_example(0.1), flat_spec()):
            n_cols = spec.a_size**spec.s_size
            for v in range(1, n_cols + 2):
                for repeats in (False, True):
                    tables = solver._policies(spec, v, repeats)
                    assert solver._policy_count(spec, v, repeats) == len(tables)
                distinct = solver._policies(spec, v)
                assert all(len({tuple(c) for c in t.T}) == v for t in distinct)
                assert all(np.array_equal(solver._policy(spec, v, i), t)
                           for i, t in enumerate(distinct))
            assert solver._policy_count(spec, n_cols + 1) == 0

    def test_sweep_guard_follows_the_distinct_count(self):
        """At grid 15 the binary sweep has 741380 distinct-column points; the
        multiset enumeration had 23677444, above this limit."""
        spec = make_binary_example(0.1)
        cfg = SolveConfig(grid_steps=15, refine_rounds=0, search_limit=2_000_000)
        pt = solve_noncausal(spec, 0.2, cfg)
        assert pt.feasible
        with pytest.raises(SearchSpaceError) as err:
            solve_noncausal(spec, 0.2, replace(cfg, search_limit=741_379))
        assert err.value.required == 741_380

    def test_metadata_reports_grid_points_and_tile_dtype(self, monkeypatch):
        spec = make_binary_example(0.1)
        cfg = SolveConfig(grid_steps=15, refine_rounds=0)
        meta = solve_noncausal(spec, 0.2, cfg).metadata
        assert meta["grid_points"] == 741_380
        assert meta["tile_dtype"] == "float64"
        # the causal solve sweeps no grid: it reads the |A|^|S| column points
        assert solve_causal(spec, 0.2, cfg).metadata["columns"] == 4
        monkeypatch.setattr(solver, "_F32_THRESHOLD", 1000)
        # another search_limit keys a fresh sweep instead of the cached one
        meta = solve_noncausal(spec, 0.2, replace(cfg, grid_steps=4, search_limit=10**6)).metadata
        assert meta["tile_dtype"] == "float32"

    def test_never_worse_than_the_full_enumeration(self):
        """Merging repeated columns is exact, so the distinct-column solve at
        |V| <= v never loses to the oracle's multiset enumeration at |V| = v
        on the same grid."""
        rng = np.random.default_rng(2012)
        for _ in range(10):
            spec = box_spec(rng)
            lam = reduced_cost(spec)
            lo, hi = spec.state_marginal @ lam.min(axis=1), spec.state_marginal @ lam.max(axis=1)
            for v in ((2, 3) if spec.s_size == 2 else (2,)):
                cfg = SolveConfig(grid_steps=4, refine_rounds=0, v_size_max=v)
                for mode, solve in (("noncausal", solve_noncausal), ("causal", solve_causal)):
                    for f in (0.1, 0.4, 0.8):
                        b = float(lo + f * (hi - lo))
                        full = brute_force_oracle(spec, b, mode, dense_steps=4, v_size=v)
                        assert full.feasible
                        assert solve(spec, b, cfg).rate <= full.rate + 1e-9


class TestPolish:
    """The majorise-minimise polish of the non-causal grid argmin."""

    def test_quick_config_reaches_the_closed_form(self):
        """Grid 12 alone sits up to 2.9e-3 bits above the closed form; the
        polish closes the gap."""
        spec = make_binary_example(0.1)
        for b in (0.1, 0.2, 0.3, 0.4):
            pt = solve_noncausal(spec, b, QUICK)
            assert abs(pt.rate - rate_noncausal_binary(b, 0.1)) <= 1e-9

    def test_never_above_the_grid_answer(self):
        """The polish keeps its rows only below the grid point and within
        budget, as re-evaluated through ``model``."""
        rng = np.random.default_rng(18)
        cfg = SolveConfig(grid_steps=6, v_size_max=2, refine_rounds=3)
        for _ in range(20):
            spec = box_spec(rng)
            lam = reduced_cost(spec)
            lo, hi = spec.state_marginal @ lam.min(axis=1), spec.state_marginal @ lam.max(axis=1)
            for f in (0.1, 0.35, 0.6, 0.85):
                b = float(lo + f * (hi - lo))
                pt = solve_noncausal(spec, b, cfg)
                grid = solve_noncausal(spec, b, replace(cfg, refine_rounds=0))
                assert pt.rate <= grid.rate + 1e-12
                j = assemble_joint(spec, pt.argmin, causal=False)
                assert abs(noncausal_rate(j) - pt.rate) <= 1e-9
                assert expected_cost(j, spec) <= b + 1e-12

    def test_zero_mass_state_and_side_information(self):
        """A state and a side-information letter of probability 0 divide by
        nothing and warn of nothing; the zero-mass state keeps its row."""
        rng = np.random.default_rng(7)
        ch = rng.random((2, 3, 2)) + 0.05
        spec = ProblemSpec(
            state_joint=np.array([[0.3, 0.0], [0.7, 0.0], [0.0, 0.0]]),
            channel=ch / ch.sum(axis=-1, keepdims=True),
            cost=rng.random((2, 3, 2)),
        )
        lam = reduced_cost(spec)
        lo, hi = spec.state_marginal @ lam.min(axis=1), spec.state_marginal @ lam.max(axis=1)
        b = float(lo + 0.2 * (hi - lo))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = solve_noncausal(spec, b, SolveConfig(grid_steps=6, v_size_max=2))
        assert pt.feasible and pt.metadata["polish_steps"] > 0
        j = assemble_joint(spec, pt.argmin, causal=False)
        assert abs(noncausal_rate(j) - pt.rate) <= 1e-9
        assert expected_cost(j, spec) <= b + 1e-12
        assert np.isfinite(pt.argmin.v_given_s).all()

    def test_counters(self, monkeypatch):
        spec = make_binary_example(0.1)
        grid = solve_noncausal(spec, 0.2, replace(QUICK, refine_rounds=0))
        assert grid.metadata["polish_steps"] == 0
        assert grid.metadata["polish_gain"] == 0.0
        pt = solve_noncausal(spec, 0.2, QUICK)
        assert not pt.metadata["from_hull"]
        assert pt.metadata["polish_steps"] > 5
        np.testing.assert_allclose(pt.metadata["polish_gain"], grid.rate - pt.rate,
                                   rtol=0, atol=1e-15)
        assert pt.metadata["polish_gain"] > 0.0
        # a polish cut by the step guard reports the guard's count
        monkeypatch.setattr(solver, "_MM_MAX_STEPS", 5)
        cut = solve_noncausal(spec, 0.2, QUICK)
        assert cut.metadata["polish_steps"] == 5
        assert grid.rate - cut.rate == cut.metadata["polish_gain"] > 0.0
        assert cut.rate > pt.rate
        # at zero budget the policy's cheapest rows already cost the budget
        assert solve_noncausal(spec, 0.0, QUICK).metadata["polish_steps"] == 0


class TestTraceCurve:
    def test_monotone_convex_envelope(self):
        spec = make_binary_example(0.1)
        budgets = np.linspace(0.0, 0.5, 6)
        curve = trace_curve(spec, budgets, "causal",
                            SolveConfig(grid_steps=8, v_size_max=2,
                                        refine_rounds=0))
        assert curve.envelope_applied
        rates = [pt.rate for pt in curve.points]
        diffs = np.diff(rates)
        assert np.all(diffs <= 1e-12)
        assert np.all(np.diff(diffs) >= -1e-9)

    def test_envelope_never_raises_a_point(self):
        spec = make_binary_example(0.1)
        curve = trace_curve(spec, np.linspace(0.0, 0.5, 6), "noncausal",
                            SolveConfig(grid_steps=8, v_size_max=3,
                                        refine_rounds=0))
        for pt in curve.points:
            if pt.feasible and pt.solved_rate is not None:
                assert pt.rate <= pt.solved_rate + 1e-12

    def test_budgets_must_increase(self):
        spec = make_binary_example(0.1)
        with pytest.raises(UsageError):
            trace_curve(spec, [0.1, 0.1, 0.2], "causal", QUICK)
        with pytest.raises(UsageError):
            trace_curve(spec, [0.3, 0.2], "causal", QUICK)

    def test_infeasible_points_flagged_and_skipped(self):
        curve = trace_curve(unit_cost_spec(), [0.2, 0.6, 1.5], "causal",
                            SolveConfig(grid_steps=4, v_size_max=2,
                                        refine_rounds=0))
        feas = [pt.feasible for pt in curve.points]
        assert feas == [False, False, True]
        assert curve.points[0].rate == np.inf
        assert np.isfinite(curve.points[2].rate)

    def test_lossy_mode_needs_distortion_budget(self):
        spec = make_binary_example(0.1, with_distortion=True)
        with pytest.raises(UsageError):
            trace_curve(spec, [0.1, 0.2], "lossy-causal", QUICK)


class TestOracle:
    def test_mode_validation(self):
        with pytest.raises(UsageError, match="mode must be"):
            brute_force_oracle(make_binary_example(0.1), 0.2, mode="bogus")

    def test_guard_refuses_oversized_enumerations(self):
        spec = make_binary_example(0.1)
        with pytest.raises(SearchSpaceError):
            brute_force_oracle(spec, 0.2, mode="noncausal", v_size=4,
                               dense_steps=64)

    def test_matches_closed_form_at_modest_density(self):
        """dense_steps = 20 keeps the run fast; the documented slack scales
        like a few grid steps."""
        spec = make_binary_example(0.1)
        pt = brute_force_oracle(spec, 0.3, mode="causal", dense_steps=20,
                                v_size=2)
        err = pt.rate - rate_causal_binary(0.3, 0.1)
        assert -1e-9 <= err <= 5e-2
        assert pt.metadata["oracle"]

    def test_oracle_reports_infeasible(self):
        pt = brute_force_oracle(unit_cost_spec(), 0.2, mode="causal",
                                dense_steps=8, v_size=2)
        assert not pt.feasible and pt.rate == np.inf


class TestLagrangianSweep:
    def test_shape_and_identity(self):
        spec = make_binary_example(0.1)
        cfg = SolveConfig(grid_steps=6, v_size_max=2, refine_rounds=0)
        entries = lagrangian_sweep(spec, "causal", config=cfg)
        assert len(entries) == len(DEFAULT_LAGRANGE_SWEEP)
        for e, lam in zip(entries, DEFAULT_LAGRANGE_SWEEP):
            assert set(e) == {"lam", "value", "objective", "cost"}
            np.testing.assert_allclose(e["lam"], lam, atol=1e-15)
            np.testing.assert_allclose(
                e["value"], e["objective"] + e["lam"] * e["cost"], atol=1e-12
            )

    def test_weak_duality_bounds_the_grid_only_solve(self):
        """max over lam of (value - lam * B) never exceeds the solve at B
        with refine_rounds=0; refinement leaves the grid, so refined solves
        are not covered by the bound."""
        spec = make_binary_example(0.1)
        cfg = SolveConfig(grid_steps=6, v_size_max=2, refine_rounds=0)
        for mode, solve in (("noncausal", solve_noncausal), ("causal", solve_causal)):
            entries = lagrangian_sweep(spec, mode, config=cfg)
            for b in (0.05, 0.2, 0.35):
                dual = max(e["value"] - e["lam"] * b for e in entries)
                assert dual <= solve(spec, b, cfg).rate + 1e-9

    def test_non_finite_multipliers_rejected(self):
        cfg = SolveConfig(grid_steps=4, v_size_max=2, refine_rounds=0)
        for lam in (np.nan, np.inf):
            with pytest.raises(DomainError):
                lagrangian_sweep(make_binary_example(0.1), "causal", [0.0, lam], cfg)

    def test_values_nondecreasing_in_multiplier(self):
        """A larger price on cost can only raise the optimal tradeoff value."""
        spec = make_binary_example(0.1)
        cfg = SolveConfig(grid_steps=6, v_size_max=2, refine_rounds=0)
        vals = [e["value"] for e in lagrangian_sweep(spec, "noncausal", config=cfg)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLossyCausal:
    CFG = SolveConfig(grid_steps=8, v_size_max=2, refine_rounds=1)

    def test_zero_distortion_recovers_lossless(self):
        """At D = 0 the reconstruction must copy Y, so the lossy value
        collapses to the lossless causal solve (same config, so the grid
        quantization cancels)."""
        spec = make_binary_example(0.1, with_distortion=True)
        for b in (0.2, 0.25):
            pt = solve_lossy_causal(spec, b, 0.0, self.CFG)
            ref = solve_causal(spec, b, self.CFG)
            np.testing.assert_allclose(pt.rate, ref.rate, rtol=0, atol=1e-3)

    def test_loose_distortion_gives_zero_rate(self):
        spec = make_binary_example(0.1, with_distortion=True)
        pt = solve_lossy_causal(spec, 0.2, 0.5, self.CFG)
        assert pt.rate == 0.0
        assert pt.feasible

    def test_monotone_in_distortion_budget(self):
        spec = make_binary_example(0.1, with_distortion=True)
        rates = [
            solve_lossy_causal(spec, 0.2, d, self.CFG).rate
            for d in (0.0, 0.02, 0.08, 0.2)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_requires_distortion_table(self):
        with pytest.raises(UsageError):
            solve_lossy_causal(make_binary_example(0.1), 0.2, 0.1, self.CFG)

    def test_negative_budgets_rejected(self):
        spec = make_binary_example(0.1, with_distortion=True)
        with pytest.raises(DomainError):
            solve_lossy_causal(spec, -0.1, 0.1, self.CFG)
        with pytest.raises(DomainError):
            solve_lossy_causal(spec, 0.1, -0.1, self.CFG)

    def test_cost_infeasibility_is_typed(self):
        pt = solve_lossy_causal(unit_cost_spec(distortion=True), 0.2, 0.1,
                                self.CFG)
        assert not pt.feasible and pt.rate == np.inf


class TestLossyBounds:
    CFG = SolveConfig(grid_steps=8, v_size_max=2, u_size_max=2,
                      refine_rounds=0)

    def test_labels_and_shape(self):
        spec = make_binary_example(0.1, with_distortion=True)
        out = evaluate_lossy_bounds(spec, 0.2, 0.1, self.CFG)
        assert [e["label"] for e in out] == [
            "si-both", "si-decoder", "si-decoder-v"
        ]
        for e in out:
            assert {"label", "value", "feasible", "argmin"} <= set(e)
            if e["feasible"]:
                assert e["value"] >= -1e-12

    def test_guard_refuses_default_description_alphabet(self):
        """The decoder-side enumeration grows astronomically with u_size_max;
        the guard must refuse rather than hang."""
        spec = make_binary_example(0.1, with_distortion=True)
        with pytest.raises(SearchSpaceError):
            evaluate_lossy_bounds(spec, 0.2, 0.1,
                                  SolveConfig(grid_steps=8, v_size_max=2,
                                              u_size_max=3, refine_rounds=0))

    def test_degenerate_state_matches_exact_solver(self):
        """With |S| = 1 the encoder-side and decoder-side problems are the
        same problem, so si-both must agree with the exact solve."""
        spec = flat_spec(distortion=True)
        for d in (0.02, 0.1, 0.3):
            exact = solve_lossy_causal(spec, 0.5, d, self.CFG).rate
            bounds = evaluate_lossy_bounds(spec, 0.5, d, self.CFG)
            sib = next(e for e in bounds if e["label"] == "si-both")
            np.testing.assert_allclose(sib["value"], exact, rtol=0, atol=1e-9)

    def test_requires_distortion_table(self):
        with pytest.raises(UsageError):
            evaluate_lossy_bounds(make_binary_example(0.1), 0.2, 0.1, self.CFG)


class TestConvexEnvelope:
    def test_v_shape_is_bridged(self):
        env = lower_convex_envelope(
            np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.9, 0.0])
        )
        np.testing.assert_allclose(env, [1.0, 0.5, 0.0], atol=1e-12)

    def test_convex_input_unchanged(self):
        b = np.linspace(0.0, 1.0, 9)
        r = (1.0 - b) ** 2
        np.testing.assert_allclose(lower_convex_envelope(b, r), r, atol=1e-12)
