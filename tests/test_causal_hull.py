"""The exact causal layer against independent references.

The lossless causal rate is the lower convex hull of the column points
(c_j, h_j); the lossy one mixes the columns' rate-distortion curves. The
lossy reference solves the linear program over the columns' curve points on
the slope grid with scipy's HiGHS (imported in this file only), then runs
a plain 60-step multiplier bisection on the program's column weights. That
is an upper reference: where the cost budget binds it fixes the weights
and the answer equals it, elsewhere the grid may leave it above. The
property tests draw small random specs with Hypothesis, derandomized so
that the suite stays deterministic.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_lossy_kernel import serial_bisect

from actrate import solver
from actrate.binary import make_binary_example, rate_causal_binary
from actrate.model import (
    ProblemSpec,
    assemble_joint,
    causal_lossy_rate,
    causal_rate,
    expected_cost,
    expected_distortion,
    noncausal_rate,
)
from actrate.solver import SolveConfig, solve_causal, solve_lossy_causal, solve_noncausal

LOSSY_TABLE = SolveConfig(grid_steps=6, v_size_max=2, u_size_max=2, refine_rounds=1)


def random_spec(rng, s_sizes=(1, 2), distortion=True):
    """|S| from ``s_sizes``, |Z| in {1, 2}, |A| and |Y| in {2, 3}."""
    s = int(rng.choice(s_sizes))
    z, a, y = (int(rng.integers(lo, 4)) for lo in (1, 2, 2))
    sj = rng.random((s, z)) + 0.05
    ch = rng.random((a, s, y)) + 0.05
    return ProblemSpec(
        state_joint=sj / sj.sum(),
        channel=ch / ch.sum(axis=-1, keepdims=True),
        cost=rng.random((a, s, y)),
        distortion=rng.random((y, y)) if distortion else None,
    )


def column_curves(spec, config):
    """The column table and each column's (rate, distortion) curve points."""
    cols = solver._columns(spec)
    curves = solver._cell_curves(list(cols.cells), spec.distortion, solver._slopes(config))[0]
    p_z = spec.side_info_marginal
    return cols, np.array([p_z @ r for r, _ in curves]), np.array([p_z @ d for _, d in curves])


def linprog_reference(spec, budget, distortion_budget, config, subset=None):
    """Least-rate mixture of the curve points of ``subset`` (all columns by
    default) within both budgets, by HiGHS, finished by multiplier
    bisection on its column weights; inf when the program is infeasible."""
    from scipy.optimize import linprog

    cols, rate, dist = column_curves(spec, config)
    sub = np.arange(len(cols.cost)) if subset is None else np.array(subset)
    rate, dist, cost = rate[sub], dist[sub], cols.cost[sub]
    n, k = rate.shape
    res = linprog(
        rate.reshape(-1), A_ub=np.vstack([np.repeat(cost, k), dist.reshape(-1)]),
        b_ub=[budget, distortion_budget], A_eq=np.ones((1, n * k)), b_eq=[1.0],
        bounds=(0, None), method="highs",
    )
    if res.status != 0:
        return np.inf
    p = res.x.reshape(n, k).sum(axis=1)
    keep = p > 1e-12
    w = (p[keep, None] / p[keep].sum() * spec.side_info_marginal[None, :]).reshape(-1)
    cells = cols.cells[sub[keep]].reshape(-1, spec.y_size)
    return serial_bisect(cells, w, spec.distortion, distortion_budget, config.lambda_max)[0]


def reachable_budgets(rng, spec, config):
    """A budget among the column costs, and a distortion budget between the
    least top-slope and the least zero-rate distortion of the affordable
    columns, so that lambda_max reaches it."""
    cols, _, dist = column_curves(spec, config)
    budget = float(np.quantile(cols.cost, rng.uniform(0.2, 0.9)))
    aff = cols.cost <= budget
    d_top, d_zero = dist[aff, -1].min(), dist[aff, 0].min()
    return budget, float(d_top + rng.uniform(0.1, 0.9) * (d_zero - d_top))


def check_against_reference(pt, ref, budget):
    """Never above the upper reference; equal to it where the cost binds."""
    assert pt.rate <= ref + 1e-9
    if pt.cost >= budget - 1e-12:
        assert abs(pt.rate - ref) <= 1e-9


class TestLossyColumnMix:
    def test_lossy_table_matches_the_linear_program(self):
        spec = make_binary_example(0.1, with_distortion=True)
        for d in (0.05, 0.2):
            for b in (0.094, 0.198, 0.302, 0.385):
                pt = solve_lossy_causal(spec, b, d, LOSSY_TABLE)
                ref = linprog_reference(spec, b, d, LOSSY_TABLE)
                assert abs(pt.cost - b) <= 1e-12
                check_against_reference(pt, ref, b)
                assert pt.metadata["v_size"] <= 2

    def test_random_specs_match_the_linear_program(self):
        rng = np.random.default_rng(91)
        cfg = SolveConfig()
        for _ in range(12):
            spec = random_spec(rng)
            b, d = reachable_budgets(rng, spec, cfg)
            pt = solve_lossy_causal(spec, b, d, cfg)
            assert pt.feasible
            check_against_reference(pt, linprog_reference(spec, b, d, cfg), b)

    def test_v_size_max_ranks_column_subsets(self):
        """A spec whose unrestricted mix needs three columns (the first of
        104 random |S| = 1 specs) answers with two at v_size_max = 2, no
        lower than with three, and no higher than the best pair's
        reference."""
        spec = ProblemSpec(
            state_joint=np.array([[1.0]]),
            channel=np.array([
                [[0.5486584731415894, 0.34674793976713814, 0.10459358709127249]],
                [[0.28528138387028806, 0.36218676992684656, 0.3525318462028652]],
                [[0.6068958523651161, 0.38037954622789055, 0.012724601406993316]],
            ]),
            cost=np.array([
                [[0.5327987942264895, 0.6285424731014275, 0.4412579762824501]],
                [[0.9592148581219275, 0.20223500337931244, 0.8141053932048551]],
                [[0.71877921841244, 0.8993256742614447, 0.9245536540190964]],
            ]),
            distortion=np.array([
                [0.23671879669775087, 0.9218090547805275, 0.40322826567213643],
                [0.6790799421387871, 0.9528963428413268, 0.5953581444500367],
                [0.5829287619269226, 0.07085583517864857, 0.5966505050591786],
            ]),
        )
        b, d, cfg = 0.6127599578224815, 0.3583775919122768, SolveConfig()
        three = solve_lossy_causal(spec, b, d, cfg)
        assert three.metadata["v_size"] == 3
        pt = solve_lossy_causal(spec, b, d, replace(cfg, v_size_max=2))
        assert pt.metadata["v_size"] == pt.argmin.v_size == 2
        assert pt.rate >= three.rate and pt.metadata["dual_gap"] <= 2e-9
        best = min(linprog_reference(spec, b, d, cfg, pair)
                   for pair in itertools.combinations(range(3), 2))
        check_against_reference(pt, best, b)

    def test_floor_to_zero_rate_draw(self):
        """80 random queries with D uniform between the affordable columns'
        floor and their zero-rate distortion, and 80 with D at the floor:
        the slope-grid solve refused 4 of the first kind with an integrity
        error naming lambda_max, and most of the second."""
        rng = np.random.default_rng(2024)
        cfg, calls = SolveConfig(), []
        for _ in range(80):
            spec = random_spec(rng)
            cols, p_z = solver._columns(spec), spec.side_info_marginal
            b = float(np.quantile(cols.cost, rng.uniform(0.2, 1.0)))
            floor = solver._hull_read(cols.cost, cols.cells @ spec.distortion.min(axis=1) @ p_z, b)[0]
            zero = solver._hull_read(cols.cost, (cols.cells @ spec.distortion).min(axis=2) @ p_z, b)[0]
            for d in (floor + rng.uniform() * (zero - floor), floor):
                pt = solve_lossy_causal(spec, b, d, cfg)
                assert pt.feasible and pt.metadata["dual_gap"] <= 2e-9
                joint = assemble_joint(spec, pt.argmin, causal=True)
                assert abs(causal_lossy_rate(joint) - pt.rate) <= 1e-9
                assert expected_cost(joint, spec) <= b + 1e-12
                assert expected_distortion(joint, spec) <= d + 1e-9
                calls.append(pt.metadata["bisect_calls"])
        assert max(calls) <= 8 and np.mean(calls) < 3


class TestGridFree:
    @pytest.mark.parametrize("spec", [make_binary_example(0.1, with_distortion=True),
                                      random_spec(np.random.default_rng(3), (2,))],
                             ids=["binary", "random"])
    def test_answers_ignore_grid_and_refinement(self, spec):
        base = SolveConfig(grid_steps=4, refine_rounds=0)
        for cfg in (replace(base, grid_steps=32), replace(base, refine_rounds=3)):
            for b in (0.1, 0.3, 0.6):
                one, two = solve_causal(spec, b, base), solve_causal(spec, b, cfg)
                assert (one.rate, one.cost) == (two.rate, two.cost)
                assert one.argmin_summary() == two.argmin_summary()
                for d in (0.05, 0.2):
                    one = solve_lossy_causal(spec, b, d, base)
                    two = solve_lossy_causal(spec, b, d, cfg)
                    assert (one.rate, one.cost) == (two.rate, two.cost)
                    if one.feasible:
                        assert one.argmin_summary() == two.argmin_summary()
                        assert np.array_equal(one.argmin.recon, two.argmin.recon)

    def test_causal_equals_the_closed_form(self):
        spec = make_binary_example(0.1)
        for b in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            assert abs(solve_causal(spec, b).rate - rate_causal_binary(b, 0.1)) <= 1e-12


def budgets_across(spec, n):
    """n budgets from the cheapest to the dearest action column."""
    cost = solver._columns(spec).cost
    return [float(x) for x in np.linspace(cost.min(), cost.max(), n)]


small_specs = st.integers(0, 2**32 - 1).map(
    lambda seed: random_spec(np.random.default_rng(seed), (2, 3), distortion=False)
)


class TestCausalProperties:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(small_specs)
    def test_noncausal_never_above_causal(self, spec):
        for steps in (4, 6):
            cfg = SolveConfig(grid_steps=steps, v_size_max=2, refine_rounds=0)
            for b in budgets_across(spec, 4):
                nc, ca = solve_noncausal(spec, b, cfg), solve_causal(spec, b, cfg)
                assert nc.rate <= ca.rate + 1e-10

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(small_specs)
    def test_causal_curve_is_monotone_and_convex(self, spec):
        budgets = budgets_across(spec, 7)
        rates = [solve_causal(spec, b).rate for b in budgets]
        assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(rates, rates[1:]))
        slopes = np.diff(rates) / np.diff(budgets)
        assert np.all(np.diff(slopes) >= -1e-9)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(small_specs)
    def test_argmins_reevaluate(self, spec):
        cfg = SolveConfig(grid_steps=4, v_size_max=2, refine_rounds=1)
        for b in budgets_across(spec, 4)[1:]:
            for solve, causal, rate_of in ((solve_causal, True, causal_rate),
                                           (solve_noncausal, False, noncausal_rate)):
                pt = solve(spec, b, cfg)
                joint = assemble_joint(spec, pt.argmin, causal=causal)
                assert abs(rate_of(joint) - pt.rate) <= 1e-9
                assert expected_cost(joint, spec) <= b + 1e-12
