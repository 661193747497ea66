"""The exact causal layer against independent references.

The lossless causal rate is the lower convex hull of the column points
(c_j, h_j); the lossy one mixes the columns' rate-distortion curves. The
lossy reference solves the linear program over the same (column, slope)
curve points with scipy's HiGHS (imported in this file only), then runs the
solver's exact bisection on the program's column weights. The property
tests draw small random specs with Hypothesis, derandomized so that the
suite stays deterministic.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrate import solver
from actrate.binary import make_binary_example, rate_causal_binary
from actrate.model import (
    ProblemSpec,
    assemble_joint,
    causal_rate,
    expected_cost,
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
    default) within both budgets, by HiGHS, finished by exact bisection on
    its column weights; inf when the program is infeasible."""
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
    return solver._rd_bisect(cells, w, spec.distortion, distortion_budget, config)[0]


def reachable_budgets(rng, spec, config):
    """A budget among the column costs, and a distortion budget between the
    least top-slope and the least zero-rate distortion of the affordable
    columns, so that lambda_max reaches it."""
    cols, _, dist = column_curves(spec, config)
    budget = float(np.quantile(cols.cost, rng.uniform(0.2, 0.9)))
    aff = cols.cost <= budget
    d_top, d_zero = dist[aff, -1].min(), dist[aff, 0].min()
    return budget, float(d_top + rng.uniform(0.1, 0.9) * (d_zero - d_top))


class TestLossyColumnMix:
    def test_lossy_table_matches_the_linear_program(self):
        spec = make_binary_example(0.1, with_distortion=True)
        for d in (0.05, 0.2):
            for b in (0.094, 0.198, 0.302, 0.385):
                pt = solve_lossy_causal(spec, b, d, LOSSY_TABLE)
                ref = linprog_reference(spec, b, d, LOSSY_TABLE)
                assert abs(pt.rate - ref) <= 1e-9
                assert pt.metadata["v_size"] <= 2

    def test_random_specs_match_the_linear_program(self):
        rng = np.random.default_rng(91)
        cfg = SolveConfig()
        for _ in range(12):
            spec = random_spec(rng)
            b, d = reachable_budgets(rng, spec, cfg)
            pt = solve_lossy_causal(spec, b, d, cfg)
            assert pt.feasible
            assert abs(pt.rate - linprog_reference(spec, b, d, cfg)) <= 1e-9

    def test_chord_search_walks_a_long_frontier(self):
        """One column whose 60 segments halve in length as their slopes grow:
        each chord then meets the frontier next to its zero-rate end, so the
        search advances one vertex per step (some 40 steps here, where
        random specs take about 10), and still lands on the frontier at the
        distortion budget."""
        seg = 0.5 ** np.arange(1, 61)
        dist = np.concatenate([[1.0], 1.0 - np.cumsum(seg)])
        rate = np.concatenate([[0.0], np.cumsum(np.arange(1, 61) * seg)])
        for k in (30, 55):
            d = dist[k] - 0.3 * seg[k]
            value, p, _ = solver._lossy_plan(np.zeros(1), rate[None], dist[None], np.inf, 0.0, d)
            assert p.tolist() == [1.0]
            assert abs(value - np.interp(d, dist[::-1], rate[::-1])) <= 1e-12

    def test_v_size_max_ranks_column_subsets(self):
        """A spec whose unrestricted mix needs three columns (one in the 400
        random |S| = 1 specs searched for it) answers with two at
        v_size_max = 2, and with the best pair's value."""
        spec = ProblemSpec(
            state_joint=np.array([[1.0]]),
            channel=np.array([
                [[0.1652631474837778, 0.5816028914573188, 0.2531339610589034]],
                [[0.6115640566822309, 0.04316953584346258, 0.3452664074743065]],
                [[0.35862649977199706, 0.34370657223693174, 0.2976669279910713]],
            ]),
            cost=np.array([
                [[0.937400848174666, 0.9660628267344982, 0.07740747952917781]],
                [[0.5637124109208255, 0.7695744354700403, 0.02193122802745728]],
                [[0.27700892412722755, 0.32349523398226165, 0.8213317275862863]],
            ]),
            distortion=np.array([
                [0.25888925546952357, 0.00038105401449983756, 0.9456866660340465],
                [0.32627200103367415, 0.0946554844133799, 0.7813063041821519],
                [0.5553299365635852, 0.9802092249820025, 0.3498945207951747],
            ]),
        )
        b, d, cfg = 0.5298796783739754, 0.21138555698821349, SolveConfig()
        assert solve_lossy_causal(spec, b, d, cfg).metadata["v_size"] == 3
        pt = solve_lossy_causal(spec, b, d, replace(cfg, v_size_max=2))
        assert pt.metadata["v_size"] == pt.argmin.v_size == 2
        best = min(linprog_reference(spec, b, d, cfg, pair)
                   for pair in itertools.combinations(range(3), 2))
        assert abs(pt.rate - best) <= 1e-9


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
