"""Equivalence, guard and regression tests for the batched lossy layer.

The Blahut kernel stops each row on its own certificate: the tests
recompute that certificate from the returned kernels, check the zero-rate
rows against the closed form, compare every row with the same row run
alone and with the old rate-change stop rule (``serial_blahut``), and check
that the column curves come out monotone and convex. The lossy dual search
and the stacked decoder-side bound are checked against plain loops kept
here as references: the 60-step multiplier bisection (which the search may
only undercut) and the per-kernel decoder bound (within 1e-12, where only
the summation order over an axis of length 3 differs).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actrate import solver
from actrate.binary import make_binary_example
from actrate.errors import SearchSpaceError
from actrate.kernel import entropy_bits
from actrate.model import ProblemSpec
from actrate.solver import SolveConfig, evaluate_lossy_bounds, solve_lossy_causal

LN2 = float(np.log(2.0))


def serial_blahut(p_y, d, beta):
    """Plain Blahut updates with the old stop rule: every row stops when all
    rows' rates move by less than _BA_TOL between updates."""
    w = np.exp(-beta[:, None, None] * d)  # (n, y, yhat)
    q_out = np.full((len(p_y), d.shape[1]), 1.0 / d.shape[1])
    p = p_y[:, :, None]
    prev_rate = None
    for it in range(1, solver._BA_MAX_ITER + 1):
        scores = q_out[:, None, :] * w
        denom = np.clip(scores.sum(axis=-1, keepdims=True), 1e-300, None)
        q_cond = scores / denom
        q_out = (p * q_cond).sum(axis=-2)
        rate = serial_mi(p, q_cond, q_out)
        if prev_rate is not None and np.all(np.abs(rate - prev_rate) < solver._BA_TOL):
            break
        prev_rate = rate
    q_out = (p * q_cond).sum(axis=-2)
    return serial_mi(p, q_cond, q_out), (p * q_cond * d).sum(axis=(-1, -2)), q_cond, it


def serial_mi(p, q_cond, q_out):
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.log(q_cond / q_out[:, None, :])
    np.nan_to_num(logterm, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    return np.maximum((p * q_cond * logterm).sum(axis=(-1, -2)) / LN2, 0.0)


def lagrangian_bits(rate, dist, beta):
    return rate + beta * dist / LN2


def certified_gap(p_y, d, beta, q_cond):
    """Blahut's bound, in bits, on how far each kernel's R + beta * D lies
    above the optimum: its value minus the lower bound
    -sum_y p(y) ln c_y - ln max_yhat c(yhat) taken at its own output law
    (0 on a zero-mass row, where every kernel is optimal)."""
    q_out = np.einsum("ny,nyh->nh", p_y, q_cond)
    w = np.exp(-beta[:, None, None] * d)
    c_y = (q_out[:, None, :] * w).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = lagrangian_bits(serial_mi(p_y[:, :, None], q_cond, q_out),
                                (p_y[:, :, None] * q_cond * d).sum(axis=(1, 2)), beta)
        c = (p_y[:, :, None] * w / c_y[:, :, None]).sum(axis=1)
        lower = (-np.where(p_y > 0, p_y * np.log(c_y), 0.0).sum(axis=1)
                 - np.log(c.max(axis=1))) / LN2
    return np.where(p_y.sum(axis=1) > 0.0, value - lower, 0.0)


def random_rows(rng, y_size, yhat_size, n_sets):
    """Rows of random cells (some of zero mass) at random slopes, and one
    cell over the whole slope grid, zero-rate rows included."""
    d = rng.random((y_size, yhat_size))
    slopes = solver._slopes(SolveConfig())
    cells = [np.repeat(rng.dirichlet(np.ones(y_size), size=1), len(slopes), axis=0)]
    betas = [slopes]
    for g in range(n_sets):
        c = rng.random((int(rng.integers(1, 5)), y_size))
        c /= c.sum(axis=1, keepdims=True)
        if g % 3 == 0:
            c[0] = 0.0
        cells.append(c)
        betas.append(rng.choice([0.0, 0.3, 2.0, 40.0], size=len(c)))
    return d, np.concatenate(cells), np.concatenate(betas)


def batched_vs_alone(d, p_y, beta):
    """Each row's batched results next to those of a call on that row alone."""
    batched = solver._ba_rd_lagrangian(p_y, d, beta)
    for i in range(len(beta)):
        alone = solver._ba_rd_lagrangian(p_y[i:i + 1], d, beta[i:i + 1])
        yield [a[i] for a in batched], [a[0] for a in alone]


class TestGroupedBlahut:
    def test_binary_rows_are_bit_equal_to_standalone_runs(self):
        rng = np.random.default_rng(3)
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        counts = set()
        for _ in range(4):
            _, p_y, beta = random_rows(rng, 2, 2, 6)
            for got, ref in batched_vs_alone(d, p_y, beta):
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b)
                counts.add(int(got[3]))
        assert 0 in counts and len(counts) > 2

    def test_ternary_rows_agree_within_1e12(self):
        """Rows stop at different updates (the counts must differ) and still
        match their standalone runs."""
        rng = np.random.default_rng(4)
        counts = set()
        for y_size, yhat_size in ((2, 3), (3, 2), (3, 3)):
            d, p_y, beta = random_rows(rng, y_size, yhat_size, 8)
            for got, ref in batched_vs_alone(d, p_y, beta):
                for a, b in zip(got[:3] + got[4:], ref[:3] + ref[4:]):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
                assert got[3] == ref[3]
                counts.add(int(got[3]))
        assert 0 in counts and len(counts) > 4 and max(counts) < solver._BA_MAX_ITER

    def test_cell_sets_match_one_call_per_set(self):
        rng = np.random.default_rng(5)
        spec = make_binary_example(0.1, with_distortion=True)
        slopes = solver._slopes(SolveConfig())
        sets = [rng.dirichlet(np.ones(2), size=int(rng.integers(1, 5))) for _ in range(5)]
        batched, iters, gaps = solver._cell_curves(sets, spec.distortion, slopes)
        for cells, (rate_k, dist_k), it, gap in zip(sets, batched, iters, gaps):
            [(rate_1, dist_1)], [it_1], [gap_1] = solver._cell_curves(
                [cells], spec.distortion, slopes)
            assert np.array_equal(rate_k, rate_1) and np.array_equal(dist_k, dist_1)
            assert (it, gap) == (it_1, gap_1)


def check_anchor_rows(p_y, d, beta, rate, dist, q, iters, gap):
    """Rows that meet the zero-rate condition at the best constant
    reconstruction yhat*, sum_y p(y) exp(-beta (d(y, yhat) - d(y, yhat*)))
    <= 1 for every yhat, are answered in closed form with no update; rows
    answered so meet it up to rounding."""
    const = (p_y[:, :, None] * d).sum(axis=1)
    star = const.argmin(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (p_y[:, :, None] * np.exp(
            -beta[:, None, None] * (d - d[:, star].T[:, :, None]))).sum(axis=1)
    ratio[np.arange(len(beta)), star] = 0.0
    assert np.all(np.max(ratio, axis=1)[iters == 0] <= 1.0 + 1e-12)
    for i in np.flatnonzero(np.all(ratio <= 1.0, axis=1) | (iters == 0)):
        assert (iters[i], rate[i], gap[i]) == (0, 0.0, 0.0)
        assert dist[i] == const[i, star[i]]
        assert np.array_equal(q[i], np.eye(d.shape[1])[np.full(d.shape[0], star[i])])


@st.composite
def blahut_rows(draw):
    """(p_y, d, beta) with |Y|, |Yhat| <= 3, about a fifth of the cells of
    zero mass. Hypothesis picks the sizes and a seed for the values: its
    own float draws sit so often at 0 and 1 that nearly every row would be
    a zero-rate row."""
    y_size, yhat_size, n = (draw(st.integers(1, top)) for top in (3, 3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_y = rng.dirichlet(np.ones(y_size), size=n) * (rng.random((n, 1)) > 0.2)
    return p_y, rng.random((y_size, yhat_size)), rng.uniform(0.0, 50.0 * LN2, size=n)


class TestCertifiedBlahut:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(blahut_rows())
    def test_rows_are_certified_and_no_worse_than_the_old_stop(self, rows):
        p_y, d, beta = rows
        rate, dist, q, iters, gap = solver._ba_rd_lagrangian(p_y, d, beta)
        done = iters < solver._BA_MAX_ITER
        assert np.all(certified_gap(p_y, d, beta, q)[done] <= 1e-9)
        assert np.all(gap[done] <= solver._BA_TOL)
        check_anchor_rows(p_y, d, beta, rate, dist, q, iters, gap)
        for i in range(len(beta)):
            old = serial_blahut(p_y[i:i + 1], d, beta[i:i + 1])
            assert (lagrangian_bits(rate[i], dist[i], beta[i])
                    <= lagrangian_bits(old[0][0], old[1][0], beta[i]) + 1e-12)

    def test_anchor_rows_across_the_critical_slope(self):
        """A dense slope scan puts rows on both sides of each cell's critical
        slope, and close to it."""
        rng = np.random.default_rng(14)
        for y_size, yhat_size in ((2, 2), (2, 3), (3, 3)):
            d = rng.random((y_size, yhat_size))
            p_y = np.repeat(rng.dirichlet(np.ones(y_size), size=4), 2001, axis=0)
            beta = np.tile(np.geomspace(1e-2, 1e3, 2001), 4)
            out = solver._ba_rd_lagrangian(p_y, d, beta)
            check_anchor_rows(p_y, d, beta, *out)
            zero_rate = (out[3] == 0).reshape(4, -1)
            assert np.all(zero_rate.any(axis=1) & ~zero_rate.all(axis=1))

    def test_zeroed_entry_is_revived(self):
        """Rows whose first Newton step zeroed the output letter with the
        largest c, where G falls fastest, which no Blahut update revives:
        they ran all 500 updates, certified only within 1.6e-4 to 9.3e-3
        bits. Now each certifies within 20, on the optimum's support."""
        d = np.array([[0.35031361, 0.0521702, 0.54691222],
                      [0.20461353, 0.7413625, 0.02371608],
                      [0.75073207, 0.65437581, 0.74986512]])
        p_y = np.tile([0.35944239, 0.37864284, 0.26191477], (5, 1))
        beta = np.array([0.25, 0.5, 1.0, 1.0625, 1.125]) * LN2
        rate, dist, q, iters, gap = solver._ba_rd_lagrangian(p_y, d, beta)
        assert np.all(iters <= 20) and np.all(gap <= solver._BA_TOL)
        # a 1/400 grid over the output laws puts the optimum at 1 bit/unit
        # near (0.605, 0, 0.395)
        np.testing.assert_allclose(p_y[2] @ q[2], [0.605, 0.0, 0.395], rtol=0, atol=2e-3)

    def test_large_distortions_do_not_underflow(self):
        """Adding 40 to every distortion, where exp(-beta * d) underflows at
        the top slopes, moves each row's distortion by 40 and nothing else."""
        rng = np.random.default_rng(10)
        d = rng.random((3, 3))
        p_y = rng.dirichlet(np.ones(3), size=40)
        beta = rng.uniform(0.0, 50.0 * LN2, size=40)
        rate, dist, q, iters, gap = solver._ba_rd_lagrangian(p_y, d, beta)
        rate_40, dist_40, q_40, iters_40, gap_40 = solver._ba_rd_lagrangian(p_y, d + 40.0, beta)
        assert np.all(iters_40 < solver._BA_MAX_ITER) and np.all(gap_40 <= solver._BA_TOL)
        np.testing.assert_allclose(q_40, q, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rate_40, rate, rtol=0, atol=1e-9)
        np.testing.assert_allclose(dist_40, dist + 40.0, rtol=0, atol=1e-9)

    def test_column_curves_are_monotone_and_convex(self):
        """Two random specs (|S| = 1, |Y| = 2 and |S| = 2, |Y| = 3) whose
        column curves, with updates capped short of convergence, had up to
        31 of 95 chord slopes out of order and distortions rising with the
        slope."""
        rng = np.random.default_rng(12)
        slopes = solver._slopes(SolveConfig())
        for s_size, y_size in ((1, 2), (2, 3)):
            sj, ch = rng.random((s_size, 1)) + 0.05, rng.random((2, s_size, y_size)) + 0.05
            spec = ProblemSpec(state_joint=sj / sj.sum(),
                               channel=ch / ch.sum(axis=-1, keepdims=True),
                               cost=rng.random((2, s_size, y_size)),
                               distortion=rng.random((y_size, y_size)))
            cols = solver._columns(spec)
            curves, iters, gaps = solver._cell_curves(list(cols.cells), spec.distortion, slopes)
            assert iters.max() < solver._BA_MAX_ITER and gaps.max() <= solver._BA_TOL
            for rate_k, dist_k in curves:
                rate_k, dist_k = spec.side_info_marginal @ rate_k, spec.side_info_marginal @ dist_k
                assert np.all(np.diff(dist_k) <= 0.0)
                moved = np.diff(dist_k) < 0.0
                chords = np.diff(rate_k)[moved] / -np.diff(dist_k)[moved]
                assert np.all(np.diff(chords) >= -1e-9)


def serial_bisect(cells, w, d_table, distortion_budget, lambda_max):
    """The least multiplier in [0, lambda_max] whose cell kernels meet the
    distortion budget, by 60 plain halvings, one Blahut call per midpoint:
    (rate, kernels) there."""
    def solve_at(beta):
        rate, dist, q, *_ = solver._ba_rd_lagrangian(cells, d_table, np.full(len(cells), beta))
        return float(w @ rate), float(w @ dist), q

    lo, hi = 0.0, lambda_max * LN2
    rate, _, q = solve_at(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        rate_m, dist_m, q_m = solve_at(mid)
        if dist_m <= distortion_budget + solver._FEAS_EPS:
            hi, rate, q = mid, rate_m, q_m
        else:
            lo = mid
    return rate, q


def dual_search(cells, w, d_table, target):
    """The lossy dual search on one column of cost 0 (the si-both re-solve)."""
    meta = solver._blahut_meta()
    mix = solver._lossy_dual(cells[None], w, np.zeros(1), d_table, 0.0, target, meta)
    return mix, meta


class TestDualSearch:
    def test_matches_serial_bisection(self):
        """At targets the bisection's lambda_max reaches, the search is within
        1e-12 of it and never above it but for rounding (it mixes two
        multipliers' kernels, the bisection keeps one)."""
        rng = np.random.default_rng(6)
        calls = []
        for y_size, yhat_size in ((2, 2), (3, 3), (3, 2)):
            d_table = rng.random((y_size, yhat_size))
            for frac in (0.1, 0.3, 0.8):
                cells = rng.dirichlet(np.ones(y_size), size=3)
                w = rng.dirichlet(np.ones(3))
                ref_rate, ref_q = serial_bisect(cells, w, d_table, 0.0, 50.0)
                top = float(w @ (cells[:, :, None] * ref_q * d_table).sum(axis=(1, 2)))
                zero = float(w @ (cells @ d_table).min(axis=1))
                target = top + frac * (zero - top)
                ref_rate = serial_bisect(cells, w, d_table, target, 50.0)[0]
                mix, meta = dual_search(cells, w, d_table, target)
                assert -1e-12 <= mix.rate - ref_rate <= 1e-14
                assert 0.0 <= mix.dual_gap <= 2e-9 and meta["blahut_capped"] == 0
                calls.append(meta["bisect_calls"])
        assert max(calls) <= 6 and sum(c > 0 for c in calls) >= 6

    def test_zero_rate_anchor_makes_no_call(self):
        spec = make_binary_example(0.1, with_distortion=True)
        cells = np.array([[0.9, 0.1], [0.2, 0.8]])
        mix, meta = dual_search(cells, np.array([0.5, 0.5]), spec.distortion, 0.5)
        assert (mix.rate, meta["bisect_calls"]) == (0.0, 0)
        assert np.array_equal(mix.kernels[0].sum(axis=2), np.ones((2, 2)))

    def test_floor_needs_no_lambda_max(self):
        """D = 0 with a zero-diagonal table is the floor: the bisection can
        only approach it, the search reaches it (up to the 1e-12 slack of the
        feasibility test), at rate H(Y) per cell."""
        spec = make_binary_example(0.1, with_distortion=True)
        cells = np.array([[0.9, 0.1], [0.3, 0.7]])
        mix, _ = dual_search(cells, np.array([0.5, 0.5]), spec.distortion, 0.0)
        h = np.array([entropy_bits(c) for c in cells])
        assert 0.0 <= 0.5 * h.sum() - mix.rate <= 1e-10
        np.testing.assert_allclose(mix.kernels[0], np.stack([np.eye(2)] * 2), rtol=0, atol=1e-11)
        assert dual_search(cells, np.array([0.5, 0.5]), spec.distortion + 0.1, 0.0)[0] is None


def scalar_decoder_bound(p_zvy, u_kern_vyu, i_vs_z, d_table, distortion_budget):
    """One description kernel at a time; None when it misses the budget."""
    p_zvyu = p_zvy[:, :, :, None] * u_kern_vyu[None, :, :, :]
    h = lambda a: entropy_bits(np.asarray(a).reshape(-1))  # noqa: E731
    h_u_vz = h(p_zvyu.sum(axis=2)) - h(p_zvyu.sum(axis=(2, 3)))
    h_u_yvz = h(p_zvyu) - h(p_zvy)
    p_zuy = p_zvyu.sum(axis=1).transpose(0, 2, 1)
    d_zu = np.einsum("zuy,yh->zuh", p_zuy, d_table).min(axis=2).sum()
    if d_zu > distortion_budget + solver._FEAS_EPS:
        return None
    return i_vs_z + max(0.0, h_u_vz - h_u_yvz)


class TestStackedDecoderBound:
    def test_matches_per_kernel_loop(self):
        rng = np.random.default_rng(8)
        for z, v, y, u in ((1, 2, 2, 2), (2, 2, 2, 2), (2, 3, 3, 2), (1, 2, 3, 3)):
            p_zvy = rng.dirichlet(np.ones(z * v * y)).reshape(z, v, y)
            d_table = rng.random((y, y))
            kern = rng.dirichlet(np.ones(u), size=(40, v, y))
            kern[:5] = kern[:5, :1]  # laws shared across v
            n_feasible = []
            for budget in (0.0, 0.3, 1.0):
                ref = [scalar_decoder_bound(p_zvy, k, 0.125, d_table, budget) for k in kern]
                for k, r in zip(kern, ref):
                    one = solver._decoder_bound(p_zvy, k[None], 0.125, d_table, budget)
                    np.testing.assert_allclose(one, np.inf if r is None else r, rtol=0, atol=1e-12)
                feas = [r for r in ref if r is not None]
                got = solver._decoder_bound(p_zvy, kern, 0.125, d_table, budget)
                if feas:
                    np.testing.assert_allclose(got, min(feas), rtol=0, atol=1e-12)
                else:
                    assert got == np.inf
                n_feasible.append(len(feas))
            assert n_feasible[0] < n_feasible[-1]
            shared = solver._decoder_bound(p_zvy, kern[:5, :1], 0.125, d_table, 1.0)
            assert shared == solver._decoder_bound(p_zvy, kern[:5], 0.125, d_table, 1.0)


class TestLossyGuards:
    def test_capped_floor_answers(self):
        """D sits 5e-10 below the distortion one slope-grid candidate reaches
        at lambda_max = 3, a budget the slope-grid solve refused at that
        lambda_max. The dual search reads no lambda_max: the same rate at 3
        and 50."""
        spec = ProblemSpec(
            state_joint=np.array([[0.2273461812257031, 0.03905335882876365],
                                  [0.12252782961599647, 0.6110726303295367]]),
            channel=np.array([
                [[0.4075263458176909, 0.592473654182309], [0.5546258048282037, 0.4453741951717963]],
                [[0.5841090324549937, 0.41589096754500626], [0.4940317741127171, 0.5059682258872829]],
            ]),
            cost=np.array([
                [[0.08923725441774877, 0.17266960110857543], [0.024586107465186302, 0.8391248483727817]],
                [[0.46630319720316515, 0.1272029160585304], [0.739246874033692, 0.19565282994532096]],
            ]),
            distortion=np.array([[0.061920235148452574, 0.5983921073240381],
                                 [0.8957577517412816, 0.026943411384702798]]),
        )
        cfg = SolveConfig(grid_steps=4, v_size_max=2, refine_rounds=0, lambda_max=3.0)
        pt = solve_lossy_causal(spec, 1.0, 0.17774637619881692, cfg)
        assert pt.feasible and pt.metadata["dual_gap"] <= 2e-9
        same = solve_lossy_causal(spec, 1.0, 0.17774637619881692, replace(cfg, lambda_max=50.0))
        assert (same.rate, same.cost) == (pt.rate, pt.cost)

    @pytest.mark.parametrize("solve, cfg, required", [
        (solve_lossy_causal, SolveConfig(grid_steps=6, v_size_max=2, u_size_max=2), 10),
        (solve_lossy_causal, SolveConfig(grid_steps=8), 4),
        (evaluate_lossy_bounds, SolveConfig(grid_steps=4, v_size_max=2, u_size_max=2),
         12_159_488),
        (evaluate_lossy_bounds, SolveConfig(grid_steps=8, v_size_max=2, u_size_max=3),
         214_082_781_440),
    ], ids=["lossy-grid6", "lossy-grid8", "bounds-grid4", "bounds-grid8-u3"])
    def test_search_space_counts_unchanged(self, solve, cfg, required):
        spec = make_binary_example(0.1, with_distortion=True)
        with pytest.raises(SearchSpaceError) as err:
            solve(spec, 0.2, 0.1, replace(cfg, search_limit=required - 1))
        assert err.value.required == required
        if required < 2e7:
            solve(spec, 0.2, 0.1, replace(cfg, search_limit=required))


class TestLossyTablePin:
    """The benchmark's lossy-table configuration. The bounds are values
    recorded with the serial (one Blahut run per policy, candidate and
    midpoint) implementation; the lossy-causal values are the exact column
    mix, which spends the whole budget, recorded with a 60-step multiplier
    bisection whose every Blahut row is certified (at D = 0.2 the
    rate-change stop left them up to 3.1e-9 bits high). The dual search
    reproduces them to 5e-16."""

    CFG = SolveConfig(grid_steps=6, v_size_max=2, u_size_max=2, refine_rounds=1)
    # (rate, cost) per budget 0.094, 0.198, 0.302, 0.385
    LOSSY = {
        0.05: [(0.6137742144745809, 0.094), (0.5033252979411512, 0.198),
               (0.3928763814077218, 0.302), (0.30472964994354235, 0.385)],
        0.2: [(0.1901033148655306, 0.094), (0.09964466294932167, 0.198),
              (0.025223963404114667, 0.302), (0.0, 0.385)],
    }
    # si-both, si-decoder, si-decoder-v at B = 0.27, grid 4
    BOUNDS = {
        0.05: [0.3713205120099444, 0.6577174691301485, 0.3751188326568232],
        0.2: [0.04879494069539858, 0.2488375407875445, 0.04879494069539858],
    }

    # Blahut calls of the dual search per budget; the zero-rate anchor needs none
    CALLS = {0.05: [4, 4, 4, 4], 0.2: [4, 4, 3, 0]}

    def test_lossy_causal_values(self):
        spec = make_binary_example(0.1, with_distortion=True)
        for d, expected in self.LOSSY.items():
            for b, (rate, cost), calls in zip((0.094, 0.198, 0.302, 0.385), expected,
                                              self.CALLS[d]):
                pt = solve_lossy_causal(spec, b, d, self.CFG)
                np.testing.assert_allclose([pt.rate, pt.cost], [rate, cost], rtol=0, atol=1e-12)
                # every Blahut row is certified well short of the cap
                meta = pt.metadata
                assert (meta["blahut_iters"], meta["blahut_capped"]) == ((13, 0) if calls else (0, 0))
                assert meta["blahut_gap_max"] <= 1e-9 and meta["dual_gap"] <= 2e-9
                assert meta["bisect_calls"] == calls

    def test_bound_values(self):
        spec = make_binary_example(0.1, with_distortion=True)
        for d, expected in self.BOUNDS.items():
            rows = evaluate_lossy_bounds(spec, 0.27, d, replace(self.CFG, grid_steps=4))
            np.testing.assert_allclose([r["value"] for r in rows], expected, rtol=0, atol=1e-12)
