"""Equivalence, guard and regression tests for the batched lossy layer.

The grouped Blahut kernel, the subtree multiplier bisection and the
stacked decoder-side bound are checked against plain loops kept here as
references: bit-equal where the arithmetic is unchanged (binary
alphabets, one group per call), within 1e-12 where only the summation
order over an axis of length 3 differs.
"""

from dataclasses import replace

import numpy as np
import pytest

from actrate import solver
from actrate.binary import make_binary_example
from actrate.errors import IntegrityError, SearchSpaceError
from actrate.kernel import entropy_bits
from actrate.model import ProblemSpec
from actrate.solver import SolveConfig, evaluate_lossy_bounds, solve_lossy_causal

LN2 = float(np.log(2.0))
# the lambda_max solve, then one call per subtree of the bisection
BISECT_CALLS = 1 + -(-solver._BISECT_STEPS // solver._BISECT_DEPTH)


def serial_blahut(p_y, d, beta):
    """One ungrouped Blahut run: every row stops when all rows have settled."""
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


def random_groups(rng, y_size, yhat_size, n_groups):
    """Groups of random cells (some of zero mass) at random slopes, and one
    cell over the whole slope grid, which runs to the iteration cap."""
    d = rng.random((y_size, yhat_size))
    slopes = solver._slopes(SolveConfig())
    groups = [(np.repeat(rng.dirichlet(np.ones(y_size), size=1), len(slopes), axis=0), slopes)]
    for g in range(n_groups):
        cells = rng.random((int(rng.integers(1, 5)), y_size))
        cells /= cells.sum(axis=1, keepdims=True)
        if g % 3 == 0:
            cells[0] = 0.0
        groups.append((cells, rng.choice([0.0, 0.3, 2.0, 40.0], size=len(cells))))
    return d, groups


def grouped_vs_serial(d, groups):
    """(grouped results, serial results, serial iteration counts) per group."""
    p_y = np.concatenate([c for c, _ in groups])
    beta = np.concatenate([b for _, b in groups])
    ids = np.repeat(np.arange(len(groups)), [len(c) for c, _ in groups])
    rate, dist, q, iters = solver._ba_rd_lagrangian(p_y, d, beta, ids)
    out, off = [], 0
    for g, (cells, b) in enumerate(groups):
        sl = slice(off, off + len(cells))
        off += len(cells)
        ref = serial_blahut(cells, d, b)
        out.append(((rate[sl], dist[sl], q[sl], iters[g]), ref))
    return out


class TestGroupedBlahut:
    def test_binary_groups_are_bit_equal_to_serial_runs(self):
        rng = np.random.default_rng(3)
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(4):
            _, groups = random_groups(rng, 2, 2, 6)
            for got, ref in grouped_vs_serial(d, groups):
                for a, b in zip(got[:3], ref[:3]):
                    assert np.array_equal(a, b)
                assert got[3] == ref[3]

    def test_ternary_groups_agree_within_1e12(self):
        """Groups stop at different iterations (the counts must differ) and
        still match their standalone runs."""
        rng = np.random.default_rng(4)
        counts = set()
        for y_size, yhat_size in ((2, 3), (3, 2), (3, 3)):
            d, groups = random_groups(rng, y_size, yhat_size, 8)
            for got, ref in grouped_vs_serial(d, groups):
                for a, b in zip(got[:3], ref[:3]):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
                assert got[3] == ref[3]
                counts.add(int(got[3]))
        assert len(counts) > 2 and solver._BA_MAX_ITER in counts

    def test_cell_sets_match_one_call_per_set(self):
        rng = np.random.default_rng(5)
        spec = make_binary_example(0.1, with_distortion=True)
        slopes = solver._slopes(SolveConfig())
        sets = [rng.dirichlet(np.ones(2), size=int(rng.integers(1, 5))) for _ in range(5)]
        batched, iters = solver._cell_curves(sets, spec.distortion, slopes)
        for cells, (rate_k, dist_k), it in zip(sets, batched, iters):
            [(rate_1, dist_1)], [it_1] = solver._cell_curves([cells], spec.distortion, slopes)
            assert np.array_equal(rate_k, rate_1) and np.array_equal(dist_k, dist_1)
            assert it == it_1


def serial_bisect(cells, w, d_table, distortion_budget, lambda_max):
    """The plain 60-step bisection, one Blahut call per midpoint."""
    def solve_at(beta):
        rate, dist, q, _ = solver._ba_rd_lagrangian(
            cells, d_table, np.full(len(cells), beta), np.zeros(len(cells), dtype=int)
        )
        return float(w @ rate), float(w @ dist), q

    lo, hi = 0.0, lambda_max * LN2
    rate, _, q = solve_at(hi)
    for _ in range(solver._BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        rate_m, dist_m, q_m = solve_at(mid)
        if dist_m <= distortion_budget + solver._FEAS_EPS:
            hi, rate, q = mid, rate_m, q_m
        else:
            lo = mid
    return rate, q


class TestSubtreeBisection:
    def test_matches_serial_bisection(self):
        rng = np.random.default_rng(6)
        cfg = SolveConfig()
        for y_size, yhat_size in ((2, 2), (3, 3)):
            # zero distortion on the diagonal, so every target above 0 is reachable
            d_table = (1.0 - np.eye(y_size, yhat_size)) * (0.5 + rng.random((y_size, yhat_size)))
            for frac in (0.3, 0.8):
                cells = rng.dirichlet(np.ones(y_size), size=3)
                w = rng.dirichlet(np.ones(3))
                target = frac * float(w @ solver._const_dist(cells, d_table).min(axis=1))
                rate, q, calls = solver._rd_bisect(cells, w, d_table, target, cfg)
                ref_rate, ref_q = serial_bisect(cells, w, d_table, target, cfg.lambda_max)
                assert rate == ref_rate and np.array_equal(q, ref_q)
                assert calls == BISECT_CALLS

    def test_zero_rate_anchor_makes_no_call(self):
        spec = make_binary_example(0.1, with_distortion=True)
        cells = np.array([[0.9, 0.1], [0.2, 0.8]])
        rate, q, calls = solver._rd_bisect(cells, np.array([0.5, 0.5]), spec.distortion,
                                           0.5, SolveConfig())
        assert (rate, calls) == (0.0, 0)
        assert np.array_equal(q.sum(axis=2), np.ones((2, 2)))


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
    def test_rd_bisect_names_lambda_max(self):
        spec = make_binary_example(0.1, with_distortion=True)
        cells = np.array([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(IntegrityError, match="lambda_max"):
            solver._rd_bisect(cells, np.array([0.5, 0.5]), spec.distortion, 0.0,
                              SolveConfig(lambda_max=0.5))

    def test_capped_floor_names_lambda_max(self):
        """D sits 5e-10 below the distortion one grid candidate reaches at
        lambda_max = 3: no slope resolves it, yet within 1e-9 its capped rate
        would beat the incumbent, so the solve must refuse."""
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
        with pytest.raises(IntegrityError, match="lambda_max"):
            solve_lossy_causal(spec, 1.0, 0.17774637619881692, cfg)
        pt = solve_lossy_causal(spec, 1.0, 0.17774637619881692, replace(cfg, lambda_max=50.0))
        assert pt.feasible

    @pytest.mark.parametrize("solve, cfg, required", [
        (solve_lossy_causal, SolveConfig(grid_steps=6, v_size_max=2, u_size_max=2), 960),
        (solve_lossy_causal, SolveConfig(grid_steps=8), 384),
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
    mix, which spends the whole budget."""

    CFG = SolveConfig(grid_steps=6, v_size_max=2, u_size_max=2, refine_rounds=1)
    # (rate, cost) per budget 0.094, 0.198, 0.302, 0.385
    LOSSY = {
        0.05: [(0.6137742144745809, 0.094), (0.5033252979411512, 0.198),
               (0.3928763814077218, 0.302), (0.30472964994354235, 0.385)],
        0.2: [(0.19010331500372316, 0.094), (0.0996446634859928, 0.198),
              (0.02522396654939117, 0.302), (0.0, 0.385)],
    }
    # si-both, si-decoder, si-decoder-v at B = 0.27, grid 4
    BOUNDS = {
        0.05: [0.3713205120099444, 0.6577174691301485, 0.3751188326568232],
        0.2: [0.04879494069539858, 0.2488375407875445, 0.04879494069539858],
    }

    def test_lossy_causal_values(self):
        spec = make_binary_example(0.1, with_distortion=True)
        for d, expected in self.LOSSY.items():
            for b, (rate, cost) in zip((0.094, 0.198, 0.302, 0.385), expected):
                pt = solve_lossy_causal(spec, b, d, self.CFG)
                np.testing.assert_allclose([pt.rate, pt.cost], [rate, cost], rtol=0, atol=1e-12)
                # two columns' curves run to the cap; the zero-rate anchor needs no call
                meta = pt.metadata
                assert (meta["blahut_iters"], meta["blahut_capped"]) == (solver._BA_MAX_ITER, 2)
                assert meta["bisect_calls"] == (0 if rate == 0.0 else BISECT_CALLS)

    def test_bound_values(self):
        spec = make_binary_example(0.1, with_distortion=True)
        for d, expected in self.BOUNDS.items():
            rows = evaluate_lossy_bounds(spec, 0.27, d, replace(self.CFG, grid_steps=4))
            np.testing.assert_allclose([r["value"] for r in rows], expected, rtol=0, atol=1e-12)
