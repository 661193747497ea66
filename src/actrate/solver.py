"""Rate-cost and rate-distortion-cost functions on small alphabets.

The causal patterns are solved exactly: V is committed before the states
arrive, so every per-v quantity depends only on v's action column (a map
S -> A). ``solve_causal`` reads the lower convex hull of the column points
(c_j, H(Y|Z) under j) at the budget; ``solve_lossy_causal`` mixes the
columns' rate-distortion curves through the Lagrangian dual in the
distortion multiplier. Neither uses ``grid_steps`` or ``refine_rounds``.

The non-causal objective is not jointly convex in p(v|s), so
``solve_noncausal`` does a certifiable enumeration instead of descent:

  * every deterministic action policy a = f(s, v) with distinct per-v
    action columns f(., v) is enumerated, up to relabeling of the V
    alphabet (an exact symmetry: the probability grid below is
    permutation-invariant, so only the set of columns matters). A policy
    that repeats a column is never better than the one that merges the two
    symbols: summing their p(v|s) entries keeps the cost, never raises
    H(V,Y|Z) - H(V|S) because V - (S, V') - (Y, Z), and lands on the same
    grid with one symbol fewer, which the sweep visits too. Hence |V| never
    exceeds |A|^|S| in the sweep. ``brute_force_oracle`` (the plain
    independent check) and ``evaluate_lossy_bounds`` (where a per-v
    description kernel can use the repeat) keep the full multiset
    enumeration;
  * the p(v|s) rows range over a uniform simplex grid with ``grid_steps``
    subdivisions per coordinate;
  * a majorise-minimise polish then leaves the grid from the frontier
    argmin under the same policy, each step in closed form and never
    raising the objective, re-evaluated through ``model``;
  * the causal hull answer competes as p(v|s) rows constant in s, so the
    non-causal rate never exceeds the causal one.

The grid sweep is budget-independent: each (policy, grid point) yields an
(expected cost, objective) pair, and only the Pareto frontier of that cloud
can ever answer a budget query, so the sweep is run once per (spec,
config), reduced to its exact frontier, cached, and shared by all budgets,
by ``trace_curve``, and by the Lagrangian cross-check. The column table is
cached per spec the same way.

Large alphabets make the enumerations explode; they refuse with a
SearchSpaceError (carrying the count) instead of running for hours. The
cost constraint is handled two ways, both exposed: direct feasibility
filtering (``solve_*``), and ``lagrangian_sweep``, whose lower envelope
bounds the causal solve and the grid-only non-causal solve
(refine_rounds=0) from below by weak duality; the polish leaves the grid
and may go lower.

The sweep evaluates every policy of one V size in one kernel call, in flat
blocks of about ``_TILE_BYTES`` (1 MiB) of tile, so small specs pay no
per-policy overhead. Heavy sweeps (more than ~2e7 grid points) evaluate
tiles in float32 for memory-bandwidth reasons; small sweeps stay in
float64. Reported rates
never come from the tile path or the column table: the returned argmin is
always re-evaluated through ``model``, so a point's rate reproduces under
re-evaluation to float64 accuracy. Everything here is pure-functional over
read-only arrays; concurrent calls at worst duplicate a cached sweep.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, SearchSpaceError, UsageError
from .kernel import entropy_bits
from .model import (
    ActionPolicy,
    AuxiliaryChoice,
    ProblemSpec,
    assemble_joint,
    causal_rate,
    expected_cost,
    noncausal_rate,
    reduced_cost,
)

__all__ = [
    "SolveConfig",
    "RateCostPoint",
    "RateCurve",
    "solve_noncausal",
    "solve_causal",
    "solve_lossy_causal",
    "evaluate_lossy_bounds",
    "trace_curve",
    "brute_force_oracle",
    "lagrangian_sweep",
    "lower_convex_envelope",
]

_LN2 = float(np.log(2.0))

# Feasibility slack for cost comparisons against the budget (float dust only;
# the budget itself is not relaxed).
_FEAS_EPS = 1e-12

# Tile evaluation switches to float32 above this many grid points.
_F32_THRESHOLD = 20_000_000

# Bytes of tile per sweep block, and of per-state tables per policy chunk.
_TILE_BYTES = 1 << 20

# Pareto-frontier screening buckets (acceleration only; results stay exact).
_N_BUCKETS = 4096

DEFAULT_LAGRANGE_SWEEP = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

# A Blahut row stops once its certificate, log2 max_yhat c(yhat), proves its
# kernel's R + beta * D within _BA_TOL bits of the optimum. _BA_MAX_ITER is
# a guard; every _BA_NEWTON-th update is a safeguarded Newton step.
_BA_TOL = 1e-9
_BA_MAX_ITER = 500
_BA_NEWTON = 4

# A polish step that gains under _MM_TOL nats is its last; the others are guards.
_MM_TOL = 1e-12
_MM_MAX_STEPS = 1000
_MM_LAMBDA_ITERS = 100

# exp(-x) is exactly 0.0 in float64 for x >= _EXP_UNDERFLOW.
_EXP_UNDERFLOW = 746.0

# Multipliers per Blahut call of the lossy dual search, after its ladder.
_DUAL_POINTS = 15

# Cell sets (columns, or bound candidates) per Blahut call; bounds
# the call's memory at about _CURVE_BATCH * cells * lambda_grid rows.
_CURVE_BATCH = 256

# Decoder-side description kernels are evaluated in stacks of this many.
_KERNEL_BLOCK = 4096


@dataclass(frozen=True)
class SolveConfig:
    """Search resolution and guard settings.

    ``grid_steps`` shapes the grid searches only (the non-causal sweep and
    the lossy bounds); ``refine_rounds`` > 0 polishes the non-causal grid
    point, 0 reports it. v_size_max / u_size_max default to |S|+2 and |Y|+2
    (sufficient auxiliary cardinalities for these objectives) when left as
    None. ``search_limit`` bounds the grid evaluations a sweep may request
    and the column points a causal solve reads; bound searches with inner
    enumerations are charged a 64x weight for their per-point cost.
    ``lambda_grid`` and ``lambda_max`` shape only the si-both screen of the
    lossy bounds, its multiplier grid (the winning candidate is re-solved
    exactly, so they only affect which candidate wins);
    ``solve_lossy_causal`` reads neither.
    """

    grid_steps: int = 32
    refine_rounds: int = 3
    v_size_max: int | None = None
    u_size_max: int | None = None
    search_limit: int = 4_000_000_000
    lambda_max: float = 50.0
    lambda_grid: int = 96

    def __post_init__(self):
        if self.grid_steps < 2:
            raise UsageError("grid_steps must be >= 2")
        if self.refine_rounds < 0:
            raise UsageError("refine_rounds must be >= 0")
        for name in ("v_size_max", "u_size_max"):
            val = getattr(self, name)
            if val is not None and val < 1:
                raise UsageError(f"{name} must be >= 1")

    def resolved_v_max(self, spec: ProblemSpec) -> int:
        return self.v_size_max if self.v_size_max is not None else spec.s_size + 2

    def resolved_u_max(self, spec: ProblemSpec) -> int:
        return self.u_size_max if self.u_size_max is not None else spec.y_size + 2


@dataclass(frozen=True)
class RateCostPoint:
    """One solved point of a rate-cost curve.

    ``rate`` is the reported value (after any envelope post-processing in a
    curve); ``solved_rate`` is the raw search value for that budget. For a
    feasible point the argmin re-evaluates to ``solved_rate`` through the
    reference path. Infeasible budgets give rate = inf and argmin = None.
    """

    budget: float
    rate: float
    cost: float
    feasible: bool = True
    distortion: float | None = None
    argmin: AuxiliaryChoice | None = None
    solved_rate: float | None = None
    metadata: dict = field(default_factory=dict)

    def argmin_summary(self) -> str:
        return "" if self.argmin is None else self.argmin.summary()


@dataclass(frozen=True)
class RateCurve:
    points: tuple[RateCostPoint, ...]
    mode: str
    envelope_applied: bool
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Simplex grids and policy enumeration
# ---------------------------------------------------------------------------


def _simplex_grid_size(k: int, steps: int) -> int:
    return math.comb(steps + k - 1, k - 1)


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    """All pmfs on k atoms with denominators ``steps``, shape (N, k)."""
    if k == 1:
        return np.ones((1, 1))
    pts = np.empty((_simplex_grid_size(k, steps), k))
    row = 0
    for cuts in itertools.combinations(range(steps + k - 1), k - 1):
        prev = -1
        for j, c in enumerate(cuts):
            pts[row, j] = c - prev - 1
            prev = c
        pts[row, k - 1] = steps + k - 2 - prev
        row += 1
    return pts / steps


def _action_columns(spec: ProblemSpec) -> list[tuple[int, ...]]:
    """All per-v action columns f(., v): maps from S to A, lexicographic."""
    return list(itertools.product(range(spec.a_size), repeat=spec.s_size))


def _policies(spec: ProblemSpec, v_size: int, repeats: bool = False) -> np.ndarray:
    """A (P, s, v) stack of policy tables, one per set of ``v_size`` distinct
    action columns, in ``itertools.combinations`` order.

    Merging two symbols that share a column never worsens the non-causal
    objective (see the module docstring), so the sweep skips repeats;
    ``repeats=True`` gives the full multiset enumeration that the oracle
    and the lossy bounds keep.
    """
    cols = np.array(_action_columns(spec))
    pick = itertools.combinations_with_replacement if repeats else itertools.combinations
    combos = np.array(list(pick(range(len(cols)), v_size)), dtype=np.int64).reshape(-1, v_size)
    return np.ascontiguousarray(cols[combos].transpose(0, 2, 1))


def _policy(spec: ProblemSpec, v_size: int, policy_id: int) -> np.ndarray:
    """``_policies(spec, v_size)[policy_id]``, without building the others."""
    cols = np.array(_action_columns(spec))
    combos = itertools.combinations(range(len(cols)), v_size)
    return np.ascontiguousarray(cols[list(next(itertools.islice(combos, policy_id, None)))].T)


def _policy_count(spec: ProblemSpec, v_size: int, repeats: bool = False) -> int:
    n_cols = spec.a_size**spec.s_size
    return math.comb(n_cols + v_size - 1 if repeats else n_cols, v_size)


def _v_sizes(spec: ProblemSpec, config, repeats: bool = False) -> range:
    """V sizes to enumerate: distinct columns run out at |A|^|S|."""
    v_max = config.resolved_v_max(spec)
    return range(1, (v_max if repeats else min(v_max, spec.a_size**spec.s_size)) + 1)


# ---------------------------------------------------------------------------
# Exact Pareto frontier of (cost, objective) pairs
# ---------------------------------------------------------------------------


class _Frontier:
    """Exact lower-left staircase of (cost, objective) with argmin payloads.

    Candidates are screened against a bucketized prefix-min table first;
    the screen is conservative (floor-edge buckets), so every point that
    could improve any budget query survives to the exact merge.
    """

    def __init__(self, cost_ceiling: float, grid_points: int, tile_dtype: str):
        self.grid_points = grid_points
        self.tile_dtype = tile_dtype
        self.cost = np.empty(0)
        self.obj = np.empty(0)
        self.v_size = np.empty(0, dtype=np.int64)
        self.policy_id = np.empty(0, dtype=np.int64)
        self.combo = np.empty(0, dtype=np.int64)
        self.screened = 0  # candidates screened, and those that passed
        self.passed = 0
        self._width = max(cost_ceiling, 1e-300) / _N_BUCKETS
        self._bucket_lb = np.full(_N_BUCKETS + 1, np.inf)

    def screen(self, cost: np.ndarray, obj: np.ndarray) -> np.ndarray:
        idx = np.minimum((cost / self._width).astype(np.int64), _N_BUCKETS)
        keep = obj < self._bucket_lb[idx]
        self.screened += len(keep)
        self.passed += int(np.count_nonzero(keep))
        return keep

    def update(self, cost, obj, v_size: int, policy_id, combo) -> None:
        """Merge candidates of one V size, with per-point policy ids and combos."""
        cost = np.concatenate([self.cost, np.asarray(cost, dtype=np.float64)])
        obj = np.concatenate([self.obj, np.asarray(obj, dtype=np.float64)])
        vs = np.concatenate(
            [self.v_size, np.full(len(cost) - len(self.v_size), v_size, dtype=np.int64)]
        )
        pid = np.concatenate([self.policy_id, np.asarray(policy_id, dtype=np.int64)])
        cmb = np.concatenate([self.combo, np.asarray(combo, dtype=np.int64)])
        order = np.lexsort((obj, cost))  # stable: earlier entries win ties
        cost, obj = cost[order], obj[order]
        vs, pid, cmb = vs[order], pid[order], cmb[order]
        run = np.minimum.accumulate(obj)
        prev = np.concatenate(([np.inf], run[:-1]))
        keep = obj < prev
        self.cost, self.obj = cost[keep], obj[keep]
        self.v_size, self.policy_id, self.combo = vs[keep], pid[keep], cmb[keep]
        edges = np.arange(_N_BUCKETS + 1) * self._width
        pos = np.searchsorted(self.cost, edges, side="right") - 1
        self._bucket_lb = np.where(pos >= 0, self.obj[np.maximum(pos, 0)], np.inf)

    def query(self, budget: float):
        """(v_size, policy_id, combo) of the least objective with cost <= budget."""
        pos = int(np.searchsorted(self.cost, budget + _FEAS_EPS, side="right")) - 1
        if pos < 0:
            return None
        return int(self.v_size[pos]), int(self.policy_id[pos]), int(self.combo[pos])

    @property
    def min_cost(self) -> float:
        return float(self.cost[0]) if len(self.cost) else np.inf

    @property
    def screen_pass(self) -> float:
        return self.passed / self.screened


# ---------------------------------------------------------------------------
# Vectorized tile evaluation
# ---------------------------------------------------------------------------


def _neg_plogp(arr: np.ndarray) -> np.ndarray:
    """-sum p*ln(p) over the last axis, 0 ln 0 = 0, preserving dtype."""
    out = np.log(arr, out=np.zeros_like(arr), where=arr > 0)
    out *= arr
    return -out.sum(-1)


def _sweep_tiles(spec, policies, grid, causal, dtype, consume):
    """Evaluate objective/cost for every grid combo under a stack of policies.

    ``policies`` is a (P, s, v) stack of tables of one V size. Points go out
    in flat blocks of about _TILE_BYTES of tile over (policy, prefix) rows,
    policy-major, then prefix, then inner row: the order of a loop over the
    policies, so ties resolve as that loop would resolve them. The stack is
    cut into chunks whose per-state tables stay near _TILE_BYTES too.
    ``consume(cost, obj, policy_ids, combo_ids)`` receives flat arrays, the
    policy ids indexing the stack. Combos are mixed-radix over per-state
    row indices (state 0 most significant); the causal pattern has a single
    shared row, combo = row.
    """
    s_size = spec.s_size
    n, v_size = grid.shape
    n_axes = 1 if causal else s_size
    k = spec.z_size * v_size * spec.y_size
    row_bytes = n * k * np.dtype(dtype).itemsize
    chunk = max(1, _TILE_BYTES // (n_axes * row_bytes))
    block = max(8, min(4096, _TILE_BYTES // row_bytes))
    n_prefix = n ** (n_axes - 1)
    lam = reduced_cost(spec)
    p_s = spec.state_marginal
    h_z = entropy_bits(spec.side_info_marginal)
    h_grid = -xlogy(grid, grid).sum(axis=1) / _LN2
    inner_ids = np.arange(n, dtype=np.int64)

    for c0 in range(0, len(policies), chunk):
        pols = policies[c0:c0 + chunk]
        t = spec.channel[pols, np.arange(s_size)[:, None], :]  # (P, s, v, y)
        c = lam[np.arange(s_size)[:, None], pols]  # (P, s, v)
        if causal:
            # J[i] column-major over (z, v, y): r_i[v] * sum_s p(s, z) T[s, v, y]
            m = [np.einsum("sz,psvy->pzvy", spec.state_joint, t)]
            w = [np.einsum("s,psv->pv", p_s, c)]
            h_axes = [h_grid]
        else:
            m = [spec.state_joint[s][:, None, None] * t[:, s, None] for s in range(s_size)]
            w = [p_s[s] * c[:, s] for s in range(s_size)]
            h_axes = [p_s[s] * h_grid for s in range(s_size)]
        g_axes = [np.ascontiguousarray((grid[None, :, None, :, None] * ms[:, None])
                                       .reshape(len(pols), n, k), dtype=dtype) for ms in m]
        # a matrix-vector product per policy; one (n, v) @ (v, P) product rounds differently
        cost_axes = [(grid @ ws[:, :, None])[:, :, 0] for ws in w]

        n_rows = len(pols) * n_prefix
        for r0 in range(0, n_rows, block):
            flat = np.arange(r0, min(r0 + block, n_rows), dtype=np.int64)
            pol, prefix = np.divmod(flat, n_prefix)  # policy-major, then prefix
            j_pre = np.zeros((len(pol), k), dtype=dtype)
            cost_pre = np.zeros(len(pol))
            h_pre = np.zeros(len(pol))
            rem = prefix
            for s in range(n_axes - 2, -1, -1):
                rem, rows = np.divmod(rem, n)
                j_pre += g_axes[s][pol, rows]
                cost_pre += cost_axes[s][pol, rows]
                h_pre += h_axes[s][rows]
            tile = g_axes[-1][pol]
            tile += j_pre[:, None, :]
            h_tile = _neg_plogp(tile) / dtype(_LN2)
            obj = h_tile - (h_pre[:, None] + h_axes[-1][None, :]) - h_z
            cost = cost_pre[:, None] + cost_axes[-1][pol]
            combos = prefix[:, None] * n + inner_ids[None, :]
            consume(cost.reshape(-1), obj.reshape(-1), np.repeat(pol + c0, n), combos.reshape(-1))


def _outer_count(spec, config, repeats: bool = False) -> int:
    """Policies times p(v|s) grid combos over every V size: the outer enumeration."""
    return sum(
        _policy_count(spec, v, repeats) * _simplex_grid_size(v, config.grid_steps) ** spec.s_size
        for v in _v_sizes(spec, config, repeats)
    )


def _run_sweep(spec, config) -> _Frontier:
    """The exact frontier of the non-causal grid sweep: one ``_sweep_tiles``
    call per V size, on the stack of all its distinct-column policies."""
    total = _outer_count(spec, config)
    if total > config.search_limit:
        raise SearchSpaceError(total, config.search_limit, "grid sweep")
    dtype = np.float32 if total > _F32_THRESHOLD else np.float64
    frontier = _Frontier(
        cost_ceiling=float(reduced_cost(spec).max(initial=0.0)),
        grid_points=total,
        tile_dtype=np.dtype(dtype).name,
    )
    for v_size in _v_sizes(spec, config):

        def consume(cost, obj, policy_ids, combos):
            keep = frontier.screen(cost, obj)
            if np.any(keep):
                frontier.update(cost[keep], obj[keep], v_size, policy_ids[keep], combos[keep])

        grid = _simplex_grid(v_size, config.grid_steps)
        _sweep_tiles(spec, _policies(spec, v_size), grid, False, dtype, consume)
    return frontier


# Process-local cache of the budget-independent work (the sweep frontiers and
# the column tables), shared by repeated solves and trace_curve. Bounded FIFO.
_SWEEP_CACHE: dict[tuple, object] = {}
_SWEEP_CACHE_MAX = 16


def _cached(key, build):
    hit = _SWEEP_CACHE.get(key)
    if hit is None:
        hit = build()
        if len(_SWEEP_CACHE) >= _SWEEP_CACHE_MAX:
            _SWEEP_CACHE.pop(next(iter(_SWEEP_CACHE)))
        _SWEEP_CACHE[key] = hit
    return hit


def _cached_sweep(spec, config) -> _Frontier:
    key = (
        spec.fingerprint(),
        config.grid_steps,
        len(_v_sizes(spec, config)),
        config.search_limit,
    )
    return _cached(key, lambda: _run_sweep(spec, config))


# ---------------------------------------------------------------------------
# Reference-path evaluation and the non-causal polish
# ---------------------------------------------------------------------------


def _combo_rows(grid: np.ndarray, combo: int, n_axes: int) -> np.ndarray:
    return grid[list(np.unravel_index(combo, (len(grid),) * n_axes))]  # state 0 most significant


def _make_aux(policy: np.ndarray, rows: np.ndarray, causal: bool) -> AuxiliaryChoice:
    if causal:
        return AuxiliaryChoice(policy=ActionPolicy(policy), v_marginal=rows[0])
    return AuxiliaryChoice(policy=ActionPolicy(policy), v_given_s=rows)


def _eval_reference(spec, policy, rows, causal) -> tuple[float, float]:
    """(objective, expected cost) through the exact model path."""
    aux = _make_aux(policy, rows, causal)
    joint = assemble_joint(spec, aux, causal=causal)
    value = causal_rate(joint) if causal else noncausal_rate(joint)
    return value, expected_cost(joint, spec)


def _polish(spec, policy, rows, budget, config):
    """Majorise-minimise steps from the grid rows, the policy held fixed.

    H(V,Y|Z) is the least E[-ln q(V,Y|Z)] over laws q (Csiszar and Tusnady,
    1984). So with q = p(v,y|z) held and l(s,v) = E[-ln q(v,Y|Z) | s, v],
    the rows p(v|s) ~ exp(-l(s,v) - lam * c(s,v)) minimise an upper bound
    on H(V,Y|Z) - H(V|S) that touches it at the current rows, lam >= 0 the
    least multiplier that meets the budget (the concave-convex procedure;
    Yuille and Rangarajan, 2003). Returns (rows, objective, cost, steps,
    gain): the grid rows unless ``model`` finds the polished ones lower and
    within budget.
    """
    value, cost = _eval_reference(spec, policy, rows, False)
    if not config.refine_rounds or policy.shape[1] == 1:
        return rows, value, cost, 0, 0.0
    c = reduced_cost(spec)[np.arange(spec.s_size)[:, None], policy]  # (s, v)
    p_s, p_z = spec.state_marginal, spec.side_info_marginal
    if p_s @ c.min(axis=1) >= budget:  # not even the cheapest rows undercut it
        return rows, value, cost, 0, 0.0
    t = spec.channel[policy, np.arange(spec.s_size)[:, None], :]  # (s, v, y)
    dead = p_s == 0.0  # a zero-mass state keeps its row
    z_given_s = spec.state_joint / np.where(dead, 1.0, p_s)[:, None]
    weight = z_given_s[:, :, None, None] * t[:, None, :, :]  # (s, z, v, y)

    def objective(r):  # H(V,Y|Z) - H(V|S) in nats, and q = p(v, y | z)
        p_zvy = np.einsum("sz,sv,svy->zvy", spec.state_joint, r, t)
        h = xlogy(p_z, p_z).sum() - xlogy(p_zvy, p_zvy).sum() + p_s @ xlogy(r, r).sum(axis=1)
        return h, p_zvy / np.where(p_z > 0.0, p_z, 1.0)[:, None, None]

    now, q = objective(rows)
    best = rows
    for steps in range(1, _MM_MAX_STEPS + 1):
        e = xlogy(weight, q).sum(axis=(1, 3))  # -l(s, v): -inf off the support of q
        lam, lo, hi, new = 0.0, 0.0, np.inf, best  # no multiplier meets it: stop
        for _ in range(_MM_LAMBDA_ITERS):
            x = e - lam * c
            r = np.exp(x - x.max(axis=1, keepdims=True))
            r = np.where(dead[:, None], rows, r / r.sum(axis=1, keepdims=True))
            mean = (r * c).sum(axis=1)
            slack = float(budget - p_s @ mean)  # a float: an overflowing step is inf, no warning
            if slack >= 0.0:
                hi, new = lam, r
            else:
                lo = lam
            # stop on the budget to 1e-15, or once the bracket closes (at lam = 0 too)
            if 0.0 <= slack <= 1e-15 or lo >= hi * (1.0 - 1e-15):
                break
            # safeguarded Newton: inside (lo, min(hi, 2 lo + 1)), else bisect or grow
            slope = float(p_s @ ((r * c * c).sum(axis=1) - mean**2))  # -d cost / d lam
            lam = lam - slack / slope if slope > 0.0 else hi
            if not lo < lam < min(hi, 2.0 * lo + 1.0):
                lam = 0.5 * (lo + hi) if hi < np.inf else 2.0 * lo + 1.0
        new_value, new_q = objective(new)
        gain = now - new_value
        if gain > 0.0:
            best, now, q = new, new_value, new_q
        if gain < _MM_TOL:
            break
    new_value, new_cost = _eval_reference(spec, policy, best, False)
    if new_cost <= budget + _FEAS_EPS and new_value < value:
        return best, new_value, new_cost, steps, value - new_value
    return rows, value, cost, steps, 0.0


def _check_budgets(**named) -> None:
    """Raise DomainError unless every named budget is finite and >= 0."""
    for name, value in named.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


# ---------------------------------------------------------------------------
# The exact causal layer: one column table, read as a convex hull
# ---------------------------------------------------------------------------


class _Columns(NamedTuple):
    """Every action column j (a map S -> A). In the causal patterns V is
    independent of (S, Z), so each per-v quantity depends only on v's column."""

    policy: np.ndarray  # (s, n): column j is policy[:, j]
    cost: np.ndarray  # (n,) expected cost c_j
    cells: np.ndarray  # (n, z, y) output laws p(y | z, j)
    h: np.ndarray  # (n,) H(Y | Z) in bits under column j


def _columns(spec, config=None, weight: int = 1, subsets: int = 0) -> _Columns:
    """The (cached) column table. Given a config, refuse unless ``weight``
    points per column and per ranked column subset fit within its search
    limit."""
    required = weight * (spec.a_size**spec.s_size + subsets)
    if config is not None and required > config.search_limit:
        raise SearchSpaceError(required, config.search_limit, "column table")
    return _cached((spec.fingerprint(), "columns"), lambda: _column_table(spec))


def _column_table(spec) -> _Columns:
    policy = np.ascontiguousarray(np.array(_action_columns(spec)).T)
    rows = np.arange(spec.s_size)[:, None]
    p_z = spec.side_info_marginal
    joint = np.einsum("sz,sny->nzy", spec.state_joint, spec.channel[policy, rows, :])
    cells = joint / np.where(p_z > 0.0, p_z, 1.0)[:, None]  # a zero-mass z keeps zero cells
    cost = spec.state_marginal @ reduced_cost(spec)[rows, policy]
    return _Columns(policy, cost, cells, -xlogy(cells, cells).sum(axis=2) @ p_z / _LN2)


def _lower_hull(cost, value) -> np.ndarray:
    """Indices of the lower convex hull of the points (cost_j, value_j),
    from the cheapest point to the least value, by increasing cost."""
    c, v = cost.tolist(), value.tolist()
    hull = []
    for j in np.lexsort((value, cost)).tolist():
        if hull and v[j] >= v[hull[-1]]:
            continue  # costs no less than the last vertex and is worth no less
        while len(hull) >= 2 and ((v[hull[-1]] - v[hull[-2]]) * (c[j] - c[hull[-2]])
                                  >= (v[j] - v[hull[-2]]) * (c[hull[-1]] - c[hull[-2]])):
            hull.pop()  # the last vertex lies on or above the chord to j
        hull.append(j)
    return np.array(hull)


def _hull_read(cost, value, budget, pairs: bool = True):
    """(value, weights) of the least mixture of at most two columns with
    cost <= budget, or None when no column is affordable.

    This reads the lower convex hull of the points (cost_j, value_j) at the
    budget: the last vertex the budget affords, mixed with the next one at
    cost exactly ``budget`` when there is one. ``pairs=False`` reads the
    best affordable column alone.
    """
    ok = cost <= budget + _FEAS_EPS
    if not ok.any():
        return None
    if pairs:
        hull = _lower_hull(cost, value)
        pos = int(np.searchsorted(cost[hull], budget + _FEAS_EPS, side="right")) - 1
        i, k = hull[pos], hull[min(pos + 1, len(hull) - 1)]
    else:
        i = k = int(np.flatnonzero(ok)[np.argmin(value[ok])])
    theta = min((cost[k] - budget) / (cost[k] - cost[i]), 1.0) if k != i else 1.0
    p = np.zeros(len(cost))
    p[i] += theta
    p[k] += 1.0 - theta
    return float(theta * value[i] + (1.0 - theta) * value[k]), p


def _infeasible(budget, meta, distortion=None, **why) -> RateCostPoint:
    meta.update(why)
    return RateCostPoint(budget=float(budget), rate=np.inf, cost=np.inf, feasible=False,
                         distortion=distortion, metadata=meta)


# ---------------------------------------------------------------------------
# Lossless solves
# ---------------------------------------------------------------------------


def solve_noncausal(
    spec: ProblemSpec, budget: float, config: SolveConfig | None = None
) -> RateCostPoint:
    """Minimize I(V;S|Z) + H(Y|V,Z) over policies and p(v|s), cost <= budget.

    The polished grid answer competes with the causal hull answer, entered
    as p(v|s) rows all equal to p(v) (so I(V;S|Z) = 0); the lower one, as
    re-evaluated through ``model``, is reported (``from_hull`` says which).
    ``polish_steps`` counts the polish's steps, ``polish_gain`` the bits saved.
    """
    _check_budgets(budget=budget)
    config = config or SolveConfig()
    frontier = _cached_sweep(spec, config)
    meta = {
        "mode": "noncausal",
        "grid_steps": config.grid_steps,
        "refine_rounds": config.refine_rounds,
        "v_size_max": config.resolved_v_max(spec),
        "grid_points": frontier.grid_points,
        "tile_dtype": frontier.tile_dtype,
        "frontier_size": len(frontier.cost),
        "screen_pass": frontier.screen_pass,
    }
    hit = frontier.query(budget)
    if hit is None:
        return _infeasible(budget, meta, min_achievable_cost=frontier.min_cost)
    v_size, policy_id, combo = hit
    cols = _columns(spec)
    policy = _policy(spec, v_size, policy_id)
    rows = _combo_rows(_simplex_grid(v_size, config.grid_steps), combo, spec.s_size)
    rows, value, cost, steps, gain = _polish(spec, policy, rows, budget, config)
    hull_value, p = _hull_read(cols.cost, cols.h, budget, meta["v_size_max"] >= 2)
    meta["from_hull"] = False
    # a hull answer within 1e-12 of the grid's is float dust: keep the grid argmin
    if hull_value < value - 1e-12:
        keep = p > 0.0
        h_policy, h_rows = cols.policy[:, keep], np.tile(p[keep], (spec.s_size, 1))
        h_value, h_cost = _eval_reference(spec, h_policy, h_rows, False)
        if h_value < value:
            policy, rows, value, cost = h_policy, h_rows, h_value, h_cost
            meta["from_hull"] = True
    meta.update(v_size=int(policy.shape[1]), polish_steps=steps, polish_gain=gain)
    return RateCostPoint(
        budget=float(budget), rate=value, cost=cost, argmin=_make_aux(policy, rows, False),
        solved_rate=value, metadata=meta,
    )


def solve_causal(
    spec: ProblemSpec, budget: float, config: SolveConfig | None = None
) -> RateCostPoint:
    """Minimize H(Y|V,Z) over policies and state-independent p(v), cost <= budget.

    Exact: the hull of the column points (c_j, h_j) read at the budget,
    with at most two columns (one when v_size_max is 1), its argmin
    re-evaluated through ``model``.
    """
    _check_budgets(budget=budget)
    config = config or SolveConfig()
    cols = _columns(spec, config)
    meta = {"mode": "causal", "v_size_max": config.resolved_v_max(spec),
            "columns": len(cols.cost)}
    hull = _hull_read(cols.cost, cols.h, budget, meta["v_size_max"] >= 2)
    if hull is None:
        return _infeasible(budget, meta, min_achievable_cost=float(cols.cost.min()))
    keep = hull[1] > 0.0
    p_v = hull[1][keep][None]
    value, cost = _eval_reference(spec, cols.policy[:, keep], p_v, True)
    meta["v_size"] = int(keep.sum())
    return RateCostPoint(
        budget=float(budget), rate=value, cost=cost,
        argmin=_make_aux(cols.policy[:, keep], p_v, True), solved_rate=value, metadata=meta,
    )


def lagrangian_sweep(
    spec: ProblemSpec,
    mode: str,
    lambdas=DEFAULT_LAGRANGE_SWEEP,
    config: SolveConfig | None = None,
) -> list[dict]:
    """min(objective + lam * cost) over the candidate points, per multiplier.

    Causal mode reads the column points (c_j, h_j), non-causal mode the
    cached sweep's frontier (for every lam >= 0 the minimizer lies on it).
    By weak duality, max over lam of (value - lam * B) lower-bounds the
    causal solve at budget B and the grid-only non-causal solve
    (refine_rounds=0): both answer from these points or their hull, and the
    sweep's |V| = 1 points are the columns. Tests use that as the
    cross-check between the two constraint treatments. The polish leaves
    the grid, so a polished non-causal solve may fall below this bound.
    """
    causal = _parse_mode(mode)
    config = config or SolveConfig()
    lambdas = tuple(lambdas)
    if not all(math.isfinite(l) and l >= 0.0 for l in lambdas):
        raise DomainError("multipliers must be finite and >= 0")
    if causal:
        cols = _columns(spec, config)
        objective, costs = cols.h, cols.cost
    else:
        frontier = _cached_sweep(spec, config)
        objective, costs = frontier.obj, frontier.cost
    out = []
    for lam in lambdas:
        scores = objective + lam * costs
        k = int(np.argmin(scores))
        out.append(
            {
                "lam": float(lam),
                "value": float(scores[k]),
                "objective": float(objective[k]),
                "cost": float(costs[k]),
            }
        )
    return out


def _parse_mode(mode: str) -> bool:
    if mode == "causal":
        return True
    if mode == "noncausal":
        return False
    raise UsageError(f"mode must be 'noncausal' or 'causal', got {mode!r}")


def brute_force_oracle(
    spec: ProblemSpec,
    budgets,
    mode: str = "noncausal",
    dense_steps: int = 64,
    v_size: int | None = None,
    max_evals: int = 100_000_000,
) -> list[RateCostPoint]:
    """Plain dense-grid minima, one per budget: no polish, no caching, no frontier.

    Enumerates every policy on exactly ``v_size`` symbols, repeated action
    columns included (up to V relabeling, an exact symmetry), and
    every simplex grid point at resolution 1/dense_steps, once for all of
    ``budgets``; per budget it keeps the smallest objective seen with
    cost <= budget, and returns one point per budget, in order. Guarded by
    ``max_evals``; a larger request raises SearchSpaceError with the count.

    Against a smooth optimum the grid value sits above the true minimum by
    about c/dense_steps, where c bounds how fast the objective moves per
    unit of coordinate quantization; entropy slopes stay below ~2 bits on
    the interior region where these optima live, and the feasibility
    quantization contributes |dR/dB| * step. The acceptance suite pins the
    documented slack 1e-2 at dense_steps = 64 on the binary instance.
    """
    budgets = [float(b) for b in budgets]
    _check_budgets(**{f"budgets[{i}]": b for i, b in enumerate(budgets)})
    causal = _parse_mode(mode)
    if v_size is None:
        v_size = spec.s_size + 2
    n_axes = 1 if causal else spec.s_size
    n = _simplex_grid_size(v_size, dense_steps)
    total = _policy_count(spec, v_size, repeats=True) * (n**n_axes)
    if total > max_evals:
        raise SearchSpaceError(total, max_evals, "oracle enumeration")
    grid = _simplex_grid(v_size, dense_steps)
    dtype = np.float32 if total > _F32_THRESHOLD else np.float64
    policies = _policies(spec, v_size, repeats=True)
    best = [(np.inf, -1, -1)] * len(budgets)  # (objective, policy id, combo) per budget

    def consume(cost, obj, policy_ids, combos):
        for i, budget in enumerate(budgets):
            feas = np.flatnonzero(cost <= budget + _FEAS_EPS)
            if len(feas):
                k = feas[int(np.argmin(obj[feas]))]
                if obj[k] < best[i][0]:  # strict: the earliest point wins ties
                    best[i] = (float(obj[k]), int(policy_ids[k]), int(combos[k]))

    _sweep_tiles(spec, policies, grid, causal, dtype, consume)

    meta = {"oracle": True, "dense_steps": dense_steps, "v_size": v_size,
            "evaluations": total, "mode": mode}
    points = []
    for budget, (_, policy_id, combo) in zip(budgets, best):
        if policy_id < 0:
            points.append(RateCostPoint(budget=budget, rate=np.inf, cost=np.inf,
                                        feasible=False, metadata=dict(meta)))
            continue
        policy, rows = policies[policy_id], _combo_rows(grid, combo, n_axes)
        value, cost = _eval_reference(spec, policy, rows, causal)
        points.append(RateCostPoint(
            budget=budget, rate=value, cost=cost, argmin=_make_aux(policy, rows, causal),
            solved_rate=value, metadata=dict(meta),
        ))
    return points


# ---------------------------------------------------------------------------
# Lossy causal solve (exact objective I(Y; Yhat | V, Z))
# ---------------------------------------------------------------------------


def _ba_rd_lagrangian(p_y: np.ndarray, d: np.ndarray, beta: np.ndarray):
    """Blahut iteration for min I(Y;Yhat) + beta * E[d], one problem per row.

    ``p_y`` is (n, y) and ``beta`` (n,) slopes in nats per distortion unit.
    With w = exp(-beta * d) and an output law q, an update forms the kernel
    q(yhat) w(y, yhat) / c_y, with c_y = sum_yhat q w, and the ratios
    c(yhat) = sum_y p(y) w(y, yhat) / c_y, then sets q <- q * c. That
    kernel's R + beta * D lies at most log max_yhat c above the optimum
    (Blahut, IEEE T-IT 18(4), 1972), so a row stops, keeping the kernel,
    once log2 max c <= _BA_TOL, or after _BA_MAX_ITER updates.

    A row whose best constant reconstruction yhat* is already optimal
    (Blahut's zero-rate condition: sum_y p(y) exp(-beta (d(y, yhat) -
    d(y, yhat*))) <= 1 for every yhat, which is the certificate at q =
    yhat*) is answered by the one-hot kernel on yhat* with no update. Every
    _BA_NEWTON-th update tries a Newton step instead (``_ba_newton``). Rows
    never interact, so a row's result does not depend on its batch. The
    arrays are laid out (y, yhat, rows), rows last and contiguous, and a
    row that stops leaves them.

    Returns (rate_bits, distortion, q_cond (n, y, yhat), iters (n,), gap
    (n,)): iters counts each row's updates (0 for an anchor row) and gap is
    its final certificate in bits. Rate and distortion are recomputed
    exactly from the final kernel, so they reproduce under re-evaluation.
    """
    n = len(beta)
    p_all = np.ascontiguousarray(p_y.T)[:, None, :]  # (y, 1, n)
    q_final = np.zeros(d.shape + (n,))
    iters, gap = np.zeros(n, dtype=int), np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        const = (p_all * d[:, :, None]).sum(axis=0)  # (yhat, n)
        star = const.argmin(axis=0)
        # exponent differences: no term underflows where d(y, yhat*) is large
        ratio = (p_all * np.exp(-beta * (d[:, :, None] - d[:, star][:, None, :]))).sum(axis=0)
        anchor = ratio.max(axis=0) <= ratio[star, np.arange(n)]
        q_final[:, star[anchor], np.flatnonzero(anchor)] = 1.0

        live = np.flatnonzero(~anchor)
        p = np.ascontiguousarray(p_all[:, :, live])
        # w scaled per y by exp(beta * min d): neither the kernel nor c moves
        w = np.exp(-beta[live] * (d - d.min(axis=1, keepdims=True))[:, :, None])
        q = np.full((d.shape[1], len(live)), 1.0 / d.shape[1])
        for it in range(1, _BA_MAX_ITER + 1):
            if not len(live):
                break
            scores = q[None, :, :] * w
            c_y = np.maximum(scores.sum(axis=1, keepdims=True), 1e-300)
            c = (p * w / c_y).sum(axis=0)
            cert = np.log2(c.max(axis=0))
            stop = (cert <= _BA_TOL) | (it == _BA_MAX_ITER)
            if np.any(stop):
                q_final[:, :, live[stop]] = scores[:, :, stop] / c_y[:, :, stop]
                iters[live[stop]], gap[live[stop]] = it, np.maximum(cert[stop], 0.0)
                keep = ~stop
                live = live[keep]
                # boolean indexing on the last axis returns F-ordered strides
                p, w, c_y = (np.ascontiguousarray(a[:, :, keep]) for a in (p, w, c_y))
                q, c = np.ascontiguousarray(q[:, keep]), np.ascontiguousarray(c[:, keep])
            if it % _BA_NEWTON:
                q = q * c
            else:
                q = _ba_newton(p, w, q, c, c_y)
        joint = p_all * q_final
        rate = _mi_of_kernel(joint, q_final, joint.sum(axis=0))
    rate[anchor] = 0.0
    dist = (joint * d[:, :, None]).sum(axis=(0, 1))
    dist[anchor] = const[star, np.arange(n)][anchor]
    return rate, dist, np.ascontiguousarray(np.moveaxis(q_final, 2, 0)), iters, gap


def _ba_newton(p, w, q, c, c_y):
    """One safeguarded active-set Newton step on G(q) = -sum_y p(y) ln c_y.

    G is convex on the simplex, with gradient -c and Hessian
    sum_y p(y) w(y, .) w(y, .)^T / c_y^2; its least value is the least
    R + beta * D. The free set holds the yhat with q above 1e-9 of the
    row's largest entry or with c > 1 (where G falls as q grows); the rest
    stay put. The step solves the equality-constrained quadratic model on
    the free set (a KKT system, its Hessian block lifted by 1e-10 of its
    diagonal so that it is never singular), shortened so that q stays
    >= 0. Plain updates crawl near a row's critical slope (Yu, IEEE
    T-IT 56(7), 2010); this step lands on the optimal face there, where it
    may set an entry of q to 0. No Blahut update revives such an entry, so
    where the trial leaves the largest c on one (G falls fastest as that
    entry grows), it then steps toward that entry, a Frank-Wolfe step
    whose length is one Newton step on G along the line. Rows where the
    trial does not lower G take the Blahut update q * c instead.
    """
    k, m = q.shape
    free = (q > 1e-9 * q.max(axis=0)) | (c > 1.0)  # (yhat, rows)
    u = np.sqrt(p) * w / c_y
    hess = (u[:, :, None, :] * u[:, None, :, :]).sum(axis=0)  # (yhat, yhat, rows)
    eye = np.eye(k)[:, :, None]
    hess = np.where(free[:, None, :] & free[None, :, :], hess * (1.0 + 1e-10 * eye), 0.0)
    kkt = np.zeros((m, k + 1, k + 1))
    kkt[:, :k, :k] = np.moveaxis(hess + eye * ~free[None, :, :], 2, 0)
    kkt[:, :k, k] = kkt[:, k, :k] = free.T
    rhs = np.zeros((m, k + 1, 1))
    rhs[:, :k, 0] = (c * free).T
    step = np.linalg.solve(kkt, rhs)[:, :k, 0].T
    room = np.where(step < 0.0, q / -step, np.inf).min(axis=0)
    trial = np.maximum(q + np.minimum(room, 1.0) * step, 0.0)
    # a Blahut update keeps a zero entry at 0: where the largest c sits on
    # one, step from the trial toward it (Frank-Wolfe, its length one Newton
    # step along the line)
    c_y_trial = (trial[None, :, :] * w).sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_trial = (p * w / c_y_trial).sum(axis=0)
    top, rows = c_trial.argmax(axis=0), np.arange(m)
    slope = (w[:, top, rows][:, None, :] - c_y_trial) / c_y_trial  # (y, 1, rows)
    t = np.clip((c_trial[top, rows] - 1.0) / (p * slope**2).sum(axis=(0, 1)), 0.0, 1.0)
    t = np.where(trial[top, rows] <= 1e-9 * trial.max(axis=0), t, 0.0)
    trial = (1.0 - t) * trial + t * (np.arange(k)[:, None] == top)
    g_now = -xlogy(p[:, 0], c_y[:, 0]).sum(axis=0)
    g_trial = -xlogy(p[:, 0], (trial[None, :, :] * w).sum(axis=1)).sum(axis=0)
    return np.where(g_trial <= g_now, trial, q * c)


def _mi_of_kernel(joint, q_cond, q_out):
    """Exact I(Y;Yhat) in bits per problem for joint = p(y) * q(yhat|y).

    Arrays are laid out (y, yhat, n), with the marginal q_out as (yhat, n);
    0 log 0 terms count as 0. The caller silences the 0/0 warnings.
    """
    logterm = np.log(q_cond / q_out[None, :, :])
    logterm[~np.isfinite(logterm)] = 0.0
    return np.maximum((joint * logterm).sum(axis=(0, 1)) / _LN2, 0.0)


def _slopes(config) -> np.ndarray:
    """The si-both screen's multiplier grid in nats; index 0 is the exact
    zero-rate anchor."""
    return np.concatenate(
        [[0.0], np.geomspace(1e-3, config.lambda_max, config.lambda_grid - 1)]
    ) * _LN2


def _cell_curves(cell_sets, d_table, slopes):
    """Per-cell (rate, distortion) at every slope, for a list of cell sets:
    the si-both screen of ``evaluate_lossy_bounds``, which ranks candidates
    by the first slope that meets the distortion budget.

    Blahut calls of up to _CURVE_BATCH sets, one row per cell and slope;
    every row stops on its own certificate, so a set's curves equal those
    of a call on that set alone. Returns ([(rate_k, dist_k)] with both of
    shape (cells, K), one pair per set, and per set the most updates and
    the largest certified gap of its rows). Column 0 (slope 0) is the
    zero-rate anchor, the best constant reconstruction per cell.
    """
    k = len(slopes)
    curves, iters, gaps = [], [], []
    for start in range(0, len(cell_sets), _CURVE_BATCH):
        batch = cell_sets[start:start + _CURVE_BATCH]
        sizes = [len(c) for c in batch]
        cells = np.concatenate(batch)
        rate, dist, _, row_iters, row_gap = _ba_rd_lagrangian(
            np.repeat(cells, k, axis=0), d_table, np.tile(slopes, len(cells)),
        )
        firsts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        iters.append(np.maximum.reduceat(row_iters, firsts * k))
        gaps.append(np.maximum.reduceat(row_gap, firsts * k))
        curves += zip(np.split(rate.reshape(-1, k), firsts[1:]),
                      np.split(dist.reshape(-1, k), firsts[1:]))
    return curves, np.concatenate(iters), np.concatenate(gaps)


class _Read(NamedTuple):
    """The hull read of the column points (c_j, g_j(lam)) at one multiplier."""

    lam: float  # bits per unit distortion
    p: np.ndarray  # (n,) column weights
    dist: float  # p @ D_j
    kernels: np.ndarray  # (n, m, y, yhat): every column's Blahut kernels
    dual: float  # L(lam) = p @ R_j + lam * (dist - D'), D' = D + _FEAS_EPS
    lowered: np.ndarray  # (n,) each g_j(lam) lowered by its Blahut gap


class _LossyMix(NamedTuple):
    rate: float
    keep: np.ndarray  # the columns used
    p: np.ndarray  # their weights
    kernels: np.ndarray  # their (m, y, yhat) kernels
    dual_gap: float  # rate minus the certified dual bound


def _blahut_meta() -> dict:
    """Counters of a lossy inner solve, updated by ``_lossy_dual``."""
    return {"blahut_iters": 0, "blahut_capped": 0, "blahut_gap_max": 0.0, "bisect_calls": 0}


def _lossy_dual(cells, weights, cost, d_table, budget, distortion_budget, meta):
    """The least rate sum_j p_j R_j(q_j) over column weights p with
    p @ cost <= budget and kernels q_j meeting the distortion budget, or
    None when no mixture meets both budgets.

    Column j has the cells ``cells[j]`` (an (m, y) stack), weighted by
    ``weights`` (m,): R_j and D_j are the weighted sums of its cells' rates
    and distortions. Both sides answer D' = D + _FEAS_EPS, the budget of
    the feasibility test. The problem is convex, and its Lagrangian dual
    L(lam) = [hull read at the budget of (c_j, g_j(lam))] - lam * D', with
    g_j(lam) = min R_j + lam * D_j, is concave in lam with supergradient
    (read's distortion) - D'. One Blahut call evaluates g at a batch of
    multipliers: first the ladder 0, 2^-10, 2^-9, ..., lam_top, inf, then
    _DUAL_POINTS evenly spaced multipliers inside the bracket [lo, hi],
    where lo is the last read that misses D' and hi the first that meets
    it. At lam = 0 and lam = inf the read is that of the columns'
    distortions alone (the limits of the scaled values).
    lam_top is the least power of two at which w = exp(-beta * (d - min d))
    is exactly the indicator of each row's least distortions (beta times the
    table's least positive gap reaches _EXP_UNDERFLOW). Blahut runs at
    min(lam, lam_top): above lam_top it returns the same kernels, those of
    least rate on the floor.

    The primal mixes the reads at lo and hi to meet D'. A column in both
    keeps one kernel per cell, the weighted average of its two: I(Y;Yhat)
    is convex in the kernel, so this never raises the rate, and the
    distortion is linear in it. With a the mix weight, the mix's rate
    lies at most (hi - lo) * a * (dist_lo - D') above
    max(L(lo), L(hi)), so the search stops once the rate is within _BA_TOL
    of the best dual value (or the bracket cannot split further).
    ``dual_gap`` is the rate minus the best dual value with each g_j
    lowered by its Blahut certificate, so at most 2 * _BA_TOL.
    """
    target = distortion_budget + _FEAS_EPS
    const = cells @ d_table  # (n, m, yhat): each constant reconstruction
    floor = _hull_read(cost, cells @ d_table.min(axis=1) @ weights, budget)
    if floor is None or floor[0] > target:
        return None
    zero = _hull_read(cost, const.min(axis=2) @ weights, budget)
    if zero[0] <= target:
        keep = np.flatnonzero(zero[1] > 0.0)
        one_hot = np.eye(d_table.shape[1])[const[keep].argmin(axis=2)]  # (j, m, yhat)
        kernels = np.repeat(one_hot[:, :, None, :], d_table.shape[0], axis=2)
        return _LossyMix(0.0, keep, zero[1][keep], kernels, 0.0)

    gaps = d_table - d_table.min(axis=1, keepdims=True)
    top = math.ceil(math.log2(_EXP_UNDERFLOW / _LN2 / gaps[gaps > 0.0].min()))
    lam_top = 2.0**top
    n, m, y_size = cells.shape

    def reads_at(lams) -> list[_Read]:
        rate, dist, q, iters, gap = _ba_rd_lagrangian(
            np.tile(cells.reshape(-1, y_size), (len(lams), 1)), d_table,
            np.repeat(np.minimum(lams, lam_top) * _LN2, n * m),
        )
        meta["bisect_calls"] += 1
        meta["blahut_iters"] = max(meta["blahut_iters"], int(iters.max()))
        meta["blahut_capped"] += int(np.count_nonzero(iters >= _BA_MAX_ITER))
        meta["blahut_gap_max"] = max(meta["blahut_gap_max"], float(gap.max()))
        r_col, d_col, g_col = (a.reshape(len(lams), n, m) @ weights for a in (rate, dist, gap))
        q = q.reshape((len(lams), n) + cells.shape[1:] + d_table.shape[1:])
        out = []
        for lam, r, d, g, q_k in zip(lams, r_col, d_col, g_col, q):
            if lam == np.inf:  # the floor: the read of the distortions alone
                p = _hull_read(cost, d, budget)[1]
                out.append(_Read(lam, p, float(p @ d), q_k, -np.inf, r - g))
                continue
            p = _hull_read(cost, r + lam * d if lam > 0.0 else d, budget)[1]
            out.append(_Read(lam, p, float(p @ d), q_k,
                             float(p @ r + lam * (p @ d - target)), r - g + lam * d))
        return out

    reads = reads_at(np.concatenate([[0.0], 2.0 ** np.arange(min(top, -10), top + 1), [np.inf]]))
    while True:
        # reads[0] (lam = 0) misses the target; the inf read meets it but for float dust
        i = next((i for i in range(1, len(reads)) if reads[i].dist <= target), len(reads) - 1)
        lo, hi = reads[i - 1], reads[i]
        mix = _mix(lo, hi, target, cells, weights)
        if hi.lam == np.inf:
            lams = lo.lam * 2.0 ** np.arange(1, _DUAL_POINTS + 1)
        else:
            lams = np.linspace(lo.lam, hi.lam, _DUAL_POINTS + 2)[1:-1]
        if (mix.rate - max(r.dual for r in reads) <= _BA_TOL
                or not lo.lam < lams[0] <= lams[-1] < hi.lam):
            best = max(reads, key=lambda r: r.dual)
            certified = _hull_read(cost, best.lowered, budget)[0] - best.lam * target
            return mix._replace(dual_gap=mix.rate - certified)
        reads = sorted(reads + reads_at(lams), key=lambda r: r.lam)


def _mix(lo, hi, target, cells, weights) -> _LossyMix:
    """The mixture of two reads with distortion ``target`` (or the nearer
    end), one averaged kernel per column, its rate recomputed."""
    a = min(max((target - hi.dist) / (lo.dist - hi.dist), 0.0), 1.0)
    p_lo, p_hi = a * lo.p, (1.0 - a) * hi.p
    keep = np.flatnonzero(p_lo + p_hi > 0.0)
    p = (p_lo + p_hi)[keep]
    kernels = ((p_lo[keep] / p)[:, None, None, None] * lo.kernels[keep]
               + (p_hi[keep] / p)[:, None, None, None] * hi.kernels[keep])
    flat = np.moveaxis(kernels.reshape((-1,) + kernels.shape[2:]), 0, 2)  # (y, yhat, rows)
    joint = np.moveaxis(cells[keep].reshape(-1, cells.shape[2]), 0, 1)[:, None, :] * flat
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = _mi_of_kernel(joint, flat, joint.sum(axis=0)).reshape(len(keep), -1) @ weights
    return _LossyMix(float(p @ rate), keep, p, kernels, np.nan)


def solve_lossy_causal(
    spec: ProblemSpec,
    budget: float,
    distortion_budget: float,
    config: SolveConfig | None = None,
) -> RateCostPoint:
    """Minimize I(Y; Yhat | V, Z) subject to cost and distortion budgets.

    The inner reconstruction problem decomposes per (v, z) cell, and a
    cell's output law depends only on v's action column, so the rate is a
    convex program over the column weights p(v) and the cells' kernels.
    ``_lossy_dual`` solves it through its Lagrangian dual in the distortion
    multiplier: the hull read of the columns' R + lam * D points at the
    cost budget, each point a Blahut solve certified within _BA_TOL bits.
    The answer mixes at most four columns; when v_size_max allows fewer,
    every column subset of that size gets its own dual and the best one
    answers. Infeasible (budget, distortion) pairs return a typed
    infeasible point. No grid shapes the answer: grid_steps,
    refine_rounds, lambda_grid and lambda_max are not read.

    The metadata reports the inner work: ``blahut_iters`` (the most Blahut
    updates any row took), ``blahut_capped`` (how many rows ran all
    _BA_MAX_ITER updates, uncertified), ``blahut_gap_max`` (the largest
    certified gap, in bits, over the rows), ``bisect_calls`` (Blahut calls
    of the multiplier search, 0 when the zero-rate anchor answers) and
    ``dual_gap`` (the rate minus the certified dual bound, in bits).
    """
    _check_budgets(budget=budget, distortion_budget=distortion_budget)
    if spec.distortion is None:
        raise UsageError("spec has no distortion table; lossless solves apply")
    config = config or SolveConfig()
    d_table, p_z = spec.distortion, spec.side_info_marginal
    v_max, n = config.resolved_v_max(spec), spec.a_size**spec.s_size
    # a mix has at most 4 columns; fewer allowed means ranking subsets
    subsets = math.comb(n, v_max) if v_max < min(4, n) else 0
    cols = _columns(spec, config, subsets=subsets)
    meta = {"mode": "lossy-causal", "v_size_max": v_max, "columns": n, **_blahut_meta()}
    if not np.any(cols.cost <= budget + _FEAS_EPS):
        return _infeasible(budget, meta, float(distortion_budget),
                           reason="no action choice meets the cost budget")
    mix = _lossy_dual(cols.cells, p_z, cols.cost, d_table, budget, distortion_budget, meta)
    if mix is not None and len(mix.keep) > v_max:
        mix = None
        for sub in map(np.array, itertools.combinations(range(n), v_max)):
            cand = _lossy_dual(cols.cells[sub], p_z, cols.cost[sub], d_table, budget,
                               distortion_budget, meta)
            if cand is not None and (mix is None or cand.rate < mix.rate):
                mix = cand._replace(keep=sub[cand.keep])
    if mix is None:
        return _infeasible(budget, meta, float(distortion_budget),
                           reason="distortion budget below the achievable floor")
    meta["dual_gap"] = mix.dual_gap
    recon = np.transpose(mix.kernels, (2, 0, 1, 3))  # indexed (y, v, z, yhat)
    aux = AuxiliaryChoice(policy=ActionPolicy(cols.policy[:, mix.keep]), v_marginal=mix.p,
                          recon=np.ascontiguousarray(recon))
    meta["v_size"] = len(mix.p)
    return RateCostPoint(
        budget=float(budget), rate=mix.rate, cost=float(mix.p @ cols.cost[mix.keep]),
        feasible=True, distortion=float(distortion_budget), argmin=aux, solved_rate=mix.rate,
        metadata=meta,
    )


# ---------------------------------------------------------------------------
# Lossy upper bounds (non-causal V, decoder-side descriptions)
# ---------------------------------------------------------------------------


def _entropy_nd(arr) -> float:
    return entropy_bits(np.asarray(arr).reshape(-1))


def _entropies(stack) -> np.ndarray:
    """Entropy in bits of each entry of a stack, summed as ``_entropy_nd`` does."""
    return -xlogy(stack, stack).reshape(len(stack), -1).sum(axis=1) / _LN2


def _noncausal_candidates(spec, config):
    """Yield (policy, rows, base p(z,v,y), I(V;S|Z), cost) for the outer grid."""
    p_s = spec.state_marginal
    lam = reduced_cost(spec)
    h_z = entropy_bits(spec.side_info_marginal)
    for v_size in _v_sizes(spec, config, repeats=True):
        grid = _simplex_grid(v_size, config.grid_steps)
        n = len(grid)
        h_rows = -xlogy(grid, grid).sum(axis=1) / _LN2
        for policy in _policies(spec, v_size, repeats=True):
            t = spec.channel[policy, np.arange(spec.s_size)[:, None], :]
            for combo in range(n**spec.s_size):
                rows = _combo_rows(grid, combo, spec.s_size)
                p_zsvy = (
                    spec.state_joint.T[:, :, None, None]
                    * rows[None, :, :, None]
                    * t[None, :, :, :]
                )  # (z, s, v, y)
                p_zvy = p_zsvy.sum(axis=1)
                p_zv = p_zvy.sum(axis=2)
                # I(V;S|Z) = H(V|Z) - H(V|S): V indep of Z given S
                h_v_z = _entropy_nd(p_zv) - h_z
                h_v_s = float(p_s @ (-xlogy(rows, rows).sum(axis=1) / _LN2))
                i_vs_z = max(0.0, h_v_z - h_v_s)
                cost = float(
                    np.einsum(
                        "sv,s,sv->", rows, p_s,
                        lam[np.arange(spec.s_size)[:, None], policy],
                    )
                )
                yield policy, rows, p_zvy, i_vs_z, cost


def evaluate_lossy_bounds(
    spec: ProblemSpec,
    budget: float,
    distortion_budget: float,
    config: SolveConfig | None = None,
) -> list[dict]:
    """Three achievable upper bounds for the non-causal lossy problem.

    Returns one entry per scheme, each {"label", "value", "feasible",
    "argmin"}; values are upper bounds on the rate-distortion-cost
    function, never claimed tight:

      si-both:      encoder also sees Z; inner reconstruction kernel
                    p(yhat|y,v,z) solved per cell by Blahut iterations.
      si-decoder:   description U drawn from Y alone, reconstruction
                    yhat(z, u); the map is chosen as the per-(z,u)
                    distortion argmin, exact because the rate does not
                    depend on it.
      si-decoder-v: U drawn from (Y, V); requires the decoder to recover V,
                    feasible only when I(V;S) <= I(V;Y).

    Infeasible schemes report value = inf and feasible = False.
    """
    if spec.distortion is None:
        raise UsageError("spec has no distortion table")
    _check_budgets(budget=budget, distortion_budget=distortion_budget)
    config = config or SolveConfig()
    v_max = config.resolved_v_max(spec)
    u_max = config.resolved_u_max(spec)
    outer = _outer_count(spec, config, repeats=True)
    u_inner = sum(
        _simplex_grid_size(u, config.grid_steps) ** spec.y_size
        for u in range(1, u_max + 1)
    )
    uv_inner = sum(
        _simplex_grid_size(u, config.grid_steps) ** (spec.y_size * v_max)
        for u in range(1, u_max + 1)
    )
    required = 64 * outer * (config.lambda_grid + u_inner + uv_inner)
    if required > config.search_limit:
        raise SearchSpaceError(required, config.search_limit, "lossy bound sweep")

    d_table = spec.distortion
    slopes = _slopes(config)

    best = {
        "si-both": (np.inf, None),
        "si-decoder": (np.inf, None),
        "si-decoder-v": (np.inf, None),
    }
    sib_winner = None  # (cells, weights, I(V;S|Z)) of the si-both incumbent
    sib_batch = []  # buffered si-both candidates (cells, weights, I(V;S|Z), policy, rows)
    u_stacks: dict[int, list[np.ndarray]] = {}

    def u_kernels(n_rows: int) -> list[np.ndarray]:
        """All row-stochastic (n_rows, u) kernels on the simplex grid, as
        (k, n_rows, u) stacks of at most _KERNEL_BLOCK, u size by u size."""
        if n_rows not in u_stacks:
            stacks = []
            for u_size in range(1, u_max + 1):
                g = _simplex_grid(u_size, config.grid_steps)
                combos = np.array(list(itertools.product(range(len(g)), repeat=n_rows)))
                stacks += [g[combos[i:i + _KERNEL_BLOCK]]
                           for i in range(0, len(combos), _KERNEL_BLOCK)]
            u_stacks[n_rows] = stacks
        return u_stacks[n_rows]

    def flush_si_both():
        """Evaluate the buffered si-both candidates, in order, in one call."""
        nonlocal sib_winner
        curves = _cell_curves([c[0] for c in sib_batch], d_table, slopes)[0]
        for (cells, w, i_vs_z, policy, rows), (rate_k, dist_k) in zip(sib_batch, curves):
            # the rate at the first slope that meets the distortion budget
            ok = np.flatnonzero(w @ dist_k <= distortion_budget + _FEAS_EPS)
            val = i_vs_z + (float((w @ rate_k)[ok[0]]) if len(ok) else np.inf)
            if val < best["si-both"][0]:
                best["si-both"] = (val, _make_aux(policy, rows, False))
                sib_winner = (cells, w, i_vs_z)
        sib_batch.clear()

    for policy, rows, p_zvy, i_vs_z, cost in _noncausal_candidates(spec, config):
        if cost > budget + _FEAS_EPS:
            continue
        v_size = policy.shape[1]
        p_vz = p_zvy.sum(axis=2).T  # (v, z)
        with np.errstate(invalid="ignore"):
            p_y_cells = np.where(
                p_vz.reshape(-1)[:, None] > 0.0,
                np.transpose(p_zvy, (1, 0, 2)).reshape(-1, spec.y_size)
                / np.where(p_vz.reshape(-1) == 0.0, 1.0, p_vz.reshape(-1))[:, None],
                0.0,
            )

        # si-both: per-cell reconstruction with a shared multiplier grid
        sib_batch.append((p_y_cells, p_vz.reshape(-1), i_vs_z, policy, rows))
        if len(sib_batch) == _CURVE_BATCH:
            flush_si_both()

        # decoder-side descriptions
        p_vy = p_zvy.sum(axis=0)  # (v, y)
        p_y = p_vy.sum(axis=0)
        for u_k in u_kernels(spec.y_size):
            bound_u = _decoder_bound(p_zvy, u_k[:, None], i_vs_z, d_table, distortion_budget)
            if bound_u < best["si-decoder"][0]:
                best["si-decoder"] = (bound_u, _make_aux(policy, rows, False))

        # v-aware: u kernel may differ per v; feasibility I(V;S) <= I(V;Y)
        h_v = _entropy_nd(p_vy.sum(axis=1))
        i_vs = max(0.0, h_v - float(
            spec.state_marginal @ (-xlogy(rows, rows).sum(axis=1) / _LN2)
        ))
        i_vy = max(0.0, h_v + _entropy_nd(p_y) - _entropy_nd(p_vy))
        if i_vs <= i_vy + 1e-10:
            for u_k in u_kernels(spec.y_size * v_size):
                kern = u_k.reshape(len(u_k), v_size, spec.y_size, -1)
                bound_uv = _decoder_bound(p_zvy, kern, i_vs_z, d_table, distortion_budget)
                if bound_uv < best["si-decoder-v"][0]:
                    best["si-decoder-v"] = (bound_uv, _make_aux(policy, rows, False))
    if sib_batch:
        flush_si_both()

    # the shared multiplier grid is coarse; re-solve the winning candidate's
    # inner problem exactly, as one column of cost 0
    if sib_winner is not None:
        cells_w, w_w, i_w = sib_winner
        mix = _lossy_dual(cells_w[None], w_w, np.zeros(1), d_table, 0.0, distortion_budget,
                          _blahut_meta())
        if mix is not None and i_w + mix.rate < best["si-both"][0]:
            best["si-both"] = (i_w + mix.rate, best["si-both"][1])

    out = []
    for label in ("si-both", "si-decoder", "si-decoder-v"):
        val, aux = best[label]
        out.append(
            {
                "label": label,
                "value": float(val),
                "feasible": bool(np.isfinite(val)),
                "argmin": aux,
                "u_size_max": u_max,
            }
        )
    return out


def _decoder_bound(p_zvy, u_kern, i_vs_z, d_table, distortion_budget) -> float:
    """Least I(V;S|Z) + I(U;Y|V,Z) over a stack of description kernels, or
    inf if no kernel meets the distortion budget.

    ``u_kern`` has shape (k, v, y, u): k per-v description laws; a v axis of
    length 1 shares one law across v (the U-from-Y-alone scheme).
    Reconstruction is the per-(z, u) distortion argmin.
    """
    p = p_zvy[None, :, :, :, None] * u_kern[:, None]  # (k, z, v, y, u)
    h_u_vz = _entropies(p.sum(axis=3)) - _entropies(p.sum(axis=(3, 4)))
    h_u_yvz = _entropies(p) - _entropy_nd(p_zvy)
    i_uy_vz = np.maximum(0.0, h_u_vz - h_u_yvz)
    # distortion of the best deterministic map yhat(z, u)
    p_zuy = p.sum(axis=2).transpose(0, 1, 3, 2)  # (k, z, u, y)
    d_zu = np.einsum("kzuy,yh->kzuh", p_zuy, d_table).min(axis=3)
    feasible = ~(d_zu.reshape(len(p), -1).sum(axis=1) > distortion_budget + _FEAS_EPS)
    return i_vs_z + float(i_uy_vz[feasible].min()) if np.any(feasible) else np.inf


# ---------------------------------------------------------------------------
# Curves and envelopes
# ---------------------------------------------------------------------------


def lower_convex_envelope(budgets: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of the points, evaluated at each budget.

    Takes increasing budgets with non-increasing rates, as ``trace_curve``'s
    carry leaves them: the minorant is then the lower hull that
    ``_lower_hull`` reads up to the least rate, and flat past it.
    """
    budgets = np.asarray(budgets, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    if not len(budgets):
        return rates.copy()
    hull = _lower_hull(budgets, rates)
    return np.interp(budgets, budgets[hull], rates[hull])


def trace_curve(
    spec: ProblemSpec,
    budgets,
    mode: str = "noncausal",
    config: SolveConfig | None = None,
    distortion_budget: float | None = None,
) -> RateCurve:
    """Solve a strictly increasing budget list and convexify the result.

    Feasible-set growth makes the true curve non-increasing and convex;
    solved points are first made non-increasing by carrying a better
    earlier argmin forward (always feasible later), then replaced by their
    lower convex envelope (achievable by time sharing). Points whose
    envelope value differs from their own solve keep it in
    ``solved_rate``. Infeasible budgets yield flagged points excluded from
    the envelope.
    """
    budgets = [float(b) for b in budgets]
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        raise UsageError("budgets must be strictly increasing")
    config = config or SolveConfig()
    if mode == "lossy-causal":
        if distortion_budget is None:
            raise UsageError("lossy-causal curves need a distortion budget")
        points = [
            solve_lossy_causal(spec, b, distortion_budget, config) for b in budgets
        ]
    else:
        solve = solve_causal if _parse_mode(mode) else solve_noncausal
        points = [solve(spec, b, config) for b in budgets]

    # enforce monotone non-increase by carrying better argmins forward
    carried: list[RateCostPoint] = []
    best_so_far: RateCostPoint | None = None
    for pt in points:
        if pt.feasible and (best_so_far is None or pt.rate < best_so_far.rate):
            best_so_far = pt
        if best_so_far is not None and pt.feasible and best_so_far.rate < pt.rate:
            pt = replace(
                pt, rate=best_so_far.rate, cost=best_so_far.cost,
                argmin=best_so_far.argmin, solved_rate=best_so_far.rate,
            )
        carried.append(pt)

    feas_idx = [i for i, pt in enumerate(carried) if pt.feasible]
    if len(feas_idx) >= 2:
        bs = np.array([carried[i].budget for i in feas_idx])
        rs = np.array([carried[i].rate for i in feas_idx])
        env = lower_convex_envelope(bs, rs)
        for j, i in enumerate(feas_idx):
            carried[i] = replace(carried[i], rate=float(env[j]))
    return RateCurve(
        points=tuple(carried),
        mode=mode,
        envelope_applied=True,
        metadata={"grid_steps": config.grid_steps,
                  "refine_rounds": config.refine_rounds,
                  "distortion_budget": distortion_budget},
    )
