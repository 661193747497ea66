"""The four benchmark workloads, their seeded inputs and their correctness gates.

A workload runs in passes. Pass ``k`` draws its inputs from
``numpy.random.default_rng([seed, k])``, so a seed fixes every input and
no two passes share a spec (each sweep starts cold). Timed calls
(``Run.call``) go to the public API of ``actrate.solver`` and
``actrate.sim`` and count into the pass's wall time. Checks (``Run.check``:
re-evaluation through ``actrate.model``, closed forms from
``actrate.binary``, grid-only solves) do not.

Every answer is checked, and an answer that fails any gate, is not finite
or raises counts as one failed operation. The tolerances are those of the
acceptance suite in ``tests/test_acceptance.py``:

* an argmin, re-evaluated through ``model``, reproduces its rate to 1e-9
  and keeps its cost within budget + 1e-12 (and, lossy, its distortion
  within D + 1e-9);
* a lossless rate never falls below its closed form by more than 1e-9;
* weak duality: max over the swept multipliers of (value - lam * B) is at
  most the rate of the same query answered on the swept grid alone
  (``refine_rounds=0``) + 1e-9 + float32 rounding of the swept values, and
  refinement never raises that rate.
  Refinement leaves the grid, so a refined rate may fall below the grid's
  Lagrangian bound; the run counts those answers but does not fail them;
* a simulation breakdown sums to its errors, and one campaign re-run with
  its seed gives an identical report.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from actrate.binary import (
    make_binary_example,
    rate_causal_binary,
    rate_erased_causal,
    rate_erased_noncausal,
    rate_noncausal_binary,
)
from actrate.kernel import binary_entropy
from actrate.model import (
    ActionPolicy,
    AuxiliaryChoice,
    ProblemSpec,
    assemble_joint,
    causal_lossy_rate,
    causal_rate,
    expected_cost,
    expected_distortion,
    noncausal_rate,
)
from actrate.sim import SimConfig, run_campaign
from actrate.solver import (
    SolveConfig,
    evaluate_lossy_bounds,
    lagrangian_sweep,
    solve_causal,
    solve_lossy_causal,
    solve_noncausal,
)

from tracer import speed_sample

RATE_TOL = 1e-9  # re-evaluation, closed-form floor and weak duality
# Heavy sweeps evaluate tiles in float32, and lagrangian_sweep reports those
# values, so the duality gate adds float32 rounding of the entropy sums.
SWEEP_ULPS = 32 * float(np.finfo(np.float32).eps)
COST_TOL = 1e-12  # budget feasibility
DIST_TOL = 1e-9  # distortion feasibility
SPEED_INTERVAL_S = 0.05  # least time between two speed samples within a pass


class Run:
    """What one benchmark run accumulates across its passes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pass_no = 0
        self.pass_wall = 0.0
        self.speed: list[list[float]] = []  # per pass: calibration kernel seconds
        self._last_speed = 0.0
        self.query_ms: list[tuple[int, float]] = []  # (pass, raw milliseconds)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rate_sum = 0.0  # first pass only, so it repeats for a seed
        self.gap_max = -math.inf  # first pass only
        self.below_grid_dual = 0  # refined answers below the grid's dual bound
        self.traced_trials = 0
        self.traced_scan_seqs = 0  # sequences the binning and timeshare decoders scan

    def start_pass(self, k):
        self.pass_no, self.pass_wall = k, 0.0
        self.speed.append([])
        self.sample_speed(force=True)

    def sample_speed(self, force=False):
        """Time the calibration kernel, at most once per SPEED_INTERVAL_S."""
        if force or time.perf_counter() - self._last_speed >= SPEED_INTERVAL_S:
            self.speed[-1].append(speed_sample())
            self._last_speed = time.perf_counter()

    def record_query(self, secs):
        self.query_ms.append((self.pass_no, secs * 1e3))

    def call(self, name, request, fn, *args, **kwargs):
        """A timed public call: its time counts into the pass's wall time."""
        out, secs = self.tracer.call(name, request, fn, *args, **kwargs)
        self.pass_wall += secs
        return out, secs

    def check(self, name, request, fn, *args, **kwargs):
        """A call made only to check or to compare: kept out of wall time."""
        return self.tracer.call(name, request, fn, *args, **kwargs)[0]

    def attempt(self, label, body):
        """Count one operation; it fails if ``body`` returns problems or raises."""
        self.sample_speed()
        self.attempted += 1
        try:
            problems = body()
        except Exception as exc:  # every error is a counted, reported failure
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"pass {self.pass_no} {label}: {'; '.join(problems)}")

    def record_rate(self, rate):
        if self.pass_no == 0:
            self.rate_sum += rate

    def record_gap(self, gap):
        if self.pass_no == 0:
            self.gap_max = max(self.gap_max, gap)


def _finite(label, value):
    return [] if np.isfinite(value) else [f"{label} is {value!r}"]


def _reevaluate(run, request, spec, point, budget, causal, distortion=None):
    """Gates on one solver point, re-evaluated through ``model``."""
    problems = _finite("rate", point.rate)
    if not point.feasible or point.argmin is None:
        return problems + ["no feasible argmin"]
    joint = run.check("model.assemble", request, assemble_joint, spec, point.argmin, causal)
    objective = causal_rate if causal else noncausal_rate
    if distortion is not None:
        objective = causal_lossy_rate
    rate = run.check("kernel.objective", request, objective, joint)
    cost = run.check("model.cost", request, expected_cost, joint, spec)
    if abs(rate - point.rate) > RATE_TOL:
        problems.append(f"re-evaluated rate {rate!r} != reported {point.rate!r}")
    if cost > budget + COST_TOL:
        problems.append(f"cost {cost!r} > budget {budget!r}")
    if distortion is not None:
        dist = run.check("model.cost", request, expected_distortion, joint, spec)
        if dist > distortion + DIST_TOL:
            problems.append(f"distortion {dist!r} > {distortion!r}")
    return problems


def _weak_duality(run, unit, solve, sweep, budget, rate):
    """Weak duality on the swept grid, where it holds (see the module notes)."""
    grid_config = replace(unit.config, refine_rounds=0)
    grid = run.check("solver.grid_check", unit.request, solve, unit.spec, budget, grid_config)
    row = max(sweep, key=lambda row: row["value"] - row["lam"] * budget)
    dual = row["value"] - row["lam"] * budget
    tol = RATE_TOL + SWEEP_ULPS * (abs(row["value"]) + row["lam"] * budget)
    if dual > rate + tol:
        run.below_grid_dual += 1
    problems = []
    if dual > grid.rate + tol:
        problems.append(f"dual bound {dual!r} above grid rate {grid.rate!r} at B={budget!r}")
    if rate > grid.rate + RATE_TOL:
        problems.append(f"refined rate {rate!r} above grid rate {grid.rate!r}")
    return problems


@dataclass
class LosslessSpec:
    request: str
    spec: ProblemSpec
    config: SolveConfig
    budgets: tuple[float, ...]
    closed_form: dict | None  # mode -> closed-form rate as a function of the budget


class _Lossless:
    """Shared pass of the two lossless workloads.

    Per spec: one cold ``lagrangian_sweep`` per mode (the budget-independent
    sweep), then, per budget, ``solve_noncausal`` and ``solve_causal``, both
    reading the cached sweep. A query is one budget answered in both
    information patterns; its latency is the sum of the two calls.
    """

    def run_pass(self, run, units):
        latencies = []
        for unit in units:
            with run.tracer.group("bench.request", unit.request):
                latencies.append(self._run_spec(run, unit))
        for secs in self.query_samples(latencies):
            run.record_query(secs)

    def query_samples(self, latencies):
        """Query latencies of a pass, from each spec's per-budget latencies."""
        return itertools.chain.from_iterable(latencies)

    def _run_spec(self, run, unit):
        """Sweep and query one spec; return the latency of each budget's query."""
        latencies = []
        sweeps = {}
        for mode in ("noncausal", "causal"):
            def sweep(mode=mode):
                rows, _ = run.call(f"solver.sweep_{mode}", unit.request,
                                   lagrangian_sweep, unit.spec, mode, config=unit.config)
                sweeps[mode] = rows
                return [p for row in rows for p in _finite("sweep value", row["value"])]
            run.attempt(f"{unit.request} sweep {mode}", sweep)
        for budget in unit.budgets:
            latency = 0.0
            for mode, solve in (("noncausal", solve_noncausal), ("causal", solve_causal)):
                def query(mode=mode, solve=solve):
                    nonlocal latency
                    point, secs = run.call("solver.query", unit.request,
                                           solve, unit.spec, budget, unit.config)
                    latency += secs
                    causal = mode == "causal"
                    problems = _reevaluate(run, unit.request, unit.spec, point, budget, causal)
                    if mode in sweeps:
                        problems += _weak_duality(run, unit, solve, sweeps[mode],
                                                  budget, point.rate)
                    if unit.closed_form is not None:
                        ref = run.check("binary.reference", unit.request,
                                        unit.closed_form[mode], budget)
                        if point.rate < ref - RATE_TOL:
                            problems.append(f"rate {point.rate!r} below closed form {ref!r}")
                        run.record_gap(point.rate - ref)
                    if not problems:
                        run.record_rate(point.rate)
                    return problems
                run.attempt(f"{unit.request} {mode} B={budget:g}", query)
            latencies.append(latency)
        return latencies


class SweepBinary(_Lossless):
    """Two binary specs per pass with closed forms: a plain one on the float32
    tile path and a small one with erased side information on float64 tiles.

    The queries read the swept grid without refinement (``refine_rounds=0``):
    refinement is sweep-small's subject, and its time on one budget jumps
    when p moves by as little as 1e-7. A query is a curve request: every
    budget in both modes on both specs. One budget alone costs a few
    milliseconds that depend on the size of its argmin's V alphabet. The
    seed moves p and pe only a little, so that every pass asks for the same
    work.
    """

    name = "sweep-binary"
    why = ("a large float32-tile sweep of a binary spec, plus a small spec with erased "
           "side information, with closed-form references; 26 unrefined budget queries share each sweep")
    tail_pct = 100  # one query a pass: too few for a percentile with 10 beyond

    def __init__(self, grid_plain=15, grid_erased=8,
                 budgets=tuple(round(0.02 * i, 10) for i in range(26)),
                 p_range=(0.099, 0.101), pe_range=(0.49, 0.51)):
        self.grid_plain, self.grid_erased = grid_plain, grid_erased
        self.budgets = budgets
        self.p_range, self.pe_range = p_range, pe_range

    def sizes(self):
        return {"specs_per_pass": 2, "grid_plain": self.grid_plain,
                "grid_erased": self.grid_erased, "budgets": list(self.budgets),
                "p_range": self.p_range, "pe_range": self.pe_range,
                "refine_rounds": 0, "queries_per_pass": 1}

    def query_samples(self, latencies):
        return [sum(itertools.chain.from_iterable(latencies))]

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        p = float(rng.uniform(*self.p_range))
        p_e = float(rng.uniform(*self.p_range))
        pe = float(rng.uniform(*self.pe_range))
        plain = {
            "noncausal": lambda b: rate_noncausal_binary(b, p),
            "causal": lambda b: rate_causal_binary(b, p),
        }
        erased = {
            "noncausal": lambda b: rate_erased_noncausal(b, p_e, pe),
            "causal": lambda b: rate_erased_causal(b, p_e, pe),
        }
        return [
            LosslessSpec(f"{k}:plain p={p:.6f}", make_binary_example(p),
                         SolveConfig(grid_steps=self.grid_plain, refine_rounds=0),
                         self.budgets, plain),
            LosslessSpec(f"{k}:erased p={p_e:.6f} pe={pe:.6f}",
                         make_binary_example(p_e, pe=pe),
                         SolveConfig(grid_steps=self.grid_erased, refine_rounds=0),
                         self.budgets, erased),
        ]


SIZE_CLASSES = tuple(itertools.product((2, 3), (1, 2), (2, 3), (2, 3)))  # |S|,|Z|,|A|,|Y|


def random_spec(rng, sizes):
    """One random instance of the given sizes, drawn as in the acceptance suite."""
    s, z, a, y = sizes
    sj = rng.random((s, z)) + 0.05
    sj /= sj.sum()
    ch = rng.random((a, s, y)) + 0.05
    ch /= ch.sum(axis=-1, keepdims=True)
    return ProblemSpec(state_joint=sj, channel=ch, cost=rng.random((a, s, y)))


def feasible_budgets(spec, fractions):
    """Budgets at fractions of the way from the cheapest to the dearest policy.

    Computed from the spec's arrays alone, so every budget is feasible: the
    cheapest deterministic policy lies on every solver grid.
    """
    per_sa = np.einsum("asy,asy->sa", spec.channel, spec.cost)
    p_s = spec.state_joint.sum(axis=1)
    lo, hi = float(p_s @ per_sa.min(axis=1)), float(p_s @ per_sa.max(axis=1))
    return tuple(lo + f * (hi - lo) for f in fractions)


class SweepSmall(_Lossless):
    """Many small random specs: every sweep a cache miss on float64 tiles.

    A pass holds two specs of each of the 16 size classes of the acceptance
    property suite, so every pass asks for about the same amount of work.
    """

    name = "sweep-small"
    why = ("random small specs, each a sweep-cache miss on small float64 tiles, "
           "where per-policy overhead, refinement and model re-evaluation dominate")
    tail_pct = 95  # 128 queries a pass: >= 10 beyond p95 from two passes on

    def __init__(self, classes=SIZE_CLASSES * 2, grid_steps=6, v_size_max=2, refine_rounds=3,
                 fractions=(0.1, 0.35, 0.6, 0.85)):
        self.classes = classes
        self.config = SolveConfig(grid_steps=grid_steps, v_size_max=v_size_max,
                                  refine_rounds=refine_rounds)
        self.fractions = fractions

    def sizes(self):
        c = self.config
        return {"size_classes_s_z_a_y": self.classes, "grid_steps": c.grid_steps,
                "v_size_max": c.v_size_max, "refine_rounds": c.refine_rounds,
                "budget_fractions": list(self.fractions),
                "queries_per_pass": len(self.classes) * len(self.fractions)}

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        units = []
        for i, sizes in enumerate(self.classes):
            spec = random_spec(rng, sizes)
            units.append(LosslessSpec(f"{k}:{i}", spec, self.config,
                                      feasible_budgets(spec, self.fractions), None))
        return units


class LossyTable:
    """The lossy-bounds demo instance: Blahut iterations and bound enumeration."""

    name = "lossy-table"
    why = ("the lossy-bounds demo instance: the only user of Blahut iterations and of "
           "the scalar decoder-bound enumeration, with several (B, D) queries on one spec")
    tail_pct = 100  # 8 queries a pass: too few for a percentile with 10 beyond

    def __init__(self, grid_steps=6, bound_grid_steps=4, budgets=(0.094, 0.198, 0.302, 0.385),
                 distortions=(0.05, 0.2), bound_budget=0.27, p=0.1):
        self.config = SolveConfig(grid_steps=grid_steps, v_size_max=2, u_size_max=2,
                                  refine_rounds=1)
        self.bound_config = replace(self.config, grid_steps=bound_grid_steps)
        self.budgets, self.distortions = budgets, distortions
        self.bound_budget, self.p = bound_budget, p

    def sizes(self):
        return {"p": self.p, "grid_steps": self.config.grid_steps,
                "bound_grid_steps": self.bound_config.grid_steps, "v_size_max": 2,
                "u_size_max": 2, "refine_rounds": 1, "budgets": list(self.budgets),
                "distortions": list(self.distortions), "bound_budget": self.bound_budget,
                "budget_jitter": 0.005, "lossy_queries_per_pass":
                len(self.budgets) * len(self.distortions), "bound_calls_per_pass": 1}

    def inputs(self, seed, k):
        """Budgets jittered by +-0.005; the bound takes the distortions in turn.

        Expected costs on these grids, refinement included, are multiples of
        1/48 (bounds: 1/8). No jittered budget crosses one, so every seed
        asks for the same work.
        """
        rng = np.random.default_rng([seed, k])
        budgets = [float(b + rng.uniform(-0.005, 0.005)) for b in self.budgets]
        dists = list(self.distortions)
        bound = (float(self.bound_budget + rng.uniform(-0.005, 0.005)), dists[k % len(dists)])
        spec = make_binary_example(self.p, with_distortion=True)
        return [(f"{k}:lossy", spec, budgets, dists, bound)]

    def run_pass(self, run, units):
        for request, spec, budgets, dists, (b_bound, d_bound) in units:
            with run.tracer.group("bench.request", request):
                for d in dists:
                    for b in budgets:
                        def query(b=b, d=d):
                            point, secs = run.call("solver.lossy_causal", request,
                                                   solve_lossy_causal, spec, b, d, self.config)
                            run.record_query(secs)
                            problems = _reevaluate(run, request, spec, point, b, True, d)
                            if not problems:
                                run.record_rate(point.rate)
                            return problems
                        run.attempt(f"{request} lossy B={b:g} D={d:g}", query)

                def bounds():
                    rows, _ = run.call("solver.bounds", request, evaluate_lossy_bounds,
                                       spec, b_bound, d_bound, self.bound_config)
                    problems = []
                    for row in rows:
                        problems += _finite(row["label"], row["value"])
                        if row["value"] < 0.0:
                            problems.append(f"{row['label']} negative: {row['value']!r}")
                    if not problems:
                        for row in rows:
                            run.record_rate(row["value"])
                    return problems
                run.attempt(f"{request} bounds B={b_bound:g} D={d_bound:g}", bounds)


class SimCampaign:
    """Monte Carlo campaigns of the three coding protocols, no solver."""

    name = "sim-campaign"
    why = ("binning, timeshare and covering campaigns on the masking strategy: the "
           "sim layer alone, whose cost is the |Y|^n decoder scan")
    # About ten passes give 40 campaigns: p90 lies among the covering ones,
    # the slowest quarter, where the maximum would follow one unlucky draw.
    tail_pct = 90

    def __init__(self, n=18, trials=25, p=0.1, epsilon=0.5):
        self.n, self.trials, self.p, self.epsilon = n, trials, p, epsilon

    def sizes(self):
        return {"n": self.n, "trials": self.trials, "p": self.p, "epsilon": self.epsilon,
                "campaigns_per_pass": 4, "scan_space": 2 ** self.n}

    def _configs(self, seeds):
        h = binary_entropy(self.p)
        common = {"n": self.n, "trials": self.trials, "epsilon": self.epsilon}
        return [
            ("binning", SimConfig(seed=seeds[0], mode="binning", rate=h + 0.15,
                                  codebook_rate_v=0.25, **common)),
            ("binning", SimConfig(seed=seeds[1], mode="binning", rate=h - 0.10,
                                  codebook_rate_v=0.25, **common)),
            ("timeshare", SimConfig(seed=seeds[2], mode="timeshare", rate=h + 0.15,
                                    **common)),
            ("covering", SimConfig(seed=seeds[3], mode="covering", codebook_rate_v=0.6,
                                   **common)),
        ]

    def inputs(self, seed, k):
        rng = np.random.default_rng([seed, k])
        seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
        spec = make_binary_example(self.p)
        aux = AuxiliaryChoice(policy=ActionPolicy(np.array([[0, 1], [1, 0]])),
                              v_given_s=np.full((2, 2), 0.5))
        return [(f"{k}:{i}", spec, aux, mode, cfg)
                for i, (mode, cfg) in enumerate(self._configs(seeds))]

    def run_pass(self, run, units):
        for request, spec, aux, mode, cfg in units:
            with run.tracer.group("bench.request", request):
                def campaign(request=request, spec=spec, aux=aux, mode=mode, cfg=cfg):
                    rep, secs = run.call(f"sim.{mode}", request, run_campaign, spec, aux, cfg)
                    run.record_query(secs)
                    if run.tracer.recording:
                        run.traced_trials += cfg.trials
                        if mode != "covering":
                            run.traced_scan_seqs += cfg.trials * spec.y_size ** cfg.n
                    problems = _finite("error rate", rep.error_rate)
                    problems += _finite("rate", rep.rate)
                    errors = round(rep.error_rate * rep.trials)
                    if sum(rep.breakdown.values()) != errors:
                        problems.append(f"breakdown {rep.breakdown} != {errors} errors")
                    if run.pass_no == 0 and mode == "timeshare":
                        again = run.check("sim.rerun", request, run_campaign, spec, aux, cfg)
                        if again.to_json() != rep.to_json():
                            problems.append("re-run with the same seed differs")
                    if not problems:
                        run.record_rate(rep.rate)
                    return problems
                run.attempt(f"{request} {mode}", campaign)


WORKLOADS = {w.name: w for w in (SweepBinary, SweepSmall, LossyTable, SimCampaign)}
