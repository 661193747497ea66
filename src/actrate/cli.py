"""Command-line front end.

Subcommands:

  curve        solve a budget sweep for a spec file, emit CSV
  closed-form  binary-example closed forms, emit CSV
  simulate     finite-blocklength Monte Carlo, emit JSON
  verify       self-check of the package's core identities

Exit codes: 0 success, 1 failed verification or internal inconsistency,
2 bad usage (arguments, file formats, refused search sizes).
"""

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .binary import (
    bstar,
    make_binary_example,
    parametric_min_causal,
    parametric_min_noncausal,
    rate_causal_binary,
    rate_erased_causal,
    rate_erased_noncausal,
    rate_noncausal_binary,
    binary_structured_aux,
)
from .errors import (
    DomainError,
    IntegrityError,
    InvalidDistributionError,
    SearchSpaceError,
    SpecFormatError,
    UsageError,
)
from .kernel import (
    JointTable,
    binary_entropy,
    binary_entropy_derivative,
    conditional_entropy,
    conditional_mutual_information,
    entropy_bits,
    mutual_information,
)
from .model import (
    ActionPolicy,
    AuxiliaryChoice,
    ProblemSpec,
    assemble_joint,
    aux_from_json,
    expected_cost,
    noncausal_rate,
    reduced_cost,
    spec_from_json,
)
from .sim import SimConfig, run_campaign
from .solver import (
    SolveConfig,
    brute_force_oracle,
    evaluate_lossy_bounds,
    solve_causal,
    solve_lossy_causal,
    solve_noncausal,
    trace_curve,
)

_CSV_COLUMNS = ("B", "D", "R", "mode", "exact", "argmin")


def _parse_budgets(text: str) -> list[float]:
    """Either 'lo:hi:step' (inclusive, fp-tolerant) or a comma list."""
    try:
        if ":" in text:
            lo, hi, step = (float(t) for t in text.split(":"))
            if step <= 0.0:
                raise UsageError("budget step must be positive")
            count = int(np.floor((hi - lo) / step + 1e-9)) + 1
            vals = [lo + i * step for i in range(max(count, 0))]
        else:
            vals = [float(t) for t in text.split(",") if t.strip()]
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"cannot parse budgets {text!r}: {exc}") from None
    if not vals:
        raise UsageError(f"no budgets in {text!r}")
    if not all(math.isfinite(b) for b in vals):
        raise UsageError(f"budgets must be finite, got {text!r}")
    if any(b2 <= b1 for b1, b2 in zip(vals, vals[1:])):
        raise UsageError("budgets must be strictly increasing")
    return vals


@contextlib.contextmanager
def _open_out(path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _fmt(x: float) -> str:
    if x is None:
        return ""
    if np.isinf(x):
        return "inf"
    return f"{x:.12g}"


def _emit_csv(out, comments: list[str], rows: list[tuple]):
    for line in comments:
        out.write(f"# {line}\n")
    writer = csv.writer(out)
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(rows)


def _cmd_curve(args) -> int:
    spec = spec_from_json(_read(args.spec))
    budgets = _parse_budgets(args.budgets)
    config = SolveConfig(
        grid_steps=args.grid,
        refine_rounds=args.refine,
        v_size_max=args.vmax,
        u_size_max=args.umax,
    )
    if args.mode in ("lossy-causal", "bounds") and args.distortion is None:
        raise UsageError(f"--mode {args.mode} needs --distortion")
    comments = [
        f"actrate {__version__} curve",
        f"spec={args.spec} fingerprint={spec.fingerprint()[:16]}",
        f"mode={args.mode} budgets={args.budgets} grid_steps={config.grid_steps} "
        f"refine_rounds={config.refine_rounds} "
        f"v_size_max={config.resolved_v_max(spec)} "
        f"u_size_max={config.resolved_u_max(spec)} "
        f"distortion={_fmt(args.distortion) if args.distortion is not None else 'none'}",
    ]
    if args.mode == "bounds":
        rows = []
        for b in budgets:
            for entry in evaluate_lossy_bounds(spec, b, args.distortion, config):
                aux = entry["argmin"]
                rows.append(
                    (
                        _fmt(b),
                        _fmt(args.distortion),
                        _fmt(entry["value"]),
                        entry["label"],
                        False,
                        aux.summary() if aux is not None else "",
                    )
                )
    else:
        comments.append("convex lower envelope applied; R is the envelope value")
        curve = trace_curve(
            spec, budgets, mode=args.mode, config=config,
            distortion_budget=args.distortion,
        )
        rows = [
            (
                _fmt(pt.budget),
                _fmt(args.distortion) if args.distortion is not None else "",
                _fmt(pt.rate),
                args.mode,
                False,
                pt.argmin_summary(),
            )
            for pt in curve.points
        ]
    with _open_out(args.out) as out:
        _emit_csv(out, comments, rows)
    return 0


def _cmd_closed_form(args) -> int:
    budgets = _parse_budgets(args.budgets)
    if not 0.0 <= args.p < 0.5:
        raise DomainError(f"noise level must be in [0, 0.5), got {args.p}")
    pe = args.pe
    comments = [
        f"actrate {__version__} closed-form",
        f"variant={args.variant} p={_fmt(args.p)}"
        + (f" pe={_fmt(pe)}" if pe is not None else ""),
    ]
    comments.append(f"budgets={args.budgets}")
    if args.p > 0.0:
        comments.append(f"bstar={_fmt(bstar(args.p))}")
    rows = []
    if args.variant == "noncausal":
        for b in budgets:
            if pe is None:
                r = rate_noncausal_binary(b, args.p)
                _, theta, delta = parametric_min_noncausal(b, args.p)
            else:
                r = rate_erased_noncausal(b, args.p, pe)
                _, theta, delta = parametric_min_noncausal(b, args.p)
            arg = json.dumps({"theta": round(theta, 9), "delta": round(delta, 9)})
            rows.append((_fmt(b), "", _fmt(r), "noncausal", True, arg))
    else:
        for b in budgets:
            if pe is None:
                r = rate_causal_binary(b, args.p)
            else:
                r = rate_erased_causal(b, args.p, pe)
            _, theta = parametric_min_causal(b, args.p)
            arg = json.dumps({"theta": round(theta, 9)})
            rows.append((_fmt(b), "", _fmt(r), "causal", True, arg))
    with _open_out(args.out) as out:
        _emit_csv(out, comments, rows)
    return 0


def _cmd_simulate(args) -> int:
    spec = spec_from_json(_read(args.spec))
    aux = aux_from_json(_read(args.aux), spec)
    rates = (
        [None]
        if args.rate is None
        else [float(t) for t in args.rate.split(",") if t.strip()]
    )
    reports = []
    for rate in rates:
        config = SimConfig(
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            mode=args.mode,
            rate=rate,
            codebook_rate_v=args.vrate,
            epsilon=args.epsilon,
            ceiling=args.ceiling,
        )
        reports.append(json.loads(run_campaign(spec, aux, config).to_json()))
    payload = reports[0] if len(reports) == 1 else reports
    with _open_out(args.out) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _checks_quick(seed: int):
    rng = np.random.default_rng(seed)

    def binary_endpoints():
        errs = [
            abs(binary_entropy(0.0)),
            abs(binary_entropy(1.0)),
            abs(binary_entropy(0.5) - 1.0),
            abs(binary_entropy_derivative(0.25) - np.log2(3.0)),
        ]
        return max(errs), 1e-12

    def bstar_identity():
        worst = 0.0
        for p in (0.05, 0.1, 0.2, 0.3):
            b = bstar(p)
            worst = max(
                worst,
                abs(
                    (binary_entropy(b) - binary_entropy(p)) / b
                    - binary_entropy_derivative(b)
                ),
            )
        return worst, 1e-9

    def branch_continuity():
        worst = 0.0
        for p in (0.05, 0.1, 0.2, 0.3):
            b = bstar(p)
            left = rate_noncausal_binary(b - 1e-12, p)
            right = rate_noncausal_binary(b + 1e-12, p)
            worst = max(worst, abs(left - right))
        return worst, 1e-9

    def closed_form_endpoints():
        p = 0.1
        errs = [
            abs(rate_noncausal_binary(0.0, p) - 1.0),
            abs(rate_noncausal_binary(0.5, p) - binary_entropy(p)),
            abs(rate_causal_binary(0.0, p) - 1.0),
            abs(rate_causal_binary(0.5, p) - binary_entropy(p)),
            # erasure prob 1 recovers the no-side-info curve; 0 leaves only noise
            abs(rate_erased_noncausal(0.3, p, 1.0) - rate_noncausal_binary(0.3, p)),
            abs(rate_erased_noncausal(0.3, p, 0.0) - binary_entropy(p)),
            abs(rate_erased_causal(0.3, p, 1.0) - rate_causal_binary(0.3, p)),
            abs(rate_erased_causal(0.3, p, 0.0) - binary_entropy(p)),
        ]
        return max(errs), 1e-12

    def kernel_chain_rule():
        worst = 0.0
        for _ in range(20):
            mass = rng.random((3, 4))
            mass /= mass.sum()
            j = JointTable(mass)
            h_ab = entropy_bits(mass.reshape(-1))
            h_a = entropy_bits(mass.sum(axis=1))
            worst = max(worst, abs(h_ab - h_a - conditional_entropy(j, (1,), (0,))))
            worst = max(worst, -mutual_information(j, (0,), (1,)))
        return worst, 1e-12

    def cost_equivalence():
        worst = 0.0
        for _ in range(10):
            spec = _random_spec(rng)
            aux = _random_aux(rng, spec)
            joint = assemble_joint(spec, aux, causal=False)
            full = expected_cost(joint, spec)
            rows = aux.v_given_s
            lam = reduced_cost(spec)
            direct = 0.0
            for s in range(spec.s_size):
                for v in range(rows.shape[1]):
                    direct += (
                        spec.state_marginal[s]
                        * rows[s, v]
                        * lam[s, aux.policy.table[s, v]]
                    )
            worst = max(worst, abs(full - direct))
        return worst, 1e-12

    def erased_decomposition():
        p, pe = 0.1, 0.3
        aux = binary_structured_aux(0.7, 0.2)
        plain = make_binary_example(p)
        erased = make_binary_example(p, pe=pe)
        j_plain = assemble_joint(plain, aux, causal=False)
        j_erased = assemble_joint(erased, aux, causal=False)
        full_term = noncausal_rate(j_plain)
        known_term = conditional_entropy(
            j_plain, (j_plain.axis("y"),), (j_plain.axis("v"), j_plain.axis("s"))
        )
        expect = pe * full_term + (1.0 - pe) * known_term
        return abs(noncausal_rate(j_erased) - expect), 1e-10

    def parametric_matches_closed_form():
        worst = 0.0
        for p in (0.05, 0.15):
            for b in (0.1, 0.25, 0.4):
                worst = max(
                    worst,
                    abs(parametric_min_noncausal(b, p)[0] - rate_noncausal_binary(b, p)),
                    abs(parametric_min_causal(b, p)[0] - rate_causal_binary(b, p)),
                )
        return worst, 1e-6

    return [
        ("binary-entropy-endpoints", binary_endpoints),
        ("bstar-defining-identity", bstar_identity),
        ("closed-form-branch-continuity", branch_continuity),
        ("closed-form-endpoints", closed_form_endpoints),
        ("entropy-chain-rule", kernel_chain_rule),
        ("reduced-cost-equivalence", cost_equivalence),
        ("erased-side-info-decomposition", erased_decomposition),
        ("parametric-vs-closed-form", parametric_matches_closed_form),
    ]


def _random_spec(rng, s=2, z=1, a=2, y=2):
    state = rng.random((s, z))
    state /= state.sum()
    channel = rng.random((a, s, y))
    channel /= channel.sum(axis=2, keepdims=True)
    cost = rng.random((a, s, y))
    return ProblemSpec(state_joint=state, channel=channel, cost=cost)


def _random_aux(rng, spec, v_size=2):
    rows = rng.random((spec.s_size, v_size))
    rows /= rows.sum(axis=1, keepdims=True)
    policy = rng.integers(0, spec.a_size, size=(spec.s_size, v_size))
    return AuxiliaryChoice(policy=ActionPolicy(policy), v_given_s=rows)


def _checks_full(seed: int, grid_steps: int | None = None):
    rng = np.random.default_rng(seed + 1)

    def solver_vs_closed_form():
        spec = make_binary_example(0.1)
        cfg = SolveConfig(
            grid_steps=grid_steps or 12, v_size_max=3, refine_rounds=2
        )
        worst = 0.0
        for b in (0.1, 0.3):
            worst = max(
                worst,
                abs(solve_noncausal(spec, b, cfg).rate - rate_noncausal_binary(b, 0.1)),
                abs(solve_causal(spec, b, cfg).rate - rate_causal_binary(b, 0.1)),
            )
        return worst, 2e-2

    def oracle_brackets_closed_form():
        spec = make_binary_example(0.1)
        # a dense grid value upper-bounds the true minimum
        (pt,) = brute_force_oracle(spec, [0.3], "noncausal", dense_steps=20, v_size=2)
        gap = pt.rate - rate_noncausal_binary(0.3, 0.1)
        if gap < -1e-9:  # beneath the true minimum: impossible, force failure
            return 1.0 + abs(gap), 2e-2
        return gap, 2e-2

    def oracle_refusal():
        try:
            brute_force_oracle(
                make_binary_example(0.1), [0.3], "noncausal",
                dense_steps=64, v_size=4, max_evals=10_000,
            )
        except SearchSpaceError:
            return 0.0, 1.0
        return 2.0, 1.0

    def lossy_zero_distortion():
        spec = make_binary_example(0.1, with_distortion=True)
        cfg = SolveConfig(grid_steps=8, v_size_max=2, refine_rounds=1)
        lossless = solve_causal(spec, 0.2, cfg)
        lossy = solve_lossy_causal(spec, 0.2, 0.0, cfg)
        return abs(lossy.rate - lossless.rate), 1e-3

    def curve_shape():
        spec = make_binary_example(0.1)
        cfg = SolveConfig(grid_steps=10, v_size_max=2, refine_rounds=1)
        curve = trace_curve(spec, [0.05, 0.15, 0.25, 0.35, 0.5], "causal", cfg)
        rates = [pt.rate for pt in curve.points]
        worst = 0.0
        for r1, r2 in zip(rates, rates[1:]):
            worst = max(worst, r2 - r1)
        for i in range(1, len(rates) - 1):
            b0, b1, b2 = (pt.budget for pt in curve.points[i - 1 : i + 2])
            lhs = (rates[i] - rates[i - 1]) / (b1 - b0)
            rhs = (rates[i + 1] - rates[i]) / (b2 - b1)
            worst = max(worst, lhs - rhs)
        return worst, 1e-9

    def joint_assembly_consistency():
        worst = 0.0
        for _ in range(5):
            spec = _random_spec(rng, s=2, z=2, a=2, y=2)
            aux = _random_aux(rng, spec)
            joint = assemble_joint(spec, aux, causal=False)
            worst = max(worst, abs(joint.mass.sum() - 1.0))
            i_vz_s = conditional_mutual_information(
                joint,
                (joint.axis("v"),),
                (joint.axis("z"),),
                (joint.axis("s"),),
            )
            worst = max(worst, abs(i_vz_s))
        return worst, 1e-10

    return [
        ("solver-vs-closed-form", solver_vs_closed_form),
        ("oracle-brackets-closed-form", oracle_brackets_closed_form),
        ("oracle-search-refusal", oracle_refusal),
        ("lossy-zero-distortion-reduces", lossy_zero_distortion),
        ("curve-monotone-convex", curve_shape),
        ("auxiliary-markov-structure", joint_assembly_consistency),
    ]


def _cmd_verify(args) -> int:
    print(f"# actrate {__version__} verify level={args.level} seed={args.seed}"
          + (f" grid_steps={args.grid}" if args.grid is not None else ""))
    checks = _checks_quick(args.seed)
    if args.level == "full":
        checks += _checks_full(args.seed, grid_steps=args.grid)
    failures = 0
    for name, fn in checks:
        try:
            worst, tol = fn()
            ok = worst <= tol
        except Exception as exc:  # a crashed check is a failed check
            print(f"FAIL {name}: raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if ok:
            print(f"PASS {name} (worst {worst:.3g} <= {tol:.3g})")
        else:
            print(f"FAIL {name} (worst {worst:.3g} > {tol:.3g})")
            failures += 1
    total = len(checks)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actrate",
        description="rate-cost curves, bounds, and coding simulations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="solve a budget sweep, emit CSV")
    p_curve.add_argument("--spec", required=True, help="problem spec JSON file")
    p_curve.add_argument(
        "--mode", default="noncausal",
        choices=("noncausal", "causal", "lossy-causal", "bounds"),
    )
    p_curve.add_argument(
        "--budgets", default="0.05:0.5:0.05",
        help="'lo:hi:step' or comma list, strictly increasing",
    )
    p_curve.add_argument("--distortion", type=float, default=None)
    p_curve.add_argument("--grid", type=int, default=32,
                         help="probability grid steps (noncausal and bounds modes)")
    p_curve.add_argument("--refine", type=int, default=3,
                         help="noncausal mode: 0 reports the grid point, > 0 polishes it")
    p_curve.add_argument("--vmax", type=int, default=None)
    p_curve.add_argument("--umax", type=int, default=None)
    p_curve.add_argument("--out", default=None, help="output file (default stdout)")
    p_curve.set_defaults(func=_cmd_curve)

    p_cf = sub.add_parser(
        "closed-form", help="binary-example closed forms, emit CSV"
    )
    p_cf.add_argument("--p", type=float, required=True, help="channel noise level")
    p_cf.add_argument("--pe", type=float, default=None, help="side-info erasure rate")
    p_cf.add_argument(
        "--variant", default="noncausal", choices=("noncausal", "causal")
    )
    p_cf.add_argument("--budgets", default="0.05:0.5:0.05")
    p_cf.add_argument("--out", default=None)
    p_cf.set_defaults(func=_cmd_closed_form)

    p_sim = sub.add_parser("simulate", help="finite-blocklength Monte Carlo, emit JSON")
    p_sim.add_argument("--spec", required=True)
    p_sim.add_argument("--aux", required=True, help="auxiliary choice JSON file")
    p_sim.add_argument(
        "--mode", default="binning", choices=("binning", "timeshare", "covering")
    )
    p_sim.add_argument("--n", type=int, required=True, help="block length")
    p_sim.add_argument(
        "--rate", default=None, help="bin rate in bits/symbol; comma list allowed"
    )
    p_sim.add_argument(
        "--vrate", type=float, default=None, help="codebook rate for v sequences"
    )
    p_sim.add_argument("--epsilon", type=float, default=0.15)
    p_sim.add_argument("--trials", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--ceiling", type=int, default=1 << 20,
        help="largest |Y|^n hash scan or codebook one trial may enumerate",
    )
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="self-check core identities")
    p_ver.add_argument(
        "level", nargs="?", default="quick", choices=("quick", "full"),
        help="quick: kernel and closed-form identities; "
        "full: also solver and oracle spot checks (slower)",
    )
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--grid", type=int, default=None,
        help="override the solver spot-check grid (degradation testing)",
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError,
        SpecFormatError,
        DomainError,
        InvalidDistributionError,
        SearchSpaceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
