"""Command-line front end.

Every run starts from an explicit seed (no environment fallback: replays
must carry their entropy in the plan), writes its plan next to its reports,
and can be reproduced byte-for-byte with ``frogsim replay plan.json``.
Exit codes: 0 success, 2 plan or parameter error (or out of memory), 3
censoring budget breach.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .environment import ConfigLaw, condition_origin, sample_environment
from .errors import CensoringBudgetError, FrogsimError, PlanError
from .estimation import (
    collect_tail_samples,
    concentration_experiment,
    estimate_time_constant,
    probe_mu_hint,
    subadditivity_audit,
    tail_curve_from_samples,
)
from .lattice import Coords
from .passage import oracle_passage_time, passage_time, passage_time_star, simulate_frogs
from .percolation import (
    chemical_ratio_experiment,
    hole_radius_experiment,
    marginal_curve,
    white_site_indicator,
)
from .reports import dump_csv, dump_json
from .truncated import agreement_experiment
from .walks import SeedSpec

PLAN_VERSION = 1


def _parse_point(text: str) -> Coords:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise PlanError(f"bad lattice point {text!r}: {exc}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise PlanError(f"bad integer list {text!r}: {exc}") from None


def _parse_points(text: str) -> list[Coords]:
    return [_parse_point(part) for part in text.split(";") if part]


def _seed(params: dict) -> SeedSpec:
    return SeedSpec(int(params["seed"]), params.get("tag", ""))


def _law(params: dict) -> ConfigLaw:
    return ConfigLaw.parse(params["law"])


# ---------------------------------------------------------------------------
# Runners: params dict -> files in outdir + one-line summary
# ---------------------------------------------------------------------------


def run_sample_env(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    env = sample_environment(_law(params), params["dim"], params["radius"], _seed(params))
    if params.get("condition"):
        env = condition_origin(env)
    dump_json(env.to_json(), outdir / "environment.json")
    occ = env.occupied_coords().shape[0]
    return f"sampled {params['law']} box radius {params['radius']}: {occ} occupied sites"


def run_passage(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    env = sample_environment(_law(params), params["dim"], params["radius"], _seed(params))
    env = condition_origin(env)
    x = tuple(params["x"])
    horizon = params["horizon"]
    # a box smaller than horizon + |source| defines the finite-box process,
    # which the relay oracle replays exactly; the report flags the regime
    finite_box = params["radius"] < horizon
    out = passage_time(env, x, horizon, strict=not finite_box)
    report = {
        "plan": plan,
        "x": list(x),
        "horizon": horizon,
        "finite_box": finite_box,
        "value": out.value.time,
        "censored": not out.value.is_finite,
        "witness": [list(p) for p in out.witness] if out.witness else None,
    }
    star_out = passage_time_star(env, x, horizon, strict=not finite_box)
    report["star_value"] = star_out.value.time
    report["star_censored"] = not star_out.value.is_finite
    if params.get("check_oracle"):
        oracle = oracle_passage_time(env, (0,) * env.dim, x, horizon)
        report["oracle_value"] = oracle.value.time
        report["oracle_matches"] = oracle.value.time == out.value.time
    if params.get("dump_table"):
        table = simulate_frogs(env, (0,) * env.dim, horizon, strict=not finite_box)
        env_ref = {"law": env.law.label(), "seed": env.seed.master_seed, "tag": env.seed.experiment_tag,
                   "box_radius": env.box_radius}
        dump_json(table.to_json(env_ref), outdir / "activation_table.json")
    dump_json(report, outdir / "report.json")
    val = out.value.time if out.value.is_finite else f">{horizon}"
    return f"T(0,{x}) = {val}"


def run_mu(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    est = estimate_time_constant(
        _law(params),
        tuple(params["direction"]),
        params["k"],
        params["replicas"],
        _seed(params),
        threads=threads,
    )
    dump_json(
        {
            "plan": plan,
            "direction": list(est.direction),
            "law": est.law_label,
            "replicas": est.replicas,
            "horizon": est.horizon,
            "mu_hat": est.mu_hat,
            "mu_lower": est.mu_lower,
            "per_k": est.rows(),
        },
        outdir / "report.json",
    )
    dump_csv(
        outdir / "per_k.csv",
        ["k", "n", "mean", "std", "ci_lo", "ci_hi", "censored_count"],
        [[r["k"], r["n"], r["mean"], r["std"], r["ci_lo"], r["ci_hi"], r["censored_count"]] for r in est.rows()],
    )
    return f"mu_hat({est.direction}) = {est.mu_hat:.6g} from {est.replicas} replicas"


def run_tails(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    law = _law(params)
    seed = _seed(params)
    eps = params["epsilon"]
    if eps <= 0:
        raise PlanError(f"epsilon must be > 0, got {eps}")
    kladder = params["k"]
    direction = tuple(params.get("direction", (1, 0)))
    ladder = [tuple(k * c for c in direction) for k in kladder]
    mu_hat = params.get("mu_hat")
    if mu_hat is None:
        est = estimate_time_constant(
            law, direction, params.get("calibration_k", [4, 8, 16]),
            params.get("calibration_replicas", 200), seed.child("calibration"),
            threads=threads,
        )
        mu_hat = est.mu_hat
    sides = TAIL_SIDES[params["side"]]
    samples = collect_tail_samples(
        law, eps, ladder, params["replicas"], mu_hat, seed, threads=threads
    )
    curves = {side: tail_curve_from_samples(samples, eps, side, mu_hat, law.label()) for side in sides}
    report = {"plan": plan, "epsilon": eps, "mu_hat": mu_hat, "law": law.label(), "sides": {}}
    for side, curve in curves.items():
        report["sides"][side] = {
            "fitted_log_slope": curve.fitted_log_slope,
            "alpha_fit": curve.fitted_exponent_alpha,
            "all_censored": curve.all_censored,
            "points": [vars(p) for p in curve.points],
        }
        dump_csv(
            outdir / f"tail_{side}.csv",
            ["norm", "replicas", "hits", "phat", "ci_lo", "ci_hi", "censored"],
            [[p.norm, p.replicas, p.hits, p.phat, p.ci_lo, p.ci_hi, p.censored] for p in curve.points],
        )
    dump_json(report, outdir / "report.json")
    slopes = ", ".join(f"{s}: {c.fitted_log_slope:.4g}" for s, c in curves.items())
    return f"tail slopes ({slopes}) at eps={eps}, mu_hat={mu_hat:.4g}"


def run_concentration(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    direction = tuple(params.get("direction", (1, 0)))
    ladder = [tuple(k * c for c in direction) for k in params["k"]]
    rep = concentration_experiment(
        _law(params), ladder, params["replicas"], _seed(params),
        mu_hint=params.get("mu_hint"), threads=threads,
    )
    dump_json(
        {
            "plan": plan,
            "law": rep.law_label,
            "replicas": rep.replicas,
            "horizon": rep.horizon,
            "fitted_std_slope": rep.fitted_std_slope,
            "rows": [vars(r) for r in rep.rows],
        },
        outdir / "report.json",
    )
    dump_csv(
        outdir / "concentration.csv",
        ["norm", "n", "mean", "std", "std_ci_lo", "std_ci_hi", "ratio_sqrt", "censored"],
        [[r.norm, r.n, r.mean, r.std, r.std_ci_lo, r.std_ci_hi, r.ratio_sqrt, r.censored] for r in rep.rows],
    )
    return f"std slope = {rep.fitted_std_slope:.4g} over {len(rep.rows)} ladder points"


def run_truncation(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    law = _law(params)
    seed = _seed(params)
    mu_hat = params.get("mu_hat")
    if mu_hat is None:
        mu_hat = probe_mu_hint(law, params["dim"], seed.child("calibration"))
    table = agreement_experiment(
        law,
        tuple(params["x"]),
        params["t"],
        params["replicas"],
        seed,
        mu_hat=mu_hat,
        c4_hat=params.get("c4_hat"),
        gamma=params.get("gamma", 1.0),
    )
    rows = sorted(table.rows, key=lambda r: r.t)
    dump_json(
        {
            "plan": plan,
            "x": list(table.x),
            "law": table.law_label,
            "mu_hat": mu_hat,
            "K_by_t": {str(t): p.K for t, p in table.params_by_t.items()},
            "rows": [vars(r) for r in rows],
        },
        outdir / "report.json",
    )
    dump_csv(
        outdir / "agreement.csv",
        ["t", "replicas", "disagreements", "phat", "ci_lo", "ci_hi", "censored",
         "long_edge_geodesics", "max_box_count", "max_box_bound"],
        [[r.t, r.replicas, r.disagreements, r.phat, r.ci_lo, r.ci_hi, r.censored,
          r.long_edge_geodesics, r.max_box_count, r.max_box_bound] for r in rows],
    )
    frac = ", ".join(f"t={r.t}: {r.phat:.3g}" for r in rows)
    return f"disagreement fractions {frac}"


def run_percolation(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    seed = _seed(params)
    hole = hole_radius_experiment(
        params["p"], params["dim"], params["radius"], params["replicas"], seed
    )
    targets = [tuple(t) for t in params.get("targets", [[20, 0], [0, 20]])]
    chem = chemical_ratio_experiment(
        params["p"], params["dim"], params["radius"], targets, params["replicas"], seed
    )
    dump_json(
        {
            "plan": plan,
            "p": params["p"],
            "radius": params["radius"],
            "replicas": params["replicas"],
            "hole_tail_slope": hole.fitted_log_slope,
            "hole_tail": [{"t": t, "count": c, "phat": ph} for t, c, ph in hole.tail],
            "chemical_max_ratio": chem.max_ratio,
            "chemical_rows": [
                {"target": list(v), "connected": n, "max_ratio": mx, "mean_ratio": mean}
                for v, n, mx, mean in chem.rows
            ],
        },
        outdir / "report.json",
    )
    dump_csv(
        outdir / "hole_tail.csv",
        ["t", "count_ge_t", "phat"],
        [[t, c, ph] for t, c, ph in hole.tail],
    )
    dump_csv(
        outdir / "chemical_ratio.csv",
        ["target", "connected", "max_ratio", "mean_ratio"],
        [["|".join(map(str, v)), n, mx, mean] for v, n, mx, mean in chem.rows],
    )
    extra = ""
    if params.get("white_n"):
        subbox = params.get("white_subbox")
        law = ConfigLaw.parse(params.get("white_law", "poisson:1.0"))

        def factory(N, s):
            return sample_environment(law, params["dim"], params["dim"] * N + N + 2, s)

        rows = marginal_curve(
            lambda env, N: white_site_indicator(env, (0,) * params["dim"], N, subbox_side=subbox),
            params["white_n"],
            params.get("white_replicas", 20),
            seed.child("white-marginal"),
            factory,
        )
        dump_csv(
            outdir / "white_marginal.csv",
            ["N", "replicas", "hits", "phat", "ci_lo", "ci_hi"],
            [[r.N, r.replicas, r.hits, r.phat, r.ci_lo, r.ci_hi] for r in rows],
        )
        extra = f"; white marginal over N={params['white_n']}"
    return f"hole slope {hole.fitted_log_slope:.4g}, chem max ratio {chem.max_ratio:.4g}{extra}"


def run_audit(plan: dict, outdir: Path, threads: int = 1) -> str:
    params = plan["params"]
    rep = subadditivity_audit(
        _law(params),
        params["triples"],
        _seed(params),
        dim=params["dim"],
        window=params.get("window", 5),
        horizon=params.get("horizon", 60),
    )
    dump_json(
        {
            "plan": plan,
            "law": rep.law_label,
            "replicas": rep.replicas,
            "violations": rep.violations,
            "checked_plain": rep.checked_plain,
            "checked_star": rep.checked_star,
            "skipped": rep.skipped,
            "details": rep.details,
        },
        outdir / "report.json",
    )
    return f"subadditivity violations: {rep.violations} over {rep.checked_plain}+{rep.checked_star} checks"


RUNNERS = {
    "sample-env": run_sample_env,
    "passage": run_passage,
    "mu": run_mu,
    "tails": run_tails,
    "concentration": run_concentration,
    "truncation": run_truncation,
    "percolation": run_percolation,
    "audit": run_audit,
}

TAIL_SIDES = {"upper": ["upper"], "lower": ["lower"], "both": ["upper", "lower"]}

# the params each runner reads without a default
REQUIRED_PARAMS = {
    "sample-env": ("seed", "law", "dim", "radius"),
    "passage": ("seed", "law", "dim", "radius", "x", "horizon"),
    "mu": ("seed", "law", "direction", "k", "replicas"),
    "tails": ("seed", "law", "k", "replicas", "epsilon", "side"),
    "concentration": ("seed", "law", "k", "replicas"),
    "truncation": ("seed", "law", "dim", "x", "t", "replicas"),
    "percolation": ("seed", "dim", "p", "radius", "replicas"),
    "audit": ("seed", "law", "dim", "triples"),
}

# the sample-size parameters of each replicated command; fewer than one
# replica leaves nothing to estimate
SAMPLE_SIZES = {
    "mu": ("replicas",),
    "tails": ("replicas",),
    "concentration": ("replicas",),
    "truncation": ("replicas",),
    "percolation": ("replicas", "white_replicas"),
    "audit": ("triples",),
}


def _check_params(command: str, params: dict) -> None:
    missing = [key for key in REQUIRED_PARAMS[command] if key not in params]
    if missing:
        raise PlanError(f"{command}: plan params lack {', '.join(missing)}")
    for size in SAMPLE_SIZES.get(command, ()):
        if size in params and not (isinstance(params[size], int) and params[size] >= 1):
            raise PlanError(f"{command}: {size} must be an integer >= 1, got {params[size]!r}")
    for key in ("law", "white_law"):
        if key in params and not isinstance(params[key], str):
            raise PlanError(f"{command}: {key} must be a string such as poisson:1.0, got {params[key]!r}")
    for key in ("k", "t", "calibration_k", "white_n"):
        ladder = params.get(key)
        if key in params and not (
            isinstance(ladder, list) and ladder and all(type(v) is int and v >= 1 for v in ladder)
        ):
            raise PlanError(f"{command}: {key} must be a non-empty list of positive integers, got {ladder!r}")
    side = params.get("side")
    if command == "tails" and not (isinstance(side, str) and side in TAIL_SIDES):
        raise PlanError(f"tails: side must be upper or lower (or both), got {side!r}")
    if command == "percolation":
        p, radius = params["p"], params["radius"]
        if not (type(p) in (int, float) and 0 <= p <= 1):
            raise PlanError(f"percolation: p must be a number in [0, 1], got {p!r}")
        if not (type(radius) is int and radius >= 0):
            raise PlanError(f"percolation: radius must be an integer >= 0, got {radius!r}")
    dim = params.get("dim")
    if dim is None:
        return
    points = [(key, params[key]) for key in ("direction", "x") if key in params]
    points += [("targets", t) for t in params.get("targets", ())]
    for key, point in points:
        if not (isinstance(point, (list, tuple)) and len(point) == dim):
            raise PlanError(f"{command}: {key} must have dim = {dim} coordinates, got {point!r}")
    if command == "percolation" and [0] * dim in [list(t) for t in params.get("targets", ())]:
        raise PlanError("percolation: a target must not be the origin, whose chemical ratio is 0/0")


def execute_plan(plan: dict, outdir: Path, threads: int = 1) -> str:
    if not isinstance(plan, dict):
        raise PlanError(f"a plan must be a JSON object, got {type(plan).__name__}")
    command = plan.get("command")
    if command not in RUNNERS:
        raise PlanError(f"unknown command {command!r} in plan")
    if plan.get("plan_version") != PLAN_VERSION:
        raise PlanError(f"unsupported plan version {plan.get('plan_version')}")
    params = plan.get("params")
    if not isinstance(params, dict):
        raise PlanError(f"{command}: plan params must be a JSON object, got {params!r}")
    _check_params(command, params)
    plan.setdefault("software_version", __version__)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    dump_json(plan, outdir / "plan.json")
    summary = RUNNERS[command](plan, outdir, threads)
    elapsed = time.monotonic() - t0
    # timing is intentionally outside the byte-stable outputs
    (outdir / "run.log").write_text(f"{command}: {summary} [wall_clock_s={elapsed:.3f}]\n", encoding="utf-8")
    return summary


def _build_plan(command: str, params: dict) -> dict:
    return {"plan_version": PLAN_VERSION, "command": command, "params": params}


def _common_args(sp: argparse.ArgumentParser, law: bool = True) -> None:
    if law:
        sp.add_argument("--law", required=True, help="poisson:1.0 | bernoulli:0.7 | geometric:0.5 | constant:1 | explicit:p0,p1,...")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--seed", type=int, required=True, help="master seed (required; no environment fallback)")
    sp.add_argument("--tag", default="", help="experiment tag mixed into every derived key")
    sp.add_argument("--out", required=True, help="output directory for plan + reports")


def _threads_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--threads", type=int, default=1, help="threads over replicas; never changes the bytes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frogsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample-env", help="sample a configuration and serialize it")
    _common_args(sp)
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--condition", action="store_true", help="condition on an occupied origin")

    sp = sub.add_parser("passage", help="one passage time with witness")
    _common_args(sp)
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--x", required=True, help="target site, e.g. 3,0")
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--check-oracle", action="store_true")
    sp.add_argument("--dump-table", action="store_true", help="write the activation table and genealogy")

    sp = sub.add_parser("mu", help="time-constant estimation ladder")
    _common_args(sp)
    _threads_arg(sp)
    sp.add_argument("--direction", default="1,0")
    sp.add_argument("--k", required=True, help="comma list, e.g. 4,8,16,32")
    sp.add_argument("--replicas", type=int, required=True)

    sp = sub.add_parser("tails", help="deviation tail curves")
    _common_args(sp)
    _threads_arg(sp)
    sp.add_argument("--direction", default="1,0")
    sp.add_argument("--k", required=True)
    sp.add_argument("--replicas", type=int, required=True)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--side", choices=list(TAIL_SIDES), default="both")
    sp.add_argument("--mu-hat", type=float, default=None, help="calibrated estimate; omitted -> internal calibration on a disjoint seed stream")

    sp = sub.add_parser("concentration", help="std scaling of the modified passage time")
    _common_args(sp)
    _threads_arg(sp)
    sp.add_argument("--direction", default="1,0")
    sp.add_argument("--k", required=True)
    sp.add_argument("--replicas", type=int, required=True)
    sp.add_argument("--mu-hint", type=float, default=None)

    sp = sub.add_parser("truncation", help="truncated-vs-modified agreement experiment")
    _common_args(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--t", required=True, help="truncation scales, e.g. 1,2,4,8,16")
    sp.add_argument("--replicas", type=int, required=True)
    sp.add_argument("--mu-hat", type=float, default=None)
    sp.add_argument("--c4-hat", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=1.0)

    sp = sub.add_parser("percolation", help="hole radius tail and chemical distance ratios")
    _common_args(sp, law=False)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--replicas", type=int, required=True)
    sp.add_argument("--targets", default="20,0;0,20", help="semicolon-separated sites")
    sp.add_argument("--white-n", default=None, help="optional block-scale ladder for the white marginal, e.g. 3,5")
    sp.add_argument("--white-replicas", type=int, default=20)
    sp.add_argument("--white-subbox", type=int, default=None)
    sp.add_argument("--white-law", default="poisson:1.0")

    sp = sub.add_parser("audit", help="subadditivity audit")
    _common_args(sp)
    sp.add_argument("--triples", type=int, required=True)
    sp.add_argument("--window", type=int, default=5)
    sp.add_argument("--horizon", type=int, default=60)

    sp = sub.add_parser("replay", help="re-execute a stored plan byte-identically")
    sp.add_argument("plan", help="path to plan.json")
    sp.add_argument("--out", default=None, help="output directory (default: the plan's directory)")
    _threads_arg(sp)

    return ap


def _plan_from_args(args: argparse.Namespace) -> dict:
    c = args.command
    p: dict = {"seed": args.seed, "tag": args.tag} if c != "replay" else {}
    if c == "sample-env":
        p.update(law=args.law, dim=args.dim, radius=args.radius, condition=bool(args.condition))
    elif c == "passage":
        p.update(law=args.law, dim=args.dim, radius=args.radius, x=list(_parse_point(args.x)),
                 horizon=args.horizon, check_oracle=bool(args.check_oracle),
                 dump_table=bool(args.dump_table))
    elif c == "mu":
        p.update(law=args.law, dim=args.dim, direction=list(_parse_point(args.direction)),
                 k=_parse_ints(args.k), replicas=args.replicas)
    elif c == "tails":
        p.update(law=args.law, dim=args.dim, direction=list(_parse_point(args.direction)),
                 k=_parse_ints(args.k), replicas=args.replicas, epsilon=args.epsilon, side=args.side)
        if args.mu_hat is not None:
            p["mu_hat"] = args.mu_hat
    elif c == "concentration":
        p.update(law=args.law, dim=args.dim, direction=list(_parse_point(args.direction)),
                 k=_parse_ints(args.k), replicas=args.replicas)
        if args.mu_hint is not None:
            p["mu_hint"] = args.mu_hint
    elif c == "truncation":
        p.update(law=args.law, dim=args.dim, x=list(_parse_point(args.x)), t=_parse_ints(args.t),
                 replicas=args.replicas, gamma=args.gamma)
        if args.mu_hat is not None:
            p["mu_hat"] = args.mu_hat
        if args.c4_hat is not None:
            p["c4_hat"] = args.c4_hat
    elif c == "percolation":
        p.update(dim=args.dim, p=args.p, radius=args.radius, replicas=args.replicas,
                 targets=[list(t) for t in _parse_points(args.targets)])
        if args.white_n:
            p.update(white_n=_parse_ints(args.white_n), white_replicas=args.white_replicas,
                     white_law=args.white_law)
            if args.white_subbox is not None:
                p["white_subbox"] = args.white_subbox
    elif c == "audit":
        p.update(law=args.law, dim=args.dim, triples=args.triples, window=args.window, horizon=args.horizon)
    return _build_plan(c, p)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "replay":
            plan_path = Path(args.plan)
            if not plan_path.exists():
                raise PlanError(f"plan file {plan_path} does not exist")
            plan = json.loads(plan_path.read_text(encoding="utf-8"))
            outdir = Path(args.out) if args.out else plan_path.parent
        else:
            plan = _plan_from_args(args)
            outdir = Path(args.out)
        # only the replicated commands offer --threads
        summary = execute_plan(plan, outdir, threads=getattr(args, "threads", 1))
        print(summary)
        return 0
    except CensoringBudgetError as exc:
        print(f"censoring budget breached: {exc}", file=sys.stderr)
        return 3
    except (PlanError, FrogsimError, ValueError) as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"out of memory: frogsim {args.command} needs a smaller box, ladder or replica count",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
