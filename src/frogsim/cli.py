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
from dataclasses import astuple, fields
from pathlib import Path

from . import __version__
from .environment import ConfigLaw, condition_origin, sample_environment
from .errors import COUNT, DIRECTION, INTEGER, LADDER, NONNEGATIVE, POSITIVE, PROBABILITY, SITES, SIZE, SWITCH, TEXT
from .errors import CensoringBudgetError, FrogsimError, PlanError, must, require, require_site
from .estimation import (
    ConcentrationRow,
    TailPoint,
    collect_tail_samples,
    concentration_experiment,
    estimate_time_constant,
    probe_mu_hint,
    subadditivity_audit,
    tail_curve_from_samples,
)
from .passage import oracle_passage_time, passage_time, passage_time_star, simulate_frogs
from .percolation import (
    MarginalRow,
    check_targets,
    chemical_ratio_experiment,
    default_subbox_sides,
    hole_radius_experiment,
    white_marginal_curve,
)
from .reports import dump_csv, dump_json
from .stats import SummaryStats
from .truncated import AgreementRow, agreement_experiment
from .walks import SeedSpec

PLAN_VERSION = 1


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise PlanError(f"bad integer list {text!r}: {exc}") from None


def _parse_points(text: str) -> list[list[int]]:
    return [_parse_ints(part) for part in text.split(";") if part]


REQUIRED = object()  # the table default of a flag that every run must give

TAIL_SIDES = {"upper": ["upper"], "lower": ["lower"], "both": ["upper", "lower"]}
SIDE = must(lambda v: isinstance(v, str) and v in TAIL_SIDES, "upper or lower (or both)")


def LAW(value) -> str | None:
    """The row check of a law: a string that ConfigLaw.parse accepts."""
    if not isinstance(value, str):
        return f"must be a string such as poisson:1.0, got {value!r}"
    try:
        ConfigLaw.parse(value)
    except FrogsimError as exc:
        return f"{value!r} is not a law: {exc}"
    return None


# Each command's parameters in plan order: (plan key, parser, default, check,
# help).  The flag is the key with dashes.  An int or float parser is
# argparse's type and bool makes a switch; any other parser turns the flag's
# text into the plan value in _plan_from_args, so that a malformed value
# exits 2 as a plan error.  A default of None leaves the key out of the plan.
# The check is LAW, SIDE or a rule of errors.py, which the library applies to
# the same value; _check_params runs it on every key a plan carries, before
# plan.json is written, and rejects a key that is not a row.  A replayed plan
# gets every absent key at its default; REQUIRED_PARAMS lists the keys it
# must carry.
_SEED = [
    ("seed", int, REQUIRED, INTEGER, "master seed (required; no environment fallback)"),
    ("tag", str, "", TEXT, "experiment tag mixed into every derived key"),
]
_LAW = [
    *_SEED,
    ("law", str, REQUIRED, LAW, "poisson:1.0 | bernoulli:0.7 | geometric:0.5 | constant:1 | explicit:p0,p1,..."),
    ("dim", int, 2, SIZE, None),
]
_LADDER = [
    *_LAW,
    ("direction", _parse_ints, [1, 0], DIRECTION, None),
    ("k", _parse_ints, REQUIRED, LADDER, "comma list, e.g. 4,8,16,32"),
    ("replicas", int, REQUIRED, SIZE, None),
]
COMMANDS = {
    "sample-env": ("sample a configuration and serialize it", [
        *_LAW,
        ("radius", int, REQUIRED, COUNT, None),
        ("condition", bool, False, SWITCH, "condition on an occupied origin"),
    ]),
    "passage": ("one passage time with witness", [
        *_LAW,
        ("radius", int, REQUIRED, COUNT, None),
        ("x", _parse_ints, REQUIRED, SITES, "target site, e.g. 3,0"),
        ("horizon", int, REQUIRED, COUNT, None),
        ("check_oracle", bool, False, SWITCH, None),
        ("dump_table", bool, False, SWITCH, "write the activation table and genealogy"),
    ]),
    "mu": ("time-constant estimation ladder", _LADDER),
    "tails": ("deviation tail curves", [
        *_LADDER,
        ("epsilon", float, REQUIRED, POSITIVE, None),
        ("side", str, "both", SIDE, "upper | lower | both"),
        ("mu_hat", float, None, POSITIVE,
         "calibrated estimate; omitted -> internal calibration on a disjoint seed stream"),
    ]),
    "concentration": ("std scaling of the modified passage time", [
        *_LADDER,
        ("mu_hint", float, None, POSITIVE, None),
    ]),
    "truncation": ("truncated-vs-modified agreement experiment", [
        *_LAW,
        ("x", _parse_ints, REQUIRED, SITES, None),
        ("t", _parse_ints, REQUIRED, LADDER, "truncation scales, e.g. 1,2,4,8,16"),
        ("replicas", int, REQUIRED, SIZE, None),
        ("gamma", float, 1.0, NONNEGATIVE, None),
        ("mu_hat", float, None, POSITIVE, None),
        ("c4_hat", float, None, NONNEGATIVE, None),
    ]),
    "percolation": ("hole radius tail and chemical distance ratios", [
        *_SEED,
        ("dim", int, 2, SIZE, None),
        ("p", float, REQUIRED, PROBABILITY, None),
        ("radius", int, REQUIRED, COUNT, None),
        ("replicas", int, REQUIRED, SIZE, None),
        ("targets", _parse_points, [[20, 0], [0, 20]], SITES, "semicolon-separated sites"),
        # the white_* keys enter a plan only with --white-n
        ("white_n", _parse_ints, None, LADDER, "optional block-scale ladder for the white marginal, e.g. 3,5"),
        ("white_replicas", int, 20, SIZE, None),
        ("white_law", str, "poisson:1.0", LAW, None),
        ("white_subbox", int, None, SIZE, None),
    ]),
    "audit": ("subadditivity audit", [
        *_LAW,
        ("triples", int, REQUIRED, SIZE, None),
        ("window", int, 5, COUNT, None),
        ("horizon", int, 60, COUNT, None),
    ]),
}
DEFAULTS = {
    command: {key: default for key, _, default, _, _ in table if default is not REQUIRED}
    for command, (_, table) in COMMANDS.items()
}

# the replicated commands and replay still accept --threads
THREADED = ("mu", "tails", "concentration")
THREADS = {"type": int, "default": 1, "help": "ignored; kept so that older command lines still run"}


def _params(plan: dict) -> dict:
    """The plan's params, with every key the plan leaves out at its default."""
    return {**DEFAULTS[plan["command"]], **plan["params"]}


def _seed(params: dict) -> SeedSpec:
    return SeedSpec(params["seed"], params["tag"])


def _law(params: dict) -> ConfigLaw:
    return ConfigLaw.parse(params["law"])


def _columns(row_type: type) -> list[str]:
    """The CSV header of a table whose rows are ``row_type`` dataclasses."""
    return [f.name for f in fields(row_type)]


# ---------------------------------------------------------------------------
# Runners: params dict -> files in outdir + one-line summary
# ---------------------------------------------------------------------------


def run_sample_env(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    env = sample_environment(_law(params), params["dim"], params["radius"], _seed(params))
    if params["condition"]:
        env = condition_origin(env)
    dump_json(env.to_json(), outdir / "environment.json")
    occ = env.occupied_coords().shape[0]
    return f"sampled {params['law']} box radius {params['radius']}: {occ} occupied sites"


def run_passage(plan: dict, outdir: Path) -> str:
    params = _params(plan)
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
        "value": out.value,
        "censored": out.value is None,
        "witness": [list(p) for p in out.witness] if out.witness else None,
    }
    star_out = passage_time_star(env, x, horizon, strict=not finite_box)
    report["star_value"] = star_out.value
    report["star_censored"] = star_out.value is None
    if params["check_oracle"]:
        oracle = oracle_passage_time(env, (0,) * env.dim, x, horizon)
        report["oracle_value"] = oracle.value
        report["oracle_matches"] = oracle.value == out.value
    if params["dump_table"]:
        table = simulate_frogs(env, (0,) * env.dim, horizon, strict=not finite_box)
        env_ref = {"law": env.law.label(), "seed": env.seed.master_seed, "tag": env.seed.experiment_tag,
                   "box_radius": env.box_radius}
        dump_json(table.to_json(env_ref), outdir / "activation_table.json")
    dump_json(report, outdir / "report.json")
    val = f">{horizon}" if out.value is None else out.value
    return f"T(0,{x}) = {val}"


def run_mu(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    est = estimate_time_constant(
        _law(params), tuple(params["direction"]), params["k"], params["replicas"], _seed(params)
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
    dump_csv(outdir / "per_k.csv", ["k", *_columns(SummaryStats)], [list(r.values()) for r in est.rows()])
    return f"mu_hat({est.direction}) = {est.mu_hat:.6g} from {est.replicas} replicas"


def run_tails(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    law = _law(params)
    seed = _seed(params)
    eps = params["epsilon"]
    direction = tuple(params["direction"])
    ladder = [tuple(k * c for c in direction) for k in params["k"]]
    mu_hat = params["mu_hat"]
    if mu_hat is None:
        mu_hat = estimate_time_constant(law, direction, [4, 8, 16], 200, seed.child("calibration")).mu_hat
    sides = TAIL_SIDES[params["side"]]
    samples = collect_tail_samples(law, eps, ladder, params["replicas"], mu_hat, seed)
    curves = {side: tail_curve_from_samples(samples, eps, side, mu_hat, law.label()) for side in sides}
    report = {"plan": plan, "epsilon": eps, "mu_hat": mu_hat, "law": law.label(), "sides": {}}
    for side, curve in curves.items():
        report["sides"][side] = {
            "fitted_log_slope": curve.fitted_log_slope,
            "alpha_fit": curve.fitted_exponent_alpha,
            "all_censored": curve.all_censored,
            "points": [vars(p) for p in curve.points],
        }
        dump_csv(outdir / f"tail_{side}.csv", _columns(TailPoint), [astuple(p) for p in curve.points])
    dump_json(report, outdir / "report.json")
    slopes = ", ".join(f"{s}: {c.fitted_log_slope:.4g}" for s, c in curves.items())
    return f"tail slopes ({slopes}) at eps={eps}, mu_hat={mu_hat:.4g}"


def run_concentration(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    ladder = [tuple(k * c for c in params["direction"]) for k in params["k"]]
    rep = concentration_experiment(
        _law(params), ladder, params["replicas"], _seed(params),
        mu_hint=params["mu_hint"],
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
    dump_csv(outdir / "concentration.csv", _columns(ConcentrationRow), [astuple(r) for r in rep.rows])
    return f"std slope = {rep.fitted_std_slope:.4g} over {len(rep.rows)} ladder points"


def run_truncation(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    law = _law(params)
    seed = _seed(params)
    mu_hat = params["mu_hat"]
    if mu_hat is None:
        mu_hat = probe_mu_hint(law, params["dim"], seed.child("calibration"))
    table = agreement_experiment(
        law, tuple(params["x"]), params["t"], params["replicas"], seed,
        mu_hat=mu_hat, c4_hat=params["c4_hat"], gamma=params["gamma"],
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
    dump_csv(outdir / "agreement.csv", _columns(AgreementRow), [astuple(r) for r in rows])
    frac = ", ".join(f"t={r.t}: {r.phat:.3g}" for r in rows)
    work = ", ".join(f"t={r.t}: {table.settled[r.t]}/{table.relaxations[r.t]}" for r in rows)
    return f"disagreement fractions {frac}; A* settled/relaxations {work}"


def run_percolation(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    seed = _seed(params)
    p, dim, radius, replicas = params["p"], params["dim"], params["radius"], params["replicas"]
    hole = hole_radius_experiment(p, dim, radius, replicas, seed)
    chem = chemical_ratio_experiment(p, dim, radius, [tuple(t) for t in params["targets"]], replicas, seed)
    dump_json(
        {
            "plan": plan,
            "p": p,
            "radius": radius,
            "replicas": replicas,
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
    dump_csv(outdir / "hole_tail.csv", ["t", "count_ge_t", "phat"], [list(row) for row in hole.tail])
    dump_csv(outdir / "chemical_ratio.csv", ["target", "connected", "max_ratio", "mean_ratio"],
             [["|".join(map(str, v)), *rest] for v, *rest in chem.rows])
    extra = ""
    if params["white_n"]:
        rows = white_marginal_curve(
            ConfigLaw.parse(params["white_law"]), dim, params["white_n"], params["white_replicas"],
            seed.child("white-marginal"), params["white_subbox"],
        )
        dump_csv(outdir / "white_marginal.csv", _columns(MarginalRow), [astuple(r) for r in rows])
        extra = f"; white marginal over N={params['white_n']}"
    return f"hole slope {hole.fitted_log_slope:.4g}, chem max ratio {chem.max_ratio:.4g}{extra}"


def run_audit(plan: dict, outdir: Path) -> str:
    params = _params(plan)
    rep = subadditivity_audit(
        _law(params), params["triples"], _seed(params),
        dim=params["dim"], window=params["window"], horizon=params["horizon"],
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

# the keys a replayed plan must carry: dim, the direction of mu and the side
# of tails have CLI defaults, but a stored plan must state them
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

def _check_params(plan: dict) -> None:
    command, params = plan["command"], plan["params"]
    missing = [key for key in REQUIRED_PARAMS[command] if key not in params]
    if missing:
        raise PlanError(f"{command}: plan params lack {', '.join(missing)}")
    table = COMMANDS[command][1]
    keys = [key for key, *_ in table]
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise PlanError(f"{command}: {unknown[0]} is not a parameter of {command}")
    try:
        for key, _, default, check, _ in table:
            # an absent key, or a null one whose default is None, runs at its default
            if key in params and not (params[key] is None and default is None):
                require(key, params[key], check)
        # the checks that read two keys, each absent key at its default
        full = _params(plan)
        dim = full["dim"]
        points = [(key, full[key]) for key in ("direction", "x") if key in full]
        points += [("targets", t) for t in full.get("targets", [])]
        for key, point in points:
            require_site(key, point, dim)
        if command == "percolation":
            check_targets(full["targets"], full["radius"])
            if full["white_n"] and full["white_subbox"] is None:
                default_subbox_sides(full["white_n"], dim)
    except FrogsimError as exc:
        raise PlanError(f"{command}: {exc}") from None


def execute_plan(plan: dict, outdir: Path, threads: int = 1) -> str:
    """Run ``plan`` into ``outdir``; ``threads`` is accepted for its callers and changes nothing."""
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
    _check_params(plan)
    plan.setdefault("software_version", __version__)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    dump_json(plan, outdir / "plan.json")
    summary = RUNNERS[command](plan, outdir)
    elapsed = time.monotonic() - t0
    # timing is intentionally outside the byte-stable outputs
    (outdir / "run.log").write_text(f"{command}: {summary} [wall_clock_s={elapsed:.3f}]\n", encoding="utf-8")
    return summary


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frogsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, table) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for key, parse, default, _, help_ in table:
            flag = "--" + key.replace("_", "-")
            if parse is bool:
                sp.add_argument(flag, action="store_true", help=help_)
            else:
                sp.add_argument(
                    flag, type=parse if parse in (int, float) else None, required=default is REQUIRED,
                    default=None if default is REQUIRED else default, help=help_,
                )
        sp.add_argument("--out", required=True, help="output directory for plan + reports")
        if command in THREADED:
            sp.add_argument("--threads", **THREADS)
    sp = sub.add_parser("replay", help="re-execute a stored plan byte-identically")
    sp.add_argument("plan", help="path to plan.json")
    sp.add_argument("--out", default=None, help="output directory (default: the plan's directory)")
    sp.add_argument("--threads", **THREADS)
    return ap


def _plan_from_args(args: argparse.Namespace) -> dict:
    params = {}
    for key, parse, _, _, _ in COMMANDS[args.command][1]:
        value = getattr(args, key)  # None: an optional flag not given
        if value is None or (key.startswith("white_") and not args.white_n):
            continue
        params[key] = parse(value) if isinstance(value, str) else value
    return {"plan_version": PLAN_VERSION, "command": args.command, "params": params}


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
        summary = execute_plan(plan, outdir)
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
