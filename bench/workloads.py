"""The benchmark's three workloads: fixed CLI plans, sized per plan.

Each workload is one of the paper's acceptance ensembles, cut into short
plans of ``replicas`` replicas. Plan ``j`` of workload seed ``s`` carries
master seed ``1000*s + j``, so a run averages over many environments.

The truncation ladder stops at t = 4. At t = 1 and 2 the A* search settles
so many nodes that one replica costs 0.05-1 s depending on its environment,
and a 40 s run could not average that out.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DEFAULT_SEED = 7

# params in the order the CLI writes them, so plan.json matches `frogsim <cmd> ...`
WORKLOADS = {
    # criterion 7: eager box sampling and the engine split the time about evenly
    "mu_ladder": {
        "command": "mu",
        "params": {"law": "poisson:1.0", "dim": 2, "direction": [1, 0], "k": [4, 8, 16, 32]},
        "replicas": 8,
    },
    # criteria 5/6 at t >= 4: A* on tuple keys and first_hits; mu_hat pinned so no probe runs
    "truncation_agreement": {
        "command": "truncation",
        "params": {"law": "poisson:1.0", "dim": 2, "x": [8, 0], "t": [4, 8, 16]},
        "extra": {"gamma": 1.0, "mu_hat": 2.0},
        "replicas": 4,
    },
    # criterion 11: BFS and union-find labelling; never reaches walks or the engine
    "percolation_p08": {
        "command": "percolation",
        "params": {"dim": 2, "p": 0.8, "radius": 100},
        "extra": {"targets": [[20, 0], [0, 28], [18, 18], [48, 0], [0, 60]]},
        "replicas": 1,
    },
}


def plan_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def make_plan(workload: str, seed: int, index: int, replicas: int | None = None) -> dict:
    """Plan ``index`` of ``workload`` at workload seed ``seed``, as the CLI builds it."""
    spec = WORKLOADS[workload]
    params = {"seed": plan_seed(seed, index), "tag": ""}
    params.update(spec["params"])
    params["replicas"] = spec["replicas"] if replicas is None else replicas
    params.update(spec.get("extra", {}))
    return {"plan_version": 1, "command": spec["command"], "params": params}


# ---------------------------------------------------------------------------
# Output checks: properties every correct report has, whatever the seed
# ---------------------------------------------------------------------------


def _csv_rows(path: Path, header: list[str]) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ValueError(f"{path.name}: header {reader.fieldnames} != {header}")
        return list(reader)


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(what)


def _check_mu(plan: dict, report: dict, outdir: Path) -> None:
    p = plan["params"]
    rows = report["per_k"]
    _check([r["k"] for r in rows] == p["k"], "per_k does not follow the k ladder")
    for r in rows:
        # T*(0, k e1) >= k, so every per-k mean of T/k is at least 1
        _check(r["n"] + r["censored_count"] == p["replicas"], f"k={r['k']}: n + censored != replicas")
        _check(r["mean"] >= 1.0 and r["ci_lo"] <= r["mean"] <= r["ci_hi"], f"k={r['k']}: bad mean or CI")
    _check(report["mu_hat"] == min(r["ci_hi"] for r in rows), "mu_hat is not the smallest upper bound")
    _check(len(_csv_rows(outdir / "per_k.csv", ["k", "n", "mean", "std", "ci_lo", "ci_hi", "censored_count"]))
           == len(rows), "per_k.csv row count")


def _check_truncation(plan: dict, report: dict, outdir: Path) -> None:
    p = plan["params"]
    rows = report["rows"]
    _check([r["t"] for r in rows] == sorted(p["t"]), "rows do not follow the t ladder")
    for r in rows:
        _check(r["replicas"] + r["censored"] == p["replicas"], f"t={r['t']}: compared + censored != replicas")
        _check(0 <= r["disagreements"] <= r["replicas"], f"t={r['t']}: disagreements out of range")
        _check(r["max_box_count"] <= r["max_box_bound"], f"t={r['t']}: geodesic box count over its bound")
        if r["replicas"]:
            _check(math.isclose(r["phat"], r["disagreements"] / r["replicas"], rel_tol=1e-9), "phat")
    header = ["t", "replicas", "disagreements", "phat", "ci_lo", "ci_hi", "censored",
              "long_edge_geodesics", "max_box_count", "max_box_bound"]
    _check(len(_csv_rows(outdir / "agreement.csv", header)) == len(rows), "agreement.csv row count")


def _check_percolation(plan: dict, report: dict, outdir: Path) -> None:
    p = plan["params"]
    for r in report["chemical_rows"]:
        _check(0 <= r["connected"] <= p["replicas"], "connected pairs out of range")
        if r["connected"]:
            # a path inside the open set is never shorter than the l1 distance
            _check(1.0 <= r["mean_ratio"] <= r["max_ratio"], f"target {r['target']}: ratio below 1")
    counts = [row["count"] for row in report["hole_tail"]]
    _check(all(a >= b for a, b in zip(counts, counts[1:])), "hole tail counts increase")
    _check(len(_csv_rows(outdir / "hole_tail.csv", ["t", "count_ge_t", "phat"])) == len(counts),
           "hole_tail.csv row count")
    _check(len(_csv_rows(outdir / "chemical_ratio.csv", ["target", "connected", "max_ratio", "mean_ratio"]))
           == len(p["targets"]), "chemical_ratio.csv row count")


CHECKS = {"mu": _check_mu, "truncation": _check_truncation, "percolation": _check_percolation}


def check_outputs(plan: dict, outdir: Path) -> None:
    """Raise ValueError when a report breaks a property that holds for every seed."""
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    _check(report["plan"]["params"] == plan["params"], "report does not carry its plan")
    CHECKS[plan["command"]](plan, report, outdir)
