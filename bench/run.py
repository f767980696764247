"""frogsim benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: plans run one at a time, each in a fresh process
with ``--threads 1``. Untraced, a run executes plans 0, 1, 2, ... of the
seed until ``--seconds`` is spent, then plan 0 once more, untimed, whose
bytes must match its first run. Just before each plan the run times a bare
interpreter from spawn until it has imported numpy (bare_s). The shared
host this was built on drifts in speed by up to 70% over minutes, so the
gated times are given on a reference host: a time t measured next to
bare_s is reported as t / bare_s * BARE_SPAWN_S seconds. The run reports

    setup_s        process start until frogsim.cli is imported and the plan
                   built, on the reference host; median over plans
    wall_ref       the execute_plan call, report writing included, on the
                   reference host; median over plans
    peak_rss_mb    ru_maxrss of the plan's process; mean over plans

It also prints, outside the JSON result, wall_s (the execute_plan call in
seconds as measured; mean over plans), replicas_per_s (replicas per plan
over wall_s) and failed_frac (failed/attempted).

Traced, it runs plans 0..TRACE_PLANS-1 once plain and once with spans
around frogsim's public functions, and reports counts and self times per
layer plus ``trace_overhead_frac``. Every run's report.json and CSVs must
match the pins in pins.json (plans 0..PIN_PLANS-1 at the default seed and
size) and the bytes of every other run of the same plan, traced or not.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, plan_seed  # noqa: E402

TRACE_PLANS = 4
DEADLINE_S = 170.0
PINS = BENCH / "pins.json"
PIN_PLANS = 200  # several times the plans a 40 s run reaches at the seed commit
BARE_SPAWN_S = 0.15  # bare_s on the reference host: the 2-vCPU VM the benchmark was built on
BARE_CMD = [sys.executable, "-c", "import time, numpy; print(time.monotonic())"]


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def run_child(workload: str, seed: int, index: int, replicas: int, mode: str, outdir: Path,
              timeout: float) -> dict:
    """One plan in a fresh process; a dict with 'failure' set when it did not succeed."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(index), str(replicas),
           str(outdir), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"index": index, "failure": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"index": index, "failure": f"exit {proc.returncode}: {tail[0]}"}
    res["index"] = index
    res["setup_s"] = res.pop("setup_done") - spawned
    if proc.returncode != 0 or res["error"]:
        res["failure"] = f"exit {proc.returncode}: {res['error']}"
    return res


def bare_spawn_s() -> float:
    """Seconds from spawning a bare interpreter until it has imported numpy."""
    spawned = time.monotonic()
    out = subprocess.run(BARE_CMD, capture_output=True, text=True, timeout=60, check=True, cwd=ROOT)
    return float(out.stdout.split()[-1]) - spawned


def check_digests(reps: list[dict], pins: list[dict] | None) -> None:
    """Mark reps whose bytes differ from the pin or from an earlier run of the same plan."""
    first: dict[int, dict] = {}
    for rep in reps:
        if "failure" in rep:
            continue
        i = rep["index"]
        pinned = pins is not None and i < len(pins)
        want = pins[i]["digests"] if pinned else first.setdefault(i, rep["digests"])
        if rep["digests"] != want:
            rep["failure"] = (f"plan {i}: report bytes differ from "
                              f"{'its pin in pins.json' if pinned else 'an earlier run of the same plan'}")


def load_pins(workload: str, seed: int, replicas: int) -> list[dict] | None:
    if seed != DEFAULT_SEED or replicas != WORKLOADS[workload]["replicas"] or not PINS.is_file():
        return None
    return json.loads(PINS.read_text(encoding="utf-8")).get(workload)


def measure(workload: str, seed: int, seconds: float, trace: bool, replicas: int | None = None,
            workdir: Path | None = None) -> dict:
    """Run one workload; returns metrics (name -> (value, unit)), reps and counts."""
    replicas = WORKLOADS[workload]["replicas"] if replicas is None else replicas
    workdir = workdir or ROOT / ".bench_out" / str(os.getpid())
    start = time.monotonic()
    reps: list[dict] = []

    def run(index: int, mode: str) -> None:
        outdir = workdir / f"{workload}-{index}-{len(reps)}-{mode}"
        rep = run_child(workload, seed, index, replicas, mode, outdir,
                        DEADLINE_S - (time.monotonic() - start))
        rep["mode"] = mode
        reps.append(rep)

    if trace:
        for index in range(TRACE_PLANS):
            run(index, "plain")
            run(index, "trace")
    else:
        while True:
            bare_s = bare_spawn_s()
            run(len(reps), "plain")
            reps[-1]["bare_s"] = bare_s
            elapsed = time.monotonic() - start
            if elapsed * (len(reps) + 1) / len(reps) > min(seconds, DEADLINE_S):
                break
        run(0, "recheck")
    pins = load_pins(workload, seed, replicas)
    check_digests(reps, pins)

    ok = [r for r in reps if "failure" not in r]
    metrics: dict[str, tuple[float, str]] = {}
    info: dict[str, tuple[float, str]] = {}
    if trace:
        plain = [r["wall_s"] for r in ok if r["mode"] == "plain"]
        traced = [r for r in ok if r["mode"] == "trace"]
        raw: dict[str, float] = {}
        for r in traced:
            for k, v in r["raw"].items():
                raw[k] = raw.get(k, 0.0) + v
        metrics = layer_metrics(raw)
        if plain and traced:
            overhead = sum(r["wall_s"] for r in traced) / sum(plain) - 1.0
            metrics["trace_overhead_frac"] = (overhead, "ratio")
    elif timed := [r for r in ok if r["mode"] == "plain"]:
        metrics = {
            "setup_s": (BARE_SPAWN_S * statistics.median(r["setup_s"] / r["bare_s"] for r in timed), "s"),
            "wall_ref": (BARE_SPAWN_S * statistics.median(r["wall_s"] / r["bare_s"] for r in timed), "s"),
            "peak_rss_mb": (statistics.fmean(r["peak_rss_mb"] for r in timed), "MB"),
        }
        wall_s = statistics.fmean(r["wall_s"] for r in timed)
        info = {"wall_s": (wall_s, "s"), "replicas_per_s": (replicas / wall_s, "1/s")}
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "replicas": replicas,
        "trace": trace,
        "elapsed_s": time.monotonic() - start,
        "metrics": metrics,
        "info": info,
        "unpinned": sorted({r["index"] for r in reps if pins is not None and r["index"] >= len(pins)}),
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "reps": reps,
    }


def print_report(out: dict) -> None:
    w, reps = out["workload"], out["reps"]
    runs = "traced and plain runs" if out["trace"] else "plan runs (plan 0 twice)"
    print(f"workload {w} seed {out['seed']}: {out['attempted']} {runs} of {out['replicas']} replicas"
          f" in {out['elapsed_s']:.1f} s")
    for name, (value, unit) in {**out["metrics"], **out["info"]}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {out['failed']}/{out['attempted']} = {out['failed'] / out['attempted']:.4g} ratio")
    if out["unpinned"]:
        print(f"  WARNING plans {out['unpinned'][0]}-{out['unpinned'][-1]} are past the last pin;"
              " their bytes were checked only against the output checks")
    for rep in reps:
        if "failure" in rep:
            print(f"  FAILED plan {rep['index']} ({rep.get('mode')}): {rep['failure']}")
        else:
            files = " ".join(f"{k}={v}" for k, v in rep["digests"].items())
            print(f"  digest {w} plan {rep['index']} seed {plan_seed(out['seed'], rep['index'])}"
                  f" {rep['mode']}: {files}")


def save(path: Path, label: str, host: dict, out: dict) -> None:
    """Append a result record (host, metrics, per-plan samples) to the JSON list at ``path``."""
    records = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else []
    keys = ("setup_s", "bare_s", "wall_s", "peak_rss_mb")
    records.append({
        "label": label,
        "host": host,
        **{k: out[k] for k in ("workload", "seed", "replicas", "trace", "attempted", "failed")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**out["metrics"], **out["info"]}.items()},
        "samples": {k: [r[k] for r in out["reps"] if k in r and r.get("mode") == "plain"] for k in keys},
        "digests": {str(r["index"]): r["digests"] for r in out["reps"] if "digests" in r},
    })
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", type=Path, help="append the result record to this JSON list")
    ap.add_argument("--label", default="", help="label stored with --save")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "frogsim" / "cli.py").is_file():
        print(f"frogsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = host_record()
    print("host: " + json.dumps(host))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for out in outs:
        print_report(out)
        if args.save:
            save(args.save, args.label, host, out)
    if any(not out["metrics"] for out in outs):
        print("no plan produced a measurement", file=sys.stderr)
        return 1
    prefix = len(outs) > 1
    metrics = {
        (f"{out['workload']}/{name}" if prefix else name): {"value": value, "unit": unit}
        for out in outs for name, (value, unit) in out["metrics"].items()
    }
    attempted = sum(out["attempted"] for out in outs)
    failed = sum(out["failed"] for out in outs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
