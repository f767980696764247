"""Execute one benchmark plan in this fresh process and print one JSON line.

    python3 bench/child.py WORKLOAD SEED INDEX REPLICAS OUTDIR {plain,trace,profile}

``plain`` times ``frogsim.cli.execute_plan``; ``trace`` installs the span
wrappers first and also writes ``OUTDIR/spans.json``; ``profile`` runs the
plan under cProfile. The line carries the wall time of the plan, the
monotonic instant the plan was built (the parent subtracts its spawn
instant to get the set-up time), peak RSS, the sha256 of report.json and
every CSV, and the first output check that failed, if any. Exit code 1
means the plan raised.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def digests(outdir: Path) -> dict[str, str]:
    files = [outdir / "report.json", *sorted(outdir.glob("*.csv"))]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files if f.is_file()}


def main(argv: list[str]) -> int:
    workload, seed, index, replicas, outdir, mode = argv
    sys.path.insert(0, str(SRC))
    import frogsim.cli

    if SRC not in Path(frogsim.cli.__file__).resolve().parents:
        raise SystemExit(f"frogsim imported from {frogsim.cli.__file__}, not from {SRC}")
    from workloads import check_outputs, make_plan

    plan = make_plan(workload, int(seed), int(index), int(replicas))
    outdir = Path(outdir)
    execute = frogsim.cli.execute_plan
    tracer = profiler = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer(run_id=f"{workload}-{seed}-{index}")
        execute = install(tracer)["cli.execute_plan"]
    setup_done = time.monotonic()
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    result: dict = {"setup_done": setup_done, "error": None}
    t0 = time.perf_counter()
    try:
        execute(plan, outdir, threads=1)
    except Exception:
        result["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
    result["wall_s"] = time.perf_counter() - t0
    if profiler is not None:
        profiler.disable()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result["error"] is not None:
        print(json.dumps(result))
        return 1
    result["digests"] = digests(outdir)
    try:
        check_outputs(plan, outdir)
    except (ValueError, KeyError, TypeError) as exc:
        result["error"] = f"output check: {exc!r}"
    if tracer is not None:
        tracer.write(outdir / "spans.json")
        result["raw"] = tracer.raw()
    if profiler is not None:
        from crosscheck import profile_layer_seconds

        result["profile_layers"] = profile_layer_seconds(profiler)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
