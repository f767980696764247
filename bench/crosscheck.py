"""Tracer cross-check: the dominant layer per workload must match cProfile's.

    python3 bench/crosscheck.py [--out bench/crosscheck.json]

Runs plan 0 of each workload once under cProfile and once traced, each in a
fresh process, and compares each layer's share of the run. On the cProfile
side, time outside the traced functions (numpy, frogsim.lattice, private
helpers) is passed up the call graph to the traced functions that called it.
A name the tracer failed to rebind moves that function's time to its
caller's layer in the traced shares only, and shows up here. cProfile's
per-call cost inflates layers that make many small calls, so only the
dominant layer is compared.
"""

from __future__ import annotations

import argparse
import json
import pstats
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _anchors() -> dict[tuple, str]:
    """cProfile keys of the traced functions -> their layer."""
    from tracer import TARGETS, _resolve

    out = {}
    for mod_name, qualname in TARGETS:
        owner, attr = _resolve(sys.modules["frogsim." + mod_name], qualname)
        code = getattr(owner, attr).__code__
        out[(code.co_filename, code.co_firstlineno, code.co_name)] = mod_name
    return out


def profile_layer_seconds(profiler) -> dict[str, float]:
    """Self seconds per layer from a cProfile run, charged as the tracer charges them.

    A traced function keeps its own time; any other function's time goes to
    its callers, split by each caller's cumulative time in it (not its own
    time: a C method's own time counts dispatches, not the work below it),
    until it reaches a traced function.
    """
    stats = pstats.Stats(profiler).stats
    anchors = _anchors()
    memo: dict = {}

    def shares(func, active: frozenset) -> dict[str, float]:
        if func in anchors:
            return {anchors[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[3] for c, edge in callers.items() if c not in active and edge[3] > 0}
        total = sum(weights.values())
        if not total:
            return {"other": 1.0}
        out: dict[str, float] = {}
        for caller, w in weights.items():
            for lay, frac in shares(caller, active | {func}).items():
                out[lay] = out.get(lay, 0.0) + frac * w / total
        if not active:
            memo[func] = out
        return out

    seconds: dict[str, float] = {}
    for func, (_, _, tottime, _, _) in stats.items():
        for lay, frac in shares(func, frozenset()).items():
            seconds[lay] = seconds.get(lay, 0.0) + tottime * frac
    return seconds


def _shares(seconds: dict[str, float]) -> dict[str, float]:
    total = sum(seconds.values())
    return {k: round(v / total, 4) for k, v in sorted(seconds.items(), key=lambda kv: -kv[1]) if v > 0}


def main(argv: list[str] | None = None) -> int:
    from run import ROOT, host_record, run_child

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=BENCH / "crosscheck.json")
    args = ap.parse_args(argv)
    record = {"host": host_record(), "seed": DEFAULT_SEED, "plan": 0, "workloads": {}}
    ok = True
    for workload, spec in WORKLOADS.items():
        runs = {}
        for mode in ("profile", "trace"):
            rep = run_child(workload, DEFAULT_SEED, 0, spec["replicas"], mode,
                            ROOT / ".bench_out" / f"crosscheck-{workload}-{mode}", timeout=170)
            if "failure" in rep:
                print(f"{workload} {mode}: {rep['failure']}", file=sys.stderr)
                return 1
            runs[mode] = rep
        traced = layer_metrics(runs["trace"]["raw"])
        traced_s = {layer: traced[layer + ".self_s"][0] for layer in LAYERS}
        profiled = _shares(runs["profile"]["profile_layers"])
        shares = _shares(traced_s)
        top_trace, top_profile = next(iter(shares)), next(iter(profiled))
        match = top_trace == top_profile
        ok &= match
        record["workloads"][workload] = {
            "dominant_traced": top_trace,
            "dominant_cprofile": top_profile,
            "match": match,
            "traced_shares": shares,
            "cprofile_shares": profiled,
        }
        print(f"{workload}: traced {top_trace} {shares[top_trace]:.0%}, "
              f"cProfile {top_profile} {profiled[top_profile]:.0%} -> {'match' if match else 'MISMATCH'}")
    shutil.rmtree(ROOT / ".bench_out", ignore_errors=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
