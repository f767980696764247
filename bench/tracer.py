"""Spans around the calls into frogsim's public functions, from outside frogsim.

``install`` wraps each function listed in ``TARGETS`` and rebinds the name in
every loaded frogsim module that imported it (``estimation.sample_environment``,
``truncated.first_hits``, ...). A span records name, start, end, parent and
run id; spans stay in memory until ``write`` dumps them. Counts are read only
from arguments and return values. The lattice helpers (``l1``, ``sub``, ...)
are left unwrapped: they run over a million times per plan, and their time
belongs to the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

# (module, qualified name) -> the layer counters it feeds
TARGETS = [
    ("walks", "site_keys_np"),
    ("walks", "walk_keys_np"),
    ("walks", "step_codes_np"),
    ("environment", "sample_environment"),
    ("environment", "star"),
    ("environment", "Environment.with_radius"),
    ("passage", "simulate_frogs"),
    ("passage", "first_hits"),
    ("passage", "passage_time_star"),
    ("truncated", "truncated_passage"),
    ("truncated", "sigma_t"),
    ("truncated", "agreement_experiment"),
    ("percolation", "sample_bernoulli_field"),
    ("percolation", "label_clusters"),
    ("percolation", "hole_radius"),
    ("percolation", "open_distances_from"),
    ("percolation", "hole_radius_experiment"),
    ("percolation", "chemical_ratio_experiment"),
    ("estimation", "collect_passage_samples"),
    ("estimation", "probe_mu_hint"),
    ("estimation", "estimate_time_constant"),
    ("stats", "summarize"),
    ("stats", "wilson_ci"),
    ("stats", "fit_line"),
    ("stats", "fit_alpha_grid"),
    ("stats", "bootstrap_std_ci"),
    ("reports", "dump_json"),
    ("reports", "dump_csv"),
    ("cli", "execute_plan"),
]

LAYERS = ["walks", "environment", "passage", "truncated", "percolation", "estimation", "stats", "reports", "cli"]


def ball_size(radius: int, dim: int) -> int:
    """Number of sites of Z^dim within l1 distance ``radius`` of a point."""
    return sum(2**k * math.comb(dim, k) * math.comb(radius, k) for k in range(dim + 1))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._hits_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------------

    def wrap(self, name: str, fn):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "passage.simulate_frogs":
                kwargs["record_trace"] = True  # frog-steps come from awake_trace
            index = len(self.spans)
            self.spans.append([name, 0, 0, self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(index, start)
                if name == "truncated.truncated_passage":
                    self.counts["truncated.truncated_passage.retries"] += 1
                raise
            self._close(index, start)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(index, bound.arguments, out)
            return out

        return wrapper

    def _close(self, index: int, start: int) -> None:
        span = self.spans[index]
        span[1], span[2] = start, time.perf_counter_ns()
        self._stack.pop()

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index][3]
        return None if parent is None else self.spans[parent][0]

    # -- counters, read from arguments and return values -------------------------

    def _count_walks_site_keys_np(self, i, a, out):
        # walk_keys_np derives its keys through site_keys_np: count each key once
        parent = self.parent_name(i)
        if parent is None or not parent.startswith("walks."):
            self.counts["walks.keys"] += len(out)

    _count_walks_walk_keys_np = _count_walks_site_keys_np

    def _count_walks_step_codes_np(self, i, a, out):
        self.counts["walks.draws"] += len(out)

    def _count_environment_sample_environment(self, i, a, out):
        sites = ball_size(a["box_radius"], a["dim"])
        self.counts["environment.sample_environment.sites"] += sites
        if self.parent_name(i) == "environment.Environment.with_radius":
            self.counts["environment.resampled_sites"] += sites

    def _count_passage_simulate_frogs(self, i, a, table):
        steps = a["horizon"] if table.stopped_at is None else table.stopped_at
        self.counts["passage.simulate_frogs.steps"] += steps
        self.counts["passage.simulate_frogs.horizon"] += a["horizon"]
        self.counts["passage.simulate_frogs.frog_steps"] += sum(table.awake_trace)
        self.counts["passage.simulate_frogs.sites_visited"] += int((table.visit >= 0).sum())

    def _count_passage_first_hits(self, i, a, out):
        self.counts["passage.first_hits.sites_returned"] += len(out[0])
        seen = self._hits_seen.setdefault(a["env"], set())
        if a["u"] in seen:
            self.counts["passage.first_hits.repeats"] += 1
        seen.add(a["u"])

    def _count_truncated_truncated_passage(self, i, a, res):
        self.counts["truncated.truncated_passage.settled"] += res.settled
        self.counts["truncated.truncated_passage.relaxations"] += res.relaxations
        self.counts["truncated.truncated_passage.long_edges_used"] += res.long_edges_used

    def _count_percolation_label_clusters(self, i, a, labels):
        self.counts["percolation.label_clusters.sites"] += len(labels.label)

    def _count_percolation_open_distances_from(self, i, a, dist):
        self.counts["percolation.open_distances_from.sites"] += len(dist)

    def _count_estimation_collect_passage_samples(self, i, a, samples):
        self.counts["estimation.collect_passage_samples.replicas"] += a["replicas"]
        self.counts["estimation.collect_passage_samples.censored"] += int(
            (samples.values != samples.values).sum()  # NaN marks a censored cell
        )

    def _count_reports_dump_json(self, i, a, out):
        self.counts["reports.bytes"] += Path(a["path"]).stat().st_size

    _count_reports_dump_csv = _count_reports_dump_json

    # -- results -------------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "run_id": self.run_id}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")

    def raw(self) -> dict:
        """Per-function calls, self and total seconds, plus the counters."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times_ns()):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own / 1e9
            out[name + ".s"] += (end - start) / 1e9
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)


def _resolve(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> dict:
    """Wrap every target and rebind it wherever frogsim imported it; returns the wrappers."""
    import frogsim.cli  # noqa: F401  (loads every frogsim module)

    wrappers = {}
    modules = [m for n, m in list(sys.modules.items()) if n == "frogsim" or n.startswith("frogsim.")]
    for mod_name, qualname in TARGETS:
        owner, attr = _resolve(sys.modules["frogsim." + mod_name], qualname)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(f"{mod_name}.{qualname}", original)
        setattr(owner, attr, wrapper)
        if owner is sys.modules["frogsim." + mod_name]:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        wrappers[f"{mod_name}.{qualname}"] = wrapper
    return wrappers


# ---------------------------------------------------------------------------
# Per-layer metrics from the raw sums of one or more traced plans
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """name -> (value, unit) for every per-layer metric; uncalled layers read 0."""
    g = lambda k: raw.get(k, 0.0)  # noqa: E731
    m: dict[str, tuple[float, str]] = {}

    def calls_self(prefix):
        m[prefix + ".calls"] = (int(g(prefix + ".calls")), "count")
        m[prefix + ".self_s"] = (g(prefix + ".self_s"), "s")

    calls_self("environment.sample_environment")
    m["environment.sample_environment.sites"] = (int(g("environment.sample_environment.sites")), "count")
    m["environment.sites_per_s"] = (
        _ratio(g("environment.sample_environment.sites"), g("environment.sample_environment.self_s")), "1/s")
    m["environment.visited_per_sampled"] = (
        _ratio(g("passage.simulate_frogs.sites_visited"), g("environment.sample_environment.sites")), "ratio")
    m["environment.resampled_sites"] = (int(g("environment.resampled_sites")), "count")
    calls_self("environment.star")

    for fn in ("site_keys_np", "walk_keys_np", "step_codes_np"):
        calls_self("walks." + fn)
    m["walks.keys"] = (int(g("walks.keys")), "count")
    m["walks.draws"] = (int(g("walks.draws")), "count")
    m["walks.draws_per_s"] = (_ratio(g("walks.draws"), g("walks.step_codes_np.self_s")), "1/s")

    calls_self("passage.simulate_frogs")
    for key in ("steps", "frog_steps", "sites_visited"):
        m["passage.simulate_frogs." + key] = (int(g("passage.simulate_frogs." + key)), "count")
    m["passage.frog_steps_per_s"] = (
        _ratio(g("passage.simulate_frogs.frog_steps"), g("passage.simulate_frogs.self_s")), "1/s")
    m["passage.steps_per_horizon"] = (
        _ratio(g("passage.simulate_frogs.steps"), g("passage.simulate_frogs.horizon")), "ratio")
    calls_self("passage.first_hits")
    m["passage.first_hits.sites_returned"] = (int(g("passage.first_hits.sites_returned")), "count")
    m["passage.first_hits.repeat_frac"] = (
        _ratio(g("passage.first_hits.repeats"), g("passage.first_hits.calls")), "ratio")
    m["passage.passage_time_star.calls"] = (int(g("passage.passage_time_star.calls")), "count")
    m["passage.passage_time_star.s"] = (g("passage.passage_time_star.s"), "s")

    calls_self("truncated.truncated_passage")
    for key in ("settled", "relaxations", "long_edges_used", "retries"):
        m["truncated.truncated_passage." + key] = (int(g("truncated.truncated_passage." + key)), "count")
    m["truncated.settled_per_s"] = (
        _ratio(g("truncated.truncated_passage.settled"), g("truncated.truncated_passage.self_s")), "1/s")
    m["truncated.settled_per_relaxation"] = (
        _ratio(g("truncated.truncated_passage.settled"), g("truncated.truncated_passage.relaxations")), "ratio")
    calls_self("truncated.sigma_t")

    for fn in ("sample_bernoulli_field", "label_clusters", "hole_radius", "open_distances_from"):
        calls_self("percolation." + fn)
    m["percolation.label_sites_per_s"] = (
        _ratio(g("percolation.label_clusters.sites"), g("percolation.label_clusters.self_s")), "1/s")
    m["percolation.bfs_sites_per_s"] = (
        _ratio(g("percolation.open_distances_from.sites"), g("percolation.open_distances_from.self_s")), "1/s")

    calls_self("estimation.collect_passage_samples")
    for key in ("replicas", "censored"):
        m["estimation.collect_passage_samples." + key] = (
            int(g("estimation.collect_passage_samples." + key)), "count")
    m["estimation.probe_mu_hint.s"] = (g("estimation.probe_mu_hint.s"), "s")

    for layer in ("stats", "reports"):
        m[layer + ".calls"] = (int(layer_sum(raw, layer, ".calls")), "count")
    m["stats.self_s"] = (layer_sum(raw, "stats", ".self_s"), "s")
    m["reports.self_s"] = (layer_sum(raw, "reports", ".self_s"), "s")
    m["reports.bytes"] = (int(g("reports.bytes")), "count")
    for layer in ("walks", "environment", "passage", "truncated", "percolation", "estimation", "cli"):
        m[layer + ".self_s"] = (layer_sum(raw, layer, ".self_s"), "s")
    return m


def layer_sum(raw: dict, layer: str, suffix: str) -> float:
    """Sum of ``suffix`` over every wrapped function of ``layer``."""
    return sum(
        raw.get(f"{mod}.{qual}{suffix}", 0.0) for mod, qual in TARGETS if mod == layer
    )
