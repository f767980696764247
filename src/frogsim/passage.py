"""First passage times via event-driven frog dynamics.

The engine advances every active frog one lattice step per time unit; a
site's first visit by an active frog activates the frogs sleeping there.
Trajectories come from keyed streams, so the hitting time tau(u, v), the
dynamic first-visit time and the brute-force relay oracle all observe the
same realization and can be cross-checked for exact equality.

The environment's box is a mask, not storage: counts are computed for the
sites the frogs reach.  With box_radius >= horizon + |source|_1 the mask
cannot influence any event up to the horizon, because frogs move one step
per time unit, and the engine computes the process on all of Z^d.  It
refuses smaller boxes unless ``strict=False``, in which case it computes
the well-defined finite-box process (out-of-box sites wake nothing) that
the oracle replays exactly.  The activation table starts small and grows
with the frogs' reach, so memory follows the sites a run visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .environment import Environment, star
from .errors import FrogsimError, GeometryError, SearchCapError
from .lattice import Coords, CubeIndex, l1, linf, step_vectors, sub
from .walks import step_codes_np, walk_keys_np


@dataclass(frozen=True)
class HittingTime:
    """Either Finite(time) or censored at a horizon."""

    time: int | None
    horizon: int | None

    @staticmethod
    def finite(k: int, horizon: int | None = None) -> "HittingTime":
        return HittingTime(int(k), horizon)

    @staticmethod
    def censored(horizon: int | None) -> "HittingTime":
        return HittingTime(None, horizon)

    @property
    def is_finite(self) -> bool:
        return self.time is not None

    def __repr__(self):
        if self.is_finite:
            return f"Finite({self.time})"
        return f"CensoredAt({self.horizon})"


@dataclass(frozen=True)
class PassageOutcome:
    value: HittingTime
    witness: tuple[Coords, ...] | None
    horizon: int
    box_radius: int


# radius of a fresh table beyond |source|_inf; the table doubles from there
_START_RADIUS = 16


class ActivationTable:
    """First-visit times and the activation genealogy of one simulation.

    ``visit`` and ``parent`` are dense arrays over ``index``, a cube centred
    on the origin that ``grow`` enlarges as the frogs spread; the cube of
    radius |source|_1 + horizon bounds every reachable position, so the
    table never needs more.  ``parent`` stores, for each visited site, the
    flat index of the origin of the frog that first stood there
    (deterministic choice among simultaneous arrivals: smallest origin, then
    smallest frog index).
    """

    def __init__(self, dim: int, source: Coords, horizon: int, radius: int):
        self.dim = dim
        self.source = source
        self.horizon = horizon
        self.index = CubeIndex(radius, dim)
        self.visit = np.full(self.index.size, -1, dtype=np.int64)
        self.parent = np.full(self.index.size, -1, dtype=np.int64)
        self.awake_trace: list[int] = []
        self.stopped_at: int | None = None

    def grow(self, radius: int) -> CubeIndex:
        """Move the table onto the cube of ``radius``; returns the old layout."""
        old = self.index
        self.index = CubeIndex(radius, self.dim)
        seen = np.nonzero(self.visit >= 0)[0]
        moved = self.rekey(old, seen)
        visit = np.full(self.index.size, -1, dtype=np.int64)
        parent = np.full(self.index.size, -1, dtype=np.int64)
        visit[moved] = self.visit[seen]
        parent[moved] = self.rekey(old, self.parent[seen])
        self.visit, self.parent = visit, parent
        return old

    def rekey(self, old: CubeIndex, keys: np.ndarray) -> np.ndarray:
        """Keys laid out by ``old`` as keys of the current layout."""
        return self.index.flat(old.unflat(keys))

    def visit_time(self, x: Coords) -> HittingTime:
        if self.index.contains(x):
            t = int(self.visit[self.index.flat_one(x)])
            if t >= 0:
                return HittingTime.finite(t, self.horizon)
        return HittingTime.censored(self.horizon)

    def first_visitor_origin(self, x: Coords) -> Coords:
        ht = self.visit_time(x)
        if not ht.is_finite:
            raise FrogsimError(f"site {x} was not visited by the horizon {self.horizon}")
        return self.index.unflat_one(int(self.parent[self.index.flat_one(x)]))

    def genealogy(self, x: Coords) -> list[Coords]:
        """Relay chain source = w_0, ..., w_m = x from the parent pointers."""
        chain = [x]
        cur = x
        while cur != self.source:
            cur = self.first_visitor_origin(cur)
            chain.append(cur)
        chain.reverse()
        return chain

    def to_json(self, env_ref: dict | None = None) -> dict:
        """Debug dump: visit times and genealogy edges of every visited site."""
        visited = np.nonzero(self.visit >= 0)[0]
        rows = []
        for idx in visited.tolist():
            rows.append(
                {
                    "site": list(self.index.unflat_one(idx)),
                    "time": int(self.visit[idx]),
                    "parent": list(self.index.unflat_one(int(self.parent[idx]))),
                }
            )
        rows.sort(key=lambda r: (r["time"], r["site"]))
        return {
            "source": list(self.source),
            "horizon": self.horizon,
            "stopped_at": self.stopped_at,
            "env": env_ref,
            "visits": rows,
        }


def simulate_frogs(
    env: Environment,
    source: Coords,
    horizon: int,
    stop_targets: list[Coords] | None = None,
    strict: bool = True,
    record_trace: bool = False,
) -> ActivationTable:
    """Run the activation dynamics from ``source`` up to ``horizon`` steps.

    Frogs woken at time s follow their stream from their own origin with
    step counter k = t - s.  If ``stop_targets`` is given, the loop ends as
    soon as every target has been visited (recorded times are unaffected).
    """
    d = env.dim
    if env.omega(source) < 1:
        raise FrogsimError(f"source {source} has no frogs to activate")
    src_norm = l1(source)
    if strict and env.box_radius < horizon + src_norm:
        raise GeometryError(
            f"box radius {env.box_radius} < horizon {horizon} + |source|_1 {src_norm}; "
            "finite-box values would not match the infinite lattice"
        )
    # frogs move one step per time unit: at time t every frog lies within
    # |source|_1 + t of the origin, so this cube bounds the whole run
    reach_cube = CubeIndex(src_norm + horizon, d)
    reach = linf(source)  # bounds |position|_inf of every live frog
    table = ActivationTable(d, tuple(source), horizon, min(reach + _START_RADIUS, reach_cube.radius))
    index = table.index
    steps = step_vectors(d)
    seed = env.seed

    src_flat = index.flat_one(source)
    table.visit[src_flat] = 0
    table.parent[src_flat] = src_flat

    count0 = env.omega(source)
    pos = np.repeat(np.asarray([source], dtype=np.int64), count0, axis=0)
    ell = np.arange(1, count0 + 1, dtype=np.int64)
    keys = walk_keys_np(seed, pos, ell)
    birth = np.zeros(count0, dtype=np.int64)
    origin_flat = np.full(count0, src_flat, dtype=np.int64)

    targets: np.ndarray | None = None
    if stop_targets is not None:
        # targets outside the reachable cube stay censored; drop them from the stop set
        reachable = [t for t in stop_targets if reach_cube.contains(t)]
        if not reachable:
            table.stopped_at = 0
            return table
        targets = np.asarray(reachable, dtype=np.int64)
        # a target beyond the table is unvisited, and its key would alias a site inside
        target_reach = int(np.abs(targets).max())
        want = index.flat(targets)
        if target_reach <= index.radius and np.all(table.visit[want] >= 0):
            table.stopped_at = 0
            return table

    for t in range(1, horizon + 1):
        if record_trace:
            table.awake_trace.append(pos.shape[0])
        k = (t - birth).astype(np.uint64)
        codes = step_codes_np(keys, k, d)
        pos += steps[codes]
        reach += 1
        if reach > index.radius:
            reach = int(np.abs(pos).max())
            if reach > index.radius:
                old = table.grow(min(max(2 * index.radius, reach), reach_cube.radius))
                index = table.index
                origin_flat = table.rekey(old, origin_flat)
                if targets is not None:
                    want = index.flat(targets)
        flat = index.flat(pos)
        new_mask = table.visit[flat] < 0
        if new_mask.any():
            nf = flat[new_mask]
            norg = origin_flat[new_mask]
            nell = ell[new_mask]
            order = np.lexsort((nell, norg, nf))
            nf = nf[order]
            norg = norg[order]
            lead = np.ones(nf.shape[0], dtype=bool)
            lead[1:] = nf[1:] != nf[:-1]
            sites = nf[lead]
            table.visit[sites] = t
            table.parent[sites] = norg[lead]

            site_coords = index.unflat(sites)
            counts = env.counts_at(site_coords)
            wake = counts > 0
            if wake.any():
                wake_coords = site_coords[wake]
                wake_counts = counts[wake].astype(np.int64)
                wake_flat = sites[wake]
                total = int(wake_counts.sum())
                rep_coords = np.repeat(wake_coords, wake_counts, axis=0)
                rep_flat = np.repeat(wake_flat, wake_counts)
                starts = np.concatenate([[0], np.cumsum(wake_counts)[:-1]])
                new_ell = np.arange(total, dtype=np.int64) - np.repeat(starts, wake_counts) + 1
                new_keys = walk_keys_np(seed, rep_coords, new_ell)
                pos = np.concatenate([pos, rep_coords])
                keys = np.concatenate([keys, new_keys])
                ell = np.concatenate([ell, new_ell])
                birth = np.concatenate([birth, np.full(total, t, dtype=np.int64)])
                origin_flat = np.concatenate([origin_flat, rep_flat])
        if targets is not None and target_reach <= index.radius and np.all(table.visit[want] >= 0):
            table.stopped_at = t
            break
    return table


def tau(env: Environment, u: Coords, v: Coords, horizon: int) -> HittingTime:
    """First time any frog initially at u stands on v; censored if none.

    Covers the unoccupied-start convention: no frogs at u means no hit.
    """
    if not env.in_box(u):
        raise GeometryError(f"start site {u} outside box of radius {env.box_radius}")
    count = env.omega(u)
    if count < 1:
        return HittingTime.censored(horizon)
    if v == u:
        return HittingTime.finite(0, horizon)
    sites, times = first_hits(env, u, horizon)
    hit = _row_time(offset_index(horizon, env.dim), sites, times, sub(v, u))
    if hit is None:
        return HittingTime.censored(horizon)
    return HittingTime.finite(hit, horizon)


@lru_cache(maxsize=64)
def offset_index(horizon: int, dim: int) -> CubeIndex:
    """Layout of the ``first_hits`` keys: offsets from the start, cube of radius ``horizon``."""
    return CubeIndex(horizon, dim)


def _row_time(index: CubeIndex, sites: np.ndarray, times: np.ndarray, delta: Coords) -> int | None:
    """First-hit time at offset ``delta`` in a ``first_hits`` row; None if never hit."""
    if not index.contains(delta):
        return None
    key = index.flat_one(delta)
    pos = np.searchsorted(sites, key)
    if pos < sites.shape[0] and sites[pos] == key:
        return int(times[pos])
    return None


def first_hits(env: Environment, u: Coords, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """First hitting times of every site reached by u's own frogs.

    Returns sorted offset keys (laid out by ``offset_index(horizon, dim)``)
    and the matching times; min over the site's omega(u) walks, k = 0
    included.  Cached per (site, horizon prefix) on the environment.
    """
    count = env.omega(u)
    index = offset_index(horizon, env.dim)
    cache = _hits_cache(env)
    entry = cache.get(u)
    if entry is not None and entry[0] >= horizon:
        h0, sites, times, offs = entry
        if h0 == horizon:
            return sites, times
        # a first hit within h0 steps is a first hit within any horizon >= it
        keep = times <= horizon
        keys = index.flat(offs[keep])
        order = np.argsort(keys)
        return keys[order], times[keep][order]
    if count < 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ells = np.arange(1, count + 1, dtype=np.int64)
    keys = walk_keys_np(env.seed, np.repeat([list(u)], count, axis=0), ells)
    counters = np.arange(1, horizon + 1, dtype=np.uint64)
    codes = step_codes_np(
        np.repeat(keys, horizon), np.tile(counters, count), env.dim
    ).reshape(count, horizon)
    steps = step_vectors(env.dim)
    offsets = np.cumsum(steps[codes], axis=1).reshape(count * horizon, env.dim)
    times = np.tile(np.arange(1, horizon + 1, dtype=np.int64), count)
    # prepend the k = 0 self-hit
    offsets = np.concatenate([np.zeros((1, env.dim), dtype=np.int64), offsets])
    times = np.concatenate([[0], times])
    flat = index.flat(offsets)
    order = np.lexsort((times, flat))
    flat = flat[order]
    times = times[order]
    offsets = offsets[order]
    lead = np.ones(flat.shape[0], dtype=bool)
    lead[1:] = flat[1:] != flat[:-1]
    sites, hit_times, offs = flat[lead], times[lead], offsets[lead]
    cache[u] = (horizon, sites, hit_times, offs)
    if len(cache) > 200_000:
        cache.clear()
    return sites, hit_times


def _hits_cache(env: Environment) -> dict:
    cache = getattr(env, "_first_hits_cache", None)
    if cache is None:
        cache = {}
        setattr(env, "_first_hits_cache", cache)
    return cache


def passage_time(env: Environment, x: Coords, horizon: int, strict: bool = True) -> PassageOutcome:
    """T(0, x): first-visit time of x for the dynamics started at the origin."""
    if not env.conditioned_origin and env.omega((0,) * env.dim) < 1:
        raise FrogsimError("passage_time needs omega(0) >= 1; condition the environment first")
    return passage_between(env, (0,) * env.dim, x, horizon, strict=strict)


def passage_between(
    env: Environment, source: Coords, x: Coords, horizon: int, strict: bool = True
) -> PassageOutcome:
    """T(source, x) with a genealogy witness when finite."""
    table = simulate_frogs(env, source, horizon, stop_targets=[x], strict=strict)
    value = table.visit_time(x)
    witness = tuple(table.genealogy(x)) if value.is_finite else None
    return PassageOutcome(value=value, witness=witness, horizon=horizon, box_radius=env.box_radius)


def passage_time_star(env: Environment, x: Coords, horizon: int, strict: bool = True) -> PassageOutcome:
    """T*(0, x) = T(0*, x*) between the occupied sites closest to 0 and x."""
    origin_star = star(env, (0,) * env.dim)
    x_star = star(env, x)
    if x_star == origin_star:
        return PassageOutcome(HittingTime.finite(0, horizon), (origin_star,), horizon, env.box_radius)
    return passage_between(env, origin_star, x_star, horizon, strict=strict)


# ---------------------------------------------------------------------------
# Brute-force oracle: Dijkstra on the complete relay graph over occupied sites
# ---------------------------------------------------------------------------


def oracle_relay_distances(
    env: Environment, source: Coords, horizon: int, node_cap: int = 300
) -> tuple[dict[Coords, int], dict[Coords, Coords]]:
    """Exact relay-path distances from ``source`` to every occupied box site.

    Edge weight between occupied sites is tau(u, v) at the given horizon;
    label-setting over the complete graph, independent of the dynamics.
    """
    occ = env.occupied_coords()
    if occ.shape[0] > node_cap:
        raise SearchCapError(f"oracle supports at most {node_cap} occupied sites, found {occ.shape[0]}")
    if env.omega(source) < 1:
        return {}, {}
    index = offset_index(horizon, env.dim)
    nodes = {tuple(int(c) for c in row) for row in occ}
    nodes.add(tuple(source))
    dist: dict[Coords, int] = {tuple(source): 0}
    parent: dict[Coords, Coords] = {}
    settled: set[Coords] = set()
    heap: list[tuple[int, Coords]] = [(0, tuple(source))]
    while heap:
        d_u, u = heappop(heap)
        if u in settled or d_u > dist.get(u, 1 << 62):
            continue
        settled.add(u)
        sites, times = first_hits(env, u, horizon)
        for v in nodes:
            if v in settled:
                continue
            hit = _row_time(index, sites, times, sub(v, u))
            if hit is None:
                continue
            cand = d_u + hit
            if cand <= horizon and cand < dist.get(v, 1 << 62):
                dist[v] = cand
                parent[v] = u
                heappush(heap, (cand, v))
    return dist, parent


def oracle_passage_time(
    env: Environment, source: Coords, x: Coords, horizon: int, node_cap: int = 300
) -> PassageOutcome:
    """Relay-infimum value of T(source, x), censored beyond the horizon."""
    dist, parent = oracle_relay_distances(env, source, horizon, node_cap)
    index = offset_index(horizon, env.dim)
    best: int | None = None
    best_relay: Coords | None = None
    for u, d_u in dist.items():
        sites, times = first_hits(env, u, horizon)
        hit = _row_time(index, sites, times, sub(x, u))
        if hit is None:
            continue
        cand = d_u + hit
        if cand <= horizon and (best is None or cand < best or (cand == best and u < best_relay)):
            best = cand
            best_relay = u
    if best is None:
        return PassageOutcome(HittingTime.censored(horizon), None, horizon, env.box_radius)
    chain = [x] if x != best_relay else []
    cur = best_relay
    while cur is not None:
        chain.append(cur)
        cur = parent.get(cur)
    chain.reverse()
    return PassageOutcome(HittingTime.finite(best, horizon), tuple(chain), horizon, env.box_radius)


def oracle_all_targets(
    env: Environment, source: Coords, horizon: int, node_cap: int = 300
) -> dict[Coords, int]:
    """Oracle values for every box site reachable within the horizon."""
    dist, _ = oracle_relay_distances(env, source, horizon, node_cap)
    index = offset_index(horizon, env.dim)
    best: dict[Coords, int] = {}
    for u, d_u in dist.items():
        sites, times = first_hits(env, u, horizon)
        ok = d_u + times <= horizon
        for key, t_hit in zip(sites[ok].tolist(), times[ok].tolist()):
            v = index.unflat_one(key)
            v_abs = tuple(a + b for a, b in zip(v, u))
            cand = d_u + t_hit
            if env.in_box(v_abs) and cand < best.get(v_abs, 1 << 62):
                best[v_abs] = cand
    return best
