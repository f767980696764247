"""Truncated passage times: a capped two-point function and its shortest paths.

The two-point function prices nearby pairs by their hitting time capped at
4Kt and distant pairs (l-infinity gap above the scale t) by 4K times that
gap, which sandwiches every value between the l1 distance and
4K(t v |x-y|_inf).  The truncated passage time is the exact shortest-path
value over relay sequences under this edge weight.

The search is A* with the l1 distance to the goal as heuristic (admissible
and consistent since every edge weight dominates the l1 step) plus an upper
bound seeded by a concrete staircase path, which soundly prunes long-range
relaxations.  Pop order is a total order on (f, flat index), so ties — and
therefore the reported geodesic — are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .environment import Environment, sample_environment, star
from .errors import GeometryError, SearchCapError
from .lattice import Coords, cube_coords, l1, linf, sub
from .passage import first_hits, offset_index, passage_time_star, tau
from .stats import wilson_ci
from .walks import SeedSpec


@dataclass(frozen=True)
class TruncationParams:
    """Truncation scale t, tail-constant estimate, and the derived factor K."""

    t: int
    gamma: float
    K: int
    c4_hat: float

    @staticmethod
    def make(t: int, dim: int, c4_hat: float, gamma: float = 1.0) -> "TruncationParams":
        if t < 1:
            raise GeometryError(f"truncation scale must be >= 1, got {t}")
        K = math.ceil(dim * (c4_hat + gamma + 1)) + 1
        return TruncationParams(t=t, gamma=gamma, K=K, c4_hat=c4_hat)

    def __post_init__(self):
        if self.K <= 0:
            raise GeometryError("K must be positive")

    @property
    def cap(self) -> int:
        """Price of a capped short edge and horizon of its hitting-time scan."""
        return 4 * self.K * self.t


def sigma_t(env: Environment, x: Coords, y: Coords, p: TruncationParams) -> int:
    """Two-point edge weight; always within the l1 / 4K(t v gap) sandwich.

    A short edge costs the hitting time tau(x, y) when it is at most 4Kt,
    and 4Kt otherwise.
    """
    gap = linf(sub(y, x))
    if gap > p.t:
        return 4 * p.K * gap
    if x == y and env.omega(x) >= 1:
        return 0
    hit = tau(env, x, y, p.cap)
    return int(hit.time) if hit.is_finite else p.cap


@dataclass
class TruncatedResult:
    value: int
    witness: tuple[Coords, ...]
    long_edges_used: int
    settled: int
    relaxations: int


@lru_cache(maxsize=64)
def _linf_ball_offsets(t: int, d: int) -> np.ndarray:
    out = cube_coords(t, d)
    out.setflags(write=False)
    return out


def _sigma_row(env: Environment, u: Coords, p: TruncationParams) -> tuple[np.ndarray, np.ndarray]:
    """sigma(u, .) over the l-infinity ball of radius t around u.

    Returns the offsets (m, d) and their weights; the capped value stands in
    wherever u's frogs do not hit within 4Kt steps.  Every offset lies in
    the cube of ``offset_index(4Kt, d)``, since 4Kt > t, so no key aliases.
    """
    offs = _linf_ball_offsets(p.t, env.dim)
    weights = np.full(offs.shape[0], p.cap, dtype=np.int64)
    if env.omega(u) >= 1:
        sites, times = first_hits(env, u, p.cap)
        keys = offset_index(p.cap, env.dim).flat(offs)
        pos = np.searchsorted(sites, keys)
        pos = np.clip(pos, 0, sites.shape[0] - 1) if sites.shape[0] else pos
        if sites.shape[0]:
            found = sites[pos] == keys
            weights[found] = times[pos[found]]
    return offs, weights


def _staircase(x: Coords, y: Coords, t: int) -> list[Coords]:
    """A concrete relay path x -> y with every hop of l-infinity length <= t."""
    path = [x]
    cur = list(x)
    while tuple(cur) != y:
        for i in range(len(cur)):
            gap = y[i] - cur[i]
            cur[i] += max(-t, min(t, gap))
        path.append(tuple(cur))
    return path


def truncated_passage(env: Environment, x: Coords, y: Coords, p: TruncationParams) -> TruncatedResult:
    """Exact shortest relay-path value from x to y under the two-point weight.

    Candidate relays live inside {z : |x-z|_1 + |z-y|_1 <= 4K(t v |x-y|_inf)}
    because every edge weight dominates the l1 step and the single edge
    (x, y) already costs at most that bound; the staircase upper bound and
    the goal's tentative distance prune the region further, soundly.
    Reads of the configuration outside the box raise GeometryError; a box of
    radius ``_relay_radius(x, y, p)`` holds the whole region.
    """
    if x == y:
        return TruncatedResult(0, (x,), 0, 0, 0)
    d = env.dim

    ub = 0
    stair = _staircase(x, y, p.t)
    for a, b in zip(stair[:-1], stair[1:]):
        ub += sigma_t(env, a, b, p)
    direct = sigma_t(env, x, y, p)
    ub = min(ub, direct)

    dist: dict[Coords, int] = {x: 0}
    parent: dict[Coords, Coords] = {}
    edge_kind: dict[Coords, bool] = {}  # True when reached through a long edge
    settled: set[Coords] = set()
    heap: list[tuple[int, int, tuple[int, ...]]] = [(l1(sub(y, x)), 0, x)]
    relaxations = 0
    if direct <= ub:
        dist[y] = direct
        parent[y] = x
        edge_kind[y] = linf(sub(y, x)) > p.t
        heappush(heap, (direct, direct, y))

    while heap:
        f, d_u, u = heappop(heap)
        if u in settled or d_u > dist.get(u, 1 << 62):
            continue
        settled.add(u)
        if u == y:
            break
        # short edges from the hitting-time row; bound-prune in bulk first
        offs, weights = _sigma_row(env, u, p)
        vpts = offs + np.asarray(u, dtype=np.int64)
        nd_all = d_u + weights
        h_all = np.abs(vpts - np.asarray(y, dtype=np.int64)).sum(axis=1)
        keep = (nd_all + h_all <= ub) & np.any(offs, axis=1)
        relaxations += offs.shape[0]
        for row, nd in zip(vpts[keep].tolist(), nd_all[keep].tolist()):
            v = tuple(row)
            nd = int(nd)
            if nd >= dist.get(v, 1 << 62):
                continue
            dist[v] = nd
            parent[v] = u
            edge_kind[v] = False
            if v == y:
                ub = min(ub, nd)
            heappush(heap, (nd + l1(sub(y, v)), nd, v))
        # direct long edge to the goal keeps the bound tight
        gap_goal = linf(sub(y, u))
        if gap_goal > p.t:
            nd = d_u + 4 * p.K * gap_goal
            if nd <= ub and nd < dist.get(y, 1 << 62):
                dist[y] = nd
                parent[y] = u
                edge_kind[y] = True
                ub = min(ub, nd)
                heappush(heap, (nd, nd, y))
        # remaining long edges, admissible only while 4KL fits under the bound
        max_len = (ub - d_u) // (4 * p.K)
        if max_len > p.t:
            for v in _linf_annulus(u, p.t + 1, min(max_len, p.cap)):
                nd = d_u + 4 * p.K * linf(sub(v, u))
                h = l1(sub(y, v))
                relaxations += 1
                if nd + h > ub or nd >= dist.get(v, 1 << 62):
                    continue
                dist[v] = nd
                parent[v] = u
                edge_kind[v] = True
                if v == y:
                    ub = min(ub, nd)
                heappush(heap, (nd + h, nd, v))

    value = dist.get(y)
    if value is None:
        raise GeometryError("truncated search exhausted without reaching the target")
    chain = [y]
    long_used = 0
    cur = y
    while cur != x:
        if edge_kind.get(cur, False):
            long_used += 1
        cur = parent[cur]
        chain.append(cur)
    chain.reverse()
    return TruncatedResult(
        value=int(value),
        witness=tuple(chain),
        long_edges_used=long_used,
        settled=len(settled),
        relaxations=relaxations,
    )


def _relay_radius(x: Coords, y: Coords, p: TruncationParams) -> int:
    """A bound on |z|_1 over every site z that ``truncated_passage(env, x, y, p)`` reads.

    |x-z|_1 + |z-y|_1 <= B = 4K(t v |x-y|_inf) and the triangle inequality
    give 2|z|_1 <= |x|_1 + |y|_1 + B.
    """
    bound = 4 * p.K * max(p.t, linf(sub(y, x)))
    return (l1(x) + l1(y) + bound + 1) // 2


def _linf_annulus(center: Coords, lo: int, hi: int) -> list[Coords]:
    d = len(center)
    if hi < lo:
        return []
    offs = cube_coords(hi, d)
    norms = np.abs(offs).max(axis=1)
    offs = offs[(norms >= lo) & (norms <= hi)]
    base = np.asarray(center, dtype=np.int64)
    return [tuple(int(c) for c in row) for row in offs + base]


def exhaustive_truncated_oracle(
    env: Environment, x: Coords, y: Coords, p: TruncationParams, node_cap: int = 10
) -> int:
    """Brute-force relay enumeration over the sound candidate ellipse.

    The candidate set is every z with |x-z|_1 + |z-y|_1 bounded by the
    direct-edge value; Bellman-Ford over the complete weight matrix visits
    every relay order implicitly. Only tiny instances are accepted.
    """
    if x == y:
        return 0
    ub = sigma_t(env, x, y, p)
    base = np.asarray(x, dtype=np.int64)
    pts = cube_coords(ub, env.dim) + base
    keep = np.abs(pts - base).sum(axis=1) + np.abs(pts - np.asarray(y)).sum(axis=1) <= ub
    cand = [tuple(int(c) for c in row) for row in pts[keep]]
    if len(cand) > node_cap:
        raise SearchCapError(f"oracle instance has {len(cand)} candidate sites, cap {node_cap}")
    idx = {v: i for i, v in enumerate(cand)}
    n = len(cand)
    w = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(cand):
        for j, b in enumerate(cand):
            w[i, j] = 0 if i == j else sigma_t(env, a, b, p)
    dist = np.full(n, 1 << 62, dtype=np.int64)
    dist[idx[x]] = 0
    for _ in range(n):
        updated = False
        for i in range(n):
            if dist[i] >= (1 << 62):
                continue
            relax = dist[i] + w[i]
            better = relax < dist
            if better.any():
                dist = np.where(better, relax, dist)
                updated = True
        if not updated:
            break
    return int(dist[idx[y]])


# ---------------------------------------------------------------------------
# Tiling of Z^d by half-open cubes of side t and geodesic box counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tiling:
    """Partition of Z^d into translates of (-t/2, t/2]^d centered on t Z^d."""

    t: int
    dim: int

    def box_of(self, z: Coords) -> Coords:
        t = self.t
        return tuple(-((t - 2 * c) // (2 * t)) for c in z)


def geodesic_box_count(witness: Sequence[Coords], tiling: Tiling) -> int:
    return len({tiling.box_of(z) for z in witness})


def box_count_bound(p: TruncationParams, x: Coords) -> float:
    """3^d (4K(1 v |x|_inf / t) + 1): the geodesic can only touch this many tiles."""
    d = len(x)
    return (3**d) * (4 * p.K * max(1.0, linf(x) / p.t) + 1.0)


# ---------------------------------------------------------------------------
# Agreement experiment: how often the truncation changes the passage time
# ---------------------------------------------------------------------------


@dataclass
class AgreementRow:
    t: int
    replicas: int
    disagreements: int
    phat: float
    ci_lo: float
    ci_hi: float
    censored: int
    long_edge_geodesics: int
    max_box_count: int
    max_box_bound: float


@dataclass
class AgreementTable:
    x: Coords
    law_label: str
    params_by_t: dict[int, TruncationParams]
    rows: list[AgreementRow] = field(default_factory=list)


def agreement_experiment(
    law,
    x: Coords,
    t_ladder: Sequence[int],
    replicas: int,
    seed: SeedSpec,
    mu_hat: float,
    c4_hat: float | None = None,
    gamma: float = 1.0,
) -> AgreementTable:
    """Fraction of replicas with T_t(0*, x*) != T*(0, x), per truncation scale.

    One environment per replica serves every t, so the comparison is a
    coupling across the ladder.  T*(0, x) is censored at 3 mu_hat |x|_1;
    censored values are excluded from the comparison and reported.
    """
    d = len(x)
    if c4_hat is None:
        c4_hat = 5.0 * mu_hat
    params = {t: TruncationParams.make(t, d, c4_hat, gamma) for t in t_ladder}
    horizon = math.ceil(3.0 * mu_hat * l1(x))
    radius0 = horizon + 8
    table = AgreementTable(x=x, law_label=law.label(), params_by_t=params)

    disagree = {t: 0 for t in t_ladder}
    censored = {t: 0 for t in t_ladder}
    compared = {t: 0 for t in t_ladder}
    long_geo = {t: 0 for t in t_ladder}
    max_boxes = {t: 0 for t in t_ladder}

    for r in range(replicas):
        rep_seed = seed.child("agreement", r)
        env = sample_environment(law, d, radius0, rep_seed)
        origin_star = star(env, (0,) * d)
        x_star = star(env, x)
        # one box holds every site either search reads: the engine's reach
        # and, for each t, the relay region of truncated_passage
        need = max(_relay_radius(origin_star, x_star, p) for p in params.values())
        env = env.with_radius(max(radius0, horizon + l1(origin_star), need))
        t_star = passage_time_star(env, x, horizon)
        # descending t reuses the per-site hitting-time cache for smaller caps
        for t in sorted(t_ladder, reverse=True):
            if not t_star.value.is_finite:
                censored[t] += 1
                continue
            trunc = truncated_passage(env, origin_star, x_star, params[t])
            compared[t] += 1
            if trunc.value != t_star.value.time:
                disagree[t] += 1
            if trunc.long_edges_used:
                long_geo[t] += 1
            tiling = Tiling(t=t, dim=d)
            max_boxes[t] = max(max_boxes[t], geodesic_box_count(trunc.witness, tiling))

    for t in t_ladder:
        n = compared[t]
        phat = disagree[t] / n if n else float("nan")
        lo, hi = wilson_ci(disagree[t], n) if n else (float("nan"), float("nan"))
        table.rows.append(
            AgreementRow(
                t=t,
                replicas=n,
                disagreements=disagree[t],
                phat=phat,
                ci_lo=lo,
                ci_hi=hi,
                censored=censored[t],
                long_edge_geodesics=long_geo[t],
                max_box_count=max_boxes[t],
                max_box_bound=box_count_bound(params[t], x),
            )
        )
    return table
