"""Truncated passage times: a capped two-point function and its shortest paths.

The two-point function prices nearby pairs by their hitting time capped at
4Kt and distant pairs (l-infinity gap above the scale t) by 4K times that
gap, which sandwiches every value between the l1 distance and
4K(t v |x-y|_inf).  The truncated passage time is the exact shortest-path
value over relay sequences under this edge weight.

The search is A* with the l1 distance to the goal as heuristic (admissible
and consistent since every edge weight dominates the l1 step) plus an upper
bound seeded by a concrete staircase path, which soundly prunes long-range
relaxations.  Sites are int keys of one ``CubeIndex`` that holds the relay
region; each settled site relaxes its short row and its long-edge annulus as
arrays, and only the candidates under the bound reach the dicts and the heap.
Keys follow the lex order of sites, so the heap pops in the total order of
(f, d, key), which is that of (f, d, site): ties, and therefore the reported
geodesic, are deterministic.

Short-edge weights come from ball rows: the first hits of a site's own
frogs on the l-infinity ball of radius t up to a horizon, stored sparse and
cached on the environment.  An edge heavier than ub - d_u fails the prune,
so a settled u needs its row only to min(cap, ub - d_u), and below the cap
only those hits are relaxed.  A row is cached at the largest (t, horizon)
asked for and serves every smaller pair by filtering.  The live heap
entries tied with a popped site at its f are settled before the goal, so
their rows are built in the same ``ball_first_hits`` pass.  The rows and
their cache live in ``passage``, where ``tau`` and ``first_hits`` read them
too, so ``sigma_t`` prices an edge from the same rows as the search; the
tests check both against a dense walker of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from itertools import repeat
from typing import Sequence

import numpy as np

from .environment import Environment, sample_environment, star
from .errors import GeometryError
from .lattice import Coords, CubeIndex, cube_coords, l1, linf, sub
from .passage import (
    HittingTime,
    _ball_row,
    _build_rows,
    _covers,
    _row_cache,
    _row_time,
    offset_index,
    simulate_batch,
    tau,
)
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


@lru_cache(maxsize=32)
def _linf_shell(lo: int, hi: int, d: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The offsets with lo <= |off|_inf <= hi in lex order, as d coordinate columns, and their norms."""
    offs = cube_coords(hi, d)
    norms = np.abs(offs).max(axis=1)
    keep = norms >= lo
    cols, norms = tuple(np.ascontiguousarray(col) for col in offs[keep].T), norms[keep]
    for a in (*cols, norms):
        a.setflags(write=False)  # shared by every caller of the cache
    return cols, norms


def _ball_weights(env: Environment, u: Coords, p: TruncationParams) -> np.ndarray:
    """sigma_t(u, u + off) for every offset of ``_linf_shell(0, t, d)``."""
    weights = np.full((2 * p.t + 1) ** env.dim, p.cap, dtype=np.int64)
    if env.omega(u) >= 1:
        _, _, offs, norms, times = _ball_row(env, u, p.t, p.cap)
        ok = (times <= p.cap) & (norms <= p.t)
        weights[offset_index(p.t, env.dim).flat(offs[ok])] = times[ok]
    return weights


def _weight(env: Environment, a: Coords, b: Coords, p: TruncationParams) -> int:
    """sigma_t(a, b) for a != b, a short edge read from a's ball row."""
    gap = sub(b, a)
    if linf(gap) > p.t:
        return 4 * p.K * linf(gap)
    if env.omega(a) == 0:
        return p.cap
    t, _, offs, _, times = _ball_row(env, a, p.t, p.cap)
    index = offset_index(t, env.dim)
    hit = _row_time(index, index.flat(offs), times, gap)  # the row is in lex order, so its keys ascend
    return p.cap if hit is None or hit > p.cap else hit


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
    the goal's tentative distance prune the region further, soundly.  Every
    candidate under the bound lies in the cube of radius
    ``_relay_radius(x, y, p)``, which lays out the keys; reads of the
    configuration outside the box raise GeometryError.
    """
    if x == y:
        return TruncatedResult(0, (x,), 0, 0, 0)
    d, K4 = env.dim, 4 * p.K
    index = CubeIndex(_relay_radius(x, y, p), d)
    kx, ky = index.flat_one(x), index.flat_one(y)
    ball, _ = _linf_shell(0, p.t, d)

    stair = _staircase(x, y, p.t)
    _build_rows(env, dict.fromkeys(stair[:-1], (p.t, p.cap)))  # the bound's short edges, in one pass
    direct = _weight(env, x, y, p)
    ub = min(sum(_weight(env, a, b, p) for a, b in zip(stair[:-1], stair[1:])), direct)

    dist = {kx: 0, ky: direct}
    parent = {ky: (kx, linf(sub(y, x)) > p.t)}  # key -> (parent key, reached by a long edge)
    settled: set[int] = set()
    heap = [(l1(sub(y, x)), 0, kx), (direct, direct, ky)]
    relaxations = 0

    def tied_needs(f: int) -> dict[Coords, tuple[int, int]]:
        # the live entries at the popped f: the heap's root subtree of f.  Their d is
        # final (the heuristic is consistent) and each is settled before the goal,
        # under a bound no larger than ub, so this prefetches rows the search will read
        needs, stack = {}, [0]
        while stack:
            i = stack.pop()
            if i < len(heap) and heap[i][0] == f:
                _, d_v, kv = heap[i]
                if kv != ky and kv not in settled and d_v == dist[kv]:
                    needs[index.unflat_one(kv)] = (p.t, min(p.cap, ub - d_v))
                stack += (2 * i + 1, 2 * i + 2)
        return needs

    def relax(ku: int, u: Coords, cols: tuple[np.ndarray, ...], nd: np.ndarray, long: bool) -> None:
        # edges u -> u + off at tentative distances nd: push those under the bound that improve
        nonlocal ub
        f = nd.copy()
        for col, a, b in zip(cols, u, y):
            f += np.abs(col + (a - b))
        ok = np.nonzero(f <= ub)[0]
        keys = np.full(ok.shape[0], ku, dtype=np.int64)
        for col, stride in zip(cols, index.strides):
            keys += col[ok] * stride
        nd, f = nd[ok], f[ok]
        better = nd < np.fromiter(map(dist.get, keys.tolist(), repeat(1 << 62)), np.int64, ok.shape[0])
        keys, nd, f = keys[better].tolist(), nd[better].tolist(), f[better].tolist()
        dist.update(zip(keys, nd))
        parent.update(dict.fromkeys(keys, (ku, long)))
        for item in zip(f, nd, keys):
            heappush(heap, item)
        ub = min(ub, dist[ky])

    rows = _row_cache(env)
    while heap:
        f_u, d_u, ku = heappop(heap)
        if ku in settled or d_u > dist[ku]:
            continue
        settled.add(ku)
        if ku == ky:
            break
        u = index.unflat_one(ku)
        # short edges; one of weight above ub - d_u fails the prune, so u's row is
        # needed only that far, and the zero offset never improves the settled u
        horizon = min(p.cap, ub - d_u)
        if horizon >= 1 and not _covers(rows.get(u), p.t, horizon) and env.omega(u) >= 1:
            _build_rows(env, {u: (p.t, horizon), **tied_needs(f_u)})
        if horizon == p.cap:
            relax(ku, u, ball, d_u + _ball_weights(env, u, p), False)
        elif horizon >= 1 and u in rows:  # u is occupied, and its row now covers the horizon
            # capped edges all fail the prune: relax only the hits within the horizon
            _, _, offs, norms, times = rows[u]
            ok = np.nonzero((times <= horizon) & (norms <= p.t))[0]
            relax(ku, u, tuple(offs[ok].T), d_u + times[ok], False)
        relaxations += ball[0].shape[0]
        # the direct long edge to the goal keeps the bound tight
        gap_goal = linf(sub(y, u))
        nd = d_u + K4 * gap_goal
        if gap_goal > p.t and nd <= ub and nd < dist[ky]:
            dist[ky] = ub = nd
            parent[ky] = (ku, True)
            heappush(heap, (nd, nd, ky))
        # remaining long edges, admissible only while 4KL fits under the bound
        max_len = (ub - d_u) // K4
        if max_len > p.t:
            cols, norms = _linf_shell(p.t + 1, min(max_len, p.cap), d)
            relax(ku, u, cols, d_u + K4 * norms, True)
            relaxations += norms.shape[0]

    # the goal is always settled: its direct-edge entry stays on the heap until improved
    chain = [ky]
    long_used = 0
    while chain[-1] != kx:
        key, long = parent[chain[-1]]
        long_used += long
        chain.append(key)
    return TruncatedResult(
        value=dist[ky],
        witness=tuple(index.unflat_one(k) for k in reversed(chain)),
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

    # every replica's environment and stars first, then all T*(0, x) from one engine loop
    envs, stars = [], []
    for r in range(replicas):
        env = sample_environment(law, d, radius0, seed.child("agreement", r))
        origin_star, x_star = star(env, (0,) * d), star(env, x)
        # one box holds every site either search reads: the engine's reach
        # and, for each t, the relay region of truncated_passage
        need = max(_relay_radius(origin_star, x_star, p) for p in params.values())
        envs.append(env.with_radius(max(radius0, horizon + l1(origin_star), need)))
        stars.append((origin_star, x_star))
    t_star = [HittingTime.finite(0, horizon)] * replicas  # T* = 0 when x* == 0*
    runs = [r for r in range(replicas) if stars[r][0] != stars[r][1]]
    if runs:
        values = [
            table.visit_time(stars[r][1])
            for r, table in zip(runs, simulate_batch(
                [envs[r] for r in runs], [stars[r][0] for r in runs], horizon,
                [[stars[r][1]] for r in runs], True, False,
            ))
        ]
        for r, value in zip(runs, values):
            t_star[r] = value

    for r, ((origin_star, x_star), value) in enumerate(zip(stars, t_star)):
        # the searches cache ball rows on the environment: release each once searched
        env, envs[r] = envs[r], None
        # descending t lets the ball rows cached for a larger t serve the smaller ones
        for t in sorted(t_ladder, reverse=True):
            if not value.is_finite:
                censored[t] += 1
                continue
            trunc = truncated_passage(env, origin_star, x_star, params[t])
            compared[t] += 1
            if trunc.value != value.time:
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
