"""Truncated passage times: a capped two-point function and its shortest paths.

The two-point function prices nearby pairs by their hitting time capped at
4Kt and distant pairs (l-infinity gap above the scale t) by 4K times that
gap, which sandwiches every value between the l1 distance and
4K(t v |x-y|_inf).  The truncated passage time is the exact shortest-path
value over relay sequences under this edge weight.

The search is A* with the l1 distance to the goal as heuristic (admissible
and consistent since every edge weight dominates the l1 step) plus an upper
bound, the least price of two concrete relay paths, which soundly prunes
long-range relaxations: the direct edge and a staircase of hops of length t.
Staircase hops are priced at the cap unless a frog hits, so the bound sits
near 4Kt or above, and rows would be walked that deep.  A caller may pass a
hint of visit times, such as the engine's first visits from x, whose
largest time T* gives a guess g = 2T*; for the engine's visits T* is T(y),
which T_t equals in most replicas.  The guess is checked, not trusted:
below 4Kt the array path at the end of this docstring answers under it or
proves T_t > g, and only then does the heap run, once, under the proven
bound.

Sites are int keys of one ``CubeIndex`` that holds the relay region, and
only the candidates under the bound reach the dicts and the heap.  Each
settled site u relaxes the hits of its ball row in a plain loop over their
lists, since under a tight bound a row holds about a dozen hits, too few to
repay numpy's cost per call; then one cube of offsets priced
4K(t v |off|_inf), which holds the capped short edges and the long ones,
relaxes as arrays.  Keys follow the lex order of sites, so the heap pops in
the total order of (f, d, key), which is that of (f, d, site): ties, and
therefore the reported geodesic, are deterministic.

Short-edge weights come from ball rows: the first hits of a site's own
frogs on the l-infinity ball of radius t up to a horizon, which ``passage``
builds (``build_rows``), caches on the environment and reads filtered to a
(t, horizon) (``row_hits``).  An edge heavier than ub - d_u fails the prune,
so a settled u needs its row only to min(cap, ub - d_u), and only those
hits are relaxed.  The cube costs 4K max(t, L) for an offset of l-infinity
length L, so it runs only while 4Kt fits under ub - d_u, out to the longest
L that fits; a capped price never improves on a hit that the row relaxed.
The cube meets the bound after the direct edge to the goal has lowered it:
an edge this drops has f above the final bound, so it would never have been
settled before the goal, nor blocked a push that passes the prune.
A read that finds no row that far builds it, and the live heap entries
tied with the popped site at its f are settled before the goal, so their
rows are built in the same ``build_rows`` call.  ``sigma_t`` is the one
edge price: the staircase's hops and the direct edge look it up with
``hit_time``, the lookup of ``tau``, in the same rows as the search, read
at (t, 4Kt), and the tests check it against a dense walker of their own.

Below the cap, arrays can replace the heap.  Under g below 4Kt no capped or
long edge fits, so a path of price at most g is a chain of row hits.  The
array path keeps each hit u -> v with tau + |v - y|_1 within u's row depth
and relaxes that edge list (Bellman, "On a routing problem", 1958) by one
gather and one ``np.minimum.at`` per round until nothing changes.  With D
the distance to y and B = min(D, g), it then builds in one pass, B - d
deep, the rows of the occupied sites with (f, d) < (B, B) whose row is
shallower, and relaxes again, until no such site is left.  A distance is the
price of a real path, so none lies below the truth; were T_t <= B, the
first wrong site on a shortest path would have an exact predecessor in that
set whose edge had been relaxed, a contradiction.  So D <= g is exact, and
D > g proves T_t > g.  The sites with (f, d) < (D, D) are those the heap
settles before the goal, so ``settled`` is their number plus one; the
parent of a site is its tight predecessor that comes first in (f, d, key)
order, the heap's pop order (the goal's direct edge is x's tight hit
whenever it costs D); no edge is long; and ``relaxations`` is
(settled - 1)(2t + 1)^d, the heap's own count under any bound below 4Kt.
The first rows are the hint's: for the engine's visits d_u >= T(u), since
the engine equals the relay oracle, and when T_t <= T* a site settled before
the goal has d_u + |u - y|_1 <= T*.  So the array path starts from the rows
of the visits with T(u) + |u - y|_1 <= min(g, T*), each built min(g, T*) -
T(u) deep, and a wrong hint costs only time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from itertools import repeat
from operator import add, mul
from typing import Sequence

import numpy as np

from .environment import Environment
from .errors import LADDER, NONNEGATIVE, POSITIVE, SITES, SIZE, GeometryError, require, require_site
from .estimation import replica_setup
from .lattice import Coords, CubeIndex, cube_coords, l1, linf, sub
from .passage import ActivationTable, build_rows, hit_time, passage_times, row_edges, row_hits
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
        require("t", t, SIZE)
        require("dim", dim, SIZE)
        require("c4_hat", c4_hat, NONNEGATIVE)
        require("gamma", gamma, NONNEGATIVE)
        K = math.ceil(dim * (c4_hat + gamma + 1)) + 1
        return TruncationParams(t=t, gamma=gamma, K=K, c4_hat=c4_hat)

    @property
    def cap(self) -> int:
        """Price of a capped short edge and horizon of its hitting-time scan."""
        return 4 * self.K * self.t


def sigma_t(env: Environment, x: Coords, y: Coords, p: TruncationParams) -> int:
    """Two-point edge weight; always within the l1 / 4K(t v gap) sandwich.

    A long edge (l-infinity gap above t) costs 4K times its gap.  A short
    edge costs the hitting time tau(x, y) when it is at most 4Kt, and 4Kt
    otherwise; the time is read from x's ball row at (t, 4Kt), the row that
    the search relaxes, so the bound and the search price alike.
    """
    require_site("x", x, env.dim)
    require_site("y", y, env.dim)
    if (gap := linf(sub(y, x))) > p.t:
        return 4 * p.K * gap
    hit = hit_time(env, x, y, p.t, p.cap)
    return p.cap if hit is None else hit


@dataclass
class TruncatedResult:
    value: int
    witness: tuple[Coords, ...]
    long_edges_used: int
    settled: int
    relaxations: int


@lru_cache(maxsize=32)
def _linf_cube(radius: int, t: int, d: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The offsets with |off|_inf <= radius in lex order, as d columns, and max(t, |off|_inf).

    An edge to u + off costs 4K times the second column when it is long or
    capped, so one cube prices every edge that does not come from u's row.
    """
    offs = cube_coords(radius, d)
    cols = tuple(np.ascontiguousarray(col) for col in offs.T)
    lengths = np.maximum(np.abs(offs).max(axis=1), t)
    for a in (*cols, lengths):
        a.setflags(write=False)  # shared by every caller of the cache
    return cols, lengths


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


def truncated_passage(
    env: Environment, x: Coords, y: Coords, p: TruncationParams,
    visits: tuple[np.ndarray, np.ndarray] | None = None,
) -> TruncatedResult:
    """Exact shortest relay-path value from x to y under the two-point weight.

    Candidate relays live inside {z : |x-z|_1 + |z-y|_1 <= 4K(t v |x-y|_inf)}
    because every edge weight dominates the l1 step and the single edge
    (x, y) already costs at most that bound; the upper bound and the goal's
    tentative distance prune the region further, soundly.  Every candidate
    under the bound lies in the cube of radius ``_relay_radius(x, y, p)``,
    which lays out the keys; reads of the configuration outside the box
    raise GeometryError.

    The proven bound is the least price of two relay paths, the direct edge
    and the staircase.  No bound changes the result: only ``relaxations``
    counts cells under it.  ``visits``, when given, is a hint: a pair of
    arrays, n >= 1 sites u and their times T(u), such as ``_visits`` reads
    off the engine's table: its first visits from x with T(u) + |u - y|_1
    <= T(y).  Its largest time T* gives a guess g = 2T*.  When g lies below
    4Kt, the array path of the module docstring runs first and, if T_t <= g,
    returns the heap's result on all five fields: value D, ``settled`` the
    sites with (f, d) < (D, D) plus the goal, each parent the tight
    predecessor first in (f, d, key) order, no long edge, and
    ``relaxations`` (settled - 1)(2t + 1)^d.  Otherwise the heap runs once,
    under the proven bound, with the rows the array path built cached.  A
    settled site relaxes its row's hits one by one and the cube of capped and
    long edges as arrays.  T(u) is raised to |u - x|_1, which d_u also
    bounds, so a wrong hint can build only rows of the relay region and can
    cost only time.
    """
    require_site("x", x, env.dim)
    require_site("y", y, env.dim)
    if visits is not None:
        sites, times = map(np.asarray, visits)
        if not (sites.ndim == 2 and sites.shape[1] == env.dim and times.shape == sites.shape[:1] and times.size
                and sites.dtype.kind in "iu" and times.dtype.kind in "iu"):
            raise GeometryError(f"visits must have n >= 1 integer sites of dim = {env.dim} and n integer times, "
                                f"got arrays of shapes {sites.shape} and {times.shape}")
        visits = sites.astype(np.int64, copy=False), times.astype(np.int64, copy=False)
    if x == y:
        return TruncatedResult(0, (x,), 0, 0, 0)
    index = CubeIndex(_relay_radius(x, y, p), env.dim)
    if visits is not None and (guess := 2 * int(visits[1].max())) < p.cap:
        res = _array_search(env, index, x, y, p, guess, visits)
        if res is not None:
            return res
    stair = _staircase(x, y, p.t)
    build_rows(env, dict.fromkeys(stair[:-1], (p.t, p.cap)))  # the staircase's rows, in one pass
    direct = sigma_t(env, x, y, p)
    ub = min(direct, sum(sigma_t(env, a, b, p) for a, b in zip(stair, stair[1:])))
    return _search(env, index, x, y, p, direct, ub)


def _array_search(
    env: Environment, index: CubeIndex, x: Coords, y: Coords, p: TruncationParams, guess: int,
    visits: tuple[np.ndarray, np.ndarray],
) -> TruncatedResult | None:
    """The result of ``_search`` when T_t <= ``guess`` < 4Kt, relaxed as arrays from the rows of ``visits``.

    None when T_t > ``guess``, by the certificate of the module docstring,
    or when a site it would read lies outside the box: then only the heap
    gives the result.  A hint that lacks x heals: x has f < B and no row,
    so the next round builds it.
    """
    d, X, Y = env.dim, np.asarray(x), np.asarray(y)
    sites, times = visits
    top = min(guess, int(times.max()))
    # d_u >= max(T(u), |u - x|_1) for every u the search settles, so when T_t <= min(guess, T*) it
    # reads u's row at most top - T(u) deep, and u lies in the relay region whatever the hint says
    times = np.maximum(times, np.abs(sites - X).sum(axis=1))
    keep = times + np.abs(sites - Y).sum(axis=1) <= top
    needs = {tuple(u): (p.t, top - T) for u, T in zip(sites[keep].tolist(), times[keep].tolist())}
    kx, ky = index.flat_one(x), index.flat_one(y)
    keys = dist = depth = src = dst = w = np.empty(0, dtype=np.int64)
    while True:
        owner, offs, taus = row_edges(env, needs)
        us = np.asarray([*needs], dtype=np.int64).reshape(-1, d)
        row_depth = np.asarray([h for _, h in needs.values()], dtype=np.int64)
        # an edge u -> v with f_v <= B has tau + |v - y|_1 <= B - d_u, within a row B - d_u deep
        vs = us[owner] + offs
        edge = np.nonzero(taus + np.abs(vs - Y).sum(axis=1) <= row_depth[owner])[0]
        ku, kv = index.flat(us), index.flat(vs[edge])
        src, dst = np.concatenate([src, ku[owner[edge]]]), np.concatenate([dst, kv])
        w = np.concatenate([w, taus[edge]])
        old, keys = keys, np.sort(np.concatenate([keys, ku, kv, [kx, ky]]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]  # the nodes, in the lex order of sites
        # each distance is the price of a real path, so the last round's are a warm start
        dist, known = np.full(keys.shape[0], 1 << 62), dist
        depth, built = np.full(keys.shape[0], -1), depth
        at = np.searchsorted(keys, old)
        dist[at], depth[at] = known, built
        dist[np.searchsorted(keys, kx)] = 0
        depth[np.searchsorted(keys, ku)] = row_depth
        iu, iv = np.searchsorted(keys, src), np.searchsorted(keys, dst)
        while True:  # Bellman's relaxation: one round per hop of the longest shortest path
            new = dist.copy()
            np.minimum.at(new, iv, dist[iu] + w)
            if np.array_equal(new, dist):
                break
            dist = new
        iy = int(np.searchsorted(keys, ky))
        coords = index.unflat(keys)
        f = dist + np.abs(coords - Y).sum(axis=1)
        # the occupied sites with (f, d) < (B, B) need their rows B - d deep
        B = min(int(dist[iy]), guess)
        need = ((f < B) | ((f == B) & (dist < B))) & (depth < B - dist)
        if (np.abs(coords[need]).sum(axis=1) > env.box_radius).any():
            return None
        need[need] = env.counts_at(coords[need]) >= 1  # an unoccupied site has no hits
        if not need.any():
            break
        needs = {tuple(u): (p.t, h) for u, h in zip(coords[need].tolist(), (B - dist)[need].tolist())}
    D = int(dist[iy])
    if D > guess:
        return None
    settled = (f < D) | ((f == D) & (dist < D))  # the nodes the heap pops before the goal
    # the parent of v is the tight predecessor that the heap pops first, in (f, d, key) order
    tight = np.nonzero(settled[iu] & (dist[iu] + w == dist[iv]))[0]
    n, u = keys.shape[0], iu[tight]
    best = np.full(n, 1 << 62)
    np.minimum.at(best, iv[tight], (f[u] * (D + 1) + dist[u]) * n + u)
    chain = [iy]
    while dist[chain[-1]]:
        chain.append(int(best[chain[-1]] % n))
    count = int(settled.sum())
    return TruncatedResult(D, tuple(map(tuple, coords[chain[::-1]].tolist())), 0, count + 1,
                           count * (2 * p.t + 1) ** d)


def _search(
    env: Environment, index: CubeIndex, x: Coords, y: Coords, p: TruncationParams, direct: int, ub: int,
) -> TruncatedResult:
    """The A* of ``truncated_passage`` from x to y under the proven bound ``ub``, given the direct edge's price.

    ``ub`` is the price of a real relay path, so the value is exact.
    """
    d, K4 = env.dim, 4 * p.K
    kx, ky = index.flat_one(x), index.flat_one(y)
    strides = index.strides
    dist = {kx: 0, ky: direct}
    parent = {ky: kx}
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

    while heap:
        f_u, d_u, ku = heappop(heap)
        if ku in settled or d_u > dist[ku]:
            continue
        settled.add(ku)
        if ku == ky:
            break
        u = index.unflat_one(ku)
        # short edges from u's row; one of weight above ub - d_u fails the prune, so the
        # row is needed only that far, and the zero offset never improves the settled u
        horizon = min(p.cap, ub - d_u)
        if horizon >= 1:
            hits = row_hits(env, u, p.t, horizon)
            if hits is None:  # build u's row in one pass with the rows of its tie layer
                build_rows(env, {u: (p.t, horizon), **tied_needs(f_u)})
                hits = row_hits(env, u, p.t, horizon)
            # a row holds about a dozen hits under a tight bound, too few to repay numpy's
            # per-call cost, so they are relaxed one by one, in the row's key order
            offs, times = hits
            uy = [a - b for a, b in zip(u, y)]
            for off, time in zip(offs.tolist(), times.tolist()):
                nd = d_u + time
                f = nd + sum(map(abs, map(add, off, uy)))
                if f <= ub:
                    kv = ku + sum(map(mul, off, strides))
                    if nd < dist.get(kv, 1 << 62):
                        dist[kv] = nd
                        parent[kv] = ku
                        heappush(heap, (f, nd, kv))
            ub = min(ub, dist[ky])
        # the direct long edge to the goal keeps the bound tight
        gap_goal = linf(sub(y, u))
        nd = d_u + K4 * gap_goal
        if gap_goal > p.t and nd <= ub and nd < dist[ky]:
            dist[ky] = ub = nd
            parent[ky] = ku
            heappush(heap, (nd, nd, ky))
        # capped short edges and long ones cost 4K max(t, L), admissible only while that
        # fits under the bound; where u's row has a hit, the capped price never improves on it
        max_len = (ub - d_u) // K4
        if max_len >= p.t:
            # the cube holds (2L + 1)^d cells for the longest length L, so it relaxes as arrays
            cols, lengths = _linf_cube(min(max_len, p.cap), p.t, d)
            nd = d_u + K4 * lengths
            f = nd.copy()
            for col, a, b in zip(cols, u, y):
                f += np.abs(col + (a - b))
            ok = np.nonzero(f <= ub)[0]
            keys = np.full(ok.shape[0], ku, dtype=np.int64)
            for col, stride in zip(cols, strides):
                keys += col[ok] * stride
            nd, f = nd[ok], f[ok]
            better = nd < np.fromiter(map(dist.get, keys.tolist(), repeat(1 << 62)), np.int64, ok.shape[0])
            keys, nd, f = keys[better].tolist(), nd[better].tolist(), f[better].tolist()
            dist.update(zip(keys, nd))
            parent.update(dict.fromkeys(keys, ku))
            for item in zip(f, nd, keys):
                heappush(heap, item)
            ub = min(ub, dist[ky])
        relaxations += (2 * min(max(max_len, p.t), p.cap) + 1) ** d

    # the goal is always settled: its direct-edge entry stays on the heap until improved
    chain = [ky]
    while chain[-1] != kx:
        chain.append(parent[chain[-1]])
    witness = tuple(index.unflat_one(k) for k in reversed(chain))
    return TruncatedResult(
        value=dist[ky],
        witness=witness,
        long_edges_used=sum(linf(sub(b, a)) > p.t for a, b in zip(witness, witness[1:])),
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


def box_of(z: Coords, t: int) -> Coords:
    """The tile of z in the partition of Z^d into translates of (-t/2, t/2]^d centred on t Z^d."""
    return tuple(-((t - 2 * c) // (2 * t)) for c in z)


def geodesic_box_count(witness: Sequence[Coords], t: int) -> int:
    return len({box_of(z, t) for z in witness})


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
    # per t, the A* nodes settled and cube cells relaxed over the compared replicas
    settled: dict[int, int] = field(default_factory=dict)
    relaxations: dict[int, int] = field(default_factory=dict)


def _visits(table: ActivationTable, y: Coords):
    """The visited u with T(u) + |u - y|_1 <= T(y), as (sites, times) arrays; None if y was not visited."""
    value = table.visit_time(y)
    if value is None:
        return None
    keys = np.flatnonzero(table.visit >= 0)
    sites, times = table.index.unflat(keys), table.visit[keys].astype(np.int64)
    keep = times + np.abs(sites - np.asarray(y)).sum(axis=1) <= value
    return sites[keep], times[keep]


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
    coupling across the ladder.  The replicas are set up as in
    ``collect_passage_samples`` and their T*(0, x) = T(0*, x*) read from
    ``passage_times``, censored at 3 mu_hat |x|_1; censored values are
    excluded from the comparison and reported.  Each value comes with the
    engine's occupied visits u with T(u) + |u - x*|_1 <= T*.  Their largest
    time, T* itself, gives every search its guess 2T* (see
    ``truncated_passage``), and each search below 4Kt relaxes their rows as
    arrays first, so rows are read only about as deep as T_t.  A site
    settled before the goal has T(u) + |x* - u|_1 <= d_u + |x* - u|_1 <= T_t
    there, so when T_t = T* those rows are all the array path needs.  The
    visits are released with the replica.  The table also totals, per t,
    the nodes the searches settled and the cube cells they relaxed.
    """
    require("x", x, SITES)
    require("t_ladder", t_ladder, LADDER)
    require("replicas", replicas, SIZE)
    d = len(x)
    horizon = math.ceil(3.0 * require("mu_hat", mu_hat, POSITIVE) * l1(x))
    if c4_hat is None:
        c4_hat = 5.0 * mu_hat
    params = {t: TruncationParams.make(t, d, c4_hat, gamma) for t in t_ladder}
    table = AgreementTable(x=x, law_label=law.label(), params_by_t=params,
                           settled=dict.fromkeys(t_ladder, 0), relaxations=dict.fromkeys(t_ladder, 0))

    disagree, censored, compared, long_geo, max_boxes = ({t: 0 for t in t_ladder} for _ in range(5))

    # every replica's environment and stars first, then all T*(0, x) from the engine, each
    # with the visits whose largest time seeds the search's guess and whose rows it reads
    setups = [replica_setup(law, d, [x], horizon, seed.child("agreement", r), True) for r in range(replicas)]
    reads = passage_times(setups, horizon, _visits)
    for r in range(replicas):
        # the searches cache ball rows on the environment: release each once searched
        (env, origin_star, (x_star,)), setups[r] = setups[r], None
        (visits,), reads[r] = reads[r], None
        value = None if visits is None else int(visits[1].max())  # T(x*)
        # one box holds every site the searches read: the relay region of each t, and the
        # engine's box, which holds the visits
        env = env.with_radius(max(horizon + l1(origin_star), *(_relay_radius(origin_star, x_star, p)
                                                               for p in params.values())))
        # an unoccupied site has no row, so no search need ask for it again; x* is occupied, so T* stays
        if visits is not None:
            occupied = env.counts_at(visits[0]) >= 1
            visits = visits[0][occupied], visits[1][occupied]
        # descending t lets the ball rows cached for a larger t serve the smaller ones
        for t in sorted(t_ladder, reverse=True):
            if value is None:
                censored[t] += 1
                continue
            trunc = truncated_passage(env, origin_star, x_star, params[t], visits=visits)
            compared[t] += 1
            table.settled[t] += trunc.settled
            table.relaxations[t] += trunc.relaxations
            if trunc.value != value:
                disagree[t] += 1
            if trunc.long_edges_used:
                long_geo[t] += 1
            max_boxes[t] = max(max_boxes[t], geodesic_box_count(trunc.witness, t))

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
