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
chain of (site, time) pairs, such as the engine's activation genealogy,
which gives a guess g: the least of that bound, the chain priced from its
own times (a short hop at the difference of its times, capped at 4Kt, a long
one at 4K times its gap) and twice the chain's arrival time.  When g lies
below the bound, the search first runs under g.  For the engine's chain the
price from its times is its sigma_t sum: all frogs of a wake at T(a), and
b's first visitor was one of them, so tau(a, b) = T(b) - T(a).  A chain with
a hop longer than t can still price far above the answer, and when its
arrival time is the engine's T*, which T_t equals in most replicas, 2T* is
the tighter guess. The guess is checked, not trusted: every value the search
reports is the price of a real relay path, so a value v <= g bounds the
optimum by g; every node settled before the goal has f <= the optimum <= g
and is never pruned, and a candidate pruned under g but not under the proven
bound has f > g, so it never settles before the goal nor sets the distance
or parent of one that does.  The value, witness and counts match the search
under the proven bound, save ``relaxations``; above the guess, the search
runs again under the proven bound, with the rows the first run built cached.
So no bound trusted without a check depends on anything a caller passes.

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

Below the cap, the engine's first visits T(u) from x can replace the heap.
Under a guess g below 4Kt no capped or long edge fits, so d_u >= T(u) (the
engine equals the relay oracle), and every occupied site settled before
the goal is a visit u with T(u) + |u - y|_1 <= g.  The array path builds
those rows g - T(u) deep in one pass, keeps each hit u -> v with
tau + |v - y|_1 within its row's depth, and relaxes that edge list
(Bellman, "On a routing problem", 1958) by one gather and one
``np.minimum.at`` per round until nothing changes.  It accepts the
distance D to y only under a certificate: D <= g, and every occupied site
with (f, d) < (D, D) relaxed a row at least D - d deep.  A distance is the
price of a real path, so none lies below the truth; were one in that set
above it, the first wrong site on a shortest path would have an exact,
settled predecessor whose edge had been relaxed, a contradiction.  Those
sites are the ones the heap settles before the goal, so ``settled`` is
their number plus one; the parent of a site is its tight predecessor that
comes first in (f, d, key) order, the heap's pop order (the goal's direct
edge is x's tight hit whenever it costs D); no edge is long; and
``relaxations`` is (settled - 1)(2t + 1)^d, the heap's own count under any
bound below 4Kt.  When the certificate fails, or a settled site lies
outside the box, the heap runs, so a wrong hint costs only time.
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
    via: Sequence[tuple[Coords, int]] | None = None,
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
    counts cells under it.  ``via``, when given, is a chain x = w_0, ...,
    w_m = y of (site, time) pairs such as ``ActivationTable.relay_chain``
    returns; its sites are never read.  It gives a guess g, the least of the
    proven bound, 2 x its arrival time and the chain priced from its times:
    a short hop at min(its time difference, 4Kt), a long one at 4K times its
    gap.  For the engine's chain that price is its sigma_t sum, at least the
    value.  When g lies below the proven bound, the search first runs under
    g and keeps its value if that is at most g: the value is then exact, as
    the module docstring shows, and the result is that of the proven search
    save ``relaxations``.  A larger value means g lay below the optimum, and
    the search runs again under the proven bound; its ``relaxations`` count
    only that run.  A settled site relaxes its row's hits one by one
    and the cube of capped and long edges as arrays.

    ``visits``, used only with ``via``, is a pair of arrays, sites u and
    times T(u), such as ``_chain_and_visits`` reads off the engine's table:
    its first visits from x with T(u) + |u - y|_1 <= T(y).  When the chain's
    guess g (twice its arrival time, or its price if less) lies below 4Kt,
    the array path of the module docstring runs first, over the rows of the
    u with T(u) + |u - y|_1 <= g, built g - T(u) deep in one pass.  Under its
    certificate it returns the heap's result on all five fields: value D,
    ``settled`` the sites with (f, d) < (D, D) plus the goal, each parent the
    tight predecessor first in (f, d, key) order, no long edge, and
    ``relaxations`` (settled - 1)(2t + 1)^d.  Otherwise the heap runs, with
    those rows cached.  T(u) is raised to |u - x|_1, which d_u also bounds,
    so a wrong hint can build only rows of the relay region and can cost
    only time.
    """
    require_site("x", x, env.dim)
    require_site("y", y, env.dim)
    if via is not None:
        for site, _ in via:
            require_site("via", site, env.dim)
        if not via or tuple(via[0][0]) != tuple(x) or tuple(via[-1][0]) != tuple(y):
            raise GeometryError(f"via must have x = {x} first and y = {y} last, got {via!r}")
    if x == y:
        return TruncatedResult(0, (x,), 0, 0, 0)
    index = CubeIndex(_relay_radius(x, y, p), env.dim)
    guess = None if via is None else _chain_guess(via, p)
    if visits is not None and guess is not None and guess < p.cap:
        res = _array_search(env, index, x, y, p, guess, visits)
        if res is not None:
            return res
    stair = _staircase(x, y, p.t)
    build_rows(env, dict.fromkeys(stair[:-1], (p.t, p.cap)))  # the staircase's rows, in one pass
    direct = sigma_t(env, x, y, p)
    ub = min(direct, sum(sigma_t(env, a, b, p) for a, b in zip(stair, stair[1:])))
    # a value at most the guess is exact; above it, search again under the proven bound, with
    # the rows the first search built still cached
    if guess is not None and guess < ub:
        res = _search(env, index, x, y, p, direct, guess)
        if res.value <= guess:
            return res
    return _search(env, index, x, y, p, direct, ub)


def _chain_guess(via: Sequence[tuple[Coords, int]], p: TruncationParams) -> int:
    """The least of twice the chain's arrival time and the chain priced from its own times."""
    return min(2 * via[-1][1], sum(
        4 * p.K * gap if (gap := linf(sub(b, a))) > p.t else min(tb - ta, p.cap) for (a, ta), (b, tb) in zip(via, via[1:])))


def _array_search(
    env: Environment, index: CubeIndex, x: Coords, y: Coords, p: TruncationParams, guess: int,
    visits: tuple[np.ndarray, np.ndarray],
) -> TruncatedResult | None:
    """The result of ``_search`` under a ``guess`` below 4Kt, relaxed as arrays over the rows of ``visits``.

    None when the certificate of the module docstring fails or a settled
    site lies outside the box: then only the heap gives the result.
    """
    d, Y = env.dim, np.asarray(y)
    # d_u >= max(T(u), |u - x|_1) for every u the search settles, so it reads u's row at most
    # guess - that deep, and u lies in the relay region whatever the hint says
    sites, times = visits
    times = np.maximum(times, np.abs(sites - np.asarray(x)).sum(axis=1))
    keep = times + np.abs(sites - Y).sum(axis=1) <= guess
    needs = {tuple(u): (p.t, guess - T) for u, T in zip(sites[keep].tolist(), times[keep].tolist())}
    owner, offs, taus = row_edges(env, needs)
    us = np.asarray([*needs], dtype=np.int64).reshape(-1, d)
    depth = np.asarray([h for _, h in needs.values()], dtype=np.int64)
    # an edge u -> v with f_v <= D has tau + |v - y|_1 <= D - d_u, within a row D - d_u deep
    vs = us[owner] + offs
    edge = np.nonzero(taus + np.abs(vs - Y).sum(axis=1) <= depth[owner])[0]
    ku, kv = index.flat(us), index.flat(vs[edge])
    kx, ky = index.flat_one(x), index.flat_one(y)
    keys = np.sort(np.concatenate([ku, kv, [kx, ky]]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]  # the nodes, in the lex order of sites
    iu = np.searchsorted(keys, ku)
    src, dst, w = iu[owner[edge]], np.searchsorted(keys, kv), taus[edge]
    dist = np.full(keys.shape[0], 1 << 62)
    dist[np.searchsorted(keys, kx)] = 0
    while True:  # Bellman's relaxation: one round per hop of the longest shortest path
        new = dist.copy()
        np.minimum.at(new, dst, dist[src] + w)
        if np.array_equal(new, dist):
            break
        dist = new
    iy = int(np.searchsorted(keys, ky))
    D = int(dist[iy])
    if D > guess:
        return None
    coords = index.unflat(keys)
    f = dist + np.abs(coords - Y).sum(axis=1)
    settled = (f < D) | ((f == D) & (dist < D))  # the nodes the heap pops before the goal
    row_depth = np.full(keys.shape[0], -1)
    row_depth[iu] = depth
    unsure = settled & (row_depth < D - dist)
    if (np.abs(coords[settled]).sum(axis=1) > env.box_radius).any() or env.counts_at(coords[unsure]).any():
        return None
    # the parent of v is the tight predecessor that the heap pops first, in (f, d, key) order
    tight = np.nonzero(settled[src] & (dist[src] + w == dist[dst]))[0]
    n, u = keys.shape[0], src[tight]
    best = np.full(n, 1 << 62)
    np.minimum.at(best, dst[tight], (f[u] * (D + 1) + dist[u]) * n + u)
    chain = [iy]
    while dist[chain[-1]]:
        chain.append(int(best[chain[-1]] % n))
    count = int(settled.sum())
    return TruncatedResult(D, tuple(map(tuple, coords[chain[::-1]].tolist())), 0, count + 1,
                           count * (2 * p.t + 1) ** d)


def _search(
    env: Environment, index: CubeIndex, x: Coords, y: Coords, p: TruncationParams, direct: int, ub: int,
) -> TruncatedResult:
    """The A* of ``truncated_passage`` from x to y under the bound ``ub``, given the direct edge's price.

    The value is the price of a real relay path, the direct edge's when
    nothing under ``ub`` beats it, so it is exact whenever it is at most
    ``ub``; a larger value means ``ub`` lay below the optimum.
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


def _chain_and_visits(table: ActivationTable, y: Coords):
    """The relay chain of y and the visited u with T(u) + |u - y|_1 <= T(y), as (sites, times) arrays."""
    chain = table.relay_chain(y)
    if chain is None:
        return None, None
    keys = np.flatnonzero(table.visit >= 0)
    sites, times = table.index.unflat(keys), table.visit[keys].astype(np.int64)
    keep = times + np.abs(sites - np.asarray(y)).sum(axis=1) <= chain[-1][1]
    return chain, (sites[keep], times[keep])


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
    engine's relay chain 0* -> x* and its visit times.  Priced from those
    times, the chain costs its sigma_t sum, near the answer, and it is every
    search's first guess of its bound (see ``truncated_passage``), so rows
    are read only about as deep as T_t.  It also comes with the engine's
    occupied visits u with T(u) + |u - x*|_1 <= T*, whose rows each search
    below 4Kt relaxes as arrays.  A site settled before the goal has
    T(u) + |x* - u|_1 <= d_u + |x* - u|_1 <= T_t there, so when T_t = T*
    that array path answers and no heap runs.  The visits are released
    with the replica.  The table also totals, per t,
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
    # with its relay chain: the engine's genealogy, whose hop times seed the search's bound, and
    # the visits whose rows the searches read
    setups = [replica_setup(law, d, [x], horizon, seed.child("agreement", r), True) for r in range(replicas)]
    reads = passage_times(setups, horizon, _chain_and_visits)
    for r in range(replicas):
        # the searches cache ball rows on the environment: release each once searched
        (env, origin_star, (x_star,)), setups[r] = setups[r], None
        ((chain, visits),), reads[r] = reads[r], None
        value = None if chain is None else chain[-1][1]
        # one box holds every site the searches read: the relay region of each t, and the
        # engine's box, which holds the chain
        env = env.with_radius(max(horizon + l1(origin_star), *(_relay_radius(origin_star, x_star, p)
                                                               for p in params.values())))
        if visits is not None:  # an unoccupied site has no row, so no search need ask for it again
            occupied = env.counts_at(visits[0]) >= 1
            visits = visits[0][occupied], visits[1][occupied]
        # descending t lets the ball rows cached for a larger t serve the smaller ones
        for t in sorted(t_ladder, reverse=True):
            if value is None:
                censored[t] += 1
                continue
            trunc = truncated_passage(env, origin_star, x_star, params[t], via=chain, visits=visits)
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
