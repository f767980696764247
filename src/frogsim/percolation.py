"""Site percolation structures and the renormalized block fields.

Bernoulli fields, union-find cluster labeling, chemical distance, hole
radii, and the block-level white indicator that couples occupancy and
local passage-time control.  The infinite cluster is proxied by the largest
cluster in the box; experiments that consume it keep a boundary margin to
damp finite-size bias.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .environment import Environment
from .errors import EmptySetError, GeometryError, LawParameterError
from .lattice import Coords, CubeIndex, add, ball_coords, cube_coords, l1, neighbors, scale, sub
from .passage import HittingTime, simulate_frogs
from .stats import fit_line, wilson_ci
from .walks import PURPOSE_FIELD, SeedSpec, site_keys_np, uniform01_np


class SiteField:
    """A 0/1 field on the l1 ball of radius box_radius."""

    def __init__(self, dim: int, box_radius: int, bits: np.ndarray, provenance: str):
        self.dim = dim
        self.box_radius = box_radius
        self.index = CubeIndex(box_radius, dim)
        self.bits = bits  # flat over self.index, -1 outside the ball
        self.provenance = provenance

    def in_box(self, x: Coords) -> bool:
        return l1(x) <= self.box_radius

    def bit(self, x: Coords) -> int:
        if not self.in_box(x):
            raise GeometryError(f"site {x} outside field of radius {self.box_radius}")
        return int(self.bits[self.index.flat_one(x)])

    def open_coords(self) -> np.ndarray:
        coords = ball_coords(self.box_radius, self.dim)
        return coords[self.bits[self.index.flat(coords)] == 1]


def sample_bernoulli_field(p: float, dim: int, box_radius: int, seed: SeedSpec) -> SiteField:
    """Independent site percolation; the same seed couples all p monotonely."""
    if not 0.0 <= p <= 1.0:
        raise LawParameterError(f"percolation parameter p must be in [0,1], got {p}")
    coords = ball_coords(box_radius, dim)
    u = uniform01_np(site_keys_np(seed, PURPOSE_FIELD, coords))
    index = CubeIndex(box_radius, dim)
    bits = np.full(index.size, -1, dtype=np.int8)
    bits[index.flat(coords)] = (u < p).astype(np.int8)
    return SiteField(dim, box_radius, bits, provenance=f"bernoulli({p})")


def field_from_indicator(dim: int, box_radius: int, values: dict[Coords, int], provenance: str) -> SiteField:
    bits = np.full(CubeIndex(box_radius, dim).size, -1, dtype=np.int8)
    f = SiteField(dim, box_radius, bits, provenance)
    for x, v in values.items():
        bits[f.index.flat_one(x)] = 1 if v else 0
    return f


class _UnionFind:
    """Union by size with path compression over flat indices."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass
class ClusterLabels:
    label: dict[Coords, int]
    sizes: dict[int, int]
    largest_id: int | None


def label_clusters(f: SiteField) -> ClusterLabels:
    """Connected components of the open set under nearest-neighbor adjacency."""
    coords = f.open_coords()
    n = coords.shape[0]
    if n == 0:
        return ClusterLabels(label={}, sizes={}, largest_id=None)
    flat = f.index.flat(coords)
    index_of = {int(k): i for i, k in enumerate(flat)}
    uf = _UnionFind(n)
    # half the directions suffice: each edge is seen from its lower endpoint
    for j in range(f.dim):
        step = np.zeros(f.dim, dtype=np.int64)
        step[j] = 1
        nb = coords + step
        inside = np.abs(nb).sum(axis=1) <= f.box_radius
        nb_flat = f.index.flat(nb[inside])
        open_nb = f.bits[nb_flat] == 1
        src = np.nonzero(inside)[0][open_nb]
        dst = nb_flat[open_nb]
        for i, k in zip(src.tolist(), dst.tolist()):
            uf.union(i, index_of[k])
    label: dict[Coords, int] = {}
    sizes: dict[int, int] = {}
    for i in range(n):
        root = uf.find(i)
        label[tuple(int(c) for c in coords[i])] = root
        sizes[root] = sizes.get(root, 0) + 1
    # deterministic largest: max size, then smallest root id
    largest = min(((-s, r) for r, s in sizes.items()))[1]
    return ClusterLabels(label=label, sizes=sizes, largest_id=largest)


def open_distances_from(f: SiteField, source: Coords) -> dict[Coords, int]:
    """BFS distances inside the open set from an open source site."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in neighbors(u):
                if w in dist or not f.in_box(w) or f.bit(w) != 1:
                    continue
                dist[w] = du + 1
                nxt.append(w)
        frontier = nxt
    return dist


def chemical_distance(f: SiteField, v1: Coords, v2: Coords) -> HittingTime:
    """Graph distance inside the open set; censored when unreachable."""
    if not (f.in_box(v1) and f.in_box(v2)):
        raise GeometryError("chemical distance endpoints must lie in the field's box")
    if f.bit(v1) != 1 or f.bit(v2) != 1:
        return HittingTime.censored(None)
    if v1 == v2:
        return HittingTime.finite(0)
    dist = open_distances_from(f, v1)
    if v2 in dist:
        return HittingTime.finite(dist[v2])
    return HittingTime.censored(None)


def hole_radius(f: SiteField, labels: ClusterLabels) -> int:
    """Smallest l1 radius at which the ball around 0 meets the largest cluster."""
    if labels.largest_id is None:
        raise EmptySetError("field has no open sites, hole radius undefined")
    best = None
    for x, lab in labels.label.items():
        if lab == labels.largest_id:
            r = l1(x)
            if best is None or r < best:
                best = r
    return int(best)


# ---------------------------------------------------------------------------
# White sites: block occupancy plus short-range passage control
# ---------------------------------------------------------------------------


def default_subbox_side(N: int, dim: int) -> int:
    return int(N ** 0.25 / (4 * dim))


def white_site_indicator(
    env: Environment, v: Coords, N: int, subbox_side: int | None = None
) -> int:
    """1 iff every sub-box tile inside the window meets the occupied set and
    every close occupied pair in the window has passage time at most N.

    The window is the l-infinity box of radius N around Nv; close means l1
    distance at most N^(1/4).  ``subbox_side`` overrides the default tile
    half-width floor(N^(1/4) / 4d), which needs N >= (4d)^4 to be positive;
    desk-scale demonstrations pass an explicit small value.
    """
    d = env.dim
    half = default_subbox_side(N, d) if subbox_side is None else int(subbox_side)
    if half < 1:
        raise GeometryError(
            f"sub-box side floor(N^0.25/(4d)) = {half} < 1 at N={N}; "
            "pass subbox_side explicitly for small N"
        )
    center = scale(N, v)
    if l1(center) + d * N > env.box_radius:
        raise GeometryError("white window exceeds the sampled box")

    window = cube_coords(N, d) + np.asarray(center, dtype=np.int64)
    counts = env.counts_at(window)
    occ = window[counts > 0]

    # condition (1): every tile of side 2*half fully inside the window meets
    # the occupied set; tile q covers sites (2*half*q - half, 2*half*q + half]
    side = 2 * half
    qs_axes = []
    for i in range(d):
        lo = -((-(center[i] - N + half - 1)) // side)  # ceil division
        hi = (center[i] + N - half) // side
        qs_axes.append(range(lo, hi + 1))
    occ_set = {tuple(int(c) for c in row) for row in occ}
    for q in itertools.product(*qs_axes):
        tile_center = tuple(side * qi for qi in q)
        if not any(add(tile_center, off) in occ_set for off in _tile_offsets(half, d)):
            return 0

    # condition (2): close occupied pairs connect within time N
    close_limit = N ** 0.25
    occ_list = [tuple(int(c) for c in row) for row in occ]
    for i, x in enumerate(occ_list):
        targets = [y for y in occ_list if y != x and l1(sub(y, x)) <= close_limit]
        if not targets:
            continue
        table = simulate_frogs(env, x, N, stop_targets=targets, strict=True)
        for y in targets:
            ht = table.visit_time(y)
            if not ht.is_finite or ht.time > N:
                return 0
    return 1


def _tile_offsets(half: int, d: int) -> list[Coords]:
    """Offsets of the half-open tile (-half, half]^d."""
    return [tuple(t) for t in itertools.product(range(-half + 1, half + 1), repeat=d)]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class MarginalRow:
    N: int
    replicas: int
    hits: int
    phat: float
    ci_lo: float
    ci_hi: float


def marginal_curve(
    indicator: Callable[[Environment, int], int],
    N_ladder: Sequence[int],
    replicas: int,
    seed: SeedSpec,
    env_factory: Callable[[int, SeedSpec], Environment],
) -> list[MarginalRow]:
    """Monte Carlo marginal P(v = 0 satisfies the indicator) per block scale."""
    rows = []
    for N in N_ladder:
        hits = 0
        for r in range(replicas):
            env = env_factory(N, seed.child(f"marginal-N{N}", r))
            hits += indicator(env, N)
        lo, hi = wilson_ci(hits, replicas)
        rows.append(MarginalRow(N=N, replicas=replicas, hits=hits, phat=hits / replicas, ci_lo=lo, ci_hi=hi))
    return rows


@dataclass
class HoleTailReport:
    p: float
    dim: int
    box_radius: int
    replicas: int
    margin: int
    tail: list[tuple[int, int, float]]  # (radius, count >= radius, phat)
    fitted_log_slope: float
    radii: list[int]


def hole_radius_experiment(
    p: float, dim: int, box_radius: int, replicas: int, seed: SeedSpec
) -> HoleTailReport:
    """Empirical tail of the hole radius around the origin.

    Replicas whose largest cluster sits entirely outside the boundary margin
    would bias the tail, so radii past the margin are discarded as censored.
    """
    margin = box_radius // 10
    radii: list[int] = []
    for r in range(replicas):
        f = sample_bernoulli_field(p, dim, box_radius, seed.child("hole", r))
        labels = label_clusters(f)
        radii.append(hole_radius(f, labels))
    usable = [rad for rad in radii if rad <= box_radius - margin]
    max_r = max(usable) if usable else 0
    tail = []
    logs_x = []
    logs_y = []
    for t in range(0, max_r + 2):
        cnt = sum(1 for rad in usable if rad >= t)
        phat = cnt / len(usable) if usable else float("nan")
        tail.append((t, cnt, phat))
        if cnt > 0 and t > 0:
            logs_x.append(t)
            logs_y.append(math.log(phat))
    slope = fit_line(np.array(logs_x), np.array(logs_y))[0] if len(logs_x) >= 2 else float("nan")
    return HoleTailReport(
        p=p, dim=dim, box_radius=box_radius, replicas=replicas, margin=margin,
        tail=tail, fitted_log_slope=slope, radii=radii,
    )


@dataclass
class ChemicalRatioReport:
    p: float
    dim: int
    box_radius: int
    replicas: int
    rows: list[tuple[Coords, int, float, float]]  # (target, connected, max ratio, mean ratio)
    max_ratio: float
    connected_pairs: int


def chemical_ratio_experiment(
    p: float,
    dim: int,
    box_radius: int,
    targets: Sequence[Coords],
    replicas: int,
    seed: SeedSpec,
) -> ChemicalRatioReport:
    """Ratio of chemical distance to l1 distance on connected origin-target pairs."""
    margin = box_radius // 10
    for v in targets:
        if l1(v) > box_radius - margin:
            raise GeometryError(f"target {v} inside the boundary margin of {margin}")
    rows = []
    overall = 0.0
    connected = 0
    per_target = {v: [] for v in targets}
    origin = (0,) * dim
    for r in range(replicas):
        f = sample_bernoulli_field(p, dim, box_radius, seed.child("chem", r))
        if f.bit(origin) != 1:
            continue
        dist = open_distances_from(f, origin)
        for v in targets:
            if v in dist:
                per_target[v].append(dist[v] / l1(v))
                connected += 1
    for v in targets:
        ratios = per_target[v]
        mx = max(ratios) if ratios else float("nan")
        mean = sum(ratios) / len(ratios) if ratios else float("nan")
        rows.append((v, len(ratios), mx, mean))
        if ratios:
            overall = max(overall, mx)
    return ChemicalRatioReport(
        p=p, dim=dim, box_radius=box_radius, replicas=replicas,
        rows=rows, max_ratio=overall, connected_pairs=connected,
    )
