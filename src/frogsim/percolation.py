"""Site percolation structures and the renormalized block fields.

Bernoulli fields, array labelling of clusters, chemical distances, hole
radii, and the block-level white indicator that couples occupancy and
local passage-time control.  The infinite cluster is proxied by the largest
cluster in the box; experiments that consume it keep a boundary margin to
damp finite-size bias.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import ConfigLaw, Environment, sample_environment
from .errors import EmptySetError, GeometryError, LawParameterError
from .lattice import Coords, CubeIndex, add, ball_coords, cube_coords, l1, scale, sub
from .passage import simulate_frogs
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


def _open_cube(f: SiteField) -> tuple[np.ndarray, CubeIndex]:
    """The open set as a flat bool array over the cube one layer wider than
    ``f.index``.  The extra layer is closed, so a site's neighbours are its
    key plus or minus a stride and an open neighbour never wraps."""
    is_open = np.pad(f.bits.reshape((f.index.side,) * f.dim) == 1, 1)
    return is_open.ravel(), CubeIndex(f.box_radius + 1, f.dim)


@dataclass
class ClusterLabels:
    label: np.ndarray  # cluster id of each row of f.open_coords()
    sizes: dict[int, int]
    largest_id: int | None


def label_clusters(f: SiteField) -> ClusterLabels:
    """Connected components of the open set under nearest-neighbor adjacency.

    A cluster's id is the row of its lex-smallest site in ``f.open_coords()``.
    The largest cluster is the one of maximal size; among equal sizes, the one
    with the smallest id, i.e. the lex-smallest lowest site.
    """
    is_open, index = _open_cube(f)
    keys = np.flatnonzero(is_open)  # ascending, so aligned with f.open_coords()
    if keys.size == 0:
        return ClusterLabels(label=np.zeros(0, dtype=np.int64), sizes={}, largest_id=None)
    row = np.zeros(index.size, dtype=np.int64)
    row[keys] = np.arange(keys.size)
    lo, hi = [], []
    for s in index.strides:
        both = keys[is_open[keys + s]]
        lo.append(row[both])
        hi.append(row[both + s])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    # hook each root to the smallest root across its edges, then jump pointers
    # until every site points at its root; once no edge joins two roots, each
    # cluster points at its smallest row
    lab = np.arange(keys.size)
    while True:
        a, b = lab[lo], lab[hi]
        if np.array_equal(a, b):
            break
        np.minimum.at(lab, a, b)
        np.minimum.at(lab, b, a)
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped
    counts = np.bincount(lab)
    ids = np.flatnonzero(counts)
    largest = int(np.argmax(counts))  # argmax takes the first, smallest id
    return ClusterLabels(label=lab, sizes=dict(zip(ids.tolist(), counts[ids].tolist())), largest_id=largest)


def open_distances_from(f: SiteField, source: Coords) -> np.ndarray:
    """BFS distances inside the open set from an open source site.

    Flat over ``f.index``: 0 at the source, -1 at sites that are closed or
    not reached.
    """
    if not f.in_box(source):
        raise GeometryError(f"site {source} outside field of radius {f.box_radius}")
    is_open, index = _open_cube(f)
    steps = np.array([s * sign for s in index.strides for sign in (1, -1)])
    dist = np.full(index.size, -1, dtype=np.int64)
    frontier = np.array([index.flat_one(source)])
    dist[frontier] = 0
    layer = 0
    while frontier.size:
        layer += 1
        nxt = (frontier[:, None] + steps).ravel()
        # repeats dropped by hand: the first np.unique call in a process
        # imports numpy.ma, about 20 ms
        nxt = np.sort(nxt[is_open[nxt] & (dist[nxt] < 0)])
        frontier = nxt[np.diff(nxt, prepend=-1) != 0]
        dist[frontier] = layer
    return dist.reshape((index.side,) * f.dim)[(slice(1, -1),) * f.dim].ravel()


def hole_radius(f: SiteField, labels: ClusterLabels) -> int:
    """Smallest l1 radius at which the ball around 0 meets the largest cluster."""
    if labels.largest_id is None:
        raise EmptySetError("field has no open sites, hole radius undefined")
    return int(np.abs(f.open_coords()[labels.label == labels.largest_id]).sum(axis=1).min())


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


def white_marginal_curve(
    law: ConfigLaw,
    dim: int,
    N_ladder: Sequence[int],
    replicas: int,
    seed: SeedSpec,
    subbox_side: int | None,
) -> list[MarginalRow]:
    """Monte Carlo marginal P(the origin block is white) per block scale N.

    Each replica samples ``law`` on the box of radius dim*N + N + 2, which
    holds the white window around the origin.
    """
    rows = []
    for N in N_ladder:
        hits = 0
        for r in range(replicas):
            env = sample_environment(law, dim, dim * N + N + 2, seed.child(f"marginal-N{N}", r))
            hits += white_site_indicator(env, (0,) * dim, N, subbox_side=subbox_side)
        lo, hi = wilson_ci(hits, replicas)
        rows.append(MarginalRow(N=N, replicas=replicas, hits=hits, phat=hits / replicas, ci_lo=lo, ci_hi=hi))
    return rows


def boundary_margin(box_radius: int) -> int:
    """Width of the boundary shell of a field of l1 radius ``box_radius``.

    Near the boundary the largest cluster is a poor proxy for the infinite
    one, so hole radii and chemical-distance targets with l1 norm above
    ``box_radius - boundary_margin(box_radius)`` are not used.
    """
    return box_radius // 10


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
    margin = boundary_margin(box_radius)
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
    margin = boundary_margin(box_radius)
    for v in targets:
        if l1(v) > box_radius - margin:
            raise GeometryError(f"target {v} inside the boundary margin of {margin}")
    rows = []
    overall = 0.0
    connected = 0
    per_target = {v: [] for v in targets}
    origin = (0,) * dim
    target_keys = CubeIndex(box_radius, dim).flat(np.array(targets, dtype=np.int64).reshape(-1, dim))
    for r in range(replicas):
        f = sample_bernoulli_field(p, dim, box_radius, seed.child("chem", r))
        if f.bit(origin) != 1:
            continue
        dist = open_distances_from(f, origin)
        for v, d in zip(targets, dist[target_keys].tolist()):
            if d >= 0:
                per_target[v].append(d / l1(v))
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
