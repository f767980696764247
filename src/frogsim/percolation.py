"""Site percolation structures and the renormalized block fields.

Bernoulli fields, array labelling of clusters, chemical distances, hole
radii, and the block-level white indicator that couples occupancy and
local passage-time control.  The infinite cluster is proxied by the largest
cluster in the box; experiments that consume it keep a boundary margin to
damp finite-size bias.

Every array over a field is flat over its padded cube (``SiteField``), in
whole-array passes: the field hashes the cube one axis at a time
(``walks.cube_site_keys_np``), compares the keys with p in integers and
masks the ball with the cube's l1 norms (``lattice.cube_norms``); labelling
joins the runs of open sites along the last axis; the BFS drops repeated
keys without sorting and can stop once it reaches a set of targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import ConfigLaw, Environment, sample_environment
from .errors import COUNT, LADDER, PROBABILITY, SITES, SIZE, EmptySetError, GeometryError, require, require_site
from .lattice import Coords, CubeIndex, cube_coords, cube_norms, l1, scale, sub
from .passage import passage_times
from .stats import fit_line, wilson_ci
from .walks import PURPOSE_FIELD, SeedSpec, cube_site_keys_np, site_key, uniform01, uniform01_below_np


class SiteField:
    """A 0/1 field on the l1 ball of radius box_radius.

    ``open`` is a flat bool array over ``index``, the cube of radius
    box_radius + 1: true at the open sites of the ball, false elsewhere.
    The cube's outer layer is closed, so a site's neighbours are its key
    plus or minus a stride and an open neighbour never wraps.
    """

    def __init__(self, dim: int, box_radius: int, is_open: np.ndarray):
        self.dim = dim
        self.box_radius = box_radius
        self.index = CubeIndex(box_radius + 1, dim)
        self.open = is_open

    def in_box(self, x: Coords) -> bool:
        return l1(x) <= self.box_radius

    def bit(self, x: Coords) -> int:
        if not self.in_box(x):
            raise GeometryError(f"site {x} outside field of radius {self.box_radius}")
        return int(self.open[self.index.flat_one(x)])

    def open_coords(self) -> np.ndarray:
        """The open sites, lex order: the keys ascend in lex order of their sites."""
        return self.index.unflat(np.flatnonzero(self.open))


def sample_bernoulli_field(p: float, dim: int, box_radius: int, seed: SeedSpec) -> SiteField:
    """Independent site percolation; the same seed couples all p monotonely."""
    require("p", p, PROBABILITY)
    require("dim", dim, SIZE)
    require("box_radius", box_radius, COUNT)
    keys = cube_site_keys_np(seed.purpose_key(PURPOSE_FIELD), box_radius + 1, dim)
    is_open = uniform01_below_np(keys, p)
    is_open &= cube_norms(box_radius + 1, dim) <= box_radius
    return SiteField(dim, box_radius, is_open)


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
    is_open, index = f.open, f.index
    keys = np.flatnonzero(is_open)  # ascending, so aligned with f.open_coords()
    if keys.size == 0:
        return ClusterLabels(label=np.zeros(0, dtype=np.int32), sizes={}, largest_id=None)
    # a run of open sites along the last axis (stride 1) is connected: number
    # the runs in key order, so a run's id is below those of later runs and its
    # first site is its lowest, and join runs across the other axes' edges
    first = ~is_open[keys - 1]
    run = np.cumsum(first, dtype=np.int32)
    run -= 1
    starts = np.flatnonzero(first).astype(np.int32)  # the row of each run's first site
    run_at = np.zeros(index.size, dtype=np.int32)
    run_at[keys] = run
    lo, hi = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for s in index.strides[:-1]:
        both = keys[is_open[keys + s]]
        lo.append(run_at[both])
        hi.append(run_at[both + s])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    # hook each root to the smallest root across its edges, then jump pointers
    # until every run points at its root; once no edge joins two roots, each
    # cluster points at its smallest run.  The working arrays are int32, for
    # memory; take gathers through an int32 index faster than lab[lo] does.
    lab = np.arange(starts.size, dtype=np.int32)
    a, b = lo, hi  # the roots across each edge: at first every run is one
    while not np.array_equal(a, b):
        np.minimum.at(lab, a, b)
        np.minimum.at(lab, b, a)
        while not np.array_equal(jumped := lab.take(lab), lab):
            lab = jumped
        a, b = lab.take(lo), lab.take(hi)
    label = starts.take(lab).take(run)  # each site's cluster: the row of its smallest run's first site
    counts = np.bincount(label)
    ids = np.flatnonzero(counts)
    largest = int(np.argmax(counts))  # argmax takes the first, smallest id
    return ClusterLabels(label=label, sizes=dict(zip(ids.tolist(), counts[ids].tolist())), largest_id=largest)


def open_distances_from(f: SiteField, source: Coords, stop: np.ndarray | None = None) -> np.ndarray:
    """BFS distances inside the open set from a source site.

    Flat over ``f.index``, the cube with the closed outer layer: 0 at the
    source, -1 at sites that are closed or not reached.  ``stop``, keys of
    ``f.index``, ends the search at the first layer by which every open key
    of it has a distance; the distances of the keys in ``stop`` are then
    those of the full search, and sites farther than that layer read -1.
    An open key off the source's cluster lets the search run out.
    """
    if not f.in_box(source):
        raise GeometryError(f"site {source} outside field of radius {f.box_radius}")
    index = f.index
    steps = np.array([s * sign for s in index.strides for sign in (1, -1)])
    dist = np.full(index.size, -1, dtype=np.int64)
    free = f.open.copy()  # open and not yet reached
    frontier = np.array([index.flat_one(source)])
    dist[frontier], free[frontier] = 0, False
    pending = None if stop is None else stop[free[stop]]
    layer = 0
    while frontier.size and (pending is None or pending.size):
        layer += 1
        nxt = (frontier[:, None] + steps).ravel()
        nxt = nxt[free[nxt]]
        # drop repeats without sorting: of the slots written to a repeated key,
        # dist keeps one, and only the copy with that slot stays in the frontier
        slots = np.arange(-2, -2 - nxt.size, -1)
        dist[nxt] = slots
        frontier = nxt[dist[nxt] == slots]
        dist[frontier], free[frontier] = layer, False
        if pending is not None:
            pending = pending[free[pending]]
    return dist


def hole_radius(f: SiteField, labels: ClusterLabels) -> int:
    """Smallest l1 radius at which the ball around 0 meets the largest cluster."""
    if labels.largest_id is None:
        raise EmptySetError("field has no open sites, hole radius undefined")
    keys = np.flatnonzero(f.open)[labels.label == labels.largest_id]
    return int(cube_norms(f.index.radius, f.dim)[keys].min())


# ---------------------------------------------------------------------------
# White sites: block occupancy plus short-range passage control
# ---------------------------------------------------------------------------


def default_subbox_sides(N_ladder: Sequence[int], dim: int) -> list[int]:
    """The default sub-box side floor(N^(1/4) / 4d) at each N; GeometryError if one is 0."""
    sides = [int(N ** 0.25 / (4 * dim)) for N in N_ladder]
    small = [N for N, side in zip(N_ladder, sides) if side < 1]
    if small:
        raise GeometryError(
            f"the default sub-box side floor(N^0.25/(4d)) is 0 at white_n {small}; set white_subbox"
        )
    return sides


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
    require_site("v", v, d)
    half = default_subbox_sides([N], d)[0] if subbox_side is None else require("subbox_side", subbox_side, SIZE)
    center = scale(N, v)
    if l1(center) + d * N > env.box_radius:
        raise GeometryError("white window exceeds the sampled box")

    window = cube_coords(N, d) + np.asarray(center, dtype=np.int64)
    counts = env.counts_at(window)
    if not _tiles_occupied((counts > 0).reshape((2 * N + 1,) * d), center, N, half):
        return 0

    # condition (2): close occupied pairs connect within time N
    close_limit = N ** 0.25
    occ_list = [tuple(int(c) for c in row) for row in window[counts > 0]]
    close = [(x, [y for y in occ_list if y != x and l1(sub(y, x)) <= close_limit]) for x in occ_list]
    times = passage_times([(env, x, ys) for x, ys in close if ys], N)
    return int(all(v is not None for row in times for v in row))


def _tiles_occupied(occupied: np.ndarray, center: Coords, N: int, half: int) -> bool:
    """Condition (1): every tile of side 2*half fully inside the window meets the occupied set.

    ``occupied`` is the window's occupancy, a bool array over the cube of
    radius N around ``center``.  Tile q covers the sites (2*half*q - half,
    2*half*q + half] on each axis.  The tiles inside the window are a run
    of whole tiles per axis: crop each axis to them and split it into
    (tiles, 2*half).
    """
    side = 2 * half
    cuts, shape = [], []
    for c in center:
        first = -((N - c - half + 1) // side)  # ceil((c - N + half - 1) / side): the lowest tile inside
        tiles = max((c + N - half) // side - first + 1, 0)
        start = side * first - half + 1 - (c - N)  # its lowest site, as an index into the window
        cuts.append(slice(start, start + side * tiles))
        shape += [tiles, side]
    blocks = occupied[tuple(cuts)].reshape(shape)
    return bool(blocks.any(axis=tuple(range(1, 2 * len(center), 2))).all())


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

    Each replica samples ``law`` on the box of radius dim*N, which holds the
    white window around the origin; ``passage_times`` grows it for the
    passage condition.
    """
    require("N_ladder", N_ladder, LADDER)
    require("replicas", replicas, SIZE)
    if subbox_side is None:
        default_subbox_sides(N_ladder, require("dim", dim, SIZE))
    rows = []
    for N in N_ladder:
        hits = 0
        for r in range(replicas):
            env = sample_environment(law, dim, dim * N, seed.child(f"marginal-N{N}", r))
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


def check_targets(targets: Sequence[Coords], box_radius: int) -> None:
    """GeometryError unless the targets are distinct sites, none the origin and none inside the boundary margin."""
    if not all(any(t) for t in targets):
        raise GeometryError("a target must not be the origin, whose chemical ratio is 0/0")
    if len({tuple(t) for t in targets}) < len(targets):
        raise GeometryError("each target must be listed once: a repeated one would count its pairs twice")
    margin = boundary_margin(box_radius)
    for t in targets:
        if l1(t) > box_radius - margin:
            raise GeometryError(
                f"target {tuple(t)} lies inside the boundary margin of {margin}: "
                f"its l1 norm must be at most radius - margin = {box_radius - margin}"
            )


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
    require("replicas", replicas, SIZE)
    margin = boundary_margin(box_radius)
    fields = (sample_bernoulli_field(p, dim, box_radius, seed.child("hole", r)) for r in range(replicas))
    radii = [hole_radius(f, label_clusters(f)) for f in fields]
    usable = [rad for rad in radii if rad <= box_radius - margin]
    max_r = max(usable) if usable else 0
    tail, logs_x, logs_y = [], [], []
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
    """Ratio of chemical distance to l1 distance on connected origin-target pairs.

    A replica whose origin is closed connects nothing: its origin's bit is
    read alone, as ``sample_bernoulli_field`` would set it, and its field is
    never sampled.
    """
    require("p", p, PROBABILITY)
    require("targets", targets, SITES)
    for v in targets:
        require_site("targets", v, dim)
    require("replicas", replicas, SIZE)
    check_targets(targets, require("box_radius", box_radius, COUNT))
    rows = []
    overall = 0.0
    connected = 0
    per_target = {v: [] for v in targets}
    origin = (0,) * dim
    target_keys = CubeIndex(box_radius + 1, dim).flat(np.array(targets, dtype=np.int64).reshape(-1, dim))
    for r in range(replicas):
        child = seed.child("chem", r)
        if not uniform01(site_key(child, PURPOSE_FIELD, origin)) < p:
            continue
        f = sample_bernoulli_field(p, dim, box_radius, child)
        dist = open_distances_from(f, origin, stop=target_keys)
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
