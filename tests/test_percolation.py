import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import env_from_counts
from frogsim.environment import ConfigLaw, sample_environment
from frogsim.errors import EmptySetError, GeometryError
from frogsim.lattice import add, ball_coords, l1, step_vectors
from frogsim.percolation import (
    chemical_ratio_experiment,
    field_from_indicator,
    hole_radius,
    hole_radius_experiment,
    label_clusters,
    open_distances_from,
    sample_bernoulli_field,
    white_marginal_curve,
    white_site_indicator,
)
from frogsim.walks import SeedSpec


def ones_field(radius=6):
    vals = {tuple(int(c) for c in row): 1 for row in ball_coords(radius, 2).tolist()}
    return field_from_indicator(2, radius, vals, "ones")


def test_bernoulli_extremes():
    f1 = sample_bernoulli_field(1.0, 2, 5, SeedSpec(1))
    assert f1.open_coords().shape[0] == ball_coords(5, 2).shape[0]
    f0 = sample_bernoulli_field(0.0, 2, 5, SeedSpec(1))
    assert f0.open_coords().shape[0] == 0


def test_bernoulli_frequency():
    f = sample_bernoulli_field(0.7, 2, 158, SeedSpec(2, "freq"))
    n = ball_coords(158, 2).shape[0]
    occ = f.open_coords().shape[0]
    sigma = math.sqrt(n * 0.7 * 0.3)
    assert abs(occ - 0.7 * n) <= 5 * sigma


def test_monotone_coupling_in_p():
    # same seed: raising p only adds open sites
    lo = sample_bernoulli_field(0.4, 2, 20, SeedSpec(3, "couple"))
    hi = sample_bernoulli_field(0.6, 2, 20, SeedSpec(3, "couple"))
    lo_open = {tuple(r) for r in lo.open_coords().tolist()}
    hi_open = {tuple(r) for r in hi.open_coords().tolist()}
    assert lo_open <= hi_open


def test_label_clusters_all_open():
    f = ones_field(4)
    labels = label_clusters(f)
    assert len(labels.sizes) == 1
    assert labels.sizes[labels.largest_id] == ball_coords(4, 2).shape[0]


def test_label_clusters_empty():
    f = field_from_indicator(2, 3, {}, "empty")
    labels = label_clusters(f)
    assert labels.sizes == {}
    assert labels.largest_id is None
    with pytest.raises(EmptySetError):
        hole_radius(f, labels)


def test_label_clusters_two_components():
    # a 5x5 window: a size-4 square far from a size-3 bar
    opens = {(-2, -2): 1, (-2, -1): 1, (-1, -2): 1, (-1, -1): 1, (2, 2): 1, (2, 1): 1, (2, 0): 1}
    f = field_from_indicator(2, 4, opens, "fixture")
    labels = label_clusters(f)
    sizes = sorted(labels.sizes.values())
    assert sizes == [3, 4]
    assert labels.sizes[labels.largest_id] == 4


def test_largest_cluster_tie_takes_lex_smallest_lowest_site():
    # two clusters of size 6 at hole radii 2 and 4; the union-find this
    # replaced picked the far one by its root, the rule picks the lowest site
    near = [(0, -2), (1, -3), (1, -2), (2, -4), (2, -3), (3, -3)]
    far = [(0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (2, 3)]
    f = field_from_indicator(2, 6, {x: 1 for x in near + far}, "tie")
    labels = label_clusters(f)
    assert sorted(labels.sizes.values()) == [6, 6]
    rows = [tuple(r) for r in f.open_coords().tolist()]
    assert rows[labels.largest_id] == (0, -2)
    assert hole_radius(f, labels) == 2


def test_chemical_distance_cases():
    f = ones_field(6)
    dist = open_distances_from(f, (0, 0))
    assert dist[f.index.flat_one((0, 0))] == 0
    assert dist[f.index.flat_one((3, -2))] == 5
    closed = field_from_indicator(2, 4, {(0, 0): 1, (1, 1): 1}, "gap")
    dist = open_distances_from(closed, (0, 0))
    assert dist[closed.index.flat_one((1, 1))] == -1  # open, not reached
    assert dist[closed.index.flat_one((2, 0))] == -1  # closed


def test_chemical_at_least_l1():
    f = sample_bernoulli_field(0.75, 2, 20, SeedSpec(4, "chem"))
    dist = open_distances_from(f, (0, 0))
    for target in [(5, 0), (3, 3), (-6, 2)]:
        d = dist[f.index.flat_one(target)]
        if d >= 0:
            assert d >= l1(target)


def test_hole_radius_cases():
    opens = {(0, 0): 1, (0, 1): 1, (1, 0): 1}
    f = field_from_indicator(2, 4, opens, "origin-in")
    labels = label_clusters(f)
    assert hole_radius(f, labels) == 0

    shifted = {(2, 1): 1, (3, 1): 1, (2, 2): 1, (0, 0): 0}
    f2 = field_from_indicator(2, 5, shifted, "shifted")
    labels2 = label_clusters(f2)
    assert hole_radius(f2, labels2) == 3


def test_white_dense_fixture():
    env = sample_environment(ConfigLaw.constant(40), 2, 30, SeedSpec(11, "white"))
    assert white_site_indicator(env, (0, 0), N=4, subbox_side=1) == 1


def test_white_sparse_fixture():
    env = sample_environment(ConfigLaw.bernoulli(0.05), 2, 30, SeedSpec(12, "white"))
    assert white_site_indicator(env, (0, 0), N=4, subbox_side=1) == 0


def test_white_empty_tile_fails():
    env = env_from_counts(2, 30, {(0, 0): 50})
    assert white_site_indicator(env, (0, 0), N=4, subbox_side=1) == 0


def test_white_default_subbox_guard():
    env = sample_environment(ConfigLaw.constant(40), 2, 30, SeedSpec(11, "white"))
    with pytest.raises(GeometryError):
        white_site_indicator(env, (0, 0), N=4)  # default floor(N^0.25/8) = 0


def test_white_geometry_guard():
    env = sample_environment(ConfigLaw.constant(40), 2, 6, SeedSpec(11, "white"))
    with pytest.raises(GeometryError):
        white_site_indicator(env, (0, 0), N=4, subbox_side=1)


def test_white_locality():
    # states outside B_1(0, 2N) cannot change the indicator
    N = 4
    seed = SeedSpec(11, "white")
    env = sample_environment(ConfigLaw.constant(40), 2, 30, seed)
    tampered = dict()
    for row in ball_coords(30, 2).tolist():
        x = tuple(row)
        tampered[x] = 40 if l1(x) <= 2 * N else (7 if (x[0] + x[1]) % 2 else 0)
    env2 = env_from_counts(2, 30, tampered, seed=seed)
    assert white_site_indicator(env, (0, 0), N, subbox_side=1) == white_site_indicator(
        env2, (0, 0), N, subbox_side=1
    )


def test_white_marginal_reports():
    # desk-scale white marginals: the passage condition dominates and the
    # curve may sit at zero; the report still carries counts and intervals
    rows = white_marginal_curve(
        ConfigLaw.poisson(1.0), 2, [5, 7], replicas=6, seed=SeedSpec(2, "wm"), subbox_side=2
    )
    assert [r.N for r in rows] == [5, 7]
    for r in rows:
        assert r.replicas == 6
        assert 0.0 <= r.phat <= 1.0
        assert r.ci_lo <= r.phat <= r.ci_hi


def test_hole_radius_experiment_smoke():
    rep = hole_radius_experiment(0.8, 2, 60, 120, SeedSpec(5, "hole"))
    assert rep.margin == 6
    assert len(rep.radii) == 120
    assert rep.tail[0][0] == 0 and rep.tail[0][2] == 1.0
    if not math.isnan(rep.fitted_log_slope):
        assert rep.fitted_log_slope < 0


def test_chemical_ratio_experiment_smoke():
    rep = chemical_ratio_experiment(0.85, 2, 40, [(15, 0), (0, 15)], 40, SeedSpec(6, "chem"))
    assert rep.connected_pairs > 0
    assert rep.max_ratio >= 1.0
    with pytest.raises(GeometryError):
        chemical_ratio_experiment(0.85, 2, 40, [(39, 0)], 5, SeedSpec(6, "chem"))


# ---------------------------------------------------------------------------
# Differential check: the array labelling and BFS against site-by-site oracles
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union by size with path compression over flat indices."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def neighbors(x):
    """The 2d nearest neighbours of x."""
    return [add(x, tuple(v)) for v in step_vectors(len(x)).tolist()]


def _oracle_clusters(f):
    """The open clusters as sets of sites, by union-find over neighbour pairs."""
    sites = [tuple(r) for r in f.open_coords().tolist()]
    index_of = {x: i for i, x in enumerate(sites)}
    uf = _UnionFind(len(sites))
    for x in sites:
        for w in neighbors(x):
            if w in index_of:
                uf.union(index_of[x], index_of[w])
    clusters = {}
    for x in sites:
        clusters.setdefault(uf.find(index_of[x]), set()).add(x)
    return [frozenset(c) for c in clusters.values()]


def _oracle_distances(f, source):
    """BFS over a dict of sites, one neighbour at a time."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w in dist or not f.in_box(w) or f.bit(w) != 1:
                    continue
                dist[w] = dist[u] + 1
                nxt.append(w)
        frontier = nxt
    return dist


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3), st.integers(0, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.data()
)
def test_array_percolation_matches_oracles(dim, radius, p, seed, data):
    f = sample_bernoulli_field(p, dim, radius, SeedSpec(seed, "diff"))
    labels = label_clusters(f)
    sites = [tuple(r) for r in f.open_coords().tolist()]
    assert len(labels.label) == len(sites)
    clusters = {}
    for x, lab in zip(sites, labels.label.tolist()):
        clusters.setdefault(lab, set()).add(x)
    expected = _oracle_clusters(f)
    assert {frozenset(c) for c in clusters.values()} == set(expected)
    # a cluster's id is the row of its lowest site, and sizes count its sites
    assert labels.sizes == {sites.index(min(c)): len(c) for c in expected}
    if not expected:
        assert labels.largest_id is None
    else:
        largest = min(expected, key=lambda c: (-len(c), min(c)))
        assert clusters[labels.largest_id] == largest
        assert hole_radius(f, labels) == min(l1(x) for x in largest)

    cube = [tuple(r) for r in ball_coords(radius, dim).tolist()]
    source = data.draw(st.sampled_from(cube))
    dist = open_distances_from(f, source)
    assert dist.shape == (f.index.size,)
    reached = {f.index.unflat_one(int(k)): int(dist[k]) for k in np.flatnonzero(dist >= 0)}
    assert reached == _oracle_distances(f, source)
