from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import LAWS, dense_first_hits, dense_tau, env_from_counts, row_extent_is
from frogsim import passage, truncated
from frogsim.environment import ConfigLaw, condition_origin, sample_environment, star
from frogsim.errors import SearchCapError
from frogsim.lattice import Coords, CubeIndex, add, ball_coords, cube_coords, l1, linf, sub
from frogsim.passage import build_rows, offset_index, passage_times, simulate_frogs
from frogsim.truncated import (
    TruncatedResult,
    TruncationParams,
    _array_search,
    _relay_radius,
    _staircase,
    _visits,
    agreement_experiment,
    box_count_bound,
    box_of,
    geodesic_box_count,
    sigma_t,
    truncated_passage,
)
from frogsim.walks import SeedSpec


def poisson_env(seed=42, radius=60, tag="trunc"):
    return sample_environment(ConfigLaw.poisson(1.0), 2, radius, SeedSpec(seed, tag))


def test_params_factory():
    p = TruncationParams.make(4, 2, c4_hat=10.0, gamma=1.0)
    assert p.K == 25
    assert p.K > 2 * (10.0 + 1.0 + 1.0)
    assert p.cap == 400


def test_sigma_long_range_no_simulation():
    env = env_from_counts(2, 30, {})  # no frogs anywhere: tau would censor
    p = TruncationParams.make(3, 2, c4_hat=1.0)
    gap = p.t + 1
    assert sigma_t(env, (0, 0), (gap, 0), p) == 4 * p.K * gap


def test_sigma_self_zero_and_empty_cap():
    env = env_from_counts(2, 30, {(0, 0): 1})
    p = TruncationParams.make(3, 2, c4_hat=1.0)
    assert sigma_t(env, (0, 0), (0, 0), p) == 0
    # unoccupied start within the short range pays the full cap
    assert sigma_t(env, (1, 0), (2, 0), p) == p.cap


def test_sigma_sandwich_random_pairs():
    env = poisson_env()
    p = TruncationParams.make(4, 2, c4_hat=10.0)
    rng = np.random.default_rng(0)
    for _ in range(80):
        x = tuple(int(v) for v in rng.integers(-6, 7, 2))
        y = tuple(int(v) for v in rng.integers(-6, 7, 2))
        s = sigma_t(env, x, y, p)
        assert l1(sub(y, x)) <= s <= 4 * p.K * max(p.t, linf(sub(y, x)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 2), st.integers(0, 6), st.sampled_from(LAWS), st.integers(0, 2**32),
    st.integers(1, 3), st.floats(0.0, 3.0), st.data(),
)
def test_sigma_sandwich_tiny_environments(dim, radius, law, seed, t, c4_hat, data):
    env = sample_environment(law, dim, radius, SeedSpec(seed, "sandwich"))
    p = TruncationParams.make(t, dim, c4_hat)
    x = data.draw(st.sampled_from([tuple(v) for v in ball_coords(radius, dim).tolist()]))
    # offsets up to 2t + 1 reach both short edges and long ones
    y = add(x, data.draw(st.tuples(*[st.integers(-2 * t - 1, 2 * t + 1)] * dim)))
    s = sigma_t(env, x, y, p)
    assert l1(sub(y, x)) <= s <= 4 * p.K * max(p.t, linf(sub(y, x)))


def _check_ball_row(env, u, p):
    # the price of every short edge from u is the dense walker's hitting time, capped
    for off in cube_coords(p.t, env.dim).tolist():
        hit = dense_tau(env, u, add(u, off), p.cap)
        assert sigma_t(env, u, add(u, off), p) == (p.cap if hit is None else hit)


def test_sigma_reads_the_row_at_t():
    # a short edge is priced from u's row at (t, 4Kt), the row the search relaxes, not
    # from a row laid out on the whole (4Kt, 4Kt) cube
    env = condition_origin(poisson_env(seed=5, radius=40))
    p = TruncationParams.make(2, 2, c4_hat=1.0)
    sigma_t(env, (0, 0), (1, 0), p)
    assert row_extent_is(env, (0, 0), p.t, p.cap)


BALL_ROW_STARTS = [(0, 0), (1, 0), (0, 1), (-1, -1), (2, 3), (-3, 1)]


@pytest.mark.parametrize(
    "order",
    [[(3, None)], [(6, None), (3, None)], [(2, None), (5, None)], [(3, 4), (3, None)]],
    ids=["direct", "from-larger-t", "smaller-t-first", "horizon-growth"],
)
def test_ball_row_matches_tau(order):
    # a row is built at the largest (t, horizon) asked for and filtered for smaller ones;
    # a larger t, or a longer horizon, after a smaller one must rebuild it.  A horizon of
    # None asks for the full cap; a short one is what a search under a tight bound builds
    env = condition_origin(poisson_env(seed=5, radius=40))
    occupied = [u for u in BALL_ROW_STARTS if env.omega(u) >= 1]
    assert 0 < len(occupied) < len(BALL_ROW_STARTS)
    for t, horizon in order:
        p = TruncationParams.make(t, 2, c4_hat=1.0)
        if horizon is None:
            for u in BALL_ROW_STARTS:
                _check_ball_row(env, u, p)
        else:
            build_rows(env, dict.fromkeys(occupied, (t, horizon)))
            assert all(row_extent_is(env, u, t, horizon) for u in occupied)
    top = TruncationParams.make(max(t for t, _ in order), 2, c4_hat=1.0)
    assert all(row_extent_is(env, u, top.t, top.cap) for u in occupied)


@pytest.mark.parametrize("law", [ConfigLaw.poisson(1.0), ConfigLaw.bernoulli(0.5)], ids=["poisson", "bernoulli"])
def test_row_cache_across_t_ladder(law):
    # the agreement order, then the largest t again, on one shared environment: rows that a
    # search at a large t built to a short horizon must grow when a smaller t needs them longer
    ladder = [TruncationParams.make(t, 2, c4_hat=1.0) for t in (16, 8, 4, 2, 1, 16)]

    def realization(r):
        env = condition_origin(sample_environment(law, 2, 30, SeedSpec(r, "ladder")))
        x, y = star(env, (0, 0)), star(env, (5, 0))
        return env.with_radius(max(_relay_radius(x, y, p) for p in ladder)), x, y

    for r in range(15):
        shared, x, y = realization(r)
        for p in ladder:
            fresh = realization(r)[0]
            assert truncated_passage(shared, x, y, p) == dict_truncated_passage(fresh, x, y, p), (r, p.t)


def test_truncated_identity():
    env = poisson_env()
    p = TruncationParams.make(2, 2, c4_hat=5.0)
    res = truncated_passage(env, (3, 3), (3, 3), p)
    assert res.value == 0
    assert res.witness == ((3, 3),)


def test_truncated_within_sandwich():
    env = poisson_env(seed=9)
    p = TruncationParams.make(2, 2, c4_hat=5.0)
    x, y = (0, 0), (5, -2)
    res = truncated_passage(env, x, y, p)
    assert l1(sub(y, x)) <= res.value <= 4 * p.K * max(p.t, linf(sub(y, x)))


def test_truncated_matches_exhaustive_oracle():
    checked = 0
    for trial in range(300):
        env = sample_environment(ConfigLaw.constant(2), 2, 40, SeedSpec(300 + trial, "tiny"))
        p = TruncationParams.make(3, 2, c4_hat=0.5)
        if sigma_t(env, (0, 0), (1, 0), p) > 4:
            continue
        try:
            oracle = exhaustive_truncated_oracle(env, (0, 0), (1, 0), p, node_cap=12)
        except SearchCapError:
            continue
        res = truncated_passage(env, (0, 0), (1, 0), p)
        assert res.value == oracle
        checked += 1
    assert checked >= 50


def test_truncated_fixed_seed_pin():
    env = condition_origin(poisson_env(seed=21, radius=60, tag="tfix"))
    p = TruncationParams.make(4, 2, c4_hat=10.0)
    res = truncated_passage(env, (0, 0), (5, 0), p)
    assert res.value == 7
    assert res.witness == ((0, 0), (2, 0), (3, 1), (5, 0))


def test_truncated_deterministic_witness():
    env = poisson_env(seed=13)
    p = TruncationParams.make(2, 2, c4_hat=5.0)
    a = truncated_passage(env, (0, 0), (6, 1), p)
    b = truncated_passage(env, (0, 0), (6, 1), p)
    assert a.value == b.value
    assert a.witness == b.witness


def test_tiling_examples():
    assert box_of((0, 0), 4) == (0, 0)
    assert box_of((4, 0), 4) == (1, 0)
    # half-open convention: coordinate t/2 belongs to the box below
    assert box_of((2, 2), 4) == (0, 0)
    assert box_of((3, 0), 4) == (1, 0)
    assert box_of((-2, 0), 4) == (-1, 0)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_tiling_partition(t):
    for row in ball_coords(3 * t, 2).tolist():
        z = tuple(row)
        q = box_of(z, t)
        for zi, qi in zip(z, q):
            off = zi - t * qi
            assert -t / 2 < off <= t / 2


def test_geodesic_box_count():
    assert geodesic_box_count([(0, 0)], 4) == 1
    assert geodesic_box_count([(0, 0), (1, 1), (2, 0)], 4) == 1
    assert geodesic_box_count([(0, 0), (4, 0)], 4) == 2


def test_box_count_bound_on_sampled_geodesics():
    p = TruncationParams.make(2, 2, c4_hat=2.0)
    for trial in range(25):
        env = sample_environment(ConfigLaw.poisson(1.0), 2, 45, SeedSpec(900 + trial, "boxes"))
        x = (6, 0)
        s0 = star(env, (0, 0))
        sx = star(env, x)
        res = truncated_passage(env, s0, sx, p)
        count = geodesic_box_count(res.witness, p.t)
        assert count <= box_count_bound(p, x)


def test_agreement_experiment_large_t_no_disagreement():
    table = agreement_experiment(
        ConfigLaw.poisson(1.0), (4, 0), [16], replicas=25, seed=SeedSpec(31, "agree"),
        mu_hat=2.4,
    )
    row = table.rows[0]
    assert row.t == 16
    assert row.replicas > 0
    assert row.disagreements == 0


def test_agreement_experiment_monotone_rows():
    table = agreement_experiment(
        ConfigLaw.poisson(1.0), (6, 0), [1, 4, 16], replicas=30, seed=SeedSpec(32, "agree2"),
        mu_hat=2.4,
    )
    by_t = {r.t: r for r in table.rows}
    assert by_t[1].phat >= by_t[16].phat
    for r in table.rows:
        assert r.max_box_count <= r.max_box_bound


def test_agreement_table_totals_the_search_work(monkeypatch):
    # per t, the table sums settled and relaxations over the searches it compared
    seen = []
    search = truncated.truncated_passage

    def recorded(env, x, y, p, visits=None):
        seen.append((p.t, search(env, x, y, p, visits)))
        return seen[-1][1]

    monkeypatch.setattr(truncated, "truncated_passage", recorded)
    table = agreement_experiment(ConfigLaw.poisson(1.0), (4, 0), [2, 8], 6, SeedSpec(5, "work"), mu_hat=2.0)
    for t in (2, 8):
        assert table.settled[t] == sum(res.settled for s, res in seen if s == t) > 0
        assert table.relaxations[t] == sum(res.relaxations for s, res in seen if s == t) > 0


def test_relay_chain_bound_halves_the_row_walks(monkeypatch):
    # the staircase prices its hops at the cap, 4Kt, unless a frog hits, so without the engine's
    # guess the search walks rows that deep: 55,623 walk steps before the relay chain seeded the
    # bound, 18,245 with it, 4,178 with the array path run to its certificate, and 2,269 with
    # the guess read off the visits and their first rows built no deeper than T(y)
    steps = []
    ball_pass = passage._ball_pass

    def counted(env, todo):
        steps.extend(h * env.omega(u) for u, _, h, _ in todo)
        return ball_pass(env, todo)

    monkeypatch.setattr(passage, "_ball_pass", counted)
    agreement_experiment(ConfigLaw.poisson(1.0), (8, 0), [4, 8, 16], 4, SeedSpec(0, "relay-bound"), mu_hat=2.0)
    assert 0 < sum(steps) <= 55_623 // 2


def test_visit_prefetch_builds_the_rows_before_the_search(monkeypatch):
    # below 4Kt each search's rows come from the engine's visits in one pass before it starts:
    # 104 passes and 25,974 walk steps before the prefetch (68 of the passes inside t = 16
    # searches), 16 passes and 26,698 steps with it, 9 and 12,476 with the array path, 8 and
    # 10,912, none inside the heap, with the array path run to its certificate, and 7 and
    # 6,676 with the first rows built no deeper than T(y)
    passes, steps, searching = [], [], []
    ball_pass, search = passage._ball_pass, truncated._search

    def counted(env, todo):
        passes.append(searching[-1] if searching else None)
        steps.extend(h * env.omega(u) for u, _, h, _ in todo)
        return ball_pass(env, todo)

    def tagged(env, index, x, y, p, *args):
        searching.append(p.t)
        try:
            return search(env, index, x, y, p, *args)
        finally:
            searching.pop()

    monkeypatch.setattr(passage, "_ball_pass", counted)
    monkeypatch.setattr(truncated, "_search", tagged)
    agreement_experiment(ConfigLaw.poisson(1.0), (8, 0), [4, 8, 16], 4, SeedSpec(0, "prefetch"), mu_hat=2.0)
    assert 16 not in passes
    assert 0 < len(passes) <= 104 // 2
    assert 0 < sum(steps) <= 25_974 * 11 // 10


def test_array_search_answers_most_searches(monkeypatch):
    # below 4Kt the array path answers whenever T_t <= g, and the heap runs once when it
    # declines: 12 of these 12 searches were answered
    answers, heaps = [], []
    array, search = truncated._array_search, truncated._search

    def counted(*args):
        answers.append(array(*args))
        return answers[-1]

    monkeypatch.setattr(truncated, "_array_search", counted)
    monkeypatch.setattr(truncated, "_search", lambda *args: heaps.append(args) or search(*args))
    agreement_experiment(ConfigLaw.poisson(1.0), (8, 0), [4, 8, 16], 4, SeedSpec(0, "array-path"), mu_hat=2.0)
    assert len(answers) == 12
    assert sum(res is not None for res in answers) >= 11
    assert len(heaps) == sum(res is None for res in answers)


def test_the_heap_runs_once_and_only_above_the_guess(monkeypatch):
    # the array path answers every search with T_t <= g and proves T_t > g otherwise, so the
    # heap runs at most once per search, under the proven bound.  On this ladder it runs at
    # t = 1 (4 times in 4 searches) and never at t = 4, where 2 of the 4 searches disagree
    runs = []
    search, heap = truncated.truncated_passage, truncated._search

    def counted_search(env, x, y, p, visits=None):
        runs.append([p.t, 0])
        return search(env, x, y, p, visits)

    def counted_heap(*args):
        runs[-1][1] += 1
        return heap(*args)

    monkeypatch.setattr(truncated, "truncated_passage", counted_search)
    monkeypatch.setattr(truncated, "_search", counted_heap)
    table = agreement_experiment(ConfigLaw.poisson(1.0), (8, 0), [1, 4], 4, SeedSpec(4, "one-heap"), mu_hat=2.0)
    assert len(runs) == 8 and max(n for _, n in runs) == 1
    assert sum(n for t, n in runs if t == 1) > 0
    assert sum(n for t, n in runs if t == 4) == 0
    assert [row.disagreements for row in table.rows if row.t == 4] == [2]


def test_checked_guess_cuts_the_row_walks(monkeypatch):
    # a t = 4 search whose proven bound sits far above the engine's passage time first searches
    # under twice that time, so it reads rows only about that deep: 53,756 walk steps when every
    # search started from the proven bound, 25,384 with the checked guess, 10,351 with the array
    # path run to its certificate, and 5,712 with the first rows built no deeper than T(y)
    steps = []
    ball_pass = passage._ball_pass

    def counted(env, todo):
        steps.extend(h * env.omega(u) for u, _, h, _ in todo)
        return ball_pass(env, todo)

    monkeypatch.setattr(passage, "_ball_pass", counted)
    agreement_experiment(ConfigLaw.poisson(1.0), (8, 0), [4, 8, 16], 4, SeedSpec(0, "checked-guess"), mu_hat=2.0)
    assert 0 < sum(steps) <= 53_756 * 3 // 4


# ---------------------------------------------------------------------------
# Oracles: the A* on tuple keys and dicts, and brute-force Bellman-Ford
# ---------------------------------------------------------------------------


def _sigma_row(env, u, p):
    """sigma(u, .) over the l-infinity ball of radius t around u, from the dense walker."""
    offs = cube_coords(p.t, env.dim)
    weights = np.full(offs.shape[0], p.cap, dtype=np.int64)
    if env.omega(u) >= 1:
        sites, times = dense_first_hits(env, u, p.cap)
        keys = offset_index(p.cap, env.dim).flat(offs)
        pos = np.searchsorted(sites, keys)
        if sites.shape[0]:
            pos = np.clip(pos, 0, sites.shape[0] - 1)
            found = sites[pos] == keys
            weights[found] = times[pos[found]]
    return offs, weights


def _linf_annulus(center, lo, hi):
    if hi < lo:
        return []
    offs = cube_coords(hi, len(center))
    norms = np.abs(offs).max(axis=1)
    offs = offs[(norms >= lo) & (norms <= hi)]
    return [tuple(int(c) for c in row) for row in offs + np.asarray(center, dtype=np.int64)]


def dict_truncated_passage(env, x: Coords, y: Coords, p) -> TruncatedResult:
    """The A* on tuple keys: dicts of sites, per-candidate relaxation, dense-walker weights."""
    if x == y:
        return TruncatedResult(0, (x,), 0, 0, 0)
    stair = _staircase(x, y, p.t)
    direct = sigma_t(env, x, y, p)
    ub = min(sum(sigma_t(env, a, b, p) for a, b in zip(stair[:-1], stair[1:])), direct)
    dist = {x: 0, y: direct}
    parent = {y: x}
    edge_kind = {y: linf(sub(y, x)) > p.t}  # True when reached through a long edge
    settled = set()
    heap = [(l1(sub(y, x)), 0, x)]
    heappush(heap, (direct, direct, y))
    relaxations = 0
    while heap:
        _, d_u, u = heappop(heap)
        if u in settled or d_u > dist.get(u, 1 << 62):
            continue
        settled.add(u)
        if u == y:
            break
        offs, weights = _sigma_row(env, u, p)
        vpts = offs + np.asarray(u, dtype=np.int64)
        nd_all = d_u + weights
        h_all = np.abs(vpts - np.asarray(y, dtype=np.int64)).sum(axis=1)
        keep = (nd_all + h_all <= ub) & np.any(offs, axis=1)
        relaxations += offs.shape[0]
        for row, nd in zip(vpts[keep].tolist(), nd_all[keep].tolist()):
            v = tuple(row)
            if nd >= dist.get(v, 1 << 62):
                continue
            dist[v], parent[v], edge_kind[v] = nd, u, False
            if v == y:
                ub = min(ub, nd)
            heappush(heap, (nd + l1(sub(y, v)), nd, v))
        gap_goal = linf(sub(y, u))
        if gap_goal > p.t:
            nd = d_u + 4 * p.K * gap_goal
            if nd <= ub and nd < dist.get(y, 1 << 62):
                dist[y], parent[y], edge_kind[y] = nd, u, True
                ub = min(ub, nd)
                heappush(heap, (nd, nd, y))
        max_len = (ub - d_u) // (4 * p.K)
        if max_len > p.t:
            for v in _linf_annulus(u, p.t + 1, min(max_len, p.cap)):
                nd = d_u + 4 * p.K * linf(sub(v, u))
                h = l1(sub(y, v))
                relaxations += 1
                if nd + h > ub or nd >= dist.get(v, 1 << 62):
                    continue
                dist[v], parent[v], edge_kind[v] = nd, u, True
                if v == y:
                    ub = min(ub, nd)
                heappush(heap, (nd + h, nd, v))
    chain, long_used = [y], 0
    while chain[-1] != x:
        long_used += edge_kind[chain[-1]]
        chain.append(parent[chain[-1]])
    return TruncatedResult(int(dist[y]), tuple(reversed(chain)), long_used, len(settled), relaxations)


def exhaustive_truncated_oracle(env, x: Coords, y: Coords, p, node_cap: int = 10) -> int:
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2), st.integers(0, 6), st.sampled_from(LAWS), st.integers(0, 2**32),
    st.integers(1, 4), st.floats(0.0, 3.0), st.data(),
)
def test_truncated_matches_dict_oracle(dim, radius, law, seed, t, c4_hat, data):
    env = sample_environment(law, dim, radius, SeedSpec(seed, "dict-astar"))
    p = TruncationParams.make(t, dim, c4_hat)
    x = data.draw(st.sampled_from([tuple(v) for v in ball_coords(radius, dim).tolist()]))
    y = add(x, data.draw(st.tuples(*[st.integers(-2 * t - 1, 2 * t + 1)] * dim)))
    env = env.with_radius(_relay_radius(x, y, p))  # the same realization, on a box the search fits
    assert truncated_passage(env, x, y, p) == dict_truncated_passage(env, x, y, p)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3), st.sampled_from([ConfigLaw.poisson(1.0), ConfigLaw.poisson(2.5), ConfigLaw.bernoulli(0.5),
                                         ConfigLaw.bernoulli(0.8)]),
    st.integers(0, 2**32), st.data(),
)
def test_relay_chain_hops_take_their_hitting_times(dim, law, seed, data):
    # every frog of a wakes at T(a), and b's first visitor was one of them, so each hop of the
    # engine's genealogy takes exactly tau(a, b) = T(b) - T(a)
    env = condition_origin(sample_environment(law, dim, 4, SeedSpec(seed, "hops")))
    x, horizon = (0,) * dim, 40
    y = data.draw(st.tuples(*[st.integers(-5, 5)] * dim))
    env = env.with_radius(horizon)  # holds every site the frogs reach
    table = simulate_frogs(env, x, horizon, [y])
    assume(table.visit_time(y) is not None)
    chain = table.genealogy(y)
    for a, b in zip(chain, chain[1:]):
        assert passage.tau(env, a, b, horizon) == table.visit_time(b) - table.visit_time(a)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3), st.sampled_from([ConfigLaw.poisson(1.0), ConfigLaw.poisson(2.5), ConfigLaw.bernoulli(0.5),
                                         ConfigLaw.bernoulli(0.8)]),
    st.integers(0, 2**32), st.integers(1, 16), st.floats(0.0, 2.0), st.data(),
)
def test_relay_chain_bound_keeps_the_search(dim, law, seed, t, c4_hat, data):
    # each hint only guesses the first bound.  The engine's visits, which hold its relay chain,
    # guess twice T(y), at least the value whenever T_t = T(y); the bogus hint, with times 0,
    # guesses below the optimum, so its search must fall back to the proven bound.  Only
    # relaxations may move
    env = condition_origin(sample_environment(law, dim, 4, SeedSpec(seed, "hint")))
    p = TruncationParams.make(t, dim, c4_hat)
    x, horizon = (0,) * dim, 40
    y = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    (engine,), = passage_times([(env, x, [y])], horizon, _visits)
    bogus = np.asarray([x, *data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=3)), y])
    env = env.with_radius(max(_relay_radius(x, y, p), horizon))  # a box that holds both hints

    def result(res):
        return res.value, res.witness, res.long_edges_used, res.settled

    want = result(truncated_passage(env, x, y, p))
    assert result(dict_truncated_passage(env, x, y, p)) == want
    for hint in filter(None, [engine, (bogus, np.zeros(bogus.shape[0], dtype=np.int64))]):
        assert result(truncated_passage(env, x, y, p, visits=hint)) == want


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3), st.sampled_from([ConfigLaw.poisson(1.0), ConfigLaw.poisson(2.5), ConfigLaw.bernoulli(0.5),
                                         ConfigLaw.bernoulli(0.8)]),
    st.integers(0, 2**32), st.integers(1, 16), st.floats(0.0, 2.0), st.data(),
)
def test_visit_prefetch_keeps_the_search(dim, law, seed, t, c4_hat, data):
    # the engine's visits choose the rows built before the search, and their largest time T(y)
    # the guess: with only x and y, or with times shifted by 1-3 either way, half the sites
    # dropped and an unvisited site added, but (y, T(y)) kept as the largest time, no field of
    # the result may move
    env = condition_origin(sample_environment(law, dim, 4, SeedSpec(seed, "visits")))
    p = TruncationParams.make(t, dim, c4_hat)
    x, horizon = (0,) * dim, 40
    y = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    table = simulate_frogs(env.with_radius(horizon), x, horizon, [y])
    visits = _visits(table, y)
    assume(visits is not None)
    sites, times = visits
    T = table.visit_time(y)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    keep = np.sort(rng.permutation(times.shape[0])[: -(-times.shape[0] // 2)])
    # an unvisited site: near the origin, or one step past the frogs' reach at T(y)
    far = (T + 1,) + (0,) * (dim - 1)
    z = data.draw(st.sampled_from([z for z in map(tuple, cube_coords(3, dim).tolist())
                                   if table.visit_time(z) is None] + [far]))
    shifted = np.append(times[keep] + rng.choice([-3, -2, -1, 1, 2, 3], keep.shape[0]), data.draw(st.integers(0, 3)))
    wrong = np.concatenate([sites[keep], [z, y]]), np.append(np.minimum(shifted, T), T)
    radius = max(_relay_radius(x, y, p), horizon + 1)  # holds the visits and the unvisited site
    want = truncated_passage(env.with_radius(radius), x, y, p, visits=([x, y], [0, T]))
    for hint in (visits, wrong):
        assert truncated_passage(env.with_radius(radius), x, y, p, visits=hint) == want


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 3), st.sampled_from([ConfigLaw.poisson(1.0), ConfigLaw.poisson(2.5), ConfigLaw.bernoulli(0.5),
                                         ConfigLaw.bernoulli(0.8)]),
    st.integers(0, 2**32), st.integers(1, 16), st.floats(0.0, 2.0), st.data(),
)
def test_array_search_answers_exactly_or_declines(dim, law, seed, t, c4_hat, data):
    # below 4Kt array relaxations stand in for the heap.  Whatever the hint (the engine's visits,
    # all but x, half the sites, times shifted by 1-3 either way, an unvisited site added), the
    # array path must return the heap's result on all five fields when T_t <= g, and None when
    # T_t > g
    env = condition_origin(sample_environment(law, dim, 4, SeedSpec(seed, "array")))
    p = TruncationParams.make(t, dim, c4_hat)
    x, horizon = (0,) * dim, 40
    y = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    table = simulate_frogs(env.with_radius(horizon), x, horizon, [y])
    visits = _visits(table, y)
    assume(visits is not None and y != x and 2 * table.visit_time(y) < p.cap)
    sites, times = visits
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    half = np.sort(rng.permutation(times.shape[0])[: -(-times.shape[0] // 2)])
    shifted = times + rng.choice([-3, -2, -1, 1, 2, 3], times.shape[0])
    far = (table.visit_time(y) + 1,) + (0,) * (dim - 1)
    z = data.draw(st.sampled_from([z for z in map(tuple, cube_coords(3, dim).tolist())
                                   if table.visit_time(z) is None] + [far]))
    tz = data.draw(st.integers(0, 3))
    not_x = np.abs(sites).sum(axis=1) > 0
    hints = [
        visits, (sites[not_x], times[not_x]), (sites[half], times[half]), (sites, shifted),
        (np.concatenate([sites, [z]]), np.append(times, tz)),
        (np.concatenate([sites[half], [z]]), np.append(shifted[half], tz)),
    ]
    env = env.with_radius(max(_relay_radius(x, y, p), horizon + 1))  # holds the visits and the unvisited site
    index, exact = CubeIndex(_relay_radius(x, y, p), dim), truncated_passage(env, x, y, p)  # the heap, proven bound
    # the visits' guess 2T(y), and one at most that, which often lies below T_t
    for guess in {2 * table.visit_time(y), data.draw(st.integers(0, 2 * table.visit_time(y)))}:
        want = None
        if exact.value <= guess:  # under a bound below 4Kt the heap relaxes (2t + 1)^d cells per settled site
            want = truncated._search(env, index, x, y, p, sigma_t(env, x, y, p), guess)
            assert want == TruncatedResult(exact.value, exact.witness, exact.long_edges_used, exact.settled,
                                           (exact.settled - 1) * (2 * t + 1) ** dim)
        for hint in hints:
            assert _array_search(env, index, x, y, p, guess, hint) == want


def test_truncated_long_edge_witness_pin():
    # sparse frogs and a small K make the long edge (0, 0) -> (2, 1) part of the geodesic
    env = sample_environment(ConfigLaw.bernoulli(0.3), 2, 60, SeedSpec(4, "long"))
    p = TruncationParams.make(1, 2, c4_hat=0.0)
    res = truncated_passage(env, (0, 0), (5, 0), p)
    assert res.value == 56
    assert res.witness == ((0, 0), (2, 1), (3, 0), (4, -1), (5, 0))
    assert res.long_edges_used == 1
    assert res == dict_truncated_passage(env, (0, 0), (5, 0), p)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3), st.sampled_from([ConfigLaw.poisson(1.0), ConfigLaw.poisson(2.5), ConfigLaw.bernoulli(0.5),
                                         ConfigLaw.bernoulli(0.8)]),
    st.integers(0, 2**32), st.integers(1, 6), st.floats(0.0, 1.0), st.data(),
)
def test_checked_guess_keeps_the_search(dim, law, seed, t, c4_hat, data):
    # the hint of x at 0 and y at T guesses the bound 2T.  Every T up to past half the value v
    # is tried: a guess below v must fall back to the proven bound, and a guess of v itself
    # must still settle the nodes with f = v and d < v that precede the goal
    env = condition_origin(sample_environment(law, dim, 4, SeedSpec(seed, "guess")))
    p = TruncationParams.make(t, dim, c4_hat)
    x = (0,) * dim
    y = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    env = env.with_radius(_relay_radius(x, y, p))

    def result(res):
        return res.value, res.witness, res.long_edges_used, res.settled

    want = result(truncated_passage(env, x, y, p))
    for T in range(-(-want[0] // 2) + 2):
        assert result(truncated_passage(env, x, y, p, visits=([x, y], [0, T]))) == want, T
