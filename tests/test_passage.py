import hashlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAWS, dense_first_hits, dense_tau, env_from_counts, row_extent_is
from frogsim import passage
from frogsim.environment import ConfigLaw, Environment, condition_origin, sample_environment, star
from frogsim.errors import FrogsimError, GeometryError
from frogsim.estimation import estimate_time_constant
from frogsim.lattice import CubeIndex, add, ball_coords, l1, linf, step_vectors, sub
from frogsim.passage import (
    ActivationTable,
    build_rows,
    first_hits,
    hit_time,
    oracle_all_targets,
    oracle_passage_time,
    oracle_relay_distances,
    offset_index,
    passage_between,
    passage_time,
    passage_time_star,
    passage_times,
    row_edges,
    row_hits,
    simulate_batch,
    simulate_frogs,
    tau,
)
from frogsim.walks import PURPOSE_WALK, SeedSpec, step_codes_np, walk_keys_np


def make_env(law=None, radius=50, seed=7, tag="dev", conditioned=True):
    law = law or ConfigLaw.bernoulli(0.7)
    env = sample_environment(law, 2, radius, SeedSpec(seed, tag))
    return condition_origin(env) if conditioned else env


def test_tau_unoccupied_start_censored():
    env = make_env(ConfigLaw.bernoulli(0.5), radius=8, seed=3)
    empty = next(
        tuple(r) for r in ball_coords(8, 2).tolist()
        if env.omega(tuple(r)) == 0
    )
    assert tau(env, empty, (0, 0), 25) is None


def test_tau_self_hit():
    env = make_env(radius=6)
    assert tau(env, (0, 0), (0, 0), 10) == 0


def test_tau_speed_bound():
    env = make_env(ConfigLaw.constant(1), radius=6)
    assert tau(env, (0, 0), (3, 0), 2) is None


def test_visit_source_zero():
    env = make_env(ConfigLaw.constant(1), radius=12)
    table = simulate_frogs(env, (0, 0), 12)
    assert table.visit_time((0, 0)) == 0


def test_single_source_no_awakenings():
    # only the origin holds frogs: every visited site's parent is the origin
    env = env_from_counts(2, 30, {(0, 0): 2}, seed=SeedSpec(77, "solo"), conditioned=True)
    table = simulate_frogs(env, (0, 0), 20)
    visited = np.nonzero(table.visit >= 0)[0]
    assert visited.shape[0] > 1
    src = table.index.flat_one((0, 0))
    assert np.all(table.parent[visited] == src)


def test_simulation_deterministic():
    env = make_env(radius=20)
    t1 = simulate_frogs(env, (0, 0), 18)
    t2 = simulate_frogs(env, (0, 0), 18)
    assert np.array_equal(t1.visit, t2.visit)
    assert np.array_equal(t1.parent, t2.parent)


def test_awake_trace_monotone():
    env = make_env(radius=20)
    table = simulate_frogs(env, (0, 0), 15, record_trace=True)
    trace = table.awake_trace
    assert len(trace) == 15
    assert trace[0] == env.omega((0, 0))
    assert all(b >= a for a, b in zip(trace, trace[1:]))  # frogs never sleep again


def test_activation_table_json():
    env = make_env(radius=20)
    table = simulate_frogs(env, (0, 0), 10)
    doc = table.to_json({"seed": 7})
    assert doc["source"] == [0, 0]
    assert doc["visits"][0] == {"site": [0, 0], "time": 0, "parent": [0, 0]}
    assert all(v["time"] <= 10 for v in doc["visits"])


def test_strict_precondition():
    env = make_env(radius=10)
    with pytest.raises(GeometryError):
        simulate_frogs(env, (0, 0), 11, strict=True)
    simulate_frogs(env, (0, 0), 11, strict=False)


def test_engine_matches_oracle_sweep():
    mismatches = 0
    for rep in range(30):
        env = condition_origin(
            sample_environment(ConfigLaw.bernoulli(0.7), 2, 6, SeedSpec(1000 + rep, "oracle"))
        )
        table = simulate_frogs(env, (0, 0), 40, strict=False)
        oracle = oracle_all_targets(env, (0, 0), 40)
        for row in ball_coords(6, 2).tolist():
            x = tuple(row)
            if table.visit_time(x) != oracle.get(x):
                mismatches += 1
    assert mismatches == 0


def oracle_digest(replicas, horizons):
    """sha256 of the oracle's distances, parents, all-target values, values and witnesses."""
    seed = SeedSpec(20240817, "acceptance").child("oracle")  # the criterion-1 replicas
    targets = [tuple(x) for x in ball_coords(7, 2).tolist()][::9]
    digest = hashlib.sha256()
    for r in range(replicas):
        env = condition_origin(sample_environment(ConfigLaw.bernoulli(0.7), 2, 6, seed.child("rep", r)))
        for horizon in horizons:
            dist, parent = oracle_relay_distances(env, (0, 0), horizon)
            outcomes = [oracle_passage_time(env, (0, 0), x, horizon) for x in targets]
            digest.update(repr((
                list(dist.items()), list(parent.items()), list(oracle_all_targets(env, (0, 0), horizon).items()),
                [(out.value, out.witness) for out in outcomes],
            )).encode())
    return digest.hexdigest()


def test_oracle_digest_is_pinned():
    # every distance, parent, value and witness, their order included; change the pin
    # only for an intended change of the oracle's output, and say why in CHANGES.md
    assert oracle_digest(8, (40, 5)) == "97375524e2e266d4d7de42d329706c575ad40d444840202f41339d63c2af1796"


def test_passage_lower_bound_and_horizon_monotonicity():
    env = make_env(radius=60)
    short = simulate_frogs(env, (0, 0), 25)
    longer = simulate_frogs(env, (0, 0), 55)
    for row in ball_coords(12, 2).tolist():
        x = tuple(row)
        a = short.visit_time(x)
        b = longer.visit_time(x)
        if a is not None:
            assert a >= l1(x)
            assert b == a
        elif b is not None:
            assert b > 25


def test_box_enlargement_invariance():
    seed = SeedSpec(55, "exact")
    env1 = condition_origin(sample_environment(ConfigLaw.poisson(1.0), 2, 30, seed))
    env2 = condition_origin(sample_environment(ConfigLaw.poisson(1.0), 2, 45, seed))
    t1 = simulate_frogs(env1, (0, 0), 30)
    t2 = simulate_frogs(env2, (0, 0), 30)
    for row in ball_coords(10, 2).tolist():
        x = tuple(row)
        assert t1.visit_time(x) == t2.visit_time(x)


def test_witness_telescopes():
    env = make_env(radius=50)
    out = passage_time(env, (5, 2), 40)
    assert out.value is not None
    total = 0
    for a, b in zip(out.witness[:-1], out.witness[1:]):
        hop = tau(env, a, b, 40)
        assert hop is not None
        total += hop
        # relay identity: T(0, b) = T(0, a) + tau(a, b) at every link
        assert passage_between(env, out.witness[0], b, 40).value == total
    assert total == out.value


def test_passage_time_star_matches_plain_when_occupied():
    env = make_env(radius=50)
    x = (4, -3)
    assert env.omega((0, 0)) >= 1
    if env.omega(x) >= 1:
        a = passage_time(env, x, 40).value
        b = passage_time_star(env, x, 40).value
        assert a == b


def test_passage_time_star_same_star_zero():
    # sparse law: a target whose star coincides with the origin's star
    env = sample_environment(ConfigLaw.bernoulli(0.05), 2, 12, SeedSpec(8, "sparse"))
    s = star(env, (0, 0))
    out = passage_time_star(env, s, 30, strict=False)
    assert out.value == 0


def test_oracle_trivial_cases():
    env = make_env(radius=12)
    out = oracle_passage_time(env, (0, 0), (0, 0), 10)
    assert out.value == 0


def test_oracle_single_occupied_site():
    env = env_from_counts(2, 25, {(0, 0): 1}, seed=SeedSpec(21, "single"), conditioned=True)
    table = simulate_frogs(env, (0, 0), 20)
    oracle = oracle_all_targets(env, (0, 0), 20)
    for x, val in oracle.items():
        assert table.visit_time(x) == val
        assert tau(env, (0, 0), x, 20) == val


def test_stop_targets_unreachable_censored():
    env = make_env(radius=30)
    out = passage_time(env, (29, 0), 5, strict=False)
    assert out.value is None
    assert out.horizon == 5


def test_unoccupied_source_raises():
    env = make_env(ConfigLaw.bernoulli(0.5), radius=8, seed=3, conditioned=False)
    empty = next(
        tuple(r) for r in ball_coords(8, 2).tolist() if env.omega(tuple(r)) == 0
    )
    with pytest.raises(FrogsimError):
        simulate_frogs(env, empty, 5)


def passage_runs():
    """Runs over six environments: two occupied sources and a frog-less one in each."""
    runs = []
    for seed in range(6):
        env = make_env(ConfigLaw.bernoulli(0.5), radius=32, seed=seed, conditioned=False)
        near = [tuple(v) for v in ball_coords(3, 2).tolist()]
        full = [x for x in near if env.omega(x) >= 1]
        empty = next(x for x in near if env.omega(x) == 0)
        runs += [
            (env, full[0], [(4, 0), full[0], (4, 0), (-3, 2), (9, 9)]),  # a repeat, the source, far off
            (env, empty, [empty, (1, 1)]),
            (env, full[-1], [(0, 0)]),
        ]
    return runs


def test_passage_times_match_single_runs():
    # and a run on a box below horizon + |source|_1, which the runner grows
    small = make_env(ConfigLaw.bernoulli(0.5), radius=6, seed=0, conditioned=False)
    source = tuple(small.occupied_coords()[0].tolist())
    runs = passage_runs() + [(small, source, [(4, 0), (0, 9), (-12, 3)])]
    got = passage_times(runs, 20)
    for (env, source, targets), row in zip(runs, got):
        env = env.with_radius(20 + l1(source))  # grown by hand
        if env.omega(source) == 0:  # wakes nothing, not even at the source
            assert row == [None] * len(targets)
            continue
        table = simulate_frogs(env, source, 20)
        assert row == [table.visit_time(y) for y in targets]
        assert all(v == 0 for v, y in zip(row, targets) if y == source)
    repeated = [row for (_, _, targets), row in zip(runs, got) if len(targets) == 5]
    assert all(row[0] == row[2] for row in repeated)
    assert any(v is not None and v > 0 for row in got for v in row)


def test_passage_times_do_not_depend_on_batch_width(monkeypatch):
    runs = passage_runs()
    want = passage_times(runs, 20)
    for width in (1, 3, 16):
        monkeypatch.setattr(passage, "_BATCH", (width, width))
        assert passage_times(runs, 20) == want, width


def test_sparse_law_runs_wider_batches(monkeypatch):
    # Bernoulli(0.2) holds a fifth of Poisson(1)'s frogs per site, so a batch takes 64 runs
    law = ConfigLaw.bernoulli(0.2)
    runs = [(condition_origin(sample_environment(law, 2, 4, SeedSpec(s, "sparse"))), (0, 0), [(5, 0), (0, -3)])
            for s in range(70)]
    widths, batch = [], passage.simulate_batch
    monkeypatch.setattr(passage, "simulate_batch", lambda envs, *rest: widths.append(len(envs)) or batch(envs, *rest))
    want = passage_times(runs, 40)
    assert widths == [64, 6]
    assert any(v is not None for row in want for v in row)
    monkeypatch.setattr(passage, "_BATCH", (1, 1))
    assert passage_times(runs, 40) == want
    assert widths[2:] == [1] * 70


def same_hits(got, want):
    return np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_first_hits_horizon_zero_is_the_self_hit():
    # rows hold at least one step, so horizon 0 is answered without one
    env = make_env(ConfigLaw.bernoulli(0.5), radius=8, seed=3, conditioned=False)
    empty = next(tuple(r) for r in ball_coords(8, 2).tolist() if env.omega(tuple(r)) == 0)
    occupied = tuple(env.occupied_coords()[0].tolist())
    keys, times = first_hits(env, occupied, 0)
    assert keys.tolist() == [offset_index(0, 2).flat_one((0, 0))] and times.tolist() == [0]
    assert same_hits((keys, times), dense_first_hits(env, occupied, 0))
    assert first_hits(env, empty, 0)[0].shape == (0,)
    assert row_hits(env, occupied, 0, 1) is None  # no row was built


def test_an_unoccupied_site_is_asked_once(monkeypatch):
    # an unoccupied site is cached as an empty row, so no later read or build asks its count
    env = make_env(ConfigLaw.bernoulli(0.5), radius=8, seed=3, conditioned=False)
    empty = next(tuple(r) for r in ball_coords(8, 2).tolist() if env.omega(tuple(r)) == 0)
    env = env.with_radius(9)  # the same realization, with no count asked yet
    asked, omega = [], Environment.omega
    monkeypatch.setattr(Environment, "omega", lambda self, x: asked.append(x) or omega(self, x))
    for t, horizon in [(1, 5), (3, 9), (2, 0)]:
        assert [a.shape[0] for a in row_hits(env, empty, t, horizon)] == [0, 0]
        build_rows(env, {empty: (t + 1, horizon + 1)})
    assert first_hits(env, empty, 12)[0].shape == (0,)
    assert asked == [empty]


def test_row_edges_are_the_rows_hits_after_time_zero():
    # one edge list for many sites, occupied or not, at any (t, horizon), horizon 0 included
    env = make_env(ConfigLaw.poisson(1.7), radius=5, seed=8)
    needs = {tuple(u): (1 + i % 3, i % 7) for i, u in enumerate(ball_coords(5, 2).tolist())}
    owner, offs, times = row_edges(env, needs)
    for i, (u, (t, horizon)) in enumerate(needs.items()):
        want_offs, want_times = row_hits(env, u, t, horizon)
        mine, later = owner == i, want_times >= 1
        assert same_hits((offs[mine], times[mine]), (want_offs[later], want_times[later])), u


@pytest.mark.parametrize("dim, margin", [(1, 16), (2, 16), (3, 8)])
def test_table_margin_halves_per_dimension_above_two(dim, margin):
    # a cube's cells grow as its side to the dim, so a 3-D table starts 8 sites out, not 16
    env = condition_origin(sample_environment(ConfigLaw.poisson(1.0), dim, 60, SeedSpec(2, "margin")))
    table = simulate_frogs(env, (0,) * dim, 40, [(2,) + (0,) * (dim - 1)])
    assert table.stopped_at <= 2 + margin  # so no step could carry a frog off the table
    assert table.index.radius == 2 + margin


@pytest.mark.parametrize("pass_steps", [1, 37])
def test_rows_do_not_depend_on_pass_size(pass_steps, monkeypatch):
    # first_hits reads rows that many-site passes build: cutting the passes must change no row
    def rows(env):
        sites = [tuple(x) for x in env.occupied_coords().tolist()]
        asked = {u: (3 if i % 2 else 12, 12) for i, u in enumerate(sites)}
        build_rows(env, asked)
        assert all(row_extent_is(env, u, t, h) for u, (t, h) in asked.items())
        built = {u: row_hits(env, u, t, h) for u, (t, h) in asked.items()}
        return {(u, h): first_hits(env, u, h) for u in sites for h in (12, 7)}, built

    want_hits, want_rows = rows(make_env(ConfigLaw.poisson(1.7), radius=5, seed=8))
    monkeypatch.setattr(passage, "_PASS_STEPS", pass_steps)
    got_hits, got_rows = rows(make_env(ConfigLaw.poisson(1.7), radius=5, seed=8))
    assert got_rows.keys() == want_rows.keys()
    assert all(same_hits(got_rows[u], row) for u, row in want_rows.items())
    assert all(same_hits(got_hits[k], want_hits[k]) for k in want_hits)


def test_first_hits_in_dim_8_matches_dense_walker():
    # (site, offset, time) keys of a dim-8 ball of radius 100 overflow int64: the rows
    # must come from the unpacked sort, for one site and for a many-site pass alike
    env = sample_environment(ConfigLaw.constant(2), 8, 100, SeedSpec(0, "dim8"))
    origin = (0,) * 8
    assert same_hits(first_hits(env, origin, 100), dense_first_hits(env, origin, 100))
    near = [tuple(int(i == j) - int(i == j + 8) for j in range(8)) for i in range(16)]
    build_rows(env, dict.fromkeys(near, (100, 100)))
    for u in near:
        assert same_hits(first_hits(env, u, 100), dense_first_hits(env, u, 100))
    # a ball wider than the horizon is laid out at the horizon: at radius 150 one key would overflow
    far = (2,) + (0,) * 7
    build_rows(env, {far: (150, 20)})
    offs, times = row_hits(env, far, 150, 20)
    assert same_hits((offset_index(20, 8).flat(offs), times), dense_first_hits(env, far, 20))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3), st.integers(0, 4), st.sampled_from(LAWS), st.integers(0, 2**32),
    st.lists(
        st.tuples(st.sampled_from(["row", "first_hits", "tau", "hit_time"]), st.integers(0, 30), st.integers(1, 3)),
        min_size=1, max_size=12,
    ),
    st.data(),
)
def test_row_cache_requests_in_any_order(dim, radius, law, seed, requests, data):
    # A* rows, first_hits, tau and the hit lookup share one cache on one environment:
    # whatever order they come in and however the rows grow, every answer is the dense
    # walker's, and each row ends at the largest t and the largest horizon asked of it
    env = sample_environment(law, dim, radius, SeedSpec(seed, "rows"))
    sites = [tuple(x) for x in ball_coords(radius, dim).tolist()]
    asked = {}
    for kind, horizon, t in requests:
        u = data.draw(st.sampled_from(sites))
        if env.omega(u) >= 1 and horizon >= 1:
            t_max, h_max = asked.get(u, (0, 0))
            asked[u] = (max(t_max, t if kind in ("row", "hit_time") else horizon), max(h_max, horizon))
        if kind == "first_hits":
            assert same_hits(first_hits(env, u, horizon), dense_first_hits(env, u, horizon))
        elif kind in ("tau", "hit_time"):
            # the lookup reads u's row wherever v lies; at scale t it misses v beyond t
            v = add(u, data.draw(st.tuples(*[st.integers(-horizon - 1, horizon + 1)] * dim)))
            if kind == "tau":
                assert tau(env, u, v, horizon) == dense_tau(env, u, v, horizon)
            else:
                want = dense_tau(env, u, v, horizon) if linf(sub(v, u)) <= t else None
                assert hit_time(env, u, v, t, horizon) == want
        elif env.omega(u) >= 1 and horizon >= 1:
            # the weights of a search at scale t under horizon: hits within both, the rest capped
            build_rows(env, {u: (t, horizon)})
            hits = row_hits(env, u, t, horizon)
            assert hits is not None  # the row holds (t, horizon)
            keys, want = dense_first_hits(env, u, horizon)
            near = np.abs(offset_index(horizon, dim).unflat(keys)).max(axis=1) <= t
            assert np.array_equal(offset_index(horizon, dim).flat(hits[0]), keys[near])
            assert np.array_equal(hits[1], want[near])
    for u in sites:
        if u in asked:
            assert row_extent_is(env, u, *asked[u]), u
        elif env.omega(u) >= 1:
            assert row_hits(env, u, 0, 1) is None, u  # asked nothing: no row


@contextmanager
def start_radius(radius):
    """Run the engine with activation tables that start at this radius beyond |source|_inf."""
    saved = passage._START_RADIUS
    passage._START_RADIUS = radius
    try:
        yield
    finally:
        passage._START_RADIUS = saved


@st.composite
def engine_cases(draw):
    """A small random environment, an occupied source (often off the origin) and a horizon."""
    dim = draw(st.integers(1, 3))
    radius = draw(st.integers(0, 8 if dim < 3 else 4))  # the oracle is quadratic in the sites
    law = draw(st.sampled_from(LAWS))
    env = sample_environment(law, dim, radius, SeedSpec(draw(st.integers(0, 2**32)), "grow"))
    if draw(st.booleans()):
        env = condition_origin(env)
    occupied = [tuple(x) for x in env.occupied_coords().tolist()]
    if not occupied:
        env = condition_origin(env)
        occupied = [(0,) * dim]
    source = draw(st.sampled_from(occupied))
    return env, source, draw(st.integers(0, 14))


@settings(max_examples=60, deadline=None)
@given(engine_cases(), st.data())
def test_growing_table_matches_full_layout(case, data):
    env, source, horizon = case
    # stop targets anywhere around the reachable cube of radius |source|_1 + horizon, beyond it too
    span = l1(source) + horizon + 2
    point = st.tuples(*[st.integers(-span, span)] * env.dim)
    stop = data.draw(st.none() | st.lists(point, max_size=3))
    runs = []
    for start in (10**6, 0):  # the full cube up front, then growing from |source|_inf
        with start_radius(start):
            runs.append(simulate_frogs(env, source, horizon, stop_targets=stop, strict=False,
                                       record_trace=True))
    full, grown = runs
    assert full.index.radius == l1(source) + horizon
    assert grown.to_json() == full.to_json()  # every visit, parent and stopped_at
    assert grown.awake_trace == full.awake_trace
    for x in stop or []:
        assert grown.visit_time(x) == full.visit_time(x)


def test_table_starts_past_the_stop_targets(monkeypatch):
    # a ladder's tables start _START_RADIUS beyond its farthest target, so frogs seldom outrun them
    grown, recentre = [], passage._recentre
    monkeypatch.setattr(passage, "_recentre", lambda old, new, table: grown.append(new) or recentre(old, new, table))
    estimate_time_constant(ConfigLaw.poisson(1.0), (1, 0), [4, 8, 16, 32], 8, SeedSpec(4, "start"))
    assert len(grown) <= 2  # one growth recentres the visit and the parent tables


@settings(max_examples=40, deadline=None)
@given(engine_cases())
def test_growing_engine_matches_oracle(case):
    env, source, horizon = case
    oracle = oracle_all_targets(env, source, horizon)
    assert all(env.in_box(x) for x in oracle)
    for start in (passage._START_RADIUS, 0):  # the default table, then growing from |source|_inf
        with start_radius(start):
            table = simulate_frogs(env, source, horizon, strict=False)
        for x in map(tuple, ball_coords(env.box_radius, env.dim).tolist()):
            assert table.visit_time(x) == oracle.get(x)


@settings(max_examples=40, deadline=None)
@given(engine_cases(), st.data())
def test_oracle_witness_telescopes(case, data):
    env, source, horizon = case
    values = oracle_all_targets(env, source, horizon)  # the source among them
    x = data.draw(st.sampled_from(sorted(values)))
    out = oracle_passage_time(env, source, x, horizon)
    assert out.value == values[x]
    assert out.witness[0] == source and out.witness[-1] == x
    # each hop is a relay whose frogs hit the next site; the last hop ends on x
    assert sum(tau(env, a, b, horizon) for a, b in zip(out.witness, out.witness[1:])) == out.value


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2), st.integers(0, 6), st.sampled_from(LAWS), st.integers(0, 2**32), st.data()
)
def test_triangle_inequality_tiny_environments(dim, radius, law, seed, data):
    # y's frogs wake when y is first visited and then walk as in the run from y,
    # so T(x, z) <= T(x, y) + T(y, z); out-of-box sites wake nothing in both runs
    env = condition_origin(sample_environment(law, dim, radius, SeedSpec(seed, "triangle")))
    occupied = st.sampled_from([tuple(v) for v in env.occupied_coords().tolist()])
    x, y = data.draw(occupied), data.draw(occupied)
    z = data.draw(st.sampled_from([tuple(v) for v in ball_coords(radius, dim).tolist()]))
    horizon = 24

    def T(a, b):
        return simulate_frogs(env, a, horizon, stop_targets=[b], strict=False).visit_time(b)

    txy, tyz, txz = T(x, y), T(y, z), T(x, z)
    if txy is not None and tyz is not None and txy + tyz <= horizon:
        assert txz is not None
        assert txz <= txy + tyz


# ---------------------------------------------------------------------------
# The single-replica engine that simulate_batch replaced, kept as an oracle
# ---------------------------------------------------------------------------


def single_replica_engine(env, source, horizon, stop_targets=None, strict=True, record_trace=False):
    """One replica through its own step loop and its own doubling int64 table."""
    d = env.dim
    if env.omega(source) < 1:
        raise FrogsimError(f"source {source} has no frogs to activate")
    src_norm = l1(source)
    if strict and env.box_radius < horizon + src_norm:
        raise GeometryError("finite-box values would not match the infinite lattice")
    reach_cube = CubeIndex(src_norm + horizon, d)
    reach = linf(source)
    index = CubeIndex(min(reach + passage._START_RADIUS, reach_cube.radius), d)
    visit = np.full(index.size, -1, dtype=np.int64)
    parent = np.full(index.size, -1, dtype=np.int64)
    trace = []
    steps = step_vectors(d)
    walk_key = env.seed.purpose_key(PURPOSE_WALK)

    def table(stopped_at):
        out = ActivationTable(d, tuple(source), horizon, index, visit, parent)
        out.awake_trace, out.stopped_at = trace, stopped_at
        return out

    src_flat = index.flat_one(source)
    visit[src_flat] = 0
    parent[src_flat] = src_flat
    count0 = env.omega(source)
    pos = np.repeat(np.asarray([source], dtype=np.int64), count0, axis=0)
    ell = np.arange(1, count0 + 1, dtype=np.int64)
    keys = walk_keys_np(walk_key, pos, ell)
    birth = np.zeros(count0, dtype=np.int64)
    origin_flat = np.full(count0, src_flat, dtype=np.int64)

    targets = None
    if stop_targets is not None:
        reachable = [t for t in stop_targets if reach_cube.contains(t)]
        if not reachable:
            return table(0)
        targets = np.asarray(reachable, dtype=np.int64)
        target_reach = int(np.abs(targets).max())
        if target_reach <= index.radius and np.all(visit[index.flat(targets)] >= 0):
            return table(0)

    for t in range(1, horizon + 1):
        if record_trace:
            trace.append(pos.shape[0])
        codes = step_codes_np(keys, (t - birth).astype(np.uint64), d)
        pos += steps[codes]
        reach += 1
        if reach > index.radius:
            reach = int(np.abs(pos).max())
            if reach > index.radius:
                old, index = index, CubeIndex(min(max(2 * index.radius, reach), reach_cube.radius), d)
                seen = np.nonzero(visit >= 0)[0]
                moved = index.flat(old.unflat(seen))
                grown = np.full((2, index.size), -1, dtype=np.int64)
                grown[0, moved] = visit[seen]
                grown[1, moved] = index.flat(old.unflat(parent[seen]))
                visit, parent = grown
                origin_flat = index.flat(old.unflat(origin_flat))
        flat = index.flat(pos)
        new_mask = visit[flat] < 0
        if new_mask.any():
            nf, norg, nell = flat[new_mask], origin_flat[new_mask], ell[new_mask]
            order = np.lexsort((nell, norg, nf))
            nf, norg = nf[order], norg[order]
            lead = np.ones(nf.shape[0], dtype=bool)
            lead[1:] = nf[1:] != nf[:-1]
            sites = nf[lead]
            visit[sites] = t
            parent[sites] = norg[lead]
            site_coords = index.unflat(sites)
            counts = env.counts_at(site_coords)
            wake = counts > 0
            if wake.any():
                wake_counts = counts[wake].astype(np.int64)
                rep_coords = np.repeat(site_coords[wake], wake_counts, axis=0)
                starts = np.concatenate([[0], np.cumsum(wake_counts)[:-1]])
                new_ell = np.arange(int(wake_counts.sum())) - np.repeat(starts, wake_counts) + 1
                pos = np.concatenate([pos, rep_coords])
                keys = np.concatenate([keys, walk_keys_np(walk_key, rep_coords, new_ell)])
                ell = np.concatenate([ell, new_ell])
                birth = np.concatenate([birth, np.full(new_ell.shape[0], t, dtype=np.int64)])
                origin_flat = np.concatenate([origin_flat, np.repeat(sites[wake], wake_counts)])
        if targets is not None and target_reach <= index.radius and np.all(visit[index.flat(targets)] >= 0):
            return table(t)
    return table(None)


@st.composite
def batch_cases(draw):
    """1-5 replicas of one law and dimension: plain, conditioned and stored environments
    (a few drawn twice), each with a source, stop targets or none, and one horizon."""
    dim = draw(st.integers(1, 3))  # 2d = 2, 4 reduce by a mask, 2d = 6 by a remainder
    law = draw(st.sampled_from(LAWS))
    horizon = draw(st.integers(0, 14))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        env = sample_environment(law, dim, draw(st.integers(0, 6)), SeedSpec(draw(st.integers(0, 2**32)), "batch"))
        kind = draw(st.sampled_from(["plain", "conditioned", "stored"]))
        if kind != "plain":
            env = condition_origin(env)
        if kind == "stored":
            env = Environment.from_json(env.to_json())
        pool.append(env)
    envs, sources, stops = [], [], []
    for env in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)):
        occupied = [tuple(x) for x in env.occupied_coords().tolist()]
        if not occupied:
            env = condition_origin(env)
            occupied = [(0,) * dim]
        source = draw(st.sampled_from(occupied))
        # targets around and beyond the reachable cube, the source itself among them at times
        span = l1(source) + horizon + 2
        point = st.tuples(*[st.integers(-span, span)] * dim) | st.just(source)
        envs.append(env)
        sources.append(source)
        stops.append(draw(st.none() | st.lists(point, max_size=3)))
    if draw(st.booleans()):
        stops = None
    return envs, sources, horizon, stops


@settings(max_examples=80, deadline=None)
@given(batch_cases(), st.sampled_from([passage._START_RADIUS, 0]))
def test_batch_matches_single_replica_oracle(case, start):
    envs, sources, horizon, stops = case
    with start_radius(start):
        tables = simulate_batch(envs, sources, horizon, stops, False, True)
    assert len(tables) == len(envs)
    for r, (env, source, table) in enumerate(zip(envs, sources, tables)):
        want = single_replica_engine(env, source, horizon, None if stops is None else stops[r],
                                     strict=False, record_trace=True)
        assert table.to_json() == want.to_json()  # every visit, parent and stopped_at
        assert table.awake_trace == want.awake_trace
        assert table.stopped_at == want.stopped_at


@st.composite
def strict_cases(draw):
    """1-4 replicas of one law, each on a box of exactly horizon + |source|_1 with a
    conditioned origin (a fixed site), with stop targets or none, and one horizon."""
    dim = draw(st.integers(1, 3))
    law = draw(st.sampled_from(LAWS))
    horizon = draw(st.integers(0, 14))
    envs, sources, stops = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        seed = SeedSpec(draw(st.integers(0, 2**32)), "strict")
        near = condition_origin(sample_environment(law, dim, 4, seed))
        source = draw(st.sampled_from([tuple(x) for x in near.occupied_coords().tolist()]))
        envs.append(condition_origin(sample_environment(law, dim, horizon + l1(source), seed)))
        sources.append(source)
        span = l1(source) + horizon + 2
        stops.append(draw(st.none() | st.lists(st.tuples(*[st.integers(-span, span)] * dim), max_size=3)))
    return envs, sources, horizon, stops


@settings(max_examples=60, deadline=None)
@given(strict_cases())
def test_strict_batch_reads_counts_without_the_mask(case):
    # every box is exactly its run's reach, so unmasked reads give the oracle's masked tables
    envs, sources, horizon, stops = case
    tables = simulate_batch(envs, sources, horizon, stops, True, True)
    for env, source, stop, table in zip(envs, sources, stops, tables):
        want = single_replica_engine(env, source, horizon, stop, strict=True, record_trace=True)
        assert table.to_json() == want.to_json()
        assert table.awake_trace == want.awake_trace


def test_loose_batch_masks_counts_beyond_the_box():
    # Constant(1) wakes a frog on every site it reads: only the mask keeps the sites past
    # the box of radius 2 empty, and the oracle replays that finite-box process
    env = sample_environment(ConfigLaw.constant(1), 2, 2, SeedSpec(5, "mask"))
    sources = [(0, 0), (1, -1)]
    for source, table in zip(sources, simulate_batch([env, env], sources, 12, None, False, True)):
        want = single_replica_engine(env, source, 12, strict=False, record_trace=True)
        assert table.to_json() == want.to_json()
        assert table.awake_trace == want.awake_trace
        unmasked = simulate_frogs(env.with_radius(12 + l1(source)), source, 12)
        assert unmasked.to_json()["visits"] != want.to_json()["visits"]


def test_batch_needs_one_law():
    a = make_env(ConfigLaw.bernoulli(0.7), radius=8)
    b = make_env(ConfigLaw.poisson(1.0), radius=8)
    with pytest.raises(FrogsimError):
        simulate_batch([a, b], [(0, 0), (0, 0)], 5, None, False, False)


def test_batch_in_dim_3_matches_single_replica_oracle():
    law = ConfigLaw.poisson(1.3)
    envs = [sample_environment(law, 3, 9, SeedSpec(s, "batch3")) for s in (3, 4)]
    envs = [condition_origin(envs[0]), envs[1], condition_origin(envs[0])]
    sources = [(0, 0, 0), star(envs[1], (0, 0, 0)), (0, 0, 0)]
    stops = [[(2, -1, 0), (0, 3, 1)], None, [(1, 1, 1)]]
    with start_radius(0):  # the table grows many times in the run
        tables = simulate_batch(envs, sources, 8, stops, False, True)
    for env, source, stop, table in zip(envs, sources, stops, tables):
        want = single_replica_engine(env, source, 8, stop, strict=False, record_trace=True)
        assert len(want.to_json()["visits"]) > 1
        assert table.to_json() == want.to_json()
        assert table.awake_trace == want.awake_trace


# ---------------------------------------------------------------------------
# _first_visits: the packed sort against the three-key lexsort it replaced
# ---------------------------------------------------------------------------


def lexsort_first_visits(flat, new, origin, ell):
    keys, origins = flat[new], origin[new]
    order = np.lexsort((ell[new], origins, keys))
    keys = keys[order]
    lead = np.ones(keys.shape[0], dtype=bool)
    lead[1:] = keys[1:] != keys[:-1]
    return keys[lead], origins[order][lead]


def same_first_visits(flat, new, origin, ell, size, n_keys):
    got = passage._first_visits(flat, np.flatnonzero(new), origin, size, n_keys)
    want = lexsort_first_visits(flat, new, origin, ell)
    assert [a.tolist() for a in got] == [b.tolist() for b in want]


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 40), st.integers(1, 80))
def test_first_visits_match_lexsort(data, replicas, size, frogs):
    # few keys and origins per draw, so that keys repeat and origins tie
    keys = st.integers(0, replicas * size - 1)
    flat = np.asarray(data.draw(st.lists(keys, min_size=frogs, max_size=frogs)), dtype=np.int64)
    origin = np.asarray(data.draw(st.lists(st.integers(0, min(size - 1, 3)), min_size=frogs, max_size=frogs)),
                        dtype=np.int32)
    ell = np.asarray(data.draw(st.lists(st.integers(1, 6), min_size=frogs, max_size=frogs)), dtype=np.int32)
    new = np.asarray(data.draw(st.lists(st.booleans(), min_size=frogs, max_size=frogs)))
    new[data.draw(st.integers(0, frogs - 1))] = True
    same_first_visits(flat, new, origin, ell, size, replicas * size)


@pytest.mark.parametrize("n_keys", [2**43, 2**43 + 1])
def test_first_visits_at_the_packed_key_limit(n_keys):
    # size 2**20: at n_keys = 2**43 the largest packed key is 2**63 - 1 and the packed
    # sort runs; one key more and it would reach 2**63, so the lexsort runs
    size = 2**20
    rng = np.random.default_rng(n_keys)
    flat = np.concatenate([[n_keys - 1], rng.integers(n_keys - 5, n_keys, 60), rng.integers(0, 4, 20)])
    origin = np.concatenate([[size - 1], rng.integers(size - 3, size, 60), rng.integers(0, 3, 20)])
    origin = origin.astype(np.int32)
    ell = rng.integers(1, 8, flat.shape[0]).astype(np.int32)
    assert (int(flat.max()) * size + int(origin.max()) >= 2**63) == (n_keys > 2**43)
    same_first_visits(flat, np.ones(flat.shape[0], dtype=bool), origin, ell, size, n_keys)


def test_first_visits_fall_back_past_the_int64_range():
    # n_keys * size = 2**64: these frogs' packed keys would overflow
    size, n_keys = 2**30, 2**34
    flat = np.array([n_keys - 1, n_keys - 1, n_keys - 2, 3, n_keys - 1], dtype=np.int64)
    origin = np.array([size - 1, size - 2, 5, 0, size - 2], dtype=np.int32)
    ell = np.array([1, 7, 2, 4, 3], dtype=np.int32)
    same_first_visits(flat, np.ones(5, dtype=bool), origin, ell, size, n_keys)
