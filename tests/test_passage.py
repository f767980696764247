from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAWS, env_from_counts
from frogsim import passage
from frogsim.environment import ConfigLaw, condition_origin, sample_environment, star
from frogsim.errors import FrogsimError, GeometryError
from frogsim.lattice import ball_coords, l1
from frogsim.passage import (
    HittingTime,
    oracle_all_targets,
    oracle_passage_time,
    passage_between,
    passage_time,
    passage_time_star,
    simulate_frogs,
    tau,
)
from frogsim.walks import SeedSpec


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
    assert tau(env, empty, (0, 0), 25) == HittingTime.censored(25)


def test_tau_self_hit():
    env = make_env(radius=6)
    assert tau(env, (0, 0), (0, 0), 10) == HittingTime.finite(0, 10)


def test_tau_speed_bound():
    env = make_env(ConfigLaw.constant(1), radius=6)
    assert not tau(env, (0, 0), (3, 0), 2).is_finite


def test_visit_source_zero():
    env = make_env(ConfigLaw.constant(1), radius=12)
    table = simulate_frogs(env, (0, 0), 12)
    assert table.visit_time((0, 0)) == HittingTime.finite(0, 12)


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
            engine = table.visit_time(x)
            ov = oracle.get(x)
            ev = engine.time if engine.is_finite else None
            if ev != ov:
                mismatches += 1
    assert mismatches == 0


def test_passage_lower_bound_and_horizon_monotonicity():
    env = make_env(radius=60)
    short = simulate_frogs(env, (0, 0), 25)
    longer = simulate_frogs(env, (0, 0), 55)
    for row in ball_coords(12, 2).tolist():
        x = tuple(row)
        a = short.visit_time(x)
        b = longer.visit_time(x)
        if a.is_finite:
            assert a.time >= l1(x)
            assert b.is_finite and b.time == a.time
        elif b.is_finite:
            assert b.time > 25


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
    assert out.value.is_finite
    total = 0
    for a, b in zip(out.witness[:-1], out.witness[1:]):
        hop = tau(env, a, b, 40)
        assert hop.is_finite
        total += hop.time
        # relay identity: T(0, b) = T(0, a) + tau(a, b) at every link
        assert passage_between(env, out.witness[0], b, 40).value.time == total
    assert total == out.value.time


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
    assert out.value == HittingTime.finite(0, 30)


def test_oracle_trivial_cases():
    env = make_env(radius=12)
    out = oracle_passage_time(env, (0, 0), (0, 0), 10)
    assert out.value == HittingTime.finite(0, 10)


def test_oracle_single_occupied_site():
    env = env_from_counts(2, 25, {(0, 0): 1}, seed=SeedSpec(21, "single"), conditioned=True)
    table = simulate_frogs(env, (0, 0), 20)
    oracle = oracle_all_targets(env, (0, 0), 20)
    for x, val in oracle.items():
        ht = table.visit_time(x)
        assert ht.is_finite and ht.time == val
        hop = tau(env, (0, 0), x, 20)
        assert hop.is_finite and hop.time == val


def test_stop_targets_unreachable_censored():
    env = make_env(radius=30)
    out = passage_time(env, (29, 0), 5, strict=False)
    assert not out.value.is_finite
    assert out.value.horizon == 5


def test_unoccupied_source_raises():
    env = make_env(ConfigLaw.bernoulli(0.5), radius=8, seed=3, conditioned=False)
    empty = next(
        tuple(r) for r in ball_coords(8, 2).tolist() if env.omega(tuple(r)) == 0
    )
    with pytest.raises(FrogsimError):
        simulate_frogs(env, empty, 5)


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
    for start in (10**6, 0):  # the full cube up front, then doubling from |source|_inf
        with start_radius(start):
            runs.append(simulate_frogs(env, source, horizon, stop_targets=stop, strict=False,
                                       record_trace=True))
    full, grown = runs
    assert full.index.radius == l1(source) + horizon
    assert grown.to_json() == full.to_json()  # every visit, parent and stopped_at
    assert grown.awake_trace == full.awake_trace
    for x in stop or []:
        assert grown.visit_time(x) == full.visit_time(x)


@settings(max_examples=40, deadline=None)
@given(engine_cases())
def test_growing_engine_matches_oracle(case):
    env, source, horizon = case
    with start_radius(0):
        table = simulate_frogs(env, source, horizon, strict=False)
    oracle = oracle_all_targets(env, source, horizon)
    for x in map(tuple, ball_coords(env.box_radius, env.dim).tolist()):
        ht = table.visit_time(x)
        assert (ht.time if ht.is_finite else None) == oracle.get(x)
