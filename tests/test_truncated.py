import numpy as np
import pytest

from conftest import env_from_counts
from frogsim.environment import ConfigLaw, condition_origin, sample_environment, star
from frogsim.errors import SearchCapError
from frogsim.lattice import add, ball_coords, l1, linf, sub
from frogsim.passage import tau
from frogsim.truncated import (
    Tiling,
    TruncationParams,
    _sigma_row,
    agreement_experiment,
    box_count_bound,
    exhaustive_truncated_oracle,
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


@pytest.mark.parametrize("cap_horizon", [None, 2])
def test_sigma_row_matches_tau(cap_horizon):
    # the row is a bulk lookup in first_hits' keys; tau is the one-site lookup
    env = condition_origin(poisson_env(seed=5, radius=40))
    p = TruncationParams.make(3, 2, c4_hat=1.0)
    horizon = p.cap if cap_horizon is None else min(cap_horizon, p.cap)
    starts = [(0, 0), (1, 0), (0, 1), (-1, -1), (2, 3), (-3, 1)]
    assert {env.omega(u) >= 1 for u in starts} == {True, False}
    for u in starts:
        offs, weights = _sigma_row(env, u, p, cap_horizon)
        assert offs.shape[0] == (2 * p.t + 1) ** 2
        for off, w in zip(offs.tolist(), weights.tolist()):
            hit = tau(env, u, add(u, tuple(off)), horizon)
            assert w == (hit.time if hit.is_finite else p.cap)


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


def test_truncated_monotone_under_weight_domination():
    # shrinking the hitting-time horizon can only raise edge weights
    for trial in range(40):
        env = sample_environment(ConfigLaw.poisson(1.0), 2, 45, SeedSpec(800 + trial, "mono"))
        p = TruncationParams.make(2, 2, c4_hat=2.0)
        full = truncated_passage(env, (0, 0), (4, 1), p)
        capped = truncated_passage(env, (0, 0), (4, 1), p, cap_horizon=p.cap // 4)
        assert capped.value >= full.value


def test_tiling_examples():
    tl = Tiling(t=4, dim=2)
    assert tl.box_of((0, 0)) == (0, 0)
    assert tl.box_of((4, 0)) == (1, 0)
    # half-open convention: coordinate t/2 belongs to the box below
    assert tl.box_of((2, 2)) == (0, 0)
    assert tl.box_of((3, 0)) == (1, 0)
    assert tl.box_of((-2, 0)) == (-1, 0)
    assert tl.center((2, -1)) == (8, -4)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_tiling_partition(t):
    tl = Tiling(t=t, dim=2)
    for row in ball_coords(3 * t, 2).tolist():
        z = tuple(row)
        q = tl.box_of(z)
        c = tl.center(q)
        for zi, ci in zip(z, c):
            off = zi - ci
            assert -t / 2 < off <= t / 2


def test_geodesic_box_count():
    tl = Tiling(t=4, dim=2)
    assert geodesic_box_count([(0, 0)], tl) == 1
    assert geodesic_box_count([(0, 0), (1, 1), (2, 0)], tl) == 1
    assert geodesic_box_count([(0, 0), (4, 0)], tl) == 2


def test_box_count_bound_on_sampled_geodesics():
    p = TruncationParams.make(2, 2, c4_hat=2.0)
    for trial in range(25):
        env = sample_environment(ConfigLaw.poisson(1.0), 2, 45, SeedSpec(900 + trial, "boxes"))
        x = (6, 0)
        s0 = star(env, (0, 0))
        sx = star(env, x)
        res = truncated_passage(env, s0, sx, p)
        count = geodesic_box_count(res.witness, Tiling(t=p.t, dim=2))
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
