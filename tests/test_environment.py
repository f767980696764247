import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import LAWS, env_from_counts
from frogsim.environment import ConfigLaw, Environment, condition_origin, sample_environment, star
from frogsim.errors import GeometryError, LawParameterError, SearchCapError
from frogsim.lattice import ball_coords, shell_coords
from frogsim.walks import (
    MASK64,
    PURPOSE_CONDITION,
    PURPOSE_OMEGA,
    SeedSpec,
    absorb,
    site_key,
    site_keys_np,
    uniform01,
    uniform01_np,
)


def test_constant_law_fills_box():
    env = sample_environment(ConfigLaw.constant(1), 2, 5, SeedSpec(1))
    for row in ball_coords(5, 2).tolist():
        assert env.omega(tuple(row)) == 1


def test_bernoulli_one_fills_box():
    env = sample_environment(ConfigLaw.bernoulli(1.0), 2, 4, SeedSpec(2))
    assert env.occupied_coords().shape[0] == ball_coords(4, 2).shape[0]


def test_bernoulli_occupation_fraction():
    # ~2 * 158^2 = 50k sites; 5 sigma binomial band around 0.6
    env = sample_environment(ConfigLaw.bernoulli(0.6), 2, 158, SeedSpec(3))
    n = ball_coords(158, 2).shape[0]
    occ = env.occupied_coords().shape[0]
    sigma = math.sqrt(n * 0.6 * 0.4)
    assert abs(occ - 0.6 * n) <= 5 * sigma


def test_condition_origin_preserves_other_sites():
    env = sample_environment(ConfigLaw.poisson(0.8), 2, 6, SeedSpec(4))
    cond = condition_origin(env)
    assert cond.omega((0, 0)) >= 1
    assert cond.conditioned_origin
    for row in ball_coords(6, 2).tolist():
        x = tuple(row)
        if x != (0, 0):
            assert cond.omega(x) == env.omega(x)


def test_condition_origin_bernoulli_support():
    for s in range(20):
        env = sample_environment(ConfigLaw.bernoulli(0.3), 2, 2, SeedSpec(s, "cond"))
        assert condition_origin(env).omega((0, 0)) == 1


def test_conditioned_poisson_pmf():
    lam = 1.3
    law = ConfigLaw.poisson(lam)
    hits = 0
    n = 20_000
    for r in range(n):
        env = sample_environment(law, 1, 0, SeedSpec(r, "pmf"))
        if condition_origin(env).omega((0,)) == 1:
            hits += 1
    target = lam * math.exp(-lam) / (1 - math.exp(-lam))
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(hits / n - target) <= 5 * sigma


def test_site_sampling_is_local():
    # the same seed on a larger box reproduces every overlapping site
    seed = SeedSpec(9, "local")
    small = sample_environment(ConfigLaw.poisson(1.0), 2, 5, seed)
    big = sample_environment(ConfigLaw.poisson(1.0), 2, 9, seed)
    for row in ball_coords(5, 2).tolist():
        x = tuple(row)
        assert small.omega(x) == big.omega(x)
    grown = small.with_radius(9)
    for row in ball_coords(9, 2).tolist():
        x = tuple(row)
        assert grown.omega(x) == big.omega(x)


def test_star_examples():
    env = sample_environment(ConfigLaw.constant(1), 2, 5, SeedSpec(10))
    assert star(env, (2, -1)) == (2, -1)

    env2 = env_from_counts(2, 4, {(2, 0): 1, (0, 2): 1, (-1, 0): 1})
    assert star(env2, (0, 0)) == (-1, 0)

    # equidistant occupied sites: the lex-smallest wins
    env3 = env_from_counts(2, 4, {(1, 1): 1, (0, 2): 1, (2, 0): 1, (0, -2): 1, (-2, 0): 1})
    assert star(env3, (0, 0)) == (-2, 0)
    assert star(env3, (1, 0)) == (1, 1)


def test_star_cap_error():
    env = env_from_counts(2, 3, {})
    with pytest.raises(SearchCapError):
        star(env, (0, 0))


def test_star_outside_box():
    env = sample_environment(ConfigLaw.constant(1), 2, 3, SeedSpec(13))
    with pytest.raises(GeometryError):
        star(env, (4, 0))


def test_law_validation():
    with pytest.raises(LawParameterError):
        ConfigLaw.bernoulli(1.5)
    with pytest.raises(LawParameterError):
        ConfigLaw.bernoulli(0.0)
    with pytest.raises(LawParameterError):
        ConfigLaw.poisson(0.0)
    with pytest.raises(LawParameterError):
        ConfigLaw.geometric(1.0)
    with pytest.raises(LawParameterError):
        ConfigLaw.constant(0)
    with pytest.raises(LawParameterError):
        ConfigLaw.explicit([0.5, 0.4])  # sums to 0.9
    with pytest.raises(LawParameterError):
        ConfigLaw.explicit([1.0])  # concentrated at zero
    for lam in (float("inf"), float("nan")):  # inf used to sample a constant-1 law, nan all zeros
        with pytest.raises(LawParameterError):
            ConfigLaw.poisson(lam)
    with pytest.raises(LawParameterError):
        ConfigLaw.explicit([float("nan"), 1.0])


def test_law_means():
    assert ConfigLaw.bernoulli(0.25).mean() == 0.25
    assert ConfigLaw.poisson(2.0).mean() == 2.0
    assert ConfigLaw.geometric(0.5).mean() == 1.0
    assert ConfigLaw.constant(3).mean() == 3.0
    assert ConfigLaw.explicit([0.2, 0.5, 0.3]).mean() == pytest.approx(1.1)


def test_law_parse_round_trip():
    for text in ["poisson:1.0", "bernoulli:0.7", "geometric:0.5", "constant:2", "explicit:0.2,0.5,0.3"]:
        law = ConfigLaw.parse(text)
        again = ConfigLaw.from_json(law.to_json())
        assert again == law
    # poisson:1,2 and constant:1.5 used to raise a bare ValueError
    for text in ["zipf:1.2", "poisson:inf", "poisson:nan", "explicit:nan,1", "poisson:1,2", "constant:1.5"]:
        with pytest.raises(LawParameterError):
            ConfigLaw.parse(text)
    # from_json used to read every unknown kind as an explicit pmf
    for doc in [{"kind": "zipf", "params": [0.5, 0.5]}, {"kind": "poisson", "params": [1.0, 2.0]}]:
        with pytest.raises(LawParameterError):
            ConfigLaw.from_json(doc)


def test_environment_json_round_trip():
    env = condition_origin(sample_environment(ConfigLaw.poisson(1.0), 2, 6, SeedSpec(14, "json")))
    doc = env.to_json()
    back = Environment.from_json(doc)
    assert back.dim == env.dim
    assert back.box_radius == env.box_radius
    assert back.conditioned_origin == env.conditioned_origin
    for row in ball_coords(6, 2).tolist():
        x = tuple(row)
        assert back.omega(x) == env.omega(x)


def test_explicit_pmf_sampling():
    law = ConfigLaw.explicit([0.25, 0.5, 0.25])
    env = sample_environment(law, 2, 60, SeedSpec(15))
    counts = [env.omega(tuple(r)) for r in ball_coords(60, 2).tolist()]
    counts = np.array(counts)
    n = counts.shape[0]
    for k, p in enumerate([0.25, 0.5, 0.25]):
        frac = float((counts == k).mean())
        assert abs(frac - p) <= 5 * math.sqrt(p * (1 - p) / n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3), st.integers(0, 8), st.sampled_from(LAWS), st.integers(0, 2**32),
    st.booleans(),
)
def test_lazy_counts_match_keyed_reference(dim, radius, law, master, conditioned):
    seed = SeedSpec(master, "lazy")
    env = sample_environment(law, dim, radius, seed)
    coords = ball_coords(radius, dim)
    # the eager keyed sampler these environments replace
    ref = law.quantile_counts(uniform01_np(site_keys_np(seed.purpose_key(PURPOSE_OMEGA), coords)))
    if conditioned:
        env = condition_origin(env)
        origin = (0,) * dim
        ref[np.all(coords == 0, axis=1)] = law.conditioned_quantile(
            uniform01(site_key(seed, PURPOSE_CONDITION, origin))
        )
    assert np.array_equal(env.counts_at(coords), ref)
    assert [env.omega(tuple(x)) for x in coords.tolist()] == ref.tolist()
    # the box is a mask: the next shell reports no frogs, and growing it keeps every count
    beyond = np.asarray(shell_coords((0,) * dim, radius + 1), dtype=np.int64)
    assert not env.counts_at(beyond).any()
    grown = env.with_radius(radius + 3)
    assert np.array_equal(grown.counts_at(coords), ref)
    assert grown.counts_at(beyond).tolist() == [grown.omega(tuple(x)) for x in beyond.tolist()]


def test_counts_follow_documented_formula():
    # docs/key-derivation.md: u = (site_key >> 11) * 2^-53 with site_key = absorb*(purpose_key(2), d, x_1, ..., x_d),
    # and the count is #{k >= 0 : F(k) <= u}; F here is scipy's, not the law's own table
    seed = SeedSpec(7, "dev")
    env = sample_environment(ConfigLaw.poisson(1.0), 2, 8, seed)
    cdf = sps.poisson.cdf(np.arange(40), 1.0)
    for x in [tuple(row) for row in ball_coords(8, 2).tolist()]:
        key = absorb(seed.purpose_key(PURPOSE_OMEGA), len(x))
        for c in x:
            key = absorb(key, c & MASK64)
        assert env.omega(x) == int((cdf <= (key >> 11) * 2.0**-53).sum()), x
    assert env.omega((3, 4)) == 1  # the documented example
