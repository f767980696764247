import numpy as np

from frogsim.environment import ConfigLaw, Environment
from frogsim.lattice import ball_coords, step_vectors
from frogsim.passage import offset_index, row_hits
from frogsim.walks import PURPOSE_WALK, SeedSpec, step_codes_np, walk_keys_np

# one law of every kind, each with several positive counts where it can
LAWS = [
    ConfigLaw.bernoulli(0.4),
    ConfigLaw.poisson(1.7),
    ConfigLaw.geometric(0.35),
    ConfigLaw.constant(2),
    ConfigLaw.explicit([0.3, 0.2, 0.4, 0.1]),
]


def env_from_counts(dim, radius, counts, seed=None, law=None, conditioned=False):
    """Hand-built environment: zero everywhere except the given site counts."""
    law = law or ConfigLaw.bernoulli(0.5)
    seed = seed or SeedSpec(0, "fixture")
    fixed = dict.fromkeys(map(tuple, ball_coords(radius, dim).tolist()), 0)
    fixed.update(counts)
    return Environment(dim, radius, law, seed, conditioned, fixed)


def dense_first_hits(env, u, horizon):
    """The dense walker that ``first_hits`` replaced, kept as its oracle.

    Walks each of u's omega(u) frogs for ``horizon`` steps as one (frogs,
    horizon) array and keeps the first time of every offset, k = 0 included:
    sorted ``offset_index(horizon, dim)`` keys and their times, no cache.
    """
    count = env.omega(u)
    if count < 1:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ells = np.arange(1, count + 1, dtype=np.int64)
    keys = walk_keys_np(env.seed.purpose_key(PURPOSE_WALK), np.repeat([list(u)], count, axis=0), ells)
    counters = np.arange(1, horizon + 1, dtype=np.uint64)
    codes = step_codes_np(np.repeat(keys, horizon), np.tile(counters, count), env.dim).reshape(count, horizon)
    offsets = np.cumsum(step_vectors(env.dim)[codes], axis=1).reshape(count * horizon, env.dim)
    times = np.tile(np.arange(1, horizon + 1, dtype=np.int64), count)
    # prepend the k = 0 self-hit
    offsets = np.concatenate([np.zeros((1, env.dim), dtype=np.int64), offsets])
    times = np.concatenate([[0], times])
    flat = offset_index(horizon, env.dim).flat(offsets)
    order = np.lexsort((times, flat))
    flat, times = flat[order], times[order]
    lead = np.ones(flat.shape[0], dtype=bool)
    lead[1:] = flat[1:] != flat[:-1]
    return flat[lead], times[lead]


def dense_tau(env, u, v, horizon):
    """tau(u, v) from ``dense_first_hits``: the first time, or None when censored."""
    delta = tuple(b - a for a, b in zip(u, v))
    index = offset_index(horizon, env.dim)
    if not index.contains(delta):
        return None
    sites, times = dense_first_hits(env, u, horizon)
    pos = np.searchsorted(sites, index.flat_one(delta))
    return int(times[pos]) if pos < sites.shape[0] and sites[pos] == index.flat_one(delta) else None


def row_extent_is(env, u, t, horizon):
    """Whether u's cached ball row ends at (t, horizon): ``row_hits`` reads it there and not one step beyond."""
    return (
        row_hits(env, u, t, horizon) is not None
        and row_hits(env, u, t + 1, horizon) is None
        and row_hits(env, u, t, horizon + 1) is None
    )
