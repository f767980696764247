from frogsim.environment import ConfigLaw, Environment
from frogsim.lattice import ball_coords
from frogsim.walks import SeedSpec

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
