import numpy as np

from frogsim.environment import ConfigLaw, Environment
from frogsim.lattice import CubeIndex
from frogsim.walks import SeedSpec


def env_from_counts(dim, radius, counts, seed=None, law=None, conditioned=False):
    """Hand-built environment: zero everywhere except the given site counts."""
    law = law or ConfigLaw.bernoulli(0.5)
    seed = seed or SeedSpec(0, "fixture")
    index = CubeIndex(radius, dim)
    cube = np.zeros(index.size, dtype=np.int32)
    for x, c in counts.items():
        cube[index.flat_one(x)] = c
    return Environment(dim, radius, law, seed, conditioned, cube)
