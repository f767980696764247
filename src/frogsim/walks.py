"""Deterministic, seeded walk step codes.

Every frog's trajectory is a pure function of (master seed, experiment tag,
origin site, frog index): direction codes come from a counter-based keyed
mixing function, so hitting times queried in any order, or in parallel, see
one consistent realization of the walk family.  Step k of a frog is a pure
function of (walk key, k), so no per-frog state need be cached: callers
draw whole batches of (key, counter) pairs with ``step_codes_np``.

Key derivation layout (all arithmetic mod 2^64; see docs/key-derivation.md
for frozen test vectors):

    base = absorb(mix64(master_seed), tag_fold(experiment_tag))
    key  = absorb*(absorb(base, purpose), field_1, ..., field_n)

    absorb(h, v) = mix64(((h + GAMMA) mod 2^64) XOR (v mod 2^64))
    mix64        = splitmix64 finalizer
    draw(key, k) = mix64(key XOR (k * WEYL mod 2^64))

Purposes: 1 = walk steps, 2 = configuration counts, 3 = percolation bits,
4 = origin-conditioned redraw, 5 = derived child seeds, 6 = bootstrap.
Walk key fields: (dim, x_1, ..., x_d, ell); coordinates are absorbed as
two's-complement 64-bit values.  The direction code of step k >= 1 is
draw(key, k) mod 2d, indexing lattice.step_vectors(d).

The numpy paths compute the same words in the equivalent forms of
docs/key-derivation.md.  ``weyl_codes_np`` takes a running counter
k * WEYL mod 2^64, which a caller that steps its walks together (the engine)
carries per walk and advances by WEYL each step; ``step_codes_np`` is the
same function applied to counters times WEYL.  Its mod 2d is a mask of the
low bits when 2d is a power of two.  The head absorb(purpose_key, d) is made
once per seed and purpose, and ``absorb_coords_np`` absorbs the
coordinates of many sites into the heads of several purposes at once.
``cube_site_keys_np`` keys a whole cube one axis at a time, and
``uniform01_below_np`` compares uniforms with p in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import INTEGER, TEXT, require
from .lattice import Coords

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
WEYL = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

PURPOSE_WALK = 1
PURPOSE_OMEGA = 2
PURPOSE_FIELD = 3
PURPOSE_CONDITION = 4
PURPOSE_CHILD = 5
PURPOSE_BOOTSTRAP = 6


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def absorb(h: int, v: int) -> int:
    return mix64(((h + GAMMA) & MASK64) ^ (v & MASK64))


def tag_fold(tag: str) -> int:
    h = mix64(len(tag))
    for b in tag.encode("utf-8"):
        h = absorb(h, b)
    return h


def draw(key: int, counter: int) -> int:
    return mix64(key ^ ((counter * WEYL) & MASK64))


# numpy mirrors; uint64 arithmetic wraps mod 2^64, matching the scalar path


# numpy scalars made once: building one costs about as much as an operation on a small array
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_GAMMA_NP, _WEYL_NP, _M1_NP, _M2_NP = (np.uint64(c) for c in (GAMMA, WEYL, _M1, _M2))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 of a uint64 array the caller owns, overwriting it."""
    z ^= z >> _S30
    z *= _M1_NP
    z ^= z >> _S27
    z *= _M2_NP
    z ^= z >> _S31
    return z


def mix64_np(z: np.ndarray) -> np.ndarray:
    return _mix64_inplace(np.array(z, dtype=np.uint64))


def absorb_np(h: np.ndarray, v: np.ndarray | int) -> np.ndarray:
    """absorb per row; ``v`` is a uint64 array or a nonnegative int."""
    z = h + _GAMMA_NP
    z ^= v
    return _mix64_inplace(z)


def _weyls(counters: np.ndarray) -> np.ndarray:
    """k * WEYL mod 2^64 for each counter k."""
    z = np.asarray(counters).astype(np.uint64)
    z *= _WEYL_NP
    return z


def draw_np(keys: np.ndarray | np.uint64, counters: np.ndarray) -> np.ndarray:
    z = _weyls(counters)
    z ^= keys
    return _mix64_inplace(z)


def uniform01(word: int) -> float:
    return (word >> 11) * 2.0**-53


def uniform01_np(words: np.ndarray) -> np.ndarray:
    return (words >> _S11).astype(np.float64) * 2.0**-53


def uniform01_below_np(words: np.ndarray, p: float) -> np.ndarray:
    """uniform01(w) < p for each word, p in [0, 1], in integers: (w >> 11) < ceil(p * 2^53)."""
    # p * 2^53 only shifts p's exponent, so it is exact, and an integer m
    # lies below the real q exactly when it lies below ceil(q)
    return (words >> _S11) < np.uint64(math.ceil(p * 2.0**53))


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a tag mixed into every derived key."""

    master_seed: int
    experiment_tag: str = ""

    def __post_init__(self):
        require("master_seed", self.master_seed, INTEGER)
        require("experiment_tag", self.experiment_tag, TEXT)

    @cached_property
    def base(self) -> int:
        # cached_property writes the instance dict directly, so it works on the
        # frozen dataclass and stays out of its fields, equality and hash
        return absorb(mix64(self.master_seed & MASK64), tag_fold(self.experiment_tag))

    def purpose_key(self, purpose: int) -> int:
        return absorb(self.base, purpose)

    def child(self, stream: str, index: int = 0) -> "SeedSpec":
        """A derived seed for a named sub-experiment; disjoint by construction."""
        h = absorb(self.purpose_key(PURPOSE_CHILD), tag_fold(stream))
        h = absorb(h, index)
        return SeedSpec(master_seed=h, experiment_tag=self.experiment_tag)


def site_key(seed: SeedSpec, purpose: int, x: Coords) -> int:
    h = absorb(seed.purpose_key(purpose), len(x))
    for c in x:
        h = absorb(h, c)
    return h


def absorb_coords_np(heads: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """absorb* of each row's coordinates into its head, axis by axis.

    ``heads`` holds one head absorb(purpose_key, d) per row of ``coords``,
    or a (p, n) stack of them, one row per purpose, which takes the same
    number of passes as one purpose.
    """
    cols = coords.astype(np.int64, copy=False).view(np.uint64)
    for j in range(coords.shape[1]):
        heads = absorb_np(heads, cols[:, j])
    return heads


def site_keys_np(purpose_keys: int | np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Site keys of the rows of ``coords``; ``purpose_keys`` is one ``purpose_key`` or one per row."""
    n, d = coords.shape
    keys = np.asarray(purpose_keys, dtype=np.uint64)
    h = np.full(n, absorb(int(keys), d), dtype=np.uint64) if keys.ndim == 0 else absorb_np(keys, d)
    return absorb_coords_np(h, coords)


def cube_site_keys_np(purpose_key: int, radius: int, dim: int) -> np.ndarray:
    """Site keys of the cube [-radius, radius]^dim, in the key order of ``CubeIndex(radius, dim)``.

    One axis at a time: the heads after absorbing x_1, ..., x_j are one per
    site of the cube in j axes, and absorbing x_{j+1} broadcasts them against
    the 2 * radius + 1 values of the axis, so each absorb but the last runs
    over a face of the cube, and no coordinate array is made.
    """
    axis = np.arange(-radius, radius + 1, dtype=np.int64).view(np.uint64)
    heads = np.full(1, absorb(purpose_key, dim), dtype=np.uint64)
    for _ in range(dim):
        heads = _mix64_inplace((heads + _GAMMA_NP)[:, None] ^ axis).ravel()
    return heads


def walk_key(seed: SeedSpec, x: Coords, ell: int) -> int:
    if ell < 1:
        raise ValueError(f"frog index must be >= 1, got {ell}")
    return absorb(site_key(seed, PURPOSE_WALK, x), ell)


def walk_keys_np(purpose_keys: int | np.ndarray, coords: np.ndarray, ells: np.ndarray) -> np.ndarray:
    """Keys of frogs (coords, ell); ``purpose_keys`` is ``purpose_key(PURPOSE_WALK)``, once or per row."""
    h = site_keys_np(purpose_keys, coords)
    return absorb_np(h, ells.astype(np.int64).view(np.uint64))


def step_code(key: int, k: int, dim: int) -> int:
    """Direction code of step k >= 1 of the walk with this key."""
    return draw(key, k) % (2 * dim)


def weyl_codes_np(keys: np.ndarray, weyls: np.ndarray, dim: int) -> np.ndarray:
    """The direction codes draw(key, k) mod 2d, given ``weyls`` = k * WEYL mod 2^64 in place of k."""
    z = _mix64_inplace(keys ^ weyls)
    if dim & (dim - 1):
        z %= np.uint64(2 * dim)
    else:  # 2d is a power of two: the mod keeps the low bits
        z &= np.uint64(2 * dim - 1)
    return z.view(np.int64)  # codes < 2d read the same as int64


def step_codes_np(keys: np.ndarray, counters: np.ndarray, dim: int) -> np.ndarray:
    return weyl_codes_np(keys, _weyls(counters), dim)
