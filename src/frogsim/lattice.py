"""Integer lattice geometry: norms, neighborhoods, cube indexing.

Sites of Z^d are plain tuples of ints so they can key dicts and sets.
Bulk geometry (balls, shells) is produced as numpy arrays in a fixed
canonical order so that every consumer enumerates sites identically.
Every dense array over a finite piece of Z^d is laid out by ``CubeIndex``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

Coords = tuple[int, ...]


def l1(x: Sequence[int]) -> int:
    return int(sum(map(abs, x)))


def linf(x: Sequence[int]) -> int:
    return int(max(map(abs, x)))


def add(x: Coords, y: Coords) -> Coords:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def sub(x: Coords, y: Coords) -> Coords:
    return tuple(a - b for a, b in zip(x, y, strict=True))


def scale(k: int, x: Coords) -> Coords:
    return tuple(k * c for c in x)


@lru_cache(maxsize=None)
def step_vectors(dim: int) -> np.ndarray:
    """The 2d unit steps in canonical order +e1, -e1, +e2, -e2, ...

    Walk direction codes index into this array; the order is part of the
    reproducibility contract and must never change.
    """
    out = np.zeros((2 * dim, dim), dtype=np.int64)
    for i in range(dim):
        out[2 * i, i] = 1
        out[2 * i + 1, i] = -1
    return out


def cube_coords(radius: int, dim: int) -> np.ndarray:
    """All sites of the l-infinity cube [-radius, radius]^dim, lex order."""
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * dim
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


@dataclass(frozen=True)
class CubeIndex:
    """Row-major flat keys of the cube [-radius, radius]^dim.

    Key order is the lex order of ``cube_coords(radius, dim)``, so
    ``flat(cube_coords(radius, dim))`` is ``arange(size)``.  Keys of sites
    outside the cube alias sites inside it: check ``contains`` first when a
    site may lie outside.  The neighbour of a key along axis j is the key
    plus or minus ``strides[j]`` when both sites lie in the cube.
    """

    radius: int
    dim: int
    side: int = field(init=False)
    size: int = field(init=False)
    strides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _offset: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        side = 2 * self.radius + 1
        strides = tuple(side ** (self.dim - 1 - j) for j in range(self.dim))
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "size", side**self.dim)
        object.__setattr__(self, "strides", strides)
        object.__setattr__(self, "_offset", self.radius * sum(strides))

    # the scalar methods are plain loops: the per-site searches call them in
    # their innermost loops, where this is faster than any builtin pipeline

    def contains(self, x: Coords) -> bool:
        r = self.radius
        for c in x:
            if not -r <= c <= r:
                return False
        return True

    def flat_one(self, x: Coords) -> int:
        side, r = self.side, self.radius
        key = 0
        for c in x:
            key = key * side + (c + r)
        return key

    def flat(self, coords: np.ndarray) -> np.ndarray:
        """Keys of the rows of an (n, dim) integer array."""
        return coords @ np.asarray(self.strides, dtype=np.int64) + self._offset

    def unflat_one(self, key: int) -> Coords:
        return tuple(key // s % self.side - self.radius for s in self.strides)

    def unflat(self, keys: np.ndarray) -> np.ndarray:
        """The (n, dim) sites of an array of keys, one ``divmod`` per axis."""
        coords = np.empty((keys.shape[0], self.dim), dtype=np.int64)
        rest = keys
        for j, s in enumerate(self.strides[:-1]):
            coords[:, j], rest = np.divmod(rest, s)
        coords[:, -1] = rest  # the last stride is 1
        coords -= self.radius
        return coords


@lru_cache(maxsize=4)
def cube_norms(radius: int, dim: int) -> np.ndarray:
    """The l1 norm of each key of ``CubeIndex(radius, dim)``, read-only.

    Built one axis at a time: the norms of the cube in d axes are those in
    d - 1 axes plus |x_d|, broadcast, so no coordinate array is made.
    """
    axis = np.abs(np.arange(-radius, radius + 1, dtype=np.int32))
    norms = axis
    for _ in range(dim - 1):
        norms = (norms[:, None] + axis).ravel()
    norms.flags.writeable = False
    return norms


def ball_coords(radius: int, dim: int) -> np.ndarray:
    """All sites with l1 norm <= radius, in lexicographic order."""
    return cube_coords(radius, dim)[cube_norms(radius, dim) <= radius]


def shell_coords(center: Coords, radius: int) -> list[Coords]:
    """Sites at exact l1 distance ``radius`` from center, lex order."""
    return [add(center, offs) for offs in _shell_offsets(radius, len(center))]


@lru_cache(maxsize=512)
def _shell_offsets(radius: int, dim: int) -> tuple[Coords, ...]:
    # the cube in lex order, which the filter keeps; plain Python, since a first numpy
    # filter in a fresh process raises its peak memory (about 0.5 MB measured)
    return tuple(x for x in product(range(-radius, radius + 1), repeat=dim) if l1(x) == radius)
