"""Integer lattice geometry: norms, neighborhoods, cube indexing.

Sites of Z^d are plain tuples of ints so they can key dicts and sets.
Bulk geometry (balls, shells) is produced as numpy arrays in a fixed
canonical order so that every consumer enumerates sites identically.
Every dense array over a finite piece of Z^d is laid out by ``CubeIndex``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySetError

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


def closest_in_set(x: Coords, sites: Iterable[Coords]) -> Coords:
    """The l1-closest element of ``sites``; ties broken lexicographically.

    The tie-break makes the result independent of iteration order.
    """
    best: Coords | None = None
    best_dist = -1
    for s in sites:
        dist = l1(sub(s, x))
        if best is None or dist < best_dist or (dist == best_dist and s < best):
            best = s
            best_dist = dist
    if best is None:
        raise EmptySetError("closest_in_set over an empty set")
    return best


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
        """The (n, dim) sites of an array of keys."""
        return np.stack([keys // s % self.side - self.radius for s in self.strides], axis=1)


def ball_coords(radius: int, dim: int) -> np.ndarray:
    """All sites with l1 norm <= radius, in lexicographic order."""
    cube = cube_coords(radius, dim)
    return cube[np.abs(cube).sum(axis=1) <= radius]


def shell_coords(center: Coords, radius: int) -> list[Coords]:
    """Sites at exact l1 distance ``radius`` from center, lex order."""
    d = len(center)
    if radius == 0:
        return [center]
    out = []
    for offs in _shell_offsets(radius, d):
        out.append(add(center, offs))
    return sorted(out)


@lru_cache(maxsize=512)
def _shell_offsets(radius: int, dim: int) -> tuple[Coords, ...]:
    offs = set()

    def rec(prefix: list[int], remaining: int, axes_left: int) -> None:
        if axes_left == 1:
            for s in (remaining, -remaining):
                offs.add(tuple(prefix + [s]))
            return
        for mag in range(remaining + 1):
            for s in {mag, -mag}:
                rec(prefix + [s], remaining - mag, axes_left - 1)

    rec([], radius, dim)
    return tuple(sorted(offs))
