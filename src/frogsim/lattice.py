"""Integer lattice geometry: norms, neighborhoods, cube indexing, symmetries.

Sites of Z^d are plain tuples of ints so they can key dicts and sets.
Bulk geometry (balls, shells) is produced as numpy arrays in a fixed
canonical order so that every consumer enumerates sites identically.
Every dense array over a finite piece of Z^d is laid out by ``CubeIndex``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySetError, GeometryError

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


def unit(dim: int, axis: int) -> Coords:
    """Basis vector along ``axis`` (0-based)."""
    return tuple(1 if i == axis else 0 for i in range(dim))


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


def neighbors(x: Coords) -> list[Coords]:
    """The 2d nearest neighbors of x, in canonical step order."""
    d = len(x)
    return [add(x, tuple(v)) for v in step_vectors(d).tolist()]


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
    site may lie outside.
    """

    radius: int
    dim: int
    side: int = field(init=False)
    size: int = field(init=False)
    _strides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _offset: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        side = 2 * self.radius + 1
        strides = tuple(side ** (self.dim - 1 - j) for j in range(self.dim))
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "size", side**self.dim)
        object.__setattr__(self, "_strides", strides)
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
        return coords @ np.asarray(self._strides, dtype=np.int64) + self._offset

    def unflat_one(self, key: int) -> Coords:
        return tuple(key // s % self.side - self.radius for s in self._strides)

    def unflat(self, keys: np.ndarray) -> np.ndarray:
        """The (n, dim) sites of an array of keys."""
        return np.stack([keys // s % self.side - self.radius for s in self._strides], axis=1)


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


# ---------------------------------------------------------------------------
# Signed permutations: the orthogonal transformations preserving the grid.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """Map sending coordinate i of the output to signs[i] * x[perm[i]]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        d = len(self.perm)
        if sorted(self.perm) != list(range(d)):
            raise ValueError(f"perm is not a permutation of 0..{d - 1}: {self.perm}")
        if len(self.signs) != d or any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be +/-1 of length {d}: {self.signs}")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def apply(self, x: Coords) -> Coords:
        if len(x) != self.dim:
            raise GeometryError(f"dimension mismatch: map is {self.dim}-d, point is {len(x)}-d")
        return tuple(self.signs[i] * x[self.perm[i]] for i in range(self.dim))

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self.compose(other)).apply(x) == self.apply(other.apply(x))."""
        perm = tuple(other.perm[self.perm[i]] for i in range(self.dim))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(self.dim))
        return SignedPermutation(perm, signs)

    def inverse(self) -> "SignedPermutation":
        inv_perm = [0] * self.dim
        inv_signs = [1] * self.dim
        for i in range(self.dim):
            inv_perm[self.perm[i]] = i
            inv_signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(inv_perm), tuple(inv_signs))


def identity_map(dim: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(dim)), (1,) * dim)


@lru_cache(maxsize=8)
def all_signed_permutations(dim: int) -> tuple[SignedPermutation, ...]:
    """The full group, size 2^d * d!."""
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            out.append(SignedPermutation(perm, signs))
    return tuple(out)


@dataclass(frozen=True)
class AdaptedBasis:
    """A linear map y -> sum_i y[i] * g_i(base_point) built from grid symmetries.

    ``quality`` is the achieved lower constant on the probe set used by the
    search: quality * |base|_1 * |y|_1 <= |L(y)|_1 for every probe y.  The
    matching upper bound |L(y)|_1 <= |base|_1 * |y|_1 holds for all y by the
    triangle inequality.
    """

    maps: tuple[SignedPermutation, ...]
    base_point: Coords
    quality: float

    @property
    def dim(self) -> int:
        return len(self.maps)

    def images(self) -> list[Coords]:
        return [g.apply(self.base_point) for g in self.maps]

    def apply(self, y: Coords) -> Coords:
        if len(y) != self.dim:
            raise GeometryError(f"dimension mismatch: basis is {self.dim}-d, point is {len(y)}-d")
        out = [0] * self.dim
        for coeff, image in zip(y, self.images()):
            for i in range(self.dim):
                out[i] += coeff * image[i]
        return tuple(out)


def default_probe_set(dim: int, max_norm: int = 3) -> list[Coords]:
    """All nonzero y with |y|_1 <= max_norm."""
    pts = ball_coords(max_norm, dim)
    return [tuple(int(c) for c in row) for row in pts if any(row)]


def find_adapted_basis(
    x: Coords,
    probe_directions: Sequence[Coords] | None = None,
) -> AdaptedBasis:
    """Exhaustive search for the map maximizing the worst-case probe ratio.

    Searches tuples (g_2, ..., g_d) over the full symmetry group with
    g_1 = identity, scoring each tuple by
    min over probes y of |L(y)|_1 / (|x|_1 |y|_1).  Group size makes this
    feasible for d <= 4; prefix pruning uses probes supported on already
    chosen coordinates.
    """
    d = len(x)
    if l1(x) == 0:
        raise GeometryError("adapted basis requires a nonzero base point")
    if d > 4:
        raise GeometryError(f"adapted-basis search is exhaustive and limited to d <= 4, got d={d}")
    probes = list(probe_directions) if probe_directions is not None else default_probe_set(d)
    if not probes:
        raise EmptySetError("adapted-basis search needs at least one probe direction")

    norm_x = l1(x)
    group = all_signed_permutations(d)
    images = np.array([g.apply(x) for g in group], dtype=np.int64)  # (|G|, d)
    probes_arr = np.array(probes, dtype=np.int64)  # (P, d)
    probe_norms = np.abs(probes_arr).sum(axis=1)

    # probes usable once the first j coordinates of the tuple are fixed
    support = [int(np.max(np.nonzero(row)[0])) for row in probes_arr]
    probes_by_level: list[list[int]] = [[] for _ in range(d)]
    for idx, lvl in enumerate(support):
        probes_by_level[lvl].append(idx)

    ident = identity_map(d)
    best_quality = -1.0
    best_tuple: tuple[int, ...] | None = None

    chosen = np.zeros((d, d), dtype=np.int64)
    chosen[0] = x

    def ratio_for(level: int, probe_idx: Sequence[int]) -> float:
        if not probe_idx:
            return np.inf
        sel = probes_arr[probe_idx, : level + 1]  # (P', level+1)
        vals = np.abs(sel @ chosen[: level + 1]).sum(axis=1)
        return float(np.min(vals / (norm_x * probe_norms[probe_idx])))

    def rec(level: int, running: float, picks: tuple[int, ...]) -> None:
        nonlocal best_quality, best_tuple
        if level == d:
            if running > best_quality:
                best_quality = running
                best_tuple = picks
            return
        for gi in range(len(group)):
            chosen[level] = images[gi]
            q = min(running, ratio_for(level, probes_by_level[level]))
            if q > best_quality:
                rec(level + 1, q, picks + (gi,))

    rec(1, ratio_for(0, probes_by_level[0]), ())
    if best_tuple is None or best_quality <= 0.0:
        raise GeometryError("no adapted basis with positive quality found on the probe set")
    maps = (ident,) + tuple(group[i] for i in best_tuple)
    return AdaptedBasis(maps=maps, base_point=tuple(x), quality=best_quality)
