import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frogsim.errors import EmptySetError
from frogsim.lattice import (
    CubeIndex,
    ball_coords,
    closest_in_set,
    cube_coords,
    l1,
    linf,
    shell_coords,
    step_vectors,
)


def test_l1_examples():
    assert l1((0, 0)) == 0
    assert l1((3, -4)) == 7
    assert l1((1, 1, 1)) == 3


def test_norm_inequalities_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = rng.integers(1, 5)
        x = tuple(int(v) for v in rng.integers(-50, 51, d))
        assert linf(x) <= l1(x) <= d * linf(x)


def test_neighbors_canonical_order():
    # walk direction codes index the unit steps in the order +e1, -e1, +e2, -e2, ...
    assert step_vectors(2).tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1]]
    assert step_vectors(1).tolist() == [[1], [-1]]
    nb3 = step_vectors(3)
    assert len(nb3) == 6
    for p in nb3.tolist():
        assert l1(p) == 1


def test_closest_in_set_examples():
    assert closest_in_set((0, 0), {(0, 0)}) == (0, 0)
    assert closest_in_set((0, 0), {(1, 0), (0, -1)}) == (0, -1)
    assert closest_in_set((2, 0), {(0, 0), (3, 1)}) == (0, 0)


def test_closest_in_set_order_independent():
    sites = [(1, 1), (-2, 0), (0, 2), (2, 0), (0, -2)]
    expected = closest_in_set((0, 0), sites)
    for shift in range(len(sites)):
        rotated = sites[shift:] + sites[:shift]
        assert closest_in_set((0, 0), rotated) == expected
    assert expected == (-2, 0)  # all at distance 2, lexicographic smallest


def test_closest_in_set_empty():
    with pytest.raises(EmptySetError):
        closest_in_set((0, 0), [])


def test_ball_and_shell():
    pts = ball_coords(2, 2)
    assert pts.shape[0] == 13
    assert sorted(map(tuple, pts.tolist())) == [tuple(p) for p in pts.tolist()]
    shell = shell_coords((0, 0), 2)
    assert all(l1(p) == 2 for p in shell)
    assert len(shell) == 8
    assert shell_coords((3, 3), 0) == [(3, 3)]


def test_step_vectors_shape():
    sv = step_vectors(3)
    assert sv.shape == (6, 3)
    assert np.abs(sv).sum(axis=1).tolist() == [1] * 6


cube_shapes = st.tuples(st.integers(0, 6), st.sampled_from([1, 2, 3]))


@given(cube_shapes)
def test_cube_index_keys_follow_cube_coords(shape):
    radius, dim = shape
    index = CubeIndex(radius, dim)
    coords = cube_coords(radius, dim)
    assert index.size == coords.shape[0] == (2 * radius + 1) ** dim
    assert np.array_equal(index.flat(coords), np.arange(index.size))
    assert [index.flat_one(tuple(row)) for row in coords.tolist()] == list(range(index.size))


@given(cube_shapes, st.data())
def test_cube_index_unflat_inverts_flat(shape, data):
    radius, dim = shape
    index = CubeIndex(radius, dim)
    coords = cube_coords(radius, dim)
    assert np.array_equal(index.unflat(index.flat(coords)), coords)
    key = data.draw(st.integers(0, index.size - 1))
    x = index.unflat_one(key)
    assert x == tuple(coords[key].tolist())
    assert index.flat_one(x) == key


@given(cube_shapes)
def test_cube_index_contains_exactly_the_cube(shape):
    radius, dim = shape
    index = CubeIndex(radius, dim)
    for row in cube_coords(radius + 2, dim).tolist():
        assert index.contains(tuple(row)) == (max(abs(c) for c in row) <= radius)
