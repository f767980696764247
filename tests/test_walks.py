import numpy as np
import pytest
from scipy import stats as sps

from frogsim.lattice import cube_coords, step_vectors
from frogsim.walks import (
    PURPOSE_FIELD,
    PURPOSE_OMEGA,
    PURPOSE_WALK,
    WEYL,
    SeedSpec,
    absorb_coords_np,
    absorb_np,
    cube_site_keys_np,
    draw,
    draw_np,
    mix64,
    mix64_np,
    site_key,
    site_keys_np,
    step_code,
    step_codes_np,
    uniform01,
    uniform01_below_np,
    uniform01_np,
    walk_key,
    walk_keys_np,
    weyl_codes_np,
)

# frozen vectors; see docs/key-derivation.md
TEST_VECTORS = [
    (0, "", (0, 0), 1, 0x8C06BC0A6DC2127B, [2, 1, 1, 1, 2, 0, 3, 2, 1, 2, 1, 0, 3, 3, 1, 0]),
    (0, "", (0, 0), 2, 0xD05DE8BD7364E4C9, [1, 1, 0, 2, 3, 0, 0, 1, 3, 3, 3, 3, 2, 3, 0, 0]),
    (1, "", (0, 0), 1, 0xB21BEE4BF37A731A, [1, 1, 3, 2, 3, 0, 2, 3, 0, 1, 1, 0, 2, 3, 3, 2]),
    (0, "", (1, 0), 1, 0x18896173043CCB63, [1, 1, 0, 3, 2, 1, 2, 2, 0, 0, 1, 3, 2, 1, 2, 1]),
    (0, "", (-3, 7), 2, 0x995046444A26288A, [2, 1, 0, 3, 1, 2, 2, 1, 0, 1, 2, 2, 0, 1, 3, 3]),
    (12345, "tag", (0, 0, 0), 1, 0xC9F30D6D07C7B6BD, [5, 5, 4, 4, 5, 3, 5, 1, 3, 4, 5, 4, 1, 3, 2, 1]),
    (2**63, "x", (5,), 9, 0xEF9F7B60593DCC54, [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1]),
    (7, "dev", (2, -2), 3, 0x912E678336B2274B, [0, 2, 0, 1, 0, 3, 0, 2, 3, 1, 2, 3, 3, 2, 2, 3]),
]


def walk_codes(seed, x, ell, n):
    """Direction codes of steps 1..n of frog (x, ell), drawn as one batch."""
    keys = np.full(n, walk_key(seed, x, ell), dtype=np.uint64)
    return step_codes_np(keys, np.arange(1, n + 1, dtype=np.uint64), len(x))


def walk_positions(seed, x, ell, n):
    """Positions S_0..S_n of frog (x, ell) as an (n+1, d) array."""
    steps = step_vectors(len(x))[walk_codes(seed, x, ell, n)]
    return np.concatenate([[x], np.cumsum(steps, axis=0) + np.asarray(x)])


@pytest.mark.parametrize("master,tag,x,ell,key,codes", TEST_VECTORS)
def test_published_vectors(master, tag, x, ell, key, codes):
    seed = SeedSpec(master, tag)
    assert walk_key(seed, x, ell) == key
    got = [step_code(key, k, len(x)) for k in range(1, 17)]
    assert got == codes
    assert walk_codes(seed, x, ell, 16).tolist() == codes
    # the engine's form: a running counter k * WEYL, advanced by WEYL each step, reduced
    # by a mask at 2d = 2 or 4 and by a remainder at 2d = 6
    keys, weyl, running = np.full(1, key, dtype=np.uint64), np.zeros(1, dtype=np.uint64), []
    for _ in range(16):
        weyl += np.uint64(WEYL)
        running += weyl_codes_np(keys, weyl, len(x)).tolist()
    assert running == codes


def test_determinism_same_key():
    seed = SeedSpec(99, "repro")
    a = walk_positions(seed, (3, -1), 4, 10_000)
    b = walk_positions(seed, (3, -1), 4, 10_000)
    assert np.array_equal(a, b)


def test_streams_differ_between_frogs():
    # pinned: for master seed 0 the two origin frogs diverge at the first step
    a = walk_codes(SeedSpec(0, ""), (0, 0), 1, 64)
    b = walk_codes(SeedSpec(0, ""), (0, 0), 2, 64)
    assert a[0] != b[0]
    assert not np.array_equal(a, b)


def test_walk_position_contract():
    seed = SeedSpec(5, "walks")
    pos = walk_positions(seed, (2, 3), 1, 200)
    assert tuple(pos[0]) == (2, 3)
    steps = np.abs(np.diff(pos, axis=0)).sum(axis=1)
    assert np.all(steps == 1)
    norms = np.abs(pos - np.array([2, 3])).sum(axis=1)
    ks = np.arange(201)
    assert np.all(norms <= ks)
    assert np.all((norms - ks) % 2 == 0)


def test_scalar_numpy_paths_agree():
    rng = np.random.default_rng(7)
    zs = rng.integers(0, 2**63, 100, dtype=np.int64).view(np.uint64)
    out_np = mix64_np(zs)
    for z, expect in zip(zs.tolist(), out_np.tolist()):
        assert mix64(z) == expect
    keys = zs[:10]
    counters = np.arange(1, 11, dtype=np.uint64)
    vec = draw_np(keys, counters)
    for key, k, expect in zip(keys.tolist(), counters.tolist(), vec.tolist()):
        assert draw(key, k) == expect
    codes = step_codes_np(keys, counters, 2)
    for key, k, expect in zip(keys.tolist(), counters.tolist(), codes.tolist()):
        assert step_code(key, k, 2) == expect


def test_walk_keys_np_matches_scalar():
    seed = SeedSpec(31, "batch")
    coords = np.array([[0, 0], [5, -2], [-7, 7]], dtype=np.int64)
    ells = np.array([1, 2, 3], dtype=np.int64)
    batch = walk_keys_np(seed.purpose_key(PURPOSE_WALK), coords, ells)
    for row, ell, expect in zip(coords.tolist(), ells.tolist(), batch.tolist()):
        assert walk_key(seed, tuple(row), ell) == expect
    # one purpose key per row, as the batched engine passes them
    seeds = [SeedSpec(31, "batch"), SeedSpec(32, "batch"), SeedSpec(31, "other")]
    per_row = walk_keys_np(np.asarray([s.purpose_key(PURPOSE_WALK) for s in seeds], dtype=np.uint64), coords, ells)
    for s, row, ell, expect in zip(seeds, coords.tolist(), ells.tolist(), per_row.tolist()):
        assert walk_key(s, tuple(row), ell) == expect
    # the engine's form: per-seed heads absorb(purpose_key, d) for two purposes at once,
    # every site's coordinates absorbed into both in one pass per axis
    seeds.append(SeedSpec(2**63 + 5, "other"))
    purpose_keys = np.asarray([[s.purpose_key(p) for s in seeds] for p in (PURPOSE_OMEGA, PURPOSE_WALK)],
                              dtype=np.uint64)
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        coords = rng.integers(-2**40, 2**40, (12, dim))
        coords[:3] = [[-1] * dim, [0] * dim, [-7] + [3] * (dim - 1)]
        rep = rng.integers(0, len(seeds), 12)
        ells = rng.integers(1, 9, 12)
        omega, walk = absorb_coords_np(absorb_np(purpose_keys, dim).take(rep, axis=1), coords)
        walks = absorb_np(walk, ells.astype(np.uint64))
        for r, row, ell, o, w in zip(rep.tolist(), coords.tolist(), ells.tolist(), omega.tolist(), walks.tolist()):
            assert site_key(seeds[r], PURPOSE_OMEGA, tuple(row)) == o
            assert walk_key(seeds[r], tuple(row), ell) == w


def test_direction_frequencies():
    # 10^6 steps of one stream: each direction near 1/4 within 5 sigma
    seed = SeedSpec(123, "freq")
    codes = walk_codes(seed, (0, 0), 1, 1_000_000)
    counts = np.bincount(codes, minlength=4)
    n = codes.shape[0]
    p = 1 / 4
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 5 * sigma), counts
    chi2 = float(((counts - n * p) ** 2 / (n * p)).sum())
    assert sps.chi2.sf(chi2, df=3) > 1e-3


def test_uniform01_range():
    words = np.array([0, 2**64 - 1, 12345678901234567], dtype=np.uint64)
    u = uniform01_np(words)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert uniform01(0) == 0.0
    assert 0.0 <= uniform01(2**64 - 1) < 1.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, 1, 4])
def test_cube_site_keys_np_matches_site_keys_np(dim, radius):
    # hashing the cube one axis at a time gives the keys of its sites, in key order
    for seed in (SeedSpec(9, "cube"), SeedSpec(2**63 + 1, "")):
        purpose_key = seed.purpose_key(PURPOSE_FIELD)
        expect = site_keys_np(purpose_key, cube_coords(radius, dim))
        assert np.array_equal(cube_site_keys_np(purpose_key, radius, dim), expect)


@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.5, float(np.nextafter(1.0, 0.0)), 1.0, 1 / 3])
def test_uniform01_below_np_is_the_float_comparison(p):
    # the high 53 bits at and next to p * 2^53 and at the ends, either low-bit extreme, plus random words
    near = int(p * 2**53)
    edges = {m for m in (0, 1, near - 1, near, near + 1, 2**53 - 1) if 0 <= m < 2**53}
    words = [m << 11 | low for m in sorted(edges) for low in (0, 2**11 - 1)]
    words += np.random.default_rng(3).integers(0, 2**64, 200, dtype=np.uint64).tolist()
    below = uniform01_below_np(np.array(words, dtype=np.uint64), p)
    assert below.tolist() == [uniform01(w) < p for w in words]


def test_child_seeds_disjoint():
    seed = SeedSpec(4, "parent")
    a = seed.child("calibration", 0)
    b = seed.child("test", 0)
    c = seed.child("calibration", 1)
    assert len({a.master_seed, b.master_seed, c.master_seed, seed.master_seed}) == 4
    assert a == seed.child("calibration", 0)
