"""First passage times from event-driven frog dynamics.

The engine advances every active frog one lattice step per time unit; a
site's first visit by an active frog activates the frogs sleeping there.
Trajectories come from keyed streams, so the hitting time tau(u, v), the
dynamic first-visit time and the brute-force relay oracle all observe the
same realization and can be cross-checked for exact equality.

The environment's box is a mask, not storage: counts are computed for the
sites the frogs reach.  Frogs move one step per time unit, so with
box_radius >= horizon + |source|_1 every site reached lies in the box: the
engine reads counts without the mask and computes the process on all of
Z^d.  It refuses smaller boxes unless ``strict=False``, and then masks each
read (out-of-box sites wake nothing), which the oracle replays exactly.
The activation table starts ``_START_RADIUS`` past the farthest source and
stop target in the plane, half as far per dimension above two, and grows
with the reach, so memory follows the sites visited.

``simulate_batch`` runs several replicas (environments of one law, each
with its own source and stop targets) through one step loop, which is the
only step loop: ``simulate_frogs`` is a batch of one.  Every draw is a pure
function of (seed, site, frog, step), so a replica's visits, genealogy and
stopping step do not depend on the batch it runs in, and the numpy cost of
a step is paid once per batch rather than once per replica.  A step adds
WEYL to each frog's running counter k * WEYL and draws every direction
code from it in one pass.  Only a step that first visits a site does more:
one sort finds the new sites and their first visitors, one pass per axis
hashes each new site for both its count and its frogs' walk keys, from
per-replica heads made once per batch, and only then can a replica reach
its last stop target.
``passage_times`` turns a list of (environment, source, targets) runs into
passage values, ``int`` or None when censored, by stepping them through
``simulate_batch`` in batches as wide as the law's mean count asks, each
on its environment grown to horizon + |source|_1; every ensemble of the
experiments runs through it, so no ensemble sizes a box for the engine.

Hitting times come from one cache of ball rows, and this module alone
knows their format.  A ball row holds the first hits of a site's own frogs
within an l-infinity ball and a horizon.  ``build_rows`` builds the rows of
many sites in shared passes and caches each on the environment at the
largest (t, horizon) asked for, an unoccupied site as an empty row;
``row_hits`` reads a site's hits filtered to a smaller (t, horizon),
``row_edges`` those of many sites as one edge list, and ``hit_time`` looks
up one offset in them.
``first_hits`` reads a row at t = horizon, ``tau`` and the relay oracle
look up hits at t = horizon, and the truncated search and its edge price
read the same rows at the search's scale t.

The relay oracle settles labels on the complete tau-weighted graph of
occupied sites by ``argmin`` over one label array: it shares only the walks
with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .environment import Environment, EnvironmentGroup, star
from .errors import COUNT, SITES, FrogsimError, GeometryError, SearchCapError, require, require_site
from .lattice import Coords, CubeIndex, l1, linf, step_vectors
from .walks import PURPOSE_WALK, WEYL, absorb_coords_np, absorb_np, step_codes_np, walk_keys_np, weyl_codes_np


@dataclass(frozen=True)
class PassageOutcome:
    value: int | None  # None: censored at the horizon
    witness: tuple[Coords, ...] | None
    horizon: int


# radius of a fresh table beyond its farthest source and stop target (each target needs a key) in the
# plane, halved per dimension above two, since a cube's cells grow as its side to the dim; it grows by 5/4
_START_RADIUS = 16


class ActivationTable:
    """First-visit times and the activation genealogy of one simulation.

    ``visit`` and ``parent`` are dense arrays over ``index``, a cube centred
    on the origin that held every frog of the run; the cube of radius
    |source|_1 + horizon bounds every reachable position.  ``parent`` stores,
    for each visited site, the flat index of the origin of the frog that
    first stood there (deterministic choice among simultaneous arrivals:
    smallest origin, then smallest frog index).
    """

    def __init__(self, dim: int, source: Coords, horizon: int, index: CubeIndex,
                 visit: np.ndarray, parent: np.ndarray):
        self.dim = dim
        self.source = source
        self.horizon = horizon
        self.index = index
        self.visit = visit
        self.parent = parent
        self.awake_trace: list[int] = []
        self.stopped_at: int | None = None

    def visit_time(self, x: Coords) -> int | None:
        """The first-visit time of x; None if x was not visited by the horizon."""
        if self.index.contains(x):
            t = int(self.visit[self.index.flat_one(x)])
            if t >= 0:
                return t
        return None

    def genealogy(self, x: Coords) -> list[Coords]:
        """Relay chain source = w_0, ..., w_m = x from the parent pointers."""
        if self.visit_time(x) is None:
            raise FrogsimError(f"site {x} was not visited by the horizon {self.horizon}")
        chain = [x]  # a visited site's first visitor came from a visited site
        while chain[-1] != self.source:
            chain.append(self.index.unflat_one(int(self.parent[self.index.flat_one(chain[-1])])))
        chain.reverse()
        return chain

    def to_json(self, env_ref: dict | None = None) -> dict:
        """Debug dump: visit times and genealogy edges of every visited site."""
        visited = np.nonzero(self.visit >= 0)[0]
        rows = [
            {"site": list(self.index.unflat_one(idx)), "time": int(self.visit[idx]),
             "parent": list(self.index.unflat_one(int(self.parent[idx])))}
            for idx in visited.tolist()
        ]
        rows.sort(key=lambda r: (r["time"], r["site"]))
        return {
            "source": list(self.source),
            "horizon": self.horizon,
            "stopped_at": self.stopped_at,
            "env": env_ref,
            "visits": rows,
        }


def simulate_frogs(
    env: Environment,
    source: Coords,
    horizon: int,
    stop_targets: list[Coords] | None = None,
    strict: bool = True,
    record_trace: bool = False,
) -> ActivationTable:
    """Run the activation dynamics from ``source`` up to ``horizon`` steps.

    Frogs woken at time s follow their stream from their own origin with
    step counter k = t - s.  If ``stop_targets`` is given, the loop ends as
    soon as every target has been visited (recorded times are unaffected).
    """
    stops = None if stop_targets is None else [stop_targets]
    return simulate_batch([env], [source], horizon, stops, strict, record_trace)[0]


def _frogs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frogs of the sites holding ``counts``: each frog's site i, and its index 1, ..., counts[i] there.

    The indices are uint64, as the walk keys absorb them.
    """
    at = np.repeat(np.arange(counts.shape[0]), counts)
    # at ascends, so searchsorted finds the first frog of each frog's site
    return at, (np.arange(1, at.shape[0] + 1) - np.searchsorted(at, at)).view(np.uint64)


def _rekey(old: CubeIndex, new: CubeIndex, keys: np.ndarray) -> np.ndarray:
    """Keys ``replica * old.size + local key`` as the same sites under ``new``.

    Digit by digit and in place: the table grows when it holds the most frogs.
    """
    out, local = np.divmod(keys, old.size)
    out *= new.size
    digit = np.empty_like(local)
    for old_stride, new_stride in zip(old.strides, new.strides):
        np.divmod(local, old_stride, out=(digit, local))
        digit += new.radius - old.radius
        digit *= new_stride
        out += digit
    return out


def _recentre(old: CubeIndex, new: CubeIndex, table: np.ndarray) -> np.ndarray:
    """Each replica's cube of ``table`` laid out by ``old``, at the centre of a cube laid out by ``new``."""
    shape = (table.shape[0] // old.size,) + (new.side,) * new.dim
    out = np.full(shape, -1, dtype=table.dtype)
    lo = new.radius - old.radius
    out[(slice(None),) + (slice(lo, lo + old.side),) * new.dim] = table.reshape(shape[:1] + (old.side,) * new.dim)
    return out.reshape(-1)


def _first_visits(flat: np.ndarray, idx: np.ndarray, origin: np.ndarray, size: int, n_keys: int):
    """The keys first stood on, each with the origin of its first visitor.

    ``idx`` lists the frogs standing on unvisited keys, which lie below
    ``n_keys``; origins are local keys, below ``size``.  Among simultaneous
    arrivals the smallest origin wins (then the smallest frog index, but
    frogs of one origin leave the same parent).  Origins lie below their
    radix, so one in-place sort of the int64 ``key * size + origin`` orders
    by (key, origin) as a lexsort would; the lexsort runs when that packed
    key could reach 2**63, i.e. when ``n_keys * size > 2**63``.
    """
    keys, origins = flat[idx], origin[idx]
    if n_keys * size > 2**63:  # the largest key, n_keys * size - 1, would not fit
        order = np.lexsort((origins, keys))
        keys, origins = keys[order], origins[order]
    else:
        keys *= size  # packed in place: the gather made a copy
        keys += origins
        keys.sort()
        keys, origins = np.divmod(keys, size)
    lead = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=lead[1:])
    return keys[lead], origins[lead]


def simulate_batch(
    envs: Sequence[Environment],
    sources: Sequence[Coords],
    horizon: int,
    stop_targets: Sequence[Sequence[Coords] | None] | None,
    strict: bool,
    record_trace: bool,
) -> list[ActivationTable]:
    """The runs of ``simulate_frogs(envs[r], sources[r], horizon, stop_targets[r], ...)``, in one loop.

    The environments must share a law and a dimension.  Replica r stops on
    its own, whatever else its batch holds: once every reachable target of
    ``stop_targets[r]`` is visited it records ``stopped_at`` and its frogs leave.

    The replicas share one table of ``len(envs)`` cubes: replica r's keys
    are offset by r times the cube size, and origins and parents are keys
    local to a replica.  Each returned table views its own slice.  Frogs
    move by adding a stride to their key, so the table grows before a step
    that could carry a frog off it (rare past the start's margin): no frog
    stands beyond the visited sites.  Strict boxes hold the reach: no mask.
    """
    require("horizon", horizon, COUNT)
    group = EnvironmentGroup(envs)
    d, n = group.dim, len(envs)
    sources = [tuple(s) for s in sources]
    counts0 = []
    for env, source in zip(envs, sources):
        count = env.omega(source)
        if count < 1:
            raise FrogsimError(f"source {source} has no frogs to activate")
        src_norm = l1(source)
        if strict and env.box_radius < horizon + src_norm:
            raise GeometryError(
                f"box radius {env.box_radius} < horizon {horizon} + |source|_1 {src_norm}; "
                "finite-box values would not match the infinite lattice"
            )
        counts0.append(count)
    # frogs move one step per time unit: at time t every frog of replica r lies
    # within |source_r|_1 + t of the origin, so these cubes bound the whole run
    reach_radius = [l1(s) + horizon for s in sources]
    traces: list[list[int]] = [[] for _ in range(n)]
    stopped: list[int | None] = [None] * n

    # the replicas still running, and the targets they stop on, until each is visited
    active = np.ones(n, dtype=bool)
    goal_rep: list[int] = []
    goals: list[Coords] = []
    for r, want in enumerate(stop_targets or [None] * n):
        if want is None:
            continue
        # targets outside the reachable cube stay censored; drop them from the stop set
        reachable = [x for x in want if linf(x) <= reach_radius[r]]
        if any(x != sources[r] for x in reachable):
            goal_rep += [r] * len(reachable)
            goals += reachable
        else:  # every reachable target is the source, visited at step 0
            active[r] = False
            stopped[r] = 0
    goal_rep = np.asarray(goal_rep, dtype=np.int64)
    goals = np.asarray(goals, dtype=np.int64).reshape(-1, d)

    reach = max(linf(s) for s in sources)  # the largest |site|_inf visited so far
    margin = _START_RADIUS >> max(d - 2, 0)
    index = CubeIndex(min(max(reach, int(np.abs(goals).max(initial=0))) + margin, max(reach_radius)), d)
    # a visit time fits int16 whenever the horizon does
    visit = np.full(n * index.size, -1, dtype=np.int16 if horizon < 2**15 else np.int32)
    parent = np.full(n * index.size, -1, dtype=np.int32)
    # each replica's heads absorb(purpose_key, d) for its counts (row 0) and its walks (row 1):
    # one pass per axis then hashes a site for both
    walk_purpose = np.asarray([e.seed.purpose_key(PURPOSE_WALK) for e in envs], dtype=np.uint64)
    heads = absorb_np(np.stack([group.omega_keys, walk_purpose]), d)

    src_local = index.flat(np.asarray(sources, dtype=np.int64)).astype(np.int32)
    src_flat = np.arange(n) * index.size + src_local
    visit[src_flat] = 0
    parent[src_flat] = src_local

    # the live frogs: key on the table, walk key, step counter k times WEYL, and origin
    at, ells = _frogs(np.where(active, counts0, 0))
    flat = src_flat[at]
    keys = absorb_np(absorb_coords_np(heads[1], np.asarray(sources, dtype=np.int64))[at], ells)
    weyl = np.zeros(flat.shape[0], dtype=np.uint64)
    origin = src_local[at]
    moves = step_vectors(d) @ np.asarray(index.strides, dtype=np.int64)  # key change per direction code
    want_keys = goal_rep * index.size + index.flat(goals)
    weyl_step = np.uint64(WEYL)

    for t in range(1, horizon + 1):
        if not active.any():
            break
        if record_trace:
            awake = np.bincount(flat // index.size, minlength=n)
            for r in np.flatnonzero(active).tolist():
                traces[r].append(int(awake[r]))
        if reach >= index.radius:
            # a frog on the cube's surface could step off it: move onto a larger cube,
            # which the reachable cubes bound since visited sites lie within them
            old, index = index, CubeIndex(min(max(index.radius * 5 // 4, reach + 1), max(reach_radius)), d)
            visit = _recentre(old, index, visit)
            parent = _recentre(old, index, parent)
            seen = parent >= 0
            parent[seen] = _rekey(old, index, parent[seen])
            flat = _rekey(old, index, flat)
            origin = _rekey(old, index, origin)
            moves = step_vectors(d) @ np.asarray(index.strides, dtype=np.int64)
            want_keys = goal_rep * index.size + index.flat(goals)
        weyl += weyl_step
        flat += moves.take(weyl_codes_np(keys, weyl, d))
        new = np.flatnonzero(visit[flat] < 0)  # the frogs on unvisited sites
        if not new.shape[0]:
            continue  # no site is first visited, so no replica can reach its last target
        sites, firsts = _first_visits(flat, new, origin, index.size, n * index.size)
        visit[sites] = t
        parent[sites] = firsts
        site_rep, site_local = np.divmod(sites, index.size)
        coords = index.unflat(site_local)
        reach = max(reach, int(np.abs(coords).max()))
        omega_keys, walk_keys = absorb_coords_np(heads.take(site_rep, axis=1), coords)
        counts = group.counts_from_keys(site_rep, coords, omega_keys)
        if not strict:  # a strict run's boxes hold its reach, where the mask would zero nothing
            counts[group.beyond_boxes(site_rep, coords)] = 0
        at, ells = _frogs(counts)
        if at.shape[0]:
            flat = np.concatenate([flat, sites[at]])
            keys = np.concatenate([keys, absorb_np(walk_keys[at], ells)])
            weyl = np.concatenate([weyl, np.zeros(at.shape[0], dtype=np.uint64)])
            origin = np.concatenate([origin, site_local[at]], dtype=np.int32)
        reached = visit[want_keys] >= 0
        if reached.any():
            # reached targets leave the stop set; the replicas with none left stop at t, and their frogs leave
            left = ~reached
            done = np.zeros(n, dtype=bool)
            done[goal_rep[reached]] = True
            done[goal_rep[left]] = False
            goal_rep, goals, want_keys = goal_rep[left], goals[left], want_keys[left]
            if done.any():
                for r in np.flatnonzero(done).tolist():
                    stopped[r] = t
                active &= ~done
                keep = active[flat // index.size]
                # one array at a time, so that only one copy is alive at once
                flat = flat[keep]
                keys = keys[keep]
                weyl = weyl[keep]
                origin = origin[keep]

    tables = []
    for r, source in enumerate(sources):
        cut = slice(r * index.size, (r + 1) * index.size)
        table = ActivationTable(d, source, horizon, index, visit[cut], parent[cut])
        table.awake_trace, table.stopped_at = traces[r], stopped[r]
        tables.append(table)
    return tables


_BATCH = (16, 64)  # runs per engine loop: a wider batch shares each step's fixed cost, but holds more frogs


def _batch_width(law) -> int:
    """The runs that hold the expected frogs of lo runs of a mean-1 law, lo to hi: 64 of Bernoulli(0.2)."""
    lo, hi = _BATCH
    return max(lo, round(lo / max(law.mean(), lo / hi)))


def passage_times(
    runs: Sequence[tuple[Environment, Coords, Sequence[Coords]]],
    horizon: int,
    read: Callable[[ActivationTable, Coords], object] = ActivationTable.visit_time,
) -> list[list]:
    """T(source, y), or what ``read`` reads of y, for every target y of every run (env, source, targets).

    Each run reads ``env.with_radius(horizon + |source|_1)``, where the engine
    computes the process on all of Z^d; growing a box resamples nothing.
    A source with no frogs wakes nothing, so its targets read None, as
    censored ones do.  The others step through the engine in order, each
    stopping once its targets are visited, ``_batch_width`` at a time, and a
    batch's values are read before the next steps: one batch's tables are
    alive at a time.  ``read`` reads them, the visit time by default, or
    more of a table, such as the visits ``truncated._visits`` hands back.
    """
    runs = [(env.with_radius(horizon + l1(source)), source, targets) for env, source, targets in runs]
    out: list[list] = [[None] * len(targets) for _, _, targets in runs]
    live = [i for i, (env, source, _) in enumerate(runs) if env.omega(source) >= 1]
    width = _batch_width(runs[live[0]][0].law) if live else 1
    for start in range(0, len(live), width):
        batch = live[start : start + width]
        envs, sources, goals = zip(*(runs[i] for i in batch))
        tables = simulate_batch(envs, sources, horizon, [sorted(set(g)) for g in goals], True, False)
        values = [[read(table, y) for y in want] for table, want in zip(tables, goals)]
        del tables  # the next batch's loop must not hold these tables too
        for i, row in zip(batch, values):
            out[i] = row
    return out


def tau(env: Environment, u: Coords, v: Coords, horizon: int) -> int | None:
    """First time any frog initially at u stands on v; None if none does by the horizon.

    Covers the unoccupied-start convention: no frogs at u means no hit; a
    start outside the box raises GeometryError.
    """
    return hit_time(env, u, v, horizon, horizon)


@lru_cache(maxsize=64)
def offset_index(horizon: int, dim: int) -> CubeIndex:
    """Layout of the ``first_hits`` keys: offsets from the start, cube of radius ``horizon``."""
    return CubeIndex(horizon, dim)


def first_hits(env: Environment, u: Coords, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """First hitting times of every site reached by u's own frogs.

    Returns sorted offset keys (laid out by ``offset_index(horizon, dim)``)
    and the matching times; min over the site's omega(u) walks, k = 0
    included.  A read of u's ball row at t = horizon, so it shares the rows
    that the truncated search builds; the cache lives and dies with ``env``.
    """
    require_site("u", u, env.dim)
    build_rows(env, {u: (horizon, horizon)})
    offs, times = row_hits(env, u, horizon, horizon)
    # a hit within the horizon lies in its cube, and the row is in lex order: the keys ascend
    return offset_index(horizon, env.dim).flat(offs), times


def hit_time(env: Environment, u: Coords, v: Coords, t: int, horizon: int) -> int | None:
    """First time one of u's frogs stands on v within ``horizon`` steps; None if none does or |v - u|_inf > t.

    Reads u's ball row at (t, horizon), building it first if the cache does
    not hold it, whatever v is.
    """
    require_site("u", u, env.dim)
    require_site("v", v, env.dim)
    build_rows(env, {u: (t, horizon)})
    offs, times = row_hits(env, u, t, horizon)
    hit = times[(offs == np.subtract(v, u)).all(axis=1)]
    return int(hit[0]) if hit.shape[0] else None


# ---------------------------------------------------------------------------
# Ball rows: the first hits of a site's frogs, cached on the environment
# ---------------------------------------------------------------------------

_PASS_STEPS = 1 << 12  # walk steps per numpy pass of build_rows: bounds its temporaries
_NO_ROW = (-1, 0, None, None, None)  # the (t, horizon) of a site without a row lies below every need


@lru_cache(maxsize=8)
def _empty_row(dim: int) -> tuple:
    """The row of an unoccupied site: no hits, at an extent above every need."""
    return 1 << 62, 1 << 62, np.empty((0, dim), dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def build_rows(env: Environment, needs: dict[Coords, tuple[int, int]]) -> None:
    """Cache the ball rows of the occupied sites of ``needs`` that the cache does not hold.

    ``needs`` maps a site to the (t, horizon) it asks for; a horizon below 1
    needs no row (see ``row_hits``).  The row of u at (t, horizon) holds
    every offset within the l-infinity ball of radius t that one of u's
    walks visits within ``horizon`` steps, k = 0 included, in lex order, with
    its norm and its first time.  A first hit inside a larger ball and
    horizon is the first hit inside any smaller pair that holds it, so a row
    is built at the pair asked for grown to the cached one and still serves
    every pair it served.  The rows come from passes of about
    ``_PASS_STEPS`` walk steps over many sites.  An unoccupied site is
    cached as an empty row of every extent, so no later read asks its count.
    """
    rows = env.__dict__.setdefault("_ball_rows", {})
    todo, steps = [], 0
    for u, (t, horizon) in needs.items():
        row_t, row_h, *_ = rows.get(u, _NO_ROW)
        if horizon >= 1 and (t > row_t or horizon > row_h):
            if (frogs := env.omega(u)) < 1:
                rows[u] = _empty_row(env.dim)
                continue
            t, horizon = max(t, row_t), max(horizon, row_h)
            todo.append((u, t, horizon, frogs))
            steps += horizon * frogs
            if steps >= _PASS_STEPS:
                rows.update(_ball_pass(env, todo))
                todo, steps = [], 0
    if todo:
        rows.update(_ball_pass(env, todo))


def row_hits(env: Environment, u: Coords, t: int, horizon: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The first hits of u's frogs within l-infinity distance t and ``horizon`` steps.

    Returns (offsets, times), the offsets in lex order; None when u's row is
    not cached that far, which ``build_rows`` mends.  An unoccupied u hits
    nothing, and the first read caches that as its row; horizon 0 holds only
    the k = 0 self-hit, which needs no row.
    """
    rows = env.__dict__.setdefault("_ball_rows", {})
    if u not in rows and env.omega(u) < 1:
        rows[u] = _empty_row(env.dim)
    row_t, row_h, offs, norms, times = rows.get(u, _NO_ROW)
    if t <= row_t and horizon <= row_h:
        keep = (norms <= t) & (times <= horizon)
        return offs[keep], times[keep]
    if horizon < 1:  # no row holds fewer than one step
        return np.zeros((1, env.dim), dtype=np.int64), np.zeros(1, dtype=np.int64)
    return None


def row_edges(env: Environment, needs: dict[Coords, tuple[int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hits at times 1 to horizon of ``row_hits(env, u, t, horizon)`` for every (u, (t, horizon)) of ``needs``.

    Builds the rows first, then returns every row's hits in one
    (owner, offsets, times) triple, ``owner`` the position of u in ``needs``.
    """
    build_rows(env, needs)
    rows, empty = env.__dict__["_ball_rows"], _empty_row(env.dim)
    got = [rows.get(u, empty) for u in needs]  # a need below one step may have no row, and no such hit
    owner = np.repeat(np.arange(len(got)), [row[4].shape[0] for row in got])
    offs, norms, times = (np.concatenate([row[j] for row in got] + [empty[j]]) for j in (2, 3, 4))
    t, horizon = np.asarray([*needs.values()], dtype=np.int64).reshape(-1, 2).T
    keep = (times >= 1) & (times <= horizon[owner]) & (norms <= t[owner])
    return owner[keep], offs[keep], times[keep]


def _ball_pass(env: Environment, todo: Sequence[tuple[Coords, int, int, int]]) -> dict[Coords, tuple]:
    """The rows of ``todo``'s (u, t, horizon, omega(u)), each as (t, horizon, offsets, norms, times).

    The walks of all the frogs run as one ragged array, and one sort of
    (site, offset, time) keys gives each first hit, with no dense ball per
    site.
    """
    d, n = env.dim, len(todo)
    sites, ts, hs, counts = map(np.array, zip(*todo))
    # walk w is a frog of site frog[w]; its steps 1..h are one run of the ragged arrays
    frog, ells = _frogs(counts)
    keys = walk_keys_np(env.seed.purpose_key(PURPOSE_WALK), sites[frog], ells)
    h = hs[frog]
    start = np.cumsum(h) - h
    walk = np.repeat(np.arange(h.shape[0]), h)
    step = np.arange(1, walk.shape[0] + 1) - start[walk]
    moves = step_vectors(d)[step_codes_np(keys[walk], step, d)]
    pos = np.cumsum(moves, axis=0)
    pos -= (pos[start] - moves[start])[walk]  # restart the sum at each walk
    site = frog[walk]
    inside = np.abs(pos).max(axis=1) <= ts[site]
    # offsets laid out in the cube of the largest ball a walk reaches (h steps stay within
    # l-infinity distance h); the k = 0 self-hit at each centre has time 0
    ball, H = offset_index(int(np.minimum(ts, hs).max()), d), int(hs.max()) + 1
    site = np.concatenate([site[inside], np.arange(n)])
    off = np.concatenate([ball.flat(pos[inside]), np.full(n, ball.size // 2)])
    step = np.concatenate([step[inside], np.zeros(n, dtype=np.int64)])
    if n * ball.size * H < 2**63:  # (site, offset, time) fits one int64 key, which sorts fastest
        combo = np.sort((site * ball.size + off) * H + step)
        cell = combo // H
        first = np.ones(cell.shape[0], dtype=bool)
        first[1:] = cell[1:] != cell[:-1]
        (site, off), times = np.divmod(cell[first], ball.size), combo[first] % H
    else:
        order = np.lexsort((step, off, site))
        site, off, step = site[order], off[order], step[order]
        first = np.ones(site.shape[0], dtype=bool)
        first[1:] = (site[1:] != site[:-1]) | (off[1:] != off[:-1])
        site, off, times = site[first], off[first], step[first]
    offs = ball.unflat(off)
    norms = np.abs(offs).max(axis=1)
    bounds = np.searchsorted(site, np.arange(n + 1)).tolist()
    return {u: (t, h, offs[a:b], norms[a:b], times[a:b]) for (u, t, h, _), a, b in zip(todo, bounds, bounds[1:])}


def passage_time(env: Environment, x: Coords, horizon: int, strict: bool = True) -> PassageOutcome:
    """T(0, x): first-visit time of x for the dynamics started at the origin."""
    if not env.conditioned_origin and env.omega((0,) * env.dim) < 1:
        raise FrogsimError("passage_time needs omega(0) >= 1; condition the environment first")
    return passage_between(env, (0,) * env.dim, x, horizon, strict=strict)


def passage_between(
    env: Environment, source: Coords, x: Coords, horizon: int, strict: bool = True
) -> PassageOutcome:
    """T(source, x) with a genealogy witness when finite."""
    require_site("x", require("x", x, SITES), env.dim)
    require_site("source", source, env.dim)
    table = simulate_frogs(env, source, horizon, stop_targets=[x], strict=strict)
    value = table.visit_time(x)
    witness = None if value is None else tuple(table.genealogy(x))
    return PassageOutcome(value=value, witness=witness, horizon=horizon)


def passage_time_star(env: Environment, x: Coords, horizon: int, strict: bool = True) -> PassageOutcome:
    """T*(0, x) = T(0*, x*) between the occupied sites closest to 0 and x."""
    origin_star = star(env, (0,) * env.dim)
    x_star = star(env, x)
    if x_star == origin_star:
        return PassageOutcome(0, (origin_star,), horizon)
    return passage_between(env, origin_star, x_star, horizon, strict=strict)


# ---------------------------------------------------------------------------
# Brute-force oracle: Dijkstra on the complete relay graph over occupied sites
# ---------------------------------------------------------------------------

_NODE_CAP = 300  # occupied sites the oracle's complete graph may hold


def oracle_relay_distances(
    env: Environment, source: Coords, horizon: int
) -> tuple[dict[Coords, int], dict[Coords, Coords]]:
    """Exact relay-path distances from ``source`` to every occupied box site.

    Edge weight between occupied sites is tau(u, v) at the given horizon;
    label-setting over the complete graph, independent of the dynamics.
    The labels are one array over the nodes in lex order; each round settles
    the least unsettled label (least site among ties) by ``argmin`` and
    relaxes its row, until no label left lies within the horizon.
    """
    occ = env.occupied_coords()
    if occ.shape[0] > _NODE_CAP:
        raise SearchCapError(f"oracle supports at most {_NODE_CAP} occupied sites, found {occ.shape[0]}")
    if env.omega(source) < 1:
        return {}, {}
    index = offset_index(horizon, env.dim)
    # nodes in lex order, so argmin's first slot among tied labels is the least site
    nodes = sorted({tuple(int(c) for c in row) for row in occ} | {tuple(source)})
    coords = np.asarray(nodes, dtype=np.int64)
    build_rows(env, dict.fromkeys(nodes, (horizon, horizon)))  # every node's row, in one pass
    src = nodes.index(tuple(source))
    best = np.full(len(nodes), horizon + 1, dtype=np.int64)  # beyond the horizon: not reached
    best[src] = 0
    pred = np.full(len(nodes), -1, dtype=np.int64)
    todo = np.ones(len(nodes), dtype=bool)
    while True:
        # settle the least label left, the least site among ties; past the horizon, none is reached
        label = np.where(todo, best, horizon + 1)
        i = int(np.argmin(label))
        d_u = int(label[i])
        if d_u > horizon:
            break
        todo[i] = False
        # every node is occupied, so its row holds at least the self-hit
        sites, times = first_hits(env, nodes[i], horizon)
        v = np.flatnonzero(todo)
        delta = coords[v] - coords[i]
        near = np.abs(delta).max(axis=1) <= horizon  # the offsets that the row's cube holds
        v, keys = v[near], index.flat(delta[near])
        pos = np.minimum(np.searchsorted(sites, keys), sites.shape[0] - 1)
        cand = d_u + times[pos]
        better = (sites[pos] == keys) & (cand < best[v])
        best[v[better]], pred[v[better]] = cand[better], i
    reached = np.flatnonzero(best <= horizon).tolist()
    dist = {nodes[j]: int(best[j]) for j in reached}
    parent = {nodes[j]: nodes[pred[j]] for j in reached if pred[j] >= 0}
    return dist, parent


def oracle_passage_time(env: Environment, source: Coords, x: Coords, horizon: int) -> PassageOutcome:
    """Relay-infimum value of T(source, x), censored beyond the horizon.

    The least (d_u + tau(u, x), u) over the reached relays u, so the least
    site wins a tie; the witness is u's relay chain, then x unless x is u.
    """
    require_site("source", source, env.dim)
    require_site("x", x, env.dim)
    dist, parent = oracle_relay_distances(env, source, horizon)
    hits = {u: hit_time(env, u, x, horizon, horizon) for u in dist}
    found = [(dist[u] + hit, u) for u, hit in hits.items() if hit is not None]
    best, best_relay = min(found, default=(horizon + 1, None))
    if best > horizon:
        return PassageOutcome(None, None, horizon)
    chain = [x] if x != best_relay else []
    cur = best_relay
    while cur is not None:
        chain.append(cur)
        cur = parent.get(cur)
    chain.reverse()
    return PassageOutcome(best, tuple(chain), horizon)


def oracle_all_targets(env: Environment, source: Coords, horizon: int) -> dict[Coords, int]:
    """Oracle values for every box site reachable within the horizon."""
    dist, _ = oracle_relay_distances(env, source, horizon)
    if not dist:
        return {}
    # min over relays u of d_u + tau(u, v), for every first hit v of every u at once; every
    # relay's row was built with the distances
    hits = [(u, d_u, *row_hits(env, u, horizon, horizon)) for u, d_u in dist.items()]
    sites = np.concatenate([offs + np.asarray(u) for u, _, offs, _ in hits])
    times = np.concatenate([d_u + t_hit for _, d_u, _, t_hit in hits])
    ok = (np.abs(sites).sum(axis=1) <= env.box_radius) & (times <= horizon)
    sites, times = sites[ok], times[ok]
    box = CubeIndex(int(np.abs(sites).max()), env.dim)  # the source's self-hit is among them
    best = np.full(box.size, horizon + 1, dtype=np.int64)
    np.minimum.at(best, box.flat(sites), times)
    keys = np.flatnonzero(best <= horizon)
    return dict(zip(map(tuple, box.unflat(keys).tolist()), best[keys].tolist()))
