"""Initial frog configurations, with counts computed on demand.

Every site's count omega is a pure function of (seed, site), so an
Environment stores no counts: it computes them for the sites it is asked
about, for whole arrays (``counts_at``) or one site at a time through a
small memo (``omega``).  A few fixed sites override the keyed counts (the
conditioned origin, or counts read from a file).  The box radius is only a
mask: growing it never disturbs a count, and two boxes with the same seed
agree on their overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import COUNT, SIZE, FrogsimError, GeometryError, LawParameterError, SearchCapError, require, require_site
from .lattice import Coords, CubeIndex, ball_coords, l1, linf, shell_coords
from .walks import (
    PURPOSE_CONDITION,
    PURPOSE_OMEGA,
    SeedSpec,
    site_key,
    site_keys_np,
    uniform01,
    uniform01_np,
)

_CDF_TAIL = 1e-15


@dataclass(frozen=True)
class ConfigLaw:
    """A law on {0, 1, 2, ...} for the per-site frog counts.

    Supported variants: bernoulli(p), poisson(lam), geometric(q) with
    P(k) = q (1-q)^k, constant(k), and explicit(pmf table starting at 0).
    The law must not be concentrated at zero.
    """

    kind: str
    params: tuple[float, ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def bernoulli(p: float) -> "ConfigLaw":
        if not 0.0 <= p <= 1.0:
            raise LawParameterError(f"bernoulli parameter p must be in [0,1], got {p}")
        if p == 0.0:
            raise LawParameterError("bernoulli(0) is concentrated at zero")
        return ConfigLaw("bernoulli", (float(p),))

    @staticmethod
    def poisson(lam: float) -> "ConfigLaw":
        if not (math.isfinite(lam) and lam > 0.0):
            raise LawParameterError(f"poisson parameter lambda must be finite and > 0, got {lam}")
        return ConfigLaw("poisson", (float(lam),))

    @staticmethod
    def geometric(q: float) -> "ConfigLaw":
        if not 0.0 < q < 1.0:
            raise LawParameterError(f"geometric parameter q must be in (0,1), got {q}")
        return ConfigLaw("geometric", (float(q),))

    @staticmethod
    def constant(k: int) -> "ConfigLaw":
        if not (k >= 1 and float(k).is_integer()):
            raise LawParameterError(f"constant law needs an integer k >= 1, got {k}")
        return ConfigLaw("constant", (float(k),))

    @staticmethod
    def explicit(pmf: Iterable[float]) -> "ConfigLaw":
        table = tuple(float(v) for v in pmf)
        if not table or not all(math.isfinite(v) and v >= 0 for v in table):
            raise LawParameterError("explicit pmf must be nonempty, finite and nonnegative")
        total = sum(table)
        if abs(total - 1.0) > 1e-12:
            raise LawParameterError(f"explicit pmf must sum to 1 within 1e-12, got {total!r}")
        # absorb the residual rounding into the final entry
        table = table[:-1] + (table[-1] + (1.0 - total),)
        if table[0] >= 1.0:
            raise LawParameterError("explicit pmf is concentrated at zero")
        return ConfigLaw("explicit", table)

    @staticmethod
    def of(kind: str, params: Sequence[float]) -> "ConfigLaw":
        """The law ``kind`` with ``params``: the one dispatch behind parse and from_json."""
        if kind == "explicit":
            return ConfigLaw.explicit(params)
        make = {"bernoulli": ConfigLaw.bernoulli, "poisson": ConfigLaw.poisson,
                "geometric": ConfigLaw.geometric, "constant": ConfigLaw.constant}.get(kind)
        if make is None:
            raise LawParameterError(f"unknown law {kind!r}")
        if len(params) != 1:
            raise LawParameterError(f"{kind} law takes one parameter, got {len(params)}")
        return make(params[0])

    @staticmethod
    def parse(text: str) -> "ConfigLaw":
        """Parse CLI syntax like poisson:1.0, bernoulli:0.7, constant:1, explicit:0.2,0.5,0.3."""
        kind, _, arg = text.partition(":")
        try:
            params = [float(v) for v in arg.split(",")]
        except ValueError:
            raise LawParameterError(f"law parameters {arg!r} are not numbers") from None
        return ConfigLaw.of(kind.strip().lower(), params)

    # -- law queries ---------------------------------------------------------

    def label(self) -> str:
        return f"{self.kind}:" + ",".join(format(v, ".12g") for v in self.params)

    def mean(self) -> float:
        if self.kind in ("bernoulli", "poisson", "constant"):
            return self.params[0]
        if self.kind == "geometric":
            q = self.params[0]
            return (1.0 - q) / q
        return float(sum(k * v for k, v in enumerate(self.params)))

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if self.kind == "bernoulli":
            p = self.params[0]
            return (1.0 - p, p)[k] if k <= 1 else 0.0
        if self.kind == "poisson":
            lam = self.params[0]
            out = np.exp(-lam)
            for i in range(1, k + 1):
                out *= lam / i
            return float(out)
        if self.kind == "geometric":
            q = self.params[0]
            return q * (1.0 - q) ** k
        if self.kind == "constant":
            return 1.0 if k == int(self.params[0]) else 0.0
        return self.params[k] if k < len(self.params) else 0.0

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The cdf table, built once per law: poisson tables cost O(k^2) pmf work."""
        if self.kind == "constant":
            k = int(self.params[0])
            cdf = np.concatenate([np.zeros(k), np.ones(1)])
        else:
            vals = []
            total = 0.0
            k = 0
            while total < 1.0 - _CDF_TAIL:
                total += self.pmf(k)
                vals.append(min(total, 1.0))
                k += 1
                if k > 100_000:
                    raise LawParameterError("law cdf did not reach 1; check parameters")
            vals[-1] = 1.0
            cdf = np.asarray(vals)
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def _conditioned_cdf(self) -> np.ndarray:
        p0 = float(self.pmf(0))
        cond = np.clip((self._cdf - p0) / (1.0 - p0), 0.0, 1.0)
        cond.setflags(write=False)
        return cond

    def quantile_counts(self, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF sampling: count = #{k : cdf(k) <= u}."""
        return np.searchsorted(self._cdf, uniforms, side="right").astype(np.int32)

    def conditioned_quantile(self, u: float) -> int:
        """Inverse CDF of the law conditioned on {count >= 1}."""
        k = int(np.searchsorted(self._conditioned_cdf, u, side="right"))
        return max(k, 1)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "ConfigLaw":
        return ConfigLaw.of(obj["kind"], obj["params"])


ENV_SCHEMA_VERSION = 1


class Environment:
    """The counts of one configuration, read on demand; immutable.

    A site's count is its fixed count if it has one, else the law's keyed
    count at (seed, site).  ``box_radius`` only masks the domain: sites
    beyond the l1 ball report no frogs to ``counts_at``, and ``omega``
    refuses them.
    """

    def __init__(
        self,
        dim: int,
        box_radius: int,
        law: ConfigLaw,
        seed: SeedSpec,
        conditioned_origin: bool,
        fixed: dict[Coords, int],
    ):
        self.dim = dim
        self.box_radius = box_radius
        self.law = law
        self.seed = seed
        self.conditioned_origin = conditioned_origin
        self._fixed = dict(fixed)
        self._memo = dict(self._fixed)  # omega per site, filled as sites are asked for
        self._occupied: np.ndarray | None = None

    @cached_property
    def _group(self) -> "EnvironmentGroup":
        return EnvironmentGroup([self])

    # -- counts ----------------------------------------------------------------

    def in_box(self, x: Coords) -> bool:
        return l1(x) <= self.box_radius

    def omega(self, x: Coords) -> int:
        if not self.in_box(x):
            raise GeometryError(f"site {x} outside box of radius {self.box_radius}")
        count = self._memo.get(x)
        if count is None:
            u = uniform01(site_key(self.seed, PURPOSE_OMEGA, x))
            count = int(np.searchsorted(self.law._cdf, u, side="right"))
            self._memo[x] = count
        return count

    def counts_at(self, coords: np.ndarray) -> np.ndarray:
        """Counts at the rows of an (n, dim) array; sites outside the box report 0."""
        return self._group.counts_at(0, coords)

    def occupied_coords(self) -> np.ndarray:
        """All sites of the box with at least one frog, lex order."""
        if self._occupied is None:
            coords = ball_coords(self.box_radius, self.dim)
            self._occupied = coords[self.counts_at(coords) > 0]
        return self._occupied

    # -- derived environments --------------------------------------------------

    def with_radius(self, box_radius: int) -> "Environment":
        """The same realization on a (possibly) larger box; nothing is resampled."""
        if box_radius <= self.box_radius:
            return self
        return Environment(
            self.dim, box_radius, self.law, self.seed, self.conditioned_origin, self._fixed
        )

    def to_json(self) -> dict:
        counts = self.counts_at(ball_coords(self.box_radius, self.dim))
        runs: list[list[int]] = []
        for v in counts.tolist():
            if runs and runs[-1][0] == v:
                runs[-1][1] += 1
            else:
                runs.append([v, 1])
        return {
            "version": ENV_SCHEMA_VERSION,
            "dim": self.dim,
            "box_radius": self.box_radius,
            "law": self.law.to_json(),
            "seed": {"master_seed": self.seed.master_seed, "experiment_tag": self.seed.experiment_tag},
            "conditioned_origin": self.conditioned_origin,
            "rle_counts": runs,
        }

    @staticmethod
    def from_json(obj: dict) -> "Environment":
        """The stored counts, every site of the ball a fixed site."""
        if obj["version"] != ENV_SCHEMA_VERSION:
            raise GeometryError(f"unsupported environment schema version {obj['version']}")
        dim = obj["dim"]
        R = obj["box_radius"]
        law = ConfigLaw.from_json(obj["law"])
        seed = SeedSpec(obj["seed"]["master_seed"], obj["seed"]["experiment_tag"])
        counts = np.concatenate([np.full(n, v, dtype=np.int32) for v, n in obj["rle_counts"]])
        coords = ball_coords(R, dim)
        if counts.shape[0] != coords.shape[0]:
            raise GeometryError("rle_counts length does not match the box")
        fixed = dict(zip(map(tuple, coords.tolist()), counts.tolist()))
        return Environment(dim, R, law, seed, obj["conditioned_origin"], fixed)


class EnvironmentGroup:
    """The counts of several environments that share a law and a dimension.

    ``counts_at(rep, coords)`` reads row i at site ``coords[i]`` of
    environment ``rep[i]``, in O(1) numpy calls whatever the group's size:
    keyed counts from each environment's seed, then each environment's fixed
    sites, then each box mask.  The fixed sites of all members are one sorted
    array of keys ``member * size + key`` over one cube that holds them all.
    A caller that hashes the sites itself, from the heads absorb(purpose_key,
    d) of ``omega_keys``, reads the counts with ``counts_from_keys``.
    """

    def __init__(self, envs: Sequence[Environment]):
        first = envs[0]
        if any(e.law != first.law or e.dim != first.dim for e in envs):
            raise FrogsimError("an environment group needs one law and one dimension")
        self.law, self.dim = first.law, first.dim
        self.omega_keys = np.asarray([e.seed.purpose_key(PURPOSE_OMEGA) for e in envs], dtype=np.uint64)
        self._box_radius = np.asarray([e.box_radius for e in envs], dtype=np.int64)
        fixed = [(m, x, c) for m, e in enumerate(envs) for x, c in e._fixed.items()]
        self._fixed_index = CubeIndex(max((linf(x) for _, x, _ in fixed), default=0), self.dim)
        if fixed:
            members = np.asarray([m for m, _, _ in fixed], dtype=np.int64)
            sites = np.asarray([x for _, x, _ in fixed], dtype=np.int64)
            keys = members * self._fixed_index.size + self._fixed_index.flat(sites)
            order = np.argsort(keys)
            self._fixed_keys = keys[order]
            self._fixed_counts = np.asarray([c for _, _, c in fixed], dtype=np.int32)[order]
        else:
            self._fixed_keys = None

    def counts_at(self, rep: int | np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Counts at the rows of an (n, dim) array, row i read in member ``rep[i]`` (or all in ``rep``)."""
        out = self.counts_from_keys(rep, coords, site_keys_np(self.omega_keys[rep], coords))
        out[self.beyond_boxes(rep, coords)] = 0
        return out

    def counts_from_keys(self, rep: int | np.ndarray, coords: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """``counts_at(rep, coords)`` before the box mask (``beyond_boxes``), given the sites' ``PURPOSE_OMEGA`` keys."""
        out = self.law.quantile_counts(uniform01_np(keys))
        if self._fixed_keys is not None:
            near = np.nonzero(np.abs(coords).max(axis=1) <= self._fixed_index.radius)[0]
            member = np.asarray(rep, dtype=np.int64)
            member = member[near] if member.ndim else member
            keys = member * self._fixed_index.size + self._fixed_index.flat(coords[near])
            pos = np.minimum(np.searchsorted(self._fixed_keys, keys), self._fixed_keys.shape[0] - 1)
            hit = self._fixed_keys[pos] == keys
            out[near[hit]] = self._fixed_counts[pos[hit]]
        return out

    def beyond_boxes(self, rep: int | np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Whether row i lies beyond the l1 ball of member ``rep[i]`` (or of ``rep``)."""
        return np.abs(coords).sum(axis=1) > self._box_radius[rep]


def sample_environment(law: ConfigLaw, dim: int, box_radius: int, seed: SeedSpec) -> Environment:
    """The keyed realization of ``law`` at ``seed``, masked to the l1 ball of ``box_radius``.

    O(1): counts are computed when a site is first asked for.
    """
    require("dim", dim, SIZE)
    require("box_radius", box_radius, COUNT)
    return Environment(dim, box_radius, law, seed, False, {})


def condition_origin(env: Environment) -> Environment:
    """Redraw only the origin's count from the law conditioned on >= 1.

    Exact because counts are independent across sites, so conditioning on
    {omega(0) >= 1} only changes the origin's marginal.
    """
    origin = (0,) * env.dim
    u = uniform01(site_key(env.seed, PURPOSE_CONDITION, origin))
    fixed = {**env._fixed, origin: env.law.conditioned_quantile(u)}
    return Environment(env.dim, env.box_radius, env.law, env.seed, True, fixed)


def star(env: Environment, x: Coords) -> Coords:
    """The closest occupied site to x, searching expanding l1 shells.

    Ties break lexicographically.  The search covers l1 distances up to the
    box radius; finding nothing raises: a silent fallback would bias every
    downstream statistic.
    """
    if not env.in_box(require_site("x", x, env.dim)):
        raise GeometryError(f"site {x} outside box of radius {env.box_radius}")
    for r in range(env.box_radius + 1):
        # shell_coords lists the shell in lex order, so its first occupied site wins the tie-break
        for s in shell_coords(x, r):
            if env.in_box(s) and env.omega(s) >= 1:
                return s
    raise SearchCapError(
        f"no occupied site within l1 distance {env.box_radius} of {x}; box too small for this law/seed"
    )
