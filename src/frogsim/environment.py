"""Initial frog configurations on a finite box.

An Environment holds the sampled counts omega on the l1 ball of a given
radius.  Sampling is site-keyed: every site's count is a pure function of
(seed, site), so growing the box or resampling one site never disturbs the
others, and two boxes sampled from the same seed agree on their overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GeometryError, LawParameterError, SearchCapError
from .lattice import Coords, CubeIndex, ball_coords, closest_in_set, l1, shell_coords
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
        if lam <= 0.0:
            raise LawParameterError(f"poisson parameter lambda must be > 0, got {lam}")
        return ConfigLaw("poisson", (float(lam),))

    @staticmethod
    def geometric(q: float) -> "ConfigLaw":
        if not 0.0 < q < 1.0:
            raise LawParameterError(f"geometric parameter q must be in (0,1), got {q}")
        return ConfigLaw("geometric", (float(q),))

    @staticmethod
    def constant(k: int) -> "ConfigLaw":
        if k < 1:
            raise LawParameterError(f"constant law needs k >= 1, got {k}")
        return ConfigLaw("constant", (float(k),))

    @staticmethod
    def explicit(pmf: Iterable[float]) -> "ConfigLaw":
        table = tuple(float(v) for v in pmf)
        if not table or any(v < 0 for v in table):
            raise LawParameterError("explicit pmf must be nonempty and nonnegative")
        total = sum(table)
        if abs(total - 1.0) > 1e-12:
            raise LawParameterError(f"explicit pmf must sum to 1 within 1e-12, got {total!r}")
        # absorb the residual rounding into the final entry
        table = table[:-1] + (table[-1] + (1.0 - total),)
        if table[0] >= 1.0:
            raise LawParameterError("explicit pmf is concentrated at zero")
        return ConfigLaw("explicit", table)

    @staticmethod
    def parse(text: str) -> "ConfigLaw":
        """Parse CLI syntax like poisson:1.0, bernoulli:0.7, constant:1, explicit:0.2,0.5,0.3."""
        kind, _, arg = text.partition(":")
        kind = kind.strip().lower()
        if kind == "bernoulli":
            return ConfigLaw.bernoulli(float(arg))
        if kind == "poisson":
            return ConfigLaw.poisson(float(arg))
        if kind == "geometric":
            return ConfigLaw.geometric(float(arg))
        if kind == "constant":
            return ConfigLaw.constant(int(arg))
        if kind == "explicit":
            return ConfigLaw.explicit(float(v) for v in arg.split(","))
        raise LawParameterError(f"unknown law {kind!r}")

    # -- law queries ---------------------------------------------------------

    def label(self) -> str:
        if self.kind == "constant":
            return f"constant:{int(self.params[0])}"
        if self.kind == "explicit":
            return "explicit:" + ",".join(format(v, ".12g") for v in self.params)
        return f"{self.kind}:{format(self.params[0], '.12g')}"

    def mean(self) -> float:
        if self.kind == "bernoulli":
            return self.params[0]
        if self.kind == "poisson":
            return self.params[0]
        if self.kind == "geometric":
            q = self.params[0]
            return (1.0 - q) / q
        if self.kind == "constant":
            return self.params[0]
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

    def p_zero(self) -> float:
        return self.pmf(0)

    def _cdf_table(self) -> np.ndarray:
        if self.kind == "constant":
            k = int(self.params[0])
            return np.concatenate([np.zeros(k), np.ones(1)])
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
        return np.asarray(vals)

    def quantile_counts(self, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF sampling: count = #{k : cdf(k) <= u}."""
        cdf = self._cdf_table()
        return np.searchsorted(cdf, uniforms, side="right").astype(np.int32)

    def conditioned_quantile(self, u: float) -> int:
        """Inverse CDF of the law conditioned on {count >= 1}."""
        cdf = self._cdf_table()
        p0 = float(self.p_zero())
        cond = (cdf - p0) / (1.0 - p0)
        cond = np.clip(cond, 0.0, 1.0)
        k = int(np.searchsorted(cond, u, side="right"))
        return max(k, 1)

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "ConfigLaw":
        kind = obj["kind"]
        params = obj["params"]
        if kind == "bernoulli":
            return ConfigLaw.bernoulli(params[0])
        if kind == "poisson":
            return ConfigLaw.poisson(params[0])
        if kind == "geometric":
            return ConfigLaw.geometric(params[0])
        if kind == "constant":
            return ConfigLaw.constant(int(params[0]))
        return ConfigLaw.explicit(params)


ENV_SCHEMA_VERSION = 1


class Environment:
    """Sampled counts on the l1 ball of radius box_radius; immutable."""

    def __init__(
        self,
        dim: int,
        box_radius: int,
        law: ConfigLaw,
        seed: SeedSpec,
        conditioned_origin: bool,
        cube: np.ndarray,
    ):
        self.dim = dim
        self.box_radius = box_radius
        self.law = law
        self.seed = seed
        self.conditioned_origin = conditioned_origin
        self.index = CubeIndex(box_radius, dim)
        self._cube = cube  # flat over self.index, int32, -1 outside the l1 ball
        self._occupied: np.ndarray | None = None
        self._cube.setflags(write=False)

    # -- indexing ------------------------------------------------------------

    def in_box_mask(self, coords: np.ndarray) -> np.ndarray:
        return np.abs(coords).sum(axis=1) <= self.box_radius

    def in_box(self, x: Coords) -> bool:
        return l1(x) <= self.box_radius

    def omega(self, x: Coords) -> int:
        if not self.in_box(x):
            raise GeometryError(f"site {x} outside box of radius {self.box_radius}")
        return int(self._cube[self.index.flat_one(x)])

    def counts_at(self, coords: np.ndarray) -> np.ndarray:
        """Counts for arbitrary positions; sites outside the box report 0."""
        inside = self.in_box_mask(coords)
        out = np.zeros(coords.shape[0], dtype=np.int32)
        if inside.any():
            out[inside] = self._cube[self.index.flat(coords[inside])]
        return out

    def occupied_coords(self) -> np.ndarray:
        """All sites of the box with at least one frog, lex order."""
        if self._occupied is None:
            coords = ball_coords(self.box_radius, self.dim)
            counts = self._cube[self.index.flat(coords)]
            self._occupied = coords[counts > 0]
        return self._occupied

    # -- derived environments --------------------------------------------------

    def with_radius(self, box_radius: int) -> "Environment":
        """The same realization on a (possibly) larger box; pure re-keying."""
        if box_radius <= self.box_radius:
            return self
        env = sample_environment(self.law, self.dim, box_radius, self.seed)
        if self.conditioned_origin:
            env = condition_origin(env)
        return env

    def to_json(self) -> dict:
        coords = ball_coords(self.box_radius, self.dim)
        counts = self._cube[self.index.flat(coords)]
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
        index = CubeIndex(R, dim)
        cube = np.full(index.size, -1, dtype=np.int32)
        cube[index.flat(coords)] = counts
        return Environment(dim, R, law, seed, obj["conditioned_origin"], cube)


def sample_environment(law: ConfigLaw, dim: int, box_radius: int, seed: SeedSpec) -> Environment:
    if box_radius < 0:
        raise GeometryError(f"box radius must be >= 0, got {box_radius}")
    index = CubeIndex(box_radius, dim)
    cube = np.full(index.size, -1, dtype=np.int32)
    coords = ball_coords(box_radius, dim)
    if law.kind == "constant":
        counts = np.full(coords.shape[0], int(law.params[0]), dtype=np.int32)
    else:
        keys = site_keys_np(seed, PURPOSE_OMEGA, coords)
        u = uniform01_np(keys)
        counts = law.quantile_counts(u)
    cube[index.flat(coords)] = counts
    return Environment(dim, box_radius, law, seed, False, cube)


def condition_origin(env: Environment) -> Environment:
    """Redraw only the origin's count from the law conditioned on >= 1.

    Exact because counts are independent across sites, so conditioning on
    {omega(0) >= 1} only changes the origin's marginal.
    """
    origin = (0,) * env.dim
    u = uniform01(site_key(env.seed, PURPOSE_CONDITION, origin))
    count = env.law.conditioned_quantile(u)
    cube = env._cube.copy()
    cube[env.index.flat_one(origin)] = count
    return Environment(env.dim, env.box_radius, env.law, env.seed, True, cube)


def star(env: Environment, x: Coords, search_cap: int | None = None) -> Coords:
    """The closest occupied site to x, searching expanding l1 shells.

    Ties break lexicographically.  Hitting the cap raises: a silent
    fallback would bias every downstream statistic.
    """
    if not env.in_box(x):
        raise GeometryError(f"site {x} outside box of radius {env.box_radius}")
    cap = env.box_radius if search_cap is None else search_cap
    for r in range(cap + 1):
        hits = [s for s in shell_coords(x, r) if env.in_box(s) and env.omega(s) >= 1]
        if hits:
            return closest_in_set(x, hits)
    raise SearchCapError(
        f"no occupied site within l1 distance {cap} of {x}; box too small for this law/seed"
    )
