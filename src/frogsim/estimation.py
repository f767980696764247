"""Monte Carlo estimation layer: time constants, deviation tails, concentration.

Every experiment is a pure function of (law, parameters, seed): replicas are
assigned derived seeds by index, so reruns and batch widths cannot change
any number.  Censored replicas are counted and reported, never silently
folded into means; exceeding the censoring budget raises.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .environment import ConfigLaw, condition_origin, sample_environment, star
from .errors import COUNT, DIRECTION, LADDER, POSITIVE, SITE_LADDER, SIZE, CensoringBudgetError, LawParameterError
from .errors import require, require_site
from .lattice import Coords, l1, scale
from .passage import passage_times
from .stats import SummaryStats, bootstrap_std_ci, fit_alpha_grid, fit_line, summarize, wilson_ci
from .walks import (
    PURPOSE_BOOTSTRAP,
    PURPOSE_WALK,
    SeedSpec,
    draw,
    draw_np,
    step_codes_np,
    uniform01_np,
    walk_keys_np,
)

DEFAULT_CENSOR_BUDGET = 0.05
_BOOTSTRAP = 200  # resamples per bootstrap interval


# ---------------------------------------------------------------------------
# Shared replica sampler
# ---------------------------------------------------------------------------


@dataclass
class PassageSamples:
    """Passage times per (replica, target); NaN marks a censored replica cell."""

    targets: list[Coords]
    values: np.ndarray  # (replicas, n_targets) float
    horizon: int

    def column(self, i: int) -> tuple[np.ndarray, int]:
        col = self.values[:, i]
        finite = col[~np.isnan(col)]
        return finite, int(np.isnan(col).sum())


def replica_setup(law, dim, targets, horizon, rep_seed, modified):
    """A replica's run (environment, source, goals) for ``passage_times``, which sizes the engine's box."""
    # star searches the whole box, so this radius decides when SearchCapError is raised
    env = sample_environment(law, dim, horizon + 8, rep_seed)
    if modified:
        return env, star(env, (0,) * dim), [star(env, x) for x in targets]
    return condition_origin(env), (0,) * dim, list(targets)


def collect_passage_samples(
    law: ConfigLaw,
    dim: int,
    targets: Sequence[Coords],
    replicas: int,
    seed: SeedSpec,
    horizon: int,
    modified: bool,
    stream: str = "samples",
    censor_budget: float = DEFAULT_CENSOR_BUDGET,
) -> PassageSamples:
    """Passage times of all targets over independent environments.

    ``modified`` samples T*(0, x), between the closest occupied sites 0*
    and x* of an unconditioned environment; otherwise T(0, x) from an origin
    conditioned to be occupied.  One simulation per replica serves the
    whole ladder; the per-target statistics stay valid because replicas are
    independent.  The replicas are set up first and then run by
    ``passage_times``, in order.
    """
    require("replicas", replicas, SIZE)
    require("horizon", horizon, COUNT)
    targets = [tuple(require_site("targets", x, dim)) for x in targets]
    setups = [
        replica_setup(law, dim, targets, horizon, seed.child(stream, r), modified) for r in range(replicas)
    ]
    values = np.array(passage_times(setups, horizon), dtype=float).reshape(replicas, len(targets))
    censored = int(np.isnan(values).sum())
    total = values.size
    if censored > censor_budget * total:
        raise CensoringBudgetError(
            f"{censored}/{total} samples censored at horizon {horizon}, over budget {censor_budget:.0%}",
            horizon=horizon,
            censored=censored,
            total=total,
        )
    return PassageSamples(targets=targets, values=values, horizon=horizon)


def _auto_horizon(mu_hint: float, norm: int) -> int:
    return max(32, math.ceil(3.0 * mu_hint * norm))


def probe_mu_hint(law: ConfigLaw, dim: int, seed: SeedSpec) -> float:
    """Cheap pilot estimate of the time constant used only to size horizons.

    The mean of T*(0, 6 e1) / 6 over 12 replicas.
    """
    k, replicas = 6, 12
    target = scale(k, (1,) + (0,) * (dim - 1))
    horizon = 30 * k
    samples = collect_passage_samples(
        law, dim, [target], replicas, seed.child("probe"), horizon,
        modified=True, censor_budget=0.5, stream="probe",
    )
    finite, _ = samples.column(0)
    if finite.size == 0:
        raise CensoringBudgetError("pilot run fully censored", horizon, replicas, replicas)
    return float(finite.mean() / k)


# ---------------------------------------------------------------------------
# Time constant
# ---------------------------------------------------------------------------


@dataclass
class TimeConstantEstimate:
    direction: Coords
    k_ladder: list[int]
    per_k: dict[int, SummaryStats]
    mu_hat: float
    mu_lower: float
    law_label: str
    replicas: int
    horizon: int

    def rows(self) -> list[dict]:
        return [{"k": k, **asdict(self.per_k[k])} for k in self.k_ladder]


def estimate_time_constant(
    law: ConfigLaw,
    direction: Coords,
    k_ladder: Sequence[int],
    replicas: int,
    seed: SeedSpec,
    mu_hint: float | None = None,
) -> TimeConstantEstimate:
    """Per-k statistics of T*(0, k dir)/k and the conservative estimate mu_hat.

    mu_hat is the smallest upper 95% confidence bound among the per-k means:
    each per-k mean upper-bounds the time constant by subadditivity, so the
    minimum keeps statistical error one-sided.  mu_lower = 1 is the exact
    norm lower bound.
    """
    require("direction", direction, DIRECTION)
    k_ladder = sorted(int(k) for k in require("k_ladder", k_ladder, LADDER))
    require("replicas", replicas, SIZE)
    dim = len(direction)
    if mu_hint is None:
        mu_hint = probe_mu_hint(law, dim, seed)
    horizon = _auto_horizon(require("mu_hint", mu_hint, POSITIVE), k_ladder[-1] * l1(direction))
    targets = [scale(k, direction) for k in k_ladder]
    samples = collect_passage_samples(
        law, dim, targets, replicas, seed, horizon,
        modified=True, stream="mu",
    )
    per_k: dict[int, SummaryStats] = {}
    for i, k in enumerate(k_ladder):
        finite, censored = samples.column(i)
        per_k[k] = summarize(finite / k, censored)
    mu_hat = min(per_k[k].ci_hi for k in k_ladder)
    return TimeConstantEstimate(
        direction=tuple(direction),
        k_ladder=list(k_ladder),
        per_k=per_k,
        mu_hat=float(mu_hat),
        mu_lower=1.0,
        law_label=law.label(),
        replicas=replicas,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# Deviation tails
# ---------------------------------------------------------------------------


@dataclass
class TailPoint:
    norm: int
    replicas: int
    hits: int
    phat: float
    ci_lo: float
    ci_hi: float
    censored: int


@dataclass
class TailCurve:
    side: str
    epsilon: float
    mu_hat: float
    points: list[TailPoint]
    fitted_log_slope: float
    fitted_exponent_alpha: dict | None
    law_label: str
    all_censored: bool

    def fittable(self) -> list[TailPoint]:
        return [p for p in self.points if p.hits > 0]


def collect_tail_samples(
    law: ConfigLaw,
    epsilon: float,
    x_ladder: Sequence[Coords],
    replicas: int,
    mu_hat: float,
    seed: SeedSpec,
) -> PassageSamples:
    require("epsilon", epsilon, POSITIVE)
    require("x_ladder", x_ladder, SITE_LADDER)
    require("mu_hat", mu_hat, POSITIVE)
    dim = len(x_ladder[0])
    norms = [l1(x) for x in x_ladder]
    # the horizon only needs to clear the largest upper threshold: a censored
    # replica then certainly lies in the upper tail and outside the lower one
    horizon = max(32, math.ceil(1.25 * (1 + epsilon) * mu_hat * max(norms)))
    return collect_passage_samples(
        law, dim, x_ladder, replicas, seed, horizon,
        modified=False, stream="tails",
        censor_budget=1.0,
    )


def tail_curve_from_samples(
    samples: PassageSamples, epsilon: float, side: str, mu_hat: float, law_label: str
) -> TailCurve:
    """Empirical tail of T(0, x) against (1 +/- eps) mu_hat |x|_1.

    Zero-hit points are excluded from the log-linear fit.  ``mu_hat`` must
    come from a seed range disjoint from the samples'.
    """
    if side not in ("upper", "lower"):
        raise LawParameterError(f"side must be upper or lower, got {side!r}")
    points = []
    for i, x in enumerate(samples.targets):
        finite, censored = samples.column(i)
        norm = l1(x)
        if side == "upper":
            # a censored replica certainly exceeded the upper threshold
            thr = (1 + epsilon) * mu_hat * norm
            hits = int((finite >= thr).sum()) + censored
        else:
            thr = (1 - epsilon) * mu_hat * norm
            hits = int((finite <= thr).sum())
        n = finite.size + censored
        lo, hi = wilson_ci(hits, n)
        points.append(
            TailPoint(norm=norm, replicas=n, hits=hits, phat=hits / n, ci_lo=lo, ci_hi=hi, censored=censored)
        )
    fit_pts = [p for p in points if p.hits > 0]
    if len(fit_pts) >= 2:
        xs = np.array([p.norm for p in fit_pts], dtype=float)
        ys = np.array([math.log(p.phat) for p in fit_pts])
        slope = fit_line(xs, ys)[0]
        alpha = fit_alpha_grid(xs, ys)
        all_censored = False
    else:
        slope = float("nan")
        alpha = None
        all_censored = len(fit_pts) == 0
    return TailCurve(
        side=side,
        epsilon=epsilon,
        mu_hat=mu_hat,
        points=points,
        fitted_log_slope=slope,
        fitted_exponent_alpha=alpha,
        law_label=law_label,
        all_censored=all_censored,
    )


# ---------------------------------------------------------------------------
# Concentration of the modified passage time
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationRow:
    norm: int
    n: int
    mean: float
    std: float
    std_ci_lo: float
    std_ci_hi: float
    ratio_sqrt: float
    censored: int


@dataclass
class ConcentrationReport:
    rows: list[ConcentrationRow]
    fitted_std_slope: float
    law_label: str
    replicas: int
    horizon: int


def concentration_experiment(
    law: ConfigLaw,
    x_ladder: Sequence[Coords],
    replicas: int,
    seed: SeedSpec,
    mu_hint: float | None = None,
) -> ConcentrationReport:
    """Sample std of T*(0, x) per ladder point and its scaling exponent.

    Requires a finite-mean law (every built-in law qualifies).  The slope of
    log std against log |x|_1 gauges the square-root concentration scale;
    each std carries a 200-resample percentile bootstrap interval.
    """
    if not math.isfinite(law.mean()):
        raise LawParameterError("concentration experiment needs a finite-mean law")
    require("x_ladder", x_ladder, SITE_LADDER)
    require("replicas", replicas, SIZE)
    dim = len(x_ladder[0])
    if mu_hint is None:
        mu_hint = probe_mu_hint(law, dim, seed)
    norms = [l1(x) for x in x_ladder]
    horizon = _auto_horizon(require("mu_hint", mu_hint, POSITIVE), max(norms))
    samples = collect_passage_samples(
        law, dim, x_ladder, replicas, seed, horizon,
        modified=True, stream="concentration",
    )
    rows = []
    boot_key = seed.child("boot").purpose_key(PURPOSE_BOOTSTRAP)
    offset = 0
    for i, x in enumerate(x_ladder):
        finite, censored = samples.column(i)
        stats = summarize(finite, censored)
        count = _BOOTSTRAP * finite.size
        counters = np.arange(offset, offset + count, dtype=np.uint64)
        offset += count
        words = draw_np(np.uint64(boot_key), counters)
        q = uniform01_np(words).reshape(_BOOTSTRAP, finite.size)
        lo, hi = bootstrap_std_ci(finite, q)
        rows.append(
            ConcentrationRow(
                norm=norms[i], n=stats.n, mean=stats.mean, std=stats.std,
                std_ci_lo=lo, std_ci_hi=hi,
                ratio_sqrt=stats.std / math.sqrt(norms[i]),
                censored=censored,
            )
        )
    slope = fit_line(
        np.log([r.norm for r in rows]), np.log([max(r.std, 1e-12) for r in rows])
    )[0]
    return ConcentrationReport(
        rows=rows, fitted_std_slope=slope, law_label=law.label(), replicas=replicas, horizon=horizon
    )


# ---------------------------------------------------------------------------
# Closed-form bounds and exact path events
# ---------------------------------------------------------------------------


def analytic_lower_bounds(law: ConfigLaw, epsilon: float, mu_hat_xi1: float, dim: int) -> dict:
    """Closed-form large-deviation rate lower bounds per unit |x|_1.

    Upper tail: -E[count] ceil((1+eps) mu(xi1)) log(2d), from trapping the
    origin's frogs on a two-site segment.  Lower tail: -log(2d), from one
    frog marching a fixed minimal path.
    """
    mean = law.mean()
    if not math.isfinite(mean):
        raise LawParameterError("analytic bound needs E[count] < infinity")
    return {
        "upper_tail_rate_lb": -mean * math.ceil((1 + epsilon) * mu_hat_xi1) * math.log(2 * dim),
        "lower_tail_rate_lb": -math.log(2 * dim),
        "mean_count": mean,
        "epsilon": epsilon,
        "mu_hat_xi1": mu_hat_xi1,
        "dim": dim,
    }


@dataclass
class DirectPathReport:
    dim: int
    n: int
    trials: int
    hits: int
    phat: float
    target: float
    sigma: float
    z_score: float


def direct_path_event_check(dim: int, n: int, trials: int, seed: SeedSpec) -> DirectPathReport:
    """Frequency of one frog following the fixed minimal path of length n.

    The walk family is i.i.d. over the frog index, so trials enumerate the
    frog index at the origin; the target probability is (2d)^-n since each
    step matches one of 2d directions.
    """
    if n < 0 or (n > 6 and trials * (2 * dim) ** (-n) < 1):
        raise LawParameterError(f"direct path of length {n} unobservable at {trials} trials")
    origin = (0,) * dim
    # the fixed minimal path: n steps along +e1, direction code 0; the trial
    # index enumerates the frog index, valid because the family is i.i.d.
    ells = np.arange(1, trials + 1, dtype=np.int64)
    keys = walk_keys_np(seed.purpose_key(PURPOSE_WALK), np.zeros((trials, dim), dtype=np.int64), ells)
    ok = np.ones(trials, dtype=bool)
    for k in range(1, n + 1):
        codes = step_codes_np(keys, np.full(trials, k, dtype=np.uint64), dim)
        ok &= codes == 0
    hits = int(ok.sum())
    phat = hits / trials
    target = (2 * dim) ** (-n)
    sigma = math.sqrt(target * (1 - target) / trials)
    z = (phat - target) / sigma if sigma else 0.0
    return DirectPathReport(
        dim=dim, n=n, trials=trials, hits=hits, phat=phat, target=target, sigma=sigma, z_score=z
    )


# ---------------------------------------------------------------------------
# Subadditivity audit
# ---------------------------------------------------------------------------


@dataclass
class SubadditivityReport:
    violations: int
    checked_plain: int
    checked_star: int
    skipped: int
    replicas: int
    law_label: str
    details: list[dict] = field(default_factory=list)


def subadditivity_audit(
    law: ConfigLaw,
    n_triples: int,
    seed: SeedSpec,
    dim: int = 2,
    window: int = 5,
    horizon: int = 60,
) -> SubadditivityReport:
    """Exact triangle-inequality checks on random triples, one per replica.

    Checks T(x,z) <= T(x,y) + T(y,z) whenever all three values are finite,
    and the same for the starred triple; every violation is recorded.  All
    the runs are read from one ``passage_times`` call, so the box radius
    serves ``star`` alone, whose search it caps.  An audit that skips every
    triple checks nothing, and raises CensoringBudgetError.
    """
    require("n_triples", n_triples, SIZE)
    require("window", window, COUNT)
    require("horizon", horizon, COUNT)
    triples, runs = [], []
    for r in range(n_triples):
        rep_seed = seed.child("audit", r)
        env = sample_environment(law, dim, horizon + dim * window + 6, rep_seed)
        plain = _random_triple(rep_seed, dim, window)
        for kind, (x, y, z) in (("plain", plain), ("star", tuple(star(env, p) for p in plain))):
            triples.append((kind, [x, y, z]))
            # a run from a site without frogs reads None
            runs += [(env, x, [y, z]), (env, y, [z])]
    values = passage_times(runs, horizon)
    checked = {"plain": 0, "star": 0}
    violations = skipped = 0
    details: list[dict] = []
    for (kind, triple), (txy, txz), (tyz,) in zip(triples, values[::2], values[1::2]):
        if None in (txy, tyz, txz):
            skipped += 1
            continue
        checked[kind] += 1
        if txz > txy + tyz:
            violations += 1
            details.append({"kind": kind, "triple": triple, "values": [txy, tyz, txz]})
    if not checked["plain"] + checked["star"]:
        raise CensoringBudgetError(
            f"all {skipped} plain and starred triples skipped at horizon {horizon} (each had a run from "
            "an empty site or a censored value): nothing was checked", horizon, skipped, skipped,
        )
    return SubadditivityReport(
        violations=violations,
        checked_plain=checked["plain"],
        checked_star=checked["star"],
        skipped=skipped,
        replicas=n_triples,
        law_label=law.label(),
        details=details,
    )


def _random_triple(seed: SeedSpec, dim: int, window: int) -> tuple[Coords, Coords, Coords]:
    key = seed.purpose_key(PURPOSE_BOOTSTRAP)
    width = 2 * window + 1
    # coordinate j of point i reads counter 1 + i * dim + j
    return tuple(tuple(int(draw(key, 1 + i * dim + j) % width) - window for j in range(dim)) for i in range(3))
