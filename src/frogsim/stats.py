"""Small statistics helpers shared by the experiment layers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Z95 = 1.959963984540054  # two-sided 95% normal quantile
_ALPHAS = np.round(np.arange(0.1, 1.01, 0.1), 2)  # the exponent grid of fit_alpha_grid


@dataclass(frozen=True)
class SummaryStats:
    """Replicated sample summary; censored replicas are counted, never mixed in."""

    n: int
    mean: float
    std: float
    ci_lo: float
    ci_hi: float
    censored_count: int


def summarize(values: np.ndarray, censored_count: int = 0) -> SummaryStats:
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n == 0:
        nan = float("nan")
        return SummaryStats(0, nan, nan, nan, nan, censored_count)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    half = Z95 * std / math.sqrt(n) if n > 1 else 0.0
    return SummaryStats(n, mean, std, mean - half, mean + half, censored_count)


def wilson_ci(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval; exact endpoints at zero or full counts."""
    z = Z95
    if n == 0:
        return float("nan"), float("nan")
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of ys against xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] < 2 or np.all(xs == xs[0]):
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def fit_alpha_grid(norms: np.ndarray, log_probs: np.ndarray) -> dict:
    """Best stretched-exponential exponent on the grid alpha = 0.1, 0.2, ..., 1.0.

    Fits log p = a + b * |x|^alpha per alpha and reports the alpha with the
    highest R^2; exploratory output, never asserted against.
    """
    norms = np.asarray(norms, dtype=float)
    log_probs = np.asarray(log_probs, dtype=float)
    best = None
    for alpha in _ALPHAS:
        xs = norms**alpha
        slope, intercept = fit_line(xs, log_probs)
        pred = slope * xs + intercept
        ss_res = float(np.sum((log_probs - pred) ** 2))
        ss_tot = float(np.sum((log_probs - log_probs.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        if best is None or r2 > best["r2"]:
            best = {"alpha": float(alpha), "slope": slope, "intercept": intercept, "r2": r2}
    return best


def bootstrap_std_ci(values: np.ndarray, uniforms: np.ndarray) -> tuple[float, float]:
    """Percentile bootstrap CI for the sample std.

    ``uniforms`` is a (B, n) block of deterministic uniforms so the interval
    is reproducible; rows index resamples.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    idx = np.minimum((uniforms * n).astype(np.int64), n - 1)
    resamples = values[idx]
    stds = resamples.std(axis=1, ddof=1)
    return float(np.quantile(stds, 0.025)), float(np.quantile(stds, 0.975))
