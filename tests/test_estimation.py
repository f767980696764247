import math

import numpy as np
import pytest

from frogsim import passage
from frogsim.environment import ConfigLaw
from frogsim.errors import CensoringBudgetError, LawParameterError
from frogsim.estimation import (
    analytic_lower_bounds,
    collect_passage_samples,
    collect_tail_samples,
    concentration_experiment,
    direct_path_event_check,
    estimate_time_constant,
    probe_mu_hint,
    subadditivity_audit,
    tail_curve_from_samples,
)
from frogsim.stats import fit_alpha_grid, fit_line, summarize, wilson_ci
from frogsim.truncated import TruncationParams, agreement_experiment
from frogsim.walks import SeedSpec

INF, NAN = float("inf"), float("nan")


def test_direct_path_trivial_cases():
    rep0 = direct_path_event_check(2, 0, 1000, SeedSpec(1, "dp"))
    assert rep0.phat == 1.0 and rep0.target == 1.0
    rep = direct_path_event_check(3, 2, 50_000, SeedSpec(2, "dp"))
    assert rep.target == pytest.approx(1 / 36)
    assert abs(rep.z_score) <= 4.0


def test_direct_path_guard():
    with pytest.raises(LawParameterError):
        direct_path_event_check(2, 12, 1000, SeedSpec(3, "dp"))


def test_analytic_lower_bounds():
    out = analytic_lower_bounds(ConfigLaw.constant(1), 0.5, 2.0, 2)
    assert out["lower_tail_rate_lb"] == pytest.approx(-math.log(4))
    assert out["upper_tail_rate_lb"] == pytest.approx(-3 * math.log(4))
    pois = analytic_lower_bounds(ConfigLaw.poisson(2.5), 0.1, 2.0, 3)
    assert pois["mean_count"] == 2.5
    assert pois["lower_tail_rate_lb"] == pytest.approx(-math.log(6))


def test_summarize_and_wilson():
    s = summarize(np.array([1.0, 2.0, 3.0]), censored_count=2)
    assert s.n == 3 and s.mean == 2.0 and s.censored_count == 2
    assert s.ci_lo < 2.0 < s.ci_hi
    lo, hi = wilson_ci(0, 50)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_ci(50, 50)
    assert hi == 1.0


def test_fit_helpers():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept = fit_line(xs, -2.0 * xs + 1.0)
    assert slope == pytest.approx(-2.0)
    assert intercept == pytest.approx(1.0)
    best = fit_alpha_grid(xs, -1.5 * np.sqrt(xs) + 0.3)
    assert best["alpha"] == pytest.approx(0.5)


def test_estimate_time_constant_small():
    est = estimate_time_constant(
        ConfigLaw.poisson(1.0), (1, 0), [4, 8], replicas=40, seed=SeedSpec(10, "mu")
    )
    assert est.mu_hat >= est.mu_lower == 1.0
    assert est.per_k[8].mean <= est.per_k[4].ci_hi  # non-increasing within CI
    assert est.law_label == "poisson:1"


def test_estimate_time_constant_bad_ladder():
    with pytest.raises(LawParameterError):
        estimate_time_constant(ConfigLaw.poisson(1.0), (1, 0), [8, 8], 10, SeedSpec(1))


def test_censoring_budget_error():
    with pytest.raises(CensoringBudgetError) as info:
        collect_passage_samples(
            ConfigLaw.constant(1), 2, [(30, 0)], replicas=10, seed=SeedSpec(11, "cens"),
            horizon=32, modified=True, censor_budget=0.05,
        )
    assert info.value.horizon == 32


def test_tail_lower_below_path_bound_is_empty():
    # threshold 0.5 * 1.0 * |x| sits under the hard bound T >= |x|: zero hits
    law = ConfigLaw.constant(1)
    samples = collect_tail_samples(law, 0.5, [(6, 0), (10, 0)], 40, 1.0, SeedSpec(12, "zero"))
    curve = tail_curve_from_samples(samples, 0.5, "lower", 1.0, law.label())
    assert all(p.hits == 0 for p in curve.points)
    assert curve.all_censored
    assert math.isnan(curve.fitted_log_slope)


def test_tail_requires_positive_epsilon():
    law = ConfigLaw.constant(1)
    with pytest.raises(LawParameterError):
        collect_tail_samples(law, 0.0, [(4, 0)], 10, 1.0, SeedSpec(13))
    samples = collect_tail_samples(law, 0.5, [(4, 0)], 10, 1.0, SeedSpec(13))
    with pytest.raises(LawParameterError):
        tail_curve_from_samples(samples, 0.5, "sideways", 1.0, law.label())


def test_tail_curves_two_sided():
    law = ConfigLaw.bernoulli(0.2)
    mu_hat = 5.5
    samples = collect_tail_samples(law, 0.5, [(4, 0), (8, 0)], 120, mu_hat, SeedSpec(14, "tails"))
    upper = tail_curve_from_samples(samples, 0.5, "upper", mu_hat, law.label())
    lower = tail_curve_from_samples(samples, 0.5, "lower", mu_hat, law.label())
    assert upper.points[0].phat >= upper.points[1].phat
    for curve in (upper, lower):
        for p in curve.points:
            assert 0.0 <= p.phat <= 1.0
            assert p.replicas == 120


def test_concentration_experiment_small():
    rep = concentration_experiment(
        ConfigLaw.constant(1), [(10, 0), (20, 0)], replicas=60, seed=SeedSpec(15, "conc")
    )
    for row in rep.rows:
        assert row.std >= 0.0
        assert row.std_ci_lo <= row.std <= row.std_ci_hi
        assert row.ratio_sqrt == pytest.approx(row.std / math.sqrt(row.norm))
    assert math.isfinite(rep.fitted_std_slope)


def test_bootstrap_ci_shrinks_with_replicas():
    small = concentration_experiment(
        ConfigLaw.constant(1), [(10, 0)], replicas=50, seed=SeedSpec(16, "boot")
    )
    big = concentration_experiment(
        ConfigLaw.constant(1), [(10, 0)], replicas=200, seed=SeedSpec(16, "boot")
    )
    w_small = small.rows[0].std_ci_hi - small.rows[0].std_ci_lo
    w_big = big.rows[0].std_ci_hi - big.rows[0].std_ci_lo
    assert w_big < w_small


def test_infinite_mean_guard():
    law = ConfigLaw.poisson(1.0)
    assert math.isfinite(law.mean())  # all built-in laws qualify
    # the guard is structural: a finite mean is required by signature


def test_subadditivity_audit_zero_violations():
    rep = subadditivity_audit(
        ConfigLaw.bernoulli(0.8), 40, SeedSpec(17, "audit"), horizon=45
    )
    assert rep.violations == 0
    assert rep.checked_plain + rep.checked_star > 0
    assert rep.details == []


def test_degenerate_triple():
    # x = y = z = 0 gives 0 <= 0 + 0 through the same machinery
    rep = subadditivity_audit(
        ConfigLaw.constant(1), 3, SeedSpec(18, "degenerate"), window=0, horizon=20
    )
    assert rep.violations == 0
    assert rep.checked_plain == 3


def test_dense_law_pinned_time_constant():
    # 50 frogs per site drive the front at full speed: every replica attains
    # the exact norm lower bound, pinned from a fixed-seed run
    est = estimate_time_constant(
        ConfigLaw.constant(50), (1, 0), [4, 8], replicas=25, seed=SeedSpec(52, "dense"),
        mu_hint=2.0,
    )
    assert est.mu_hat == 1.0
    assert est.per_k[4].mean == 1.0
    assert est.per_k[8].std == 0.0


def test_probe_mu_hint():
    hint = probe_mu_hint(ConfigLaw.poisson(1.0), 2, SeedSpec(19, "hint"))
    assert 1.0 <= hint <= 8.0


def test_replica_reproducibility_and_threads():
    law = ConfigLaw.poisson(1.0)
    a = collect_passage_samples(
        law, 2, [(5, 0)], 16, SeedSpec(20, "rep"), 40, modified=False
    )
    b = collect_passage_samples(
        law, 2, [(5, 0)], 16, SeedSpec(20, "rep"), 40, modified=False
    )
    assert np.array_equal(a.values, b.values, equal_nan=True)


@pytest.mark.parametrize("modified", [False, True])
def test_batch_width_and_threads_leave_values_unchanged(modified, monkeypatch):
    law, targets, replicas = ConfigLaw.poisson(1.0), [(3, 0), (0, -5), (7, 2)], 7

    def values(width):
        monkeypatch.setattr(passage, "_BATCH", width)
        return collect_passage_samples(
            law, 2, targets, replicas, SeedSpec(23, "width"), 40, modified=modified,
        ).values

    want = values(1)
    assert np.isfinite(want).any()
    for width in (1, 3, replicas):
        assert np.array_equal(values(width), want, equal_nan=True), width


def test_batch_width_leaves_agreement_and_audit_unchanged(monkeypatch):
    # both run their engine replicas through passage_times, 16 at a time by default
    def reports(width):
        monkeypatch.setattr(passage, "_BATCH", width)
        agreement = agreement_experiment(ConfigLaw.poisson(1.0), (4, 0), [2, 4], 5, SeedSpec(24, "width"), 1.5)
        audit = subadditivity_audit(ConfigLaw.bernoulli(0.8), 3, SeedSpec(24, "width"), horizon=30)
        return agreement.rows, audit

    want = reports(16)
    assert all(row.replicas > 0 for row in want[0]) and want[1].checked_plain > 0
    for width in (1, 3):
        assert reports(width) == want, width


POISSON, SEED = ConfigLaw.poisson(1.0), SeedSpec(25, "bad")


@pytest.mark.parametrize(
    "func,kwargs",
    [
        (TruncationParams.make, dict(t=2, dim=2, c4_hat=INF)),
        (TruncationParams.make, dict(t=2, dim=2, c4_hat=1.0, gamma=NAN)),
        *[(agreement_experiment, dict(law=POISSON, x=(4, 0), t_ladder=[2], replicas=1, seed=SEED, mu_hat=mu))
          for mu in (INF, NAN, -1.0)],
        (collect_tail_samples, dict(law=POISSON, epsilon=0.5, x_ladder=[(4, 0)], replicas=2, mu_hat=INF, seed=SEED)),
        (collect_tail_samples, dict(law=POISSON, epsilon=INF, x_ladder=[(4, 0)], replicas=2, mu_hat=1.5, seed=SEED)),
        *[(estimate_time_constant, dict(law=POISSON, direction=(1, 0), k_ladder=[4], replicas=2, seed=SEED,
                                        mu_hint=mu)) for mu in (INF, NAN)],
        *[(concentration_experiment, dict(law=POISSON, x_ladder=[(4, 0)], replicas=2, seed=SEED, mu_hint=mu))
          for mu in (INF, NAN)],
        (collect_passage_samples, dict(law=POISSON, dim=2, targets=[(4, 0)], replicas=0, seed=SEED, horizon=20,
                                       modified=False)),
        # a zero direction used to report mu_hat = 0, below the exact bound mu_lower = 1
        (estimate_time_constant, dict(law=POISSON, direction=(0, 0), k_ladder=[4, 8], replicas=2, seed=SEED)),
    ],
    ids=["c4-hat-inf", "gamma-nan", "agreement-mu-hat-inf", "agreement-mu-hat-nan", "agreement-mu-hat-negative",
         "tails-mu-hat-inf", "tails-epsilon-inf", "mu-hint-inf", "mu-hint-nan", "concentration-mu-hint-inf",
         "concentration-mu-hint-nan", "zero-replicas", "zero-direction"],
)
def test_library_entry_points_reject_bad_numbers(func, kwargs):
    # these used to raise OverflowError or ValueError from math.ceil or np.stack, or a
    # GeometryError about K, in place of the CLI's parameter rules
    with pytest.raises(LawParameterError):
        func(**kwargs)
