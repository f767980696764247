import math
import warnings

import numpy as np
import pytest

from frogsim import cli, passage
from frogsim.environment import ConfigLaw, condition_origin, sample_environment, star
from frogsim.errors import CensoringBudgetError, GeometryError, LawParameterError
from frogsim.estimation import (
    PassageSamples,
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
from frogsim.passage import first_hits, hit_time, oracle_passage_time, passage_between, passage_time, tau
from frogsim.percolation import (
    chemical_ratio_experiment,
    hole_radius_experiment,
    sample_bernoulli_field,
    white_marginal_curve,
    white_site_indicator,
)
from frogsim.stats import fit_alpha_grid, fit_line, summarize, wilson_ci
from frogsim.truncated import TruncationParams, agreement_experiment, sigma_t, truncated_passage
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
        monkeypatch.setattr(passage, "_BATCH", (width, width))
        return collect_passage_samples(
            law, 2, targets, replicas, SeedSpec(23, "width"), 40, modified=modified,
        ).values

    want = values(1)
    assert np.isfinite(want).any()
    for width in (1, 3, replicas):
        assert np.array_equal(values(width), want, equal_nan=True), width


def test_batch_width_leaves_agreement_and_audit_unchanged(monkeypatch):
    # both run their engine replicas through passage_times, 16 (Poisson(1)) or 20 (Bernoulli(0.8)) at a time
    def reports(width):
        monkeypatch.setattr(passage, "_BATCH", (width, width))
        agreement = agreement_experiment(ConfigLaw.poisson(1.0), (4, 0), [2, 4], 5, SeedSpec(24, "width"), 1.5)
        audit = subadditivity_audit(ConfigLaw.bernoulli(0.8), 3, SeedSpec(24, "width"), horizon=30)
        return agreement.rows, audit

    want = reports(16)
    assert all(row.replicas > 0 for row in want[0]) and want[1].checked_plain > 0
    for width in (1, 3):
        assert reports(width) == want, width


POISSON, SEED = ConfigLaw.poisson(1.0), SeedSpec(25, "bad")
PASSAGE_ENV = condition_origin(sample_environment(POISSON, 2, 8, SEED))
ONE_SAMPLE = PassageSamples(targets=[(4, 0)], values=np.array([[6.0]]), horizon=20)
PARAMS = TruncationParams.make(t=2, dim=2, c4_hat=1.0)


def case(case_id, func, error=LawParameterError, **kwargs):
    return pytest.param(func, kwargs, error, id=case_id)


def agreement(case_id, **kwargs):
    base = dict(law=POISSON, x=(4, 0), t_ladder=[2], replicas=1, seed=SEED, mu_hat=1.5)
    return case(case_id, agreement_experiment, **{**base, **kwargs})


def ladder(case_id, func, **kwargs):
    base = {
        estimate_time_constant: dict(law=POISSON, direction=(1, 0), k_ladder=[4], replicas=2, seed=SEED),
        collect_tail_samples: dict(law=POISSON, epsilon=0.5, x_ladder=[(4, 0)], replicas=2, mu_hat=1.5, seed=SEED),
        concentration_experiment: dict(law=POISSON, x_ladder=[(4, 0)], replicas=2, seed=SEED, mu_hint=1.5),
    }[func]
    return case(case_id, func, **{**base, **kwargs})


def percolation(case_id, func, error=LawParameterError, **kwargs):
    base = dict(p=0.8, dim=2, box_radius=20, replicas=2, seed=SEED)
    if func is chemical_ratio_experiment:
        base["targets"] = [(5, 0)]
    elif func is white_marginal_curve:
        base = dict(law=POISSON, dim=2, N_ladder=[5], replicas=2, seed=SEED, subbox_side=1)
    return case(case_id, func, error, **{**base, **kwargs})


def audit(case_id, **kwargs):
    return case(case_id, subadditivity_audit, **{**dict(law=POISSON, n_triples=1, seed=SEED), **kwargs})


CASES = [
    case("c4-hat-inf", TruncationParams.make, t=2, dim=2, c4_hat=INF),
    case("gamma-nan", TruncationParams.make, t=2, dim=2, c4_hat=1.0, gamma=NAN),
    *[agreement(f"agreement-mu-hat-{name}", mu_hat=mu)
      for name, mu in (("inf", INF), ("nan", NAN), ("negative", -1.0))],
    ladder("tails-mu-hat-inf", collect_tail_samples, mu_hat=INF),
    ladder("tails-epsilon-inf", collect_tail_samples, epsilon=INF),
    *[ladder(f"mu-hint-{name}", estimate_time_constant, mu_hint=mu) for name, mu in (("inf", INF), ("nan", NAN))],
    *[ladder(f"concentration-mu-hint-{name}", concentration_experiment, mu_hint=mu)
      for name, mu in (("inf", INF), ("nan", NAN))],
    case("zero-replicas", collect_passage_samples, law=POISSON, dim=2, targets=[(4, 0)], replicas=0, seed=SEED,
         horizon=20, modified=False),
    # a zero direction used to report mu_hat = 0, below the exact bound mu_lower = 1
    ladder("zero-direction", estimate_time_constant, direction=(0, 0), k_ladder=[4, 8]),
    # a repeated t counted each replica twice, and 0 replicas gave rows of nan
    agreement("agreement-t-repeated", t_ladder=[2, 2]),
    agreement("agreement-zero-replicas", replicas=0),
    agreement("agreement-x-text", x="4,0"),
    # a zero or repeated site fitted the slope through log 0 or gave a nan slope, an empty
    # ladder raised IndexError, and k = 0 divided by zero
    ladder("concentration-origin-repeated", concentration_experiment, x_ladder=[(0, 0), (0, 0)]),
    ladder("concentration-repeated", concentration_experiment, x_ladder=[(2, 0), (2, 0)]),
    ladder("concentration-empty", concentration_experiment, x_ladder=[]),
    ladder("concentration-zero-replicas", concentration_experiment, replicas=0),
    ladder("tails-empty", collect_tail_samples, x_ladder=[]),
    ladder("mu-empty", estimate_time_constant, k_ladder=[]),
    ladder("mu-k-zero", estimate_time_constant, k_ladder=[0, 2], mu_hint=1.5),
    ladder("mu-zero-replicas", estimate_time_constant, replicas=0),
    # an origin target ended in a ZeroDivisionError, and 0 replicas returned a report
    percolation("chemical-origin-target", chemical_ratio_experiment, GeometryError, targets=[(0, 0)]),
    percolation("chemical-target-in-margin", chemical_ratio_experiment, GeometryError, targets=[(19, 0)]),
    percolation("chemical-targets-text", chemical_ratio_experiment, targets="5,0"),
    # a repeated target wrote its row twice and counted its connected pairs twice
    percolation("chemical-target-repeated", chemical_ratio_experiment, GeometryError, targets=[(5, 0), (5, 0)]),
    # a site of another dimension failed in a numpy reshape, or star returned it
    percolation("chemical-target-dim", chemical_ratio_experiment, GeometryError, targets=[(5, 0, 0)]),
    case("samples-target-dim", collect_passage_samples, GeometryError, law=POISSON, dim=3, targets=[(4, 0)],
         replicas=2, seed=SEED, horizon=20, modified=False),
    case("passage-between-dim", passage_between, GeometryError, env=PASSAGE_ENV, source=(0, 0), x=(4, 0, 0),
         horizon=10),
    case("star-dim", star, GeometryError, env=PASSAGE_ENV, x=(1, 0, 0)),
    # a site of another dimension failed in a numpy broadcast, or its first coordinates were read
    case("tau-dim", tau, GeometryError, env=PASSAGE_ENV, u=(0, 0), v=(1, 0, 0), horizon=5),
    case("hit-time-dim", hit_time, GeometryError, env=PASSAGE_ENV, u=(0, 0, 0), v=(1, 0), t=2, horizon=5),
    case("first-hits-dim", first_hits, GeometryError, env=PASSAGE_ENV, u=(0,), horizon=5),
    case("oracle-source-dim", oracle_passage_time, GeometryError, env=PASSAGE_ENV, source=(0, 0, 0), x=(1, 0),
         horizon=5),
    case("oracle-x-dim", oracle_passage_time, GeometryError, env=PASSAGE_ENV, source=(0, 0), x=(1, 0, 0),
         horizon=5),
    case("white-dim", white_site_indicator, GeometryError, env=PASSAGE_ENV, v=(0, 0, 0), N=3, subbox_side=1),
    case("truncated-dim", truncated_passage, GeometryError, env=PASSAGE_ENV, x=(0, 0), y=(3, 0, 0), p=PARAMS),
    case("sigma-dim", sigma_t, GeometryError, env=PASSAGE_ENV, x=(0, 0), y=(1, 0, 0), p=PARAMS),
    percolation("hole-zero-replicas", hole_radius_experiment, replicas=0),
    percolation("hole-p-above-one", hole_radius_experiment, p=1.5),
    percolation("hole-radius-negative", hole_radius_experiment, box_radius=-1),
    case("field-dim-zero", sample_bernoulli_field, p=0.8, dim=0, box_radius=5, seed=SEED),
    percolation("white-default-subbox", white_marginal_curve, GeometryError, N_ladder=[3], subbox_side=None),
    percolation("white-n-repeated", white_marginal_curve, N_ladder=[5, 5]),
    percolation("white-zero-replicas", white_marginal_curve, replicas=0),
    percolation("white-subbox-zero", white_marginal_curve, subbox_side=0),
    case("seed-float", SeedSpec, master_seed=1.5),
    case("tag-int", SeedSpec, master_seed=1, experiment_tag=5),
    case("law-inf", ConfigLaw.parse, text="poisson:inf"),
    case("env-dim-zero", sample_environment, law=POISSON, dim=0, box_radius=3, seed=SEED),
    case("env-radius-negative", sample_environment, law=POISSON, dim=2, box_radius=-1, seed=SEED),
    case("truncation-dim-zero", TruncationParams.make, t=2, dim=0, c4_hat=1.0),
    case("passage-horizon-negative", passage_time, env=PASSAGE_ENV, x=(3, 0), horizon=-1),
    case("passage-x-text", passage_time, env=PASSAGE_ENV, x="3,0", horizon=20),
    case("tails-side", tail_curve_from_samples, samples=ONE_SAMPLE, epsilon=0.5, side="sideways", mu_hat=1.5,
         law_label="poisson:1"),
    audit("audit-zero-triples", n_triples=0),
    audit("audit-window-negative", window=-1),
    audit("audit-horizon-negative", horizon=-1),
]

# for each COMMANDS key, a case that passes a value its row rejects to the library;
# the switches only steer what the CLI runs and writes
ROW_CASES = {
    "seed": "seed-float", "tag": "tag-int", "law": "law-inf", "white_law": "law-inf", "dim": "env-dim-zero",
    "radius": "hole-radius-negative", "x": "passage-x-text", "horizon": "passage-horizon-negative",
    "direction": "zero-direction", "k": "mu-k-zero", "replicas": "zero-replicas", "epsilon": "tails-epsilon-inf",
    "side": "tails-side", "mu_hat": "tails-mu-hat-inf", "calibration_k": "mu-empty",
    "calibration_replicas": "mu-zero-replicas", "mu_hint": "concentration-mu-hint-inf",
    "t": "agreement-t-repeated", "gamma": "gamma-nan", "c4_hat": "c4-hat-inf", "p": "hole-p-above-one",
    "targets": "chemical-origin-target", "white_n": "white-default-subbox", "white_replicas": "white-zero-replicas",
    "white_subbox": "white-subbox-zero", "triples": "audit-zero-triples", "window": "audit-window-negative",
}
CLI_ONLY = {"condition", "check_oracle", "dump_table"}


@pytest.mark.parametrize("func,kwargs,error", CASES)
def test_library_entry_points_reject_bad_numbers(func, kwargs, error):
    # each used to raise OverflowError, ValueError, IndexError or ZeroDivisionError, warn
    # and return nan, or return a report, in place of the CLI's parameter rules
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            func(**kwargs)


@pytest.mark.parametrize("func,kwargs,name", [
    pytest.param(white_site_indicator, dict(env=PASSAGE_ENV, v=(0, 0, 0), N=3, subbox_side=1), "v", id="white"),
    pytest.param(truncated_passage, dict(env=PASSAGE_ENV, x=(0, 0), y=(3, 0, 0), p=PARAMS), "y", id="truncated"),
    pytest.param(truncated_passage, dict(env=PASSAGE_ENV, x=(0, 0), y=(3.5, 0), p=PARAMS), "y", id="truncated-float"),
    pytest.param(sigma_t, dict(env=PASSAGE_ENV, x=(0, 0, 0), y=(1, 0), p=PARAMS), "x", id="sigma"),
    pytest.param(truncated_passage, dict(env=PASSAGE_ENV, x=(0, 0), y=(3, 0), p=PARAMS,
                                         via=[((0, 0), 0), ((1, 0, 0), 2), ((3, 0), 5)]), "via", id="via-site"),
    pytest.param(truncated_passage, dict(env=PASSAGE_ENV, x=(0, 0), y=(3, 0), p=PARAMS,
                                         via=[((1, 0), 0), ((3, 0), 5)]), "via", id="via-start"),
    pytest.param(truncated_passage, dict(env=PASSAGE_ENV, x=(0, 0), y=(3, 0), p=PARAMS,
                                         via=[((0, 0), 0), ((2, 0), 5)]), "via", id="via-end"),
    pytest.param(truncated_passage, dict(env=PASSAGE_ENV, x=(0, 0), y=(0, 0), p=PARAMS, via=[]), "via", id="via-empty"),
])
def test_site_errors_name_the_argument(func, kwargs, name):
    # the wrong-length sites failed in numpy or zip, and a float coordinate was blamed on hit_time's v
    with pytest.raises(GeometryError, match=f"^{name} must have"):
        func(**kwargs)


def test_every_row_has_a_library_case():
    keys = {key for _, table in cli.COMMANDS.values() for key, *_ in table}
    assert set(ROW_CASES) | CLI_ONLY == keys
    assert set(ROW_CASES.values()) <= {param.id for param in CASES}
