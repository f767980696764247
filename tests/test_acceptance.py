"""Acceptance suite: one test per criterion, each printing a PASS line.

Shared ensembles are session fixtures so a criterion's samples can serve
the bound checks of another without resampling.  Master seeds are pinned;
calibration and measurement always use disjoint derived seed streams.
"""

import math
import time

import numpy as np
import pytest

from conftest import dense_first_hits
from frogsim.environment import ConfigLaw, condition_origin, sample_environment
from frogsim.estimation import (
    analytic_lower_bounds,
    collect_tail_samples,
    concentration_experiment,
    direct_path_event_check,
    estimate_time_constant,
    subadditivity_audit,
    tail_curve_from_samples,
)
from frogsim.cli import main as cli_main
from frogsim.lattice import ball_coords, l1, linf, sub
from frogsim.passage import first_hits, offset_index, oracle_all_targets, simulate_frogs
from frogsim.percolation import chemical_ratio_experiment, hole_radius_experiment
from frogsim.truncated import TruncationParams, agreement_experiment, sigma_t
from frogsim.walks import SeedSpec

MASTER = SeedSpec(20240817, "acceptance")


def ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS — {detail}")


# ---------------------------------------------------------------------------
# Shared ensembles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def oracle_sweep():
    """Criterion 1 ensemble; also records path-bound checks for criterion 2."""
    t0 = time.monotonic()
    replicas = 200
    horizon = 40
    seed = MASTER.child("oracle")
    compared = 0
    mismatches = 0
    t_bound_violations = 0
    tau_bound_violations = 0
    tau_checks = 0
    tau_mismatches = 0
    for r in range(replicas):
        env = condition_origin(
            sample_environment(ConfigLaw.bernoulli(0.7), 2, 6, seed.child("rep", r))
        )
        table = simulate_frogs(env, (0, 0), horizon, strict=False)
        oracle = oracle_all_targets(env, (0, 0), horizon)
        for row in ball_coords(6, 2).tolist():
            x = tuple(row)
            ev = table.visit_time(x)
            ov = oracle.get(x)
            if ev is not None or ov is not None:
                compared += 1
                if ev != ov:
                    mismatches += 1
                if ev is not None and ev < l1(x):
                    t_bound_violations += 1
        # hitting-time path bound on every first hit of a few sources, from the dense
        # walker, which the cached rows of first_hits must reproduce
        for u in [(0, 0), (1, -1), (3, 2)]:
            if env.omega(u) >= 1:
                sites, times = dense_first_hits(env, u, horizon)
                got = first_hits(env, u, horizon)
                tau_mismatches += not (np.array_equal(got[0], sites) and np.array_equal(got[1], times))
                index = offset_index(horizon, 2)
                for key, t_hit in zip(sites.tolist(), times.tolist()):
                    tau_checks += 1
                    if t_hit < l1(index.unflat_one(key)):
                        tau_bound_violations += 1
    elapsed = time.monotonic() - t0
    return {
        "replicas": replicas,
        "compared": compared,
        "mismatches": mismatches,
        "t_bound_violations": t_bound_violations,
        "tau_bound_violations": tau_bound_violations,
        "tau_checks": tau_checks,
        "tau_mismatches": tau_mismatches,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def poisson_mu():
    """Criterion 7 ensemble: Poisson(1) time-constant ladder, 400 replicas."""
    return estimate_time_constant(
        ConfigLaw.poisson(1.0), (1, 0), [4, 8, 16, 32], replicas=400,
        seed=MASTER.child("mu-poisson"),
    )


@pytest.fixture(scope="session")
def agreement(poisson_mu):
    """Criteria 5 and 6 ensemble: truncation agreement at x=(8,0), 300 replicas."""
    return agreement_experiment(
        ConfigLaw.poisson(1.0), (8, 0), [1, 2, 4, 8, 16], replicas=300,
        seed=MASTER.child("agreement"), mu_hat=poisson_mu.mu_hat,
    )


@pytest.fixture(scope="session")
def concentration_const1():
    """Criterion 8 ensemble: Constant(1), k = 10..60, 500 replicas."""
    t0 = time.monotonic()
    rep = concentration_experiment(
        ConfigLaw.constant(1), [(k, 0) for k in (10, 20, 30, 40, 50, 60)],
        replicas=500, seed=MASTER.child("concentration"),
    )
    rep.elapsed = time.monotonic() - t0
    return rep


@pytest.fixture(scope="session")
def tail_ensemble():
    """Criterion 9 ensemble: Bernoulli(0.2), eps = 0.5, both sides.

    The epsilon = 0.5 lower tail is identically zero for any law whose time
    constant is below (1 - eps)^-1 = 2 (the passage time can never beat
    |x|_1), which desk-scale measurement shows for Constant(1) and
    Poisson(1); Bernoulli(0.2) has mu_hat well above 2, so both tails carry
    observable mass.  Calibration and tail seeds are disjoint children.
    """
    law = ConfigLaw.bernoulli(0.2)
    calibration = estimate_time_constant(
        law, (1, 0), [4, 8, 16], replicas=200, seed=MASTER.child("tail-calibration"),
    )
    ladder = [(k, 0) for k in (4, 6, 8, 10, 14, 18, 24)]
    samples = collect_tail_samples(
        law, 0.5, ladder, replicas=1500, mu_hat=calibration.mu_hat,
        seed=MASTER.child("tail-samples"),
    )
    return {"law": law, "mu_hat": calibration.mu_hat, "samples": samples}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence(oracle_sweep):
    assert oracle_sweep["mismatches"] == 0
    assert oracle_sweep["compared"] > 10_000
    assert oracle_sweep["elapsed"] <= 120.0
    ok(1, f"engine == oracle on {oracle_sweep['compared']} targets over "
          f"{oracle_sweep['replicas']} replicas in {oracle_sweep['elapsed']:.1f}s")


def test_criterion_02_pathwise_bounds(oracle_sweep, tail_ensemble):
    assert oracle_sweep["t_bound_violations"] == 0
    assert oracle_sweep["tau_bound_violations"] == 0
    assert oracle_sweep["tau_mismatches"] == 0
    samples = tail_ensemble["samples"]
    violations = 0
    for i, x in enumerate(samples.targets):
        finite, _ = samples.column(i)
        violations += int((finite < l1(x)).sum())
    assert violations == 0
    ok(2, f"T >= |x|_1 and tau >= |u-v|_1 with zero violations "
          f"({oracle_sweep['tau_checks']} hitting times, "
          f"{samples.values.size} passage samples)")


def test_criterion_03_subadditivity():
    rep = subadditivity_audit(
        ConfigLaw.bernoulli(0.8), 500, MASTER.child("subadditivity"), horizon=60,
    )
    assert rep.violations == 0
    assert rep.checked_plain >= 250
    assert rep.checked_star >= 400
    ok(3, f"zero violations over {rep.checked_plain} plain and {rep.checked_star} starred triples")


def test_criterion_04_sigma_sandwich():
    checked = 0
    rng_seeds = range(40)
    for s in rng_seeds:
        env = sample_environment(ConfigLaw.poisson(1.0), 2, 30, MASTER.child("sandwich", s))
        for t, c4 in ((1, 2.0), (3, 5.0), (5, 10.0)):
            p = TruncationParams.make(t, 2, c4_hat=c4)
            key = MASTER.child("sandwich-pairs", s).purpose_key(6)
            from frogsim.walks import draw

            for j in range(6):
                x = (int(draw(key, 4 * j) % 13) - 6, int(draw(key, 4 * j + 1) % 13) - 6)
                y = (int(draw(key, 4 * j + 2) % 13) - 6, int(draw(key, 4 * j + 3) % 13) - 6)
                val = sigma_t(env, x, y, p)
                gap = sub(y, x)
                assert l1(gap) <= val <= 4 * p.K * max(p.t, linf(gap))
                checked += 1
    ok(4, f"sandwich exact on {checked} evaluations across scales and factors")


def test_criterion_05_agreement_monotone(agreement):
    rows = sorted(agreement.rows, key=lambda r: r.t)
    assert [r.t for r in rows] == [1, 2, 4, 8, 16]
    for prev, nxt in zip(rows[:-1], rows[1:]):
        strictly_down = nxt.phat < prev.phat
        overlap = nxt.ci_lo <= prev.ci_hi
        assert strictly_down or overlap, (prev, nxt)
    last = rows[-1]
    assert last.disagreements == 0
    assert last.replicas >= 290
    frac = ", ".join(f"t={r.t}: {r.phat:.3f}" for r in rows)
    ok(5, f"disagreement non-increasing ({frac}); exactly 0 at t=16")


def test_criterion_06_geodesic_box_bound(agreement):
    for row in agreement.rows:
        assert row.max_box_count <= row.max_box_bound, row
    detail = ", ".join(
        f"t={r.t}: {r.max_box_count}<={r.max_box_bound:.0f}" for r in sorted(agreement.rows, key=lambda r: r.t)
    )
    ok(6, f"tile counts within the 3^d(4K(1 v |x|_inf/t)+1) bound ({detail})")


def test_criterion_07_time_constant_ladder(poisson_mu):
    ks = poisson_mu.k_ladder
    for a, b in zip(ks[:-1], ks[1:]):
        sa, sb = poisson_mu.per_k[a], poisson_mu.per_k[b]
        assert sb.mean <= sa.mean or sb.ci_lo <= sa.ci_hi, (a, b)
        assert sb.mean <= sa.ci_hi
    assert poisson_mu.mu_hat >= 1.0
    means = ", ".join(f"k={k}: {poisson_mu.per_k[k].mean:.3f}" for k in ks)
    ok(7, f"per-k means non-increasing within CI ({means}); mu_hat={poisson_mu.mu_hat:.3f} >= 1")


def test_criterion_08_concentration_slope(concentration_const1):
    rep = concentration_const1
    assert rep.replicas >= 500
    assert rep.fitted_std_slope <= 0.65
    assert rep.elapsed <= 600.0
    stds = ", ".join(f"k={r.norm}: {r.std:.2f}" for r in rep.rows)
    ok(8, f"std slope {rep.fitted_std_slope:.3f} <= 0.65 ({stds}) in {rep.elapsed:.1f}s")


def test_criterion_09_two_sided_tails(tail_ensemble):
    samples = tail_ensemble["samples"]
    mu_hat = tail_ensemble["mu_hat"]
    law = tail_ensemble["law"]
    curves = {
        side: tail_curve_from_samples(samples, 0.5, side, mu_hat, law.label())
        for side in ("upper", "lower")
    }
    for side, curve in curves.items():
        fittable = curve.fittable()
        assert len(fittable) >= 2, f"{side} tail has too few observable points"
        assert curve.fitted_log_slope < 0.0, f"{side} slope {curve.fitted_log_slope}"
    detail = ", ".join(
        f"{side}: slope={c.fitted_log_slope:.4f} on {len(c.fittable())}/{len(c.points)} points"
        for side, c in curves.items()
    )
    ok(9, f"eps=0.5 tails strictly decreasing ({detail}; mu_hat={mu_hat:.3f})")


def test_criterion_10_exact_paper_numbers():
    rep = direct_path_event_check(2, 3, 100_000, MASTER.child("direct-path"))
    assert rep.target == 1.0 / 64.0
    assert abs(rep.phat - rep.target) <= 3.0 * rep.sigma
    bounds = analytic_lower_bounds(ConfigLaw.constant(1), 0.5, 2.0, 2)
    assert bounds["lower_tail_rate_lb"] == -math.log(4.0)
    ok(10, f"direct-path phat={rep.phat:.6f} within 3 sigma of 1/64; "
           f"lower-tail rate bound emitted exactly as -log 4 = {bounds['lower_tail_rate_lb']:.6f}")


def test_criterion_11_percolation():
    t0 = time.monotonic()
    hole = hole_radius_experiment(0.8, 2, 100, 500, MASTER.child("hole"))
    assert hole.fitted_log_slope < 0.0
    targets = [(20, 0), (0, 28), (18, 18), (48, 0), (0, 60)]
    chem = chemical_ratio_experiment(0.8, 2, 100, targets, 500, MASTER.child("chemical"))
    assert chem.connected_pairs >= 1000
    assert chem.max_ratio <= 3.0
    elapsed = time.monotonic() - t0
    assert elapsed <= 180.0
    ok(11, f"hole tail slope {hole.fitted_log_slope:.3f} < 0; chemical max ratio "
           f"{chem.max_ratio:.3f} <= 3.0 over {chem.connected_pairs} pairs in {elapsed:.1f}s")


def test_criterion_12_replay_reproducibility(tmp_path):
    base = [
        "mu", "--law", "poisson:1.0", "--k", "4,8", "--replicas", "20",
        "--seed", "99", "--tag", "replaycheck",
    ]
    out1 = tmp_path / "r1"
    assert cli_main(base + ["--out", str(out1)]) == 0
    out2 = tmp_path / "r2"
    assert cli_main(["replay", str(out1 / "plan.json"), "--out", str(out2)]) == 0
    for name in ("plan.json", "report.json", "per_k.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    out4 = tmp_path / "r4"
    assert cli_main(base + ["--threads", "4", "--out", str(out4)]) == 0
    assert (out1 / "report.json").read_bytes() == (out4 / "report.json").read_bytes()
    assert (out1 / "per_k.csv").read_bytes() == (out4 / "per_k.csv").read_bytes()

    trunc = [
        "truncation", "--law", "poisson:1.0", "--x", "5,0", "--t", "2,8",
        "--replicas", "10", "--seed", "98", "--mu-hat", "2.4",
    ]
    out5 = tmp_path / "r5"
    assert cli_main(trunc + ["--out", str(out5)]) == 0
    out6 = tmp_path / "r6"
    assert cli_main(["replay", str(out5 / "plan.json"), "--out", str(out6)]) == 0
    for name in ("plan.json", "report.json", "agreement.csv"):
        assert (out5 / name).read_bytes() == (out6 / name).read_bytes(), name
    ok(12, "replay byte-identical for mu and truncation plans, including across thread counts")
