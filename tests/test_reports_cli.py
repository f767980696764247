import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import frogsim
from frogsim import cli
from frogsim.cli import main
from frogsim.reports import dump_csv, dump_json, fmt12, normalize, round12


def test_round12_and_fmt12():
    assert round12(1.0 / 3.0) == 0.333333333333
    assert fmt12(1.0 / 3.0) == "0.333333333333"
    assert fmt12(2) == "2"
    assert fmt12(float("nan")) == "nan"
    assert round12(0.1) == 0.1


def test_normalize_handles_structures():
    import numpy as np

    obj = {"a": [1, 2.5, (3, 4)], "b": np.float64(0.25), "c": float("nan"), "d": float("inf")}
    out = normalize(obj)
    assert out == {"a": [1, 2.5, [3, 4]], "b": 0.25, "c": "nan", "d": "inf"}


def test_dump_json_and_csv_stable(tmp_path: Path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    payload = {"x": 1 / 7, "rows": [{"v": 2 / 3}]}
    dump_json(payload, p1)
    dump_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    c = tmp_path / "t.csv"
    dump_csv(c, ["a", "b"], [[1, 1 / 3], [2, 0.5]])
    assert c.read_text() == "a,b\n1,0.333333333333\n2,0.5\n"


def run_cli(*argv):
    return main(list(argv))


def test_cli_requires_seed(capsys, tmp_path):
    code = run_cli("mu", "--law", "poisson:1.0", "--k", "4", "--replicas", "5", "--out", str(tmp_path))
    assert code == 2


def test_cli_bad_epsilon(tmp_path):
    code = run_cli(
        "tails", "--law", "poisson:1.0", "--k", "4,8", "--replicas", "5",
        "--epsilon", "-0.5", "--seed", "1", "--mu-hat", "2.0", "--out", str(tmp_path / "t"),
    )
    assert code == 2


def test_cli_bad_law(tmp_path):
    # rejected before plan.json is written; poisson:inf used to run a constant-1 law
    for law in ["zipf:2", "poisson:inf", "poisson:nan", "explicit:nan,1", "poisson:x"]:
        out = tmp_path / law.replace(":", "_")
        code = run_cli("mu", "--law", law, "--k", "4,8", "--replicas", "5", "--seed", "1", "--out", str(out))
        assert code == 2, law
        assert not (out / "plan.json").exists(), law


def test_cli_censoring_exit_code(tmp_path):
    # mu_hint far below the real time constant forces a tiny horizon
    code = run_cli(
        "concentration", "--law", "constant:1", "--k", "40", "--replicas", "8",
        "--mu-hint", "0.05", "--seed", "3", "--out", str(tmp_path / "c"),
    )
    assert code == 3


def test_cli_sample_env_and_passage(tmp_path):
    out = tmp_path / "env"
    assert run_cli(
        "sample-env", "--law", "bernoulli:0.7", "--radius", "5", "--seed", "9",
        "--condition", "--out", str(out),
    ) == 0
    doc = json.loads((out / "environment.json").read_text())
    assert doc["conditioned_origin"] is True
    assert doc["box_radius"] == 5

    out2 = tmp_path / "passage"
    assert run_cli(
        "passage", "--law", "bernoulli:0.7", "--radius", "8", "--x", "3,0",
        "--horizon", "40", "--seed", "9", "--check-oracle", "--out", str(out2),
    ) == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["oracle_matches"] is True
    assert rep["value"] >= 3


@pytest.mark.parametrize("x", ["0,0", "1,0"])
def test_cli_passage_horizon_zero_matches_oracle(x, tmp_path):
    # no walk takes a step: only the origin is reached, at time 0, by engine and oracle alike
    out = tmp_path / "passage"
    assert run_cli(
        "passage", "--law", "bernoulli:0.7", "--radius", "3", "--x", x, "--horizon", "0",
        "--seed", "9", "--check-oracle", "--out", str(out),
    ) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["oracle_matches"] is True
    assert rep["oracle_value"] == rep["value"] == (0 if x == "0,0" else None)


def test_cli_replay_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    assert run_cli(
        "mu", "--law", "poisson:1.0", "--k", "4,8", "--replicas", "12",
        "--seed", "21", "--out", str(out1),
    ) == 0
    out2 = tmp_path / "run2"
    assert run_cli("replay", str(out1 / "plan.json"), "--out", str(out2)) == 0
    for name in ("plan.json", "report.json", "per_k.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_reports_thread_invariant(tmp_path):
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"thr{threads}"
        assert run_cli(
            "mu", "--law", "poisson:1.0", "--k", "4,8", "--replicas", "12",
            "--seed", "21", "--threads", threads, "--out", str(out),
        ) == 0
        outs.append(out)
    # threads is an execution hint: plans and reports are byte-identical
    for name in ("plan.json", "report.json", "per_k.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_replay_missing_plan(tmp_path):
    assert run_cli("replay", str(tmp_path / "nope.json")) == 2


def test_cli_audit_and_percolation(tmp_path, capsys):
    # a sparse law's stars lie far from the window: the runner, not the audit, sizes their box
    for name, law, triples, horizon, seed in (("audit", "bernoulli:0.8", "6", "40", "2"),
                                              ("sparse", "bernoulli:0.01", "3", "30", "1")):
        out = tmp_path / name
        assert run_cli(
            "audit", "--law", law, "--triples", triples, "--seed", seed,
            "--horizon", horizon, "--out", str(out),
        ) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["violations"] == 0
        assert rep["checked_plain"] + rep["checked_star"] >= 1

    # seed 0 skips every sparse triple: an audit that checked nothing fails, and writes no report
    out = tmp_path / "vacuous"
    assert run_cli(
        "audit", "--law", "bernoulli:0.01", "--triples", "3", "--seed", "0", "--horizon", "30", "--out", str(out),
    ) == 3
    err = capsys.readouterr().err
    assert "all 6 plain and starred triples skipped at horizon 30" in err
    assert "box radius" not in err
    assert not (out / "report.json").exists()

    out2 = tmp_path / "perc"
    assert run_cli(
        "percolation", "--p", "0.8", "--radius", "30", "--replicas", "25",
        "--targets", "10,0;0,10", "--seed", "2", "--out", str(out2),
    ) == 0
    assert (out2 / "hole_tail.csv").exists()
    assert (out2 / "chemical_ratio.csv").exists()


@pytest.mark.parametrize(
    "argv,size",
    [
        (["mu", "--law", "poisson:1.0", "--k", "4", "--replicas", "0"], "replicas"),
        (["mu", "--law", "poisson:1.0", "--k", "4", "--replicas", "-2"], "replicas"),
        (["tails", "--law", "poisson:1.0", "--k", "4", "--replicas", "0", "--epsilon", "0.5",
          "--mu-hat", "2.0"], "replicas"),
        (["concentration", "--law", "constant:1", "--k", "4", "--replicas", "0"], "replicas"),
        (["truncation", "--law", "poisson:1.0", "--x", "4,0", "--t", "2", "--replicas", "0",
          "--mu-hat", "1.5"], "replicas"),
        (["percolation", "--p", "0.8", "--radius", "30", "--replicas", "0"], "replicas"),
        (["percolation", "--p", "0.8", "--radius", "30", "--replicas", "2", "--white-n", "3",
          "--white-replicas", "0"], "white_replicas"),
        (["audit", "--law", "bernoulli:0.8", "--triples", "0"], "triples"),
        # not a sample size, but checked with them before plan.json is written
        (["tails", "--law", "bernoulli:0.7", "--k", "4", "--replicas", "2", "--epsilon", "-0.5",
          "--mu-hat", "2.0"], "epsilon"),
        # dim 0 ended in a RecursionError traceback (audit) or a numpy error (sample-env) after
        # plan.json, and a zero direction reported mu_hat = 0, below the exact bound mu_lower = 1
        (["audit", "--law", "bernoulli:0.8", "--triples", "1", "--dim", "0"], "dim"),
        (["sample-env", "--law", "poisson:1.0", "--radius", "3", "--dim", "0"], "dim"),
        (["mu", "--law", "poisson:1", "--k", "4,8", "--replicas", "2", "--direction", "0,0"], "direction"),
        # the SIDE rule rejects it, as it does in a replayed plan, not an argparse choice list
        (["tails", "--law", "bernoulli:0.7", "--k", "4", "--replicas", "2", "--epsilon", "0.5",
          "--mu-hat", "2.0", "--side", "sideways"], "side"),
    ],
    ids=["mu-0", "mu-neg", "tails", "concentration", "truncation", "percolation", "white", "audit",
         "tails-epsilon", "audit-dim-zero", "sample-env-dim-zero", "mu-zero-direction", "tails-side"],
)
def test_cli_rejects_empty_sample(argv, size, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
    assert not (out / "plan.json").exists()
    assert f"{argv[0]}: {size} must be" in capsys.readouterr().err


def test_cli_replay_rejects_empty_sample(tmp_path):
    plan = {"plan_version": 1, "command": "percolation",
            "params": {"seed": 1, "tag": "", "dim": 2, "p": 0.8, "radius": 30, "replicas": 0}}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert run_cli("replay", str(path), "--out", str(tmp_path / "r")) == 2
    assert not (tmp_path / "r" / "report.json").exists()


def test_cli_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    def exhausted(plan, outdir, threads=1):
        raise MemoryError

    monkeypatch.setitem(cli.RUNNERS, "mu", exhausted)
    code = run_cli(
        "mu", "--law", "poisson:1.0", "--k", "4", "--replicas", "2", "--seed", "1",
        "--out", str(tmp_path / "m"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "frogsim mu" in err


@pytest.mark.parametrize(
    "argv,key",
    [
        (["mu", "--law", "poisson:1.0", "--dim", "3", "--k", "2,4", "--replicas", "2"], "direction"),
        (["tails", "--law", "poisson:1.0", "--dim", "3", "--k", "4", "--replicas", "2",
          "--epsilon", "0.5", "--mu-hat", "2.0"], "direction"),
        (["concentration", "--law", "constant:1", "--dim", "3", "--k", "4", "--replicas", "2"],
         "direction"),
        (["passage", "--law", "bernoulli:0.7", "--dim", "3", "--radius", "8", "--x", "3,0",
          "--horizon", "20"], "x"),
        (["truncation", "--law", "poisson:1.0", "--dim", "3", "--x", "4,0", "--t", "2",
          "--replicas", "1", "--mu-hat", "1.5"], "x"),
        (["percolation", "--p", "0.8", "--dim", "3", "--radius", "30", "--replicas", "1"], "targets"),
    ],
    ids=["mu", "tails", "concentration", "passage", "truncation", "percolation"],
)
def test_cli_rejects_point_of_wrong_dimension(argv, key, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
    assert not (out / "plan.json").exists()
    assert f"{argv[0]}: {key} must have dim = 3 coordinates" in capsys.readouterr().err


@pytest.mark.parametrize(
    "plan,message",
    [
        ([1, 2], "must be a JSON object"),
        ({"plan_version": 1, "command": "mu"}, "params must be a JSON object"),
        ({"plan_version": 1, "command": "mu", "params": [1]}, "params must be a JSON object"),
        ({"plan_version": 1, "command": "mu",
          "params": {"seed": 1, "dim": 2, "direction": [1, 0], "k": [4], "replicas": 2}}, "lack law"),
    ],
    ids=["list", "no-params", "params-list", "no-law"],
)
def test_cli_replay_rejects_malformed_plan(plan, message, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    out = tmp_path / "r"
    assert run_cli("replay", str(path), "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("plan error:") and message in err


def test_cli_replay_rejects_unknown_tail_side(tmp_path, capsys):
    plan = {"plan_version": 1, "command": "tails",
            "params": {"seed": 3, "tag": "", "law": "bernoulli:0.7", "dim": 2, "direction": [1, 0],
                       "k": [4], "replicas": 4, "epsilon": 0.5, "side": "sideways", "mu_hat": 2.5}}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    out = tmp_path / "r"
    assert run_cli("replay", str(path), "--out", str(out)) == 2
    assert "side must be upper or lower" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["sample-env", "--law", "poisson:1.0", "--radius", "3"],
        ["passage", "--law", "bernoulli:0.7", "--radius", "8", "--x", "3,0", "--horizon", "20"],
        ["truncation", "--law", "poisson:1.0", "--x", "4,0", "--t", "2", "--replicas", "1",
         "--mu-hat", "1.5"],
        ["percolation", "--p", "0.8", "--radius", "30", "--replicas", "1"],
        ["audit", "--law", "bernoulli:0.8", "--triples", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_threads_only_on_replicated_commands(argv, tmp_path):
    # these commands run no replica pool, so the flag would do nothing
    out = tmp_path / "o"
    assert run_cli(*argv, "--seed", "1", "--threads", "2", "--out", str(out)) == 2
    assert not out.exists()


MU_PARAMS = {"seed": 1, "tag": "", "law": "poisson:1.0", "dim": 2, "direction": [1, 0],
             "k": [4, 8], "replicas": 2}
TAILS_PARAMS = {"seed": 3, "tag": "", "law": "bernoulli:0.7", "dim": 2, "direction": [1, 0],
                "k": [4], "replicas": 4, "epsilon": 0.5, "side": "both", "mu_hat": 2.5}
TRUNCATION_PARAMS = {"seed": 1, "tag": "", "law": "poisson:1.0", "dim": 2, "x": [4, 0], "t": [2],
                     "replicas": 1, "gamma": 1.0, "mu_hat": 1.5}
PERCOLATION_PARAMS = {"seed": 1, "tag": "", "dim": 2, "p": 0.8, "radius": 20, "replicas": 2,
                      "targets": [[5, 0], [0, 5]]}
CONCENTRATION_PARAMS = {**MU_PARAMS, "mu_hint": 1.5}
SAMPLE_ENV_PARAMS = {"seed": 1, "law": "poisson:1.0", "dim": 2, "radius": 3}
PASSAGE_PARAMS = {**SAMPLE_ENV_PARAMS, "radius": 8, "x": [3, 0], "horizon": 20}
AUDIT_PARAMS = {"seed": 1, "law": "bernoulli:0.8", "dim": 2, "triples": 1, "window": 5, "horizon": 60}
INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "command,params,message",
    [
        ("mu", {**MU_PARAMS, "law": 5}, "law must be a string"),
        ("mu", {**MU_PARAMS, "k": 4}, "k must be a non-empty list of positive integers"),
        ("mu", {**MU_PARAMS, "k": [4, -8]}, "k must be a non-empty list of positive integers"),
        ("truncation", {**TRUNCATION_PARAMS, "t": [2.5]}, "t must be a non-empty list of positive integers"),
        ("tails", {**TAILS_PARAMS, "side": "sideways"}, "side must be upper or lower"),
        ("percolation", {**PERCOLATION_PARAMS, "p": "0.8"}, "p must be a number in [0, 1]"),
        ("percolation", {**PERCOLATION_PARAMS, "p": True}, "p must be a number in [0, 1]"),
        ("percolation", {**PERCOLATION_PARAMS, "radius": 20.5}, "radius must be an integer >= 0"),
        ("percolation", {**PERCOLATION_PARAMS, "targets": [[5, 0], [0, 0]]}, "must not be the origin"),
        # without targets the plan runs the default ones, (20, 0) and (0, 20)
        ("percolation", {k: v for k, v in PERCOLATION_PARAMS.items() if k != "targets"},
         "target (20, 0) lies inside the boundary margin of 2"),
        ("percolation", {**PERCOLATION_PARAMS, "targets": [["5", 0]]}, "targets must have integer coordinates"),
        ("mu", {**MU_PARAMS, "direction": [1.5, 0]}, "direction must have integer coordinates"),
        # without mu_hat the plan calibrates on calibration_replicas replicas
        ("tails", {**{k: v for k, v in TAILS_PARAMS.items() if k != "mu_hat"}, "calibration_replicas": 0},
         "calibration_replicas must be an integer >= 1"),
        # a non-finite number used to end in an OverflowError traceback, or fail after plan.json
        ("truncation", {**TRUNCATION_PARAMS, "mu_hat": INF}, "mu_hat must be a finite number > 0"),
        ("tails", {**TAILS_PARAMS, "mu_hat": NAN}, "mu_hat must be a finite number > 0"),
        ("truncation", {**TRUNCATION_PARAMS, "mu_hat": 0}, "mu_hat must be a finite number > 0"),
        ("concentration", {**CONCENTRATION_PARAMS, "mu_hint": INF}, "mu_hint must be a finite number > 0"),
        ("tails", {**TAILS_PARAMS, "epsilon": INF}, "epsilon must be a finite number > 0"),
        ("truncation", {**TRUNCATION_PARAMS, "c4_hat": INF}, "c4_hat must be a finite number >= 0"),
        ("truncation", {**TRUNCATION_PARAMS, "gamma": NAN}, "gamma must be a finite number >= 0"),
        ("truncation", {**TRUNCATION_PARAMS, "gamma": -0.5}, "gamma must be a finite number >= 0"),
        ("audit", {**AUDIT_PARAMS, "horizon": -1}, "horizon must be an integer >= 0"),
        ("audit", {**AUDIT_PARAMS, "window": -1}, "window must be an integer >= 0"),
        ("passage", {**PASSAGE_PARAMS, "horizon": -1}, "horizon must be an integer >= 0"),
        ("passage", {**PASSAGE_PARAMS, "horizon": 2.5}, "horizon must be an integer >= 0"),
        ("sample-env", {**SAMPLE_ENV_PARAMS, "radius": -1}, "radius must be an integer >= 0"),
        ("percolation", {**PERCOLATION_PARAMS, "white_n": [3], "white_subbox": 1, "white_law": "poisson:inf"},
         "white_law 'poisson:inf' is not a law"),
        # each of these used to run (as seed 1 or 7, or with the oracle) or end in a traceback
        ("mu", {**MU_PARAMS, "seed": 1.5}, "mu: seed must be an integer, got 1.5"),
        ("mu", {**MU_PARAMS, "seed": "7"}, "mu: seed must be an integer, got '7'"),
        ("mu", {**MU_PARAMS, "tag": 5}, "mu: tag must be a string, got 5"),
        ("mu", {**MU_PARAMS, "replicas": True}, "mu: replicas must be an integer >= 1, got True"),
        ("sample-env", {**SAMPLE_ENV_PARAMS, "dim": 0}, "sample-env: dim must be an integer >= 1, got 0"),
        ("passage", {**PASSAGE_PARAMS, "check_oracle": "no"}, "passage: check_oracle must be true or false"),
        ("sample-env", {**SAMPLE_ENV_PARAMS, "condition": 1}, "sample-env: condition must be true or false"),
        # a misspelled mu_hat would run the command's default
        ("mu", {**MU_PARAMS, "bogus": 3}, "mu: bogus is not a parameter of mu"),
        # a repeated k reported a nan slope with exit 0
        ("concentration", {**CONCENTRATION_PARAMS, "k": [4, 4]},
         "k must be a non-empty list of positive integers, each once"),
    ],
    ids=["law-int", "k-int", "k-negative", "t-float", "side", "p-string", "p-bool", "radius-float",
         "origin-target", "default-target-in-margin", "target-string", "direction-float",
         "calibration-replicas", "mu-hat-inf", "mu-hat-nan", "mu-hat-zero", "mu-hint-inf", "epsilon-inf",
         "c4-hat-inf", "gamma-nan", "gamma-negative", "audit-horizon-negative", "audit-window-negative",
         "passage-horizon-negative", "passage-horizon-float", "sample-env-radius-negative", "white-law-inf",
         "seed-float", "seed-string", "tag-int", "replicas-bool", "dim-zero", "check-oracle-string",
         "condition-int", "unknown-key", "k-repeated"],
)
def test_cli_replay_rejects_mistyped_params(command, params, message, tmp_path, capsys):
    # rejected before plan.json is written, not by a traceback or after sampling
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"plan_version": 1, "command": command, "params": params}), encoding="utf-8")
    out = tmp_path / "r"
    assert run_cli("replay", str(path), "--out", str(out)) == 2
    assert not (out / "plan.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("plan error:") and message in err


def test_every_row_default_passes_its_check():
    # a CLI run that leaves a flag out writes its default, which a replay checks
    for command, (_, table) in cli.COMMANDS.items():
        keys = [key for key, *_ in table]
        assert set(cli.DEFAULTS[command]) <= set(keys), command
        assert set(cli.REQUIRED_PARAMS[command]) <= set(keys), command
        for key, _, default, check, _ in table:
            if default is not cli.REQUIRED and default is not None:
                assert check(default) is None, (command, key)


def test_cli_rejects_infinite_mu_hat(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["truncation", "--law", "poisson:1.0", "--x", "4,0", "--t", "2", "--replicas", "1", "--mu-hat", "inf"]
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
    assert not (out / "plan.json").exists()
    assert "plan error: truncation: mu_hat must be a finite number > 0, got inf" in capsys.readouterr().err


def test_cli_replay_accepts_null_defaults(tmp_path):
    # a null c4_hat is its default, derived from mu_hat; only such keys may be null
    path = tmp_path / "plan.json"
    params = {**TRUNCATION_PARAMS, "c4_hat": None}
    path.write_text(json.dumps({"plan_version": 1, "command": "truncation", "params": params}), encoding="utf-8")
    assert run_cli("replay", str(path), "--out", str(tmp_path / "r")) == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "0.8", "--radius", "20", "--targets", "0,0;5,0"], "a target must not be the origin"),
        (["--p", "1.5", "--radius", "20"], "p must be a number in [0, 1]"),
        (["--p", "nan", "--radius", "20"], "p must be a number in [0, 1]"),
        (["--p", "0.8", "--radius", "-3"], "radius must be an integer >= 0"),
        (["--p", "0.8", "--radius", "20", "--targets", "19,0"],
         "target (19, 0) lies inside the boundary margin of 2"),
        # a repeated target wrote its row twice and counted its connected pairs twice
        (["--p", "0.8", "--radius", "30", "--targets", "5,0;5,0"],
         "each target must be listed once: a repeated one would count its pairs twice"),
        (["--p", "0.8", "--radius", "30", "--white-n", "3"],
         "the default sub-box side floor(N^0.25/(4d)) is 0 at white_n [3]"),
        (["--p", "0.8", "--radius", "30", "--white-n", "3", "--white-subbox", "0"],
         "white_subbox must be an integer >= 1, got 0"),
    ],
    ids=["origin-target", "p-above-one", "p-nan", "radius-negative", "target-in-margin", "target-repeated",
         "white-n-default-subbox", "white-subbox-zero"],
)
def test_cli_rejects_bad_percolation_plan(argv, message, tmp_path, capsys):
    # an origin target used to end in a ZeroDivisionError traceback, and a bad
    # p, radius or target margin was rejected only after plan.json was written
    out = tmp_path / "o"
    assert run_cli("percolation", *argv, "--replicas", "2", "--seed", "1", "--out", str(out)) == 2
    assert not (out / "plan.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("plan error:") and f"percolation: {message}" in err


@pytest.mark.parametrize(
    "argv,params",
    [
        (["tails", "--law", "bernoulli:0.7", "--k", "4,6", "--replicas", "20", "--epsilon", "0.5"],
         {"seed": 3, "tag": "", "law": "bernoulli:0.7", "dim": 2, "direction": [1, 0], "k": [4, 6],
          "replicas": 20, "epsilon": 0.5, "side": "both"}),
        (["concentration", "--law", "constant:1", "--k", "4,8", "--replicas", "10", "--mu-hint", "1.5"],
         {"seed": 3, "tag": "", "law": "constant:1", "dim": 2, "direction": [1, 0], "k": [4, 8],
          "replicas": 10, "mu_hint": 1.5}),
        (["truncation", "--law", "poisson:1.0", "--x", "4,0", "--t", "2,4", "--replicas", "4",
          "--c4-hat", "3.0", "--gamma", "0.5"],
         {"seed": 3, "tag": "", "law": "poisson:1.0", "dim": 2, "x": [4, 0], "t": [2, 4], "replicas": 4,
          "gamma": 0.5, "c4_hat": 3.0}),
        (["percolation", "--p", "0.8", "--radius", "30", "--replicas", "2"],
         {"seed": 3, "tag": "", "dim": 2, "p": 0.8, "radius": 30, "replicas": 2,
          "targets": [[20, 0], [0, 20]]}),
        (["percolation", "--p", "0.8", "--radius", "30", "--replicas", "2", "--white-n", "3,5"],
         {"seed": 3, "tag": "", "dim": 2, "p": 0.8, "radius": 30, "replicas": 2,
          "targets": [[20, 0], [0, 20]], "white_n": [3, 5], "white_replicas": 20, "white_law": "poisson:1.0"}),
    ],
    ids=["tails-no-mu-hat", "concentration-mu-hint", "truncation-c4-gamma", "percolation",
         "percolation-white-n"],
)
def test_cli_plan_keys_and_order(argv, params):
    # plan.json and every report.json carry these params, so their keys and order are bytes
    args = cli.build_parser().parse_args([*argv, "--seed", "3", "--out", "o"])
    plan = cli._plan_from_args(args)
    assert plan == {"plan_version": 1, "command": argv[0], "params": params}
    assert list(plan["params"]) == list(params)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["passage", "--law", "bernoulli:0.7", "--radius", "8", "--x", "3,a", "--horizon", "20"],
         "bad integer list '3,a'"),
        (["mu", "--law", "poisson:1.0", "--k", "4,x", "--replicas", "2"], "bad integer list '4,x'"),
        (["percolation", "--p", "0.8", "--radius", "30", "--replicas", "2", "--targets", "1,b"],
         "bad integer list '1,b'"),
    ],
    ids=["x", "k", "targets"],
)
def test_cli_malformed_list_is_a_plan_error(argv, message, tmp_path, capsys):
    # these flags are parsed after argparse, which would turn a PlanError into a traceback
    out = tmp_path / "o"
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"plan error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["tails", "--law", "bernoulli:0.7", "--k", "4,6", "--replicas", "8", "--epsilon", "0.5",
         "--mu-hat", "2.5", "--seed", "3"],
        ["truncation", "--law", "poisson:1.0", "--x", "4,0", "--t", "2,4", "--replicas", "2",
         "--mu-hat", "1.5", "--seed", "7"],
        ["percolation", "--p", "0.6", "--radius", "25", "--replicas", "4", "--white-n", "3",
         "--white-subbox", "1", "--seed", "2"],
        ["audit", "--law", "bernoulli:0.5", "--triples", "4", "--seed", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_replay_defaults_are_cli_defaults(argv, tmp_path):
    # a stored plan without its defaulted keys must run exactly as the CLI run did
    out = tmp_path / "cli"
    assert run_cli(*argv, "--out", str(out)) == 0
    plan = json.loads((out / "plan.json").read_text())
    command, params = plan["command"], plan["params"]
    defaults = cli.DEFAULTS[command]
    kept = {k: v for k, v in params.items()
            if k in cli.REQUIRED_PARAMS[command] or k not in defaults or v != defaults[k]}
    assert len(kept) < len(params)
    path = tmp_path / "stripped.json"
    path.write_text(json.dumps({**plan, "params": kept}), encoding="utf-8")
    assert run_cli("replay", str(path), "--out", str(tmp_path / "replay")) == 0
    names = sorted(p.name for p in out.iterdir() if p.name not in ("plan.json", "run.log"))
    assert names == sorted(p.name for p in (tmp_path / "replay").iterdir()
                           if p.name not in ("plan.json", "run.log"))
    for name in names:
        got, want = (tmp_path / "replay" / name).read_bytes(), (out / name).read_bytes()
        if name == "report.json":
            got, want = ({k: v for k, v in json.loads(b).items() if k != "plan"} for b in (got, want))
        assert got == want, name


@pytest.mark.parametrize(
    "argv,max_rss_mb",
    [
        # the eager worst-case box of this plan needed over 1.5 GB; counts are now
        # computed for the sites the run reaches and the activation table grows with it
        (["mu", "--law", "poisson:1.0", "--dim", "3", "--direction", "1,0,0", "--k", "2,4",
          "--replicas", "4", "--seed", "1"], 256),
        # the truncated search caches sparse ball rows; at this seed, caching dense int64
        # rows took the plan to 192 MB, where the search on tuple keys peaked at 75 MB
        (["truncation", "--law", "poisson:1.0", "--dim", "3", "--x", "6,0,0", "--t", "4,8,16",
          "--replicas", "1", "--mu-hat", "2.0", "--seed", "3"], 128),
        # replicas run through the engine in batches as wide as the law's mean count asks:
        # this plan peaked at 35 MB in the 16 of Poisson(1) (33 MB one replica at a time)
        # and at 45 MB as one batch of 64
        (["mu", "--law", "poisson:1.0", "--k", "4,8,16,32", "--replicas", "64", "--seed", "7"], 40),
        # Bernoulli(0.2) runs 64 wide: this plan peaked at 45.5 MB (35.6 MB in batches of 16)
        (["tails", "--law", "bernoulli:0.2", "--k", "4,8,16,24", "--replicas", "256", "--epsilon", "0.5",
          "--seed", "7"], 54),
    ],
    ids=["mu", "truncation", "mu-wide", "tails-sparse"],
)
def test_cli_mu_dim3_runs_in_bounded_memory(argv, max_rss_mb, tmp_path):
    limit = 1536 * 2**20
    # VmHWM is the peak RSS of the child's own image; ru_maxrss would also count the
    # RSS of this test process, from which the child was forked before its exec
    script = (
        "import sys; from frogsim.cli import main; code = main(sys.argv[1:]); "
        "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM:'))); "
        "sys.exit(code)"
    )
    src = str(Path(frogsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "dim3"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out", str(out)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        # one BLAS thread: a pool per core would reserve address space under the cap
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").is_file()
    max_rss_kb = int(proc.stdout.split()[-1])  # VmHWM is in kB
    assert max_rss_kb < max_rss_mb * 1024
