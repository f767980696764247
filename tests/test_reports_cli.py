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
    code = run_cli(
        "mu", "--law", "zipf:2", "--k", "4,8", "--replicas", "5", "--seed", "1",
        "--out", str(tmp_path / "m"),
    )
    assert code == 2


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


def test_cli_audit_and_percolation(tmp_path):
    out = tmp_path / "audit"
    assert run_cli(
        "audit", "--law", "bernoulli:0.8", "--triples", "6", "--seed", "2",
        "--horizon", "40", "--out", str(out),
    ) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["violations"] == 0

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
    ],
    ids=["mu-0", "mu-neg", "tails", "concentration", "truncation", "percolation", "white", "audit"],
)
def test_cli_rejects_empty_sample(argv, size, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--seed", "1", "--out", str(out)) == 2
    assert not (out / "report.json").exists()
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
    ],
    ids=["law-int", "k-int", "k-negative", "t-float", "side", "p-string", "p-bool", "radius-float",
         "origin-target", "default-target-in-margin", "target-string", "direction-float"],
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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "0.8", "--radius", "20", "--targets", "0,0;5,0"], "a target must not be the origin"),
        (["--p", "1.5", "--radius", "20"], "p must be a number in [0, 1]"),
        (["--p", "nan", "--radius", "20"], "p must be a number in [0, 1]"),
        (["--p", "0.8", "--radius", "-3"], "radius must be an integer >= 0"),
        (["--p", "0.8", "--radius", "20", "--targets", "19,0"],
         "target (19, 0) lies inside the boundary margin of 2"),
    ],
    ids=["origin-target", "p-above-one", "p-nan", "radius-negative", "target-in-margin"],
)
def test_cli_rejects_bad_percolation_plan(argv, message, tmp_path, capsys):
    # an origin target used to end in a ZeroDivisionError traceback, and a bad
    # p, radius or target margin was rejected only after plan.json was written
    out = tmp_path / "o"
    assert run_cli("percolation", *argv, "--replicas", "2", "--seed", "1", "--out", str(out)) == 2
    assert not (out / "plan.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("plan error:") and f"percolation: {message}" in err


def test_cli_mu_dim3_runs_in_bounded_memory(tmp_path):
    # the eager worst-case box of this plan needed over 1.5 GB; counts are now
    # computed for the sites the run reaches and the activation table grows with it
    limit = 1536 * 2**20
    script = (
        "import resource, sys; from frogsim.cli import main; code = main(sys.argv[1:]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)"
    )
    src = str(Path(frogsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "mu3"
    proc = subprocess.run(
        [sys.executable, "-c", script, "mu", "--law", "poisson:1.0", "--dim", "3",
         "--direction", "1,0,0", "--k", "2,4", "--replicas", "4", "--seed", "1", "--out", str(out)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        # one BLAS thread: a pool per core would reserve address space under the cap
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").is_file()
    max_rss_kb = int(proc.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
    assert max_rss_kb < 256 * 1024
