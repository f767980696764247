"""Self-tests of the benchmark: every workload at 2 replicas, through the same code path.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import check_digests, measure, run_child  # noqa: E402
from workloads import WORKLOADS, check_outputs, make_plan  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    out = measure(workload, seed=7, seconds=0, trace=trace, replicas=2, workdir=tmp_path)
    assert out["failed"] == 0, [r.get("failure") for r in out["reps"]]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: u for k, (_, u) in out["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v, _ in out["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_spans_nest_and_self_times_sum_to_root(workload, tmp_path):
    rep = run_child(workload, 7, 0, 2, "trace", tmp_path, timeout=120)
    assert "failure" not in rep
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.execute_plan"]
    own = {i: s["end_ns"] - s["start_ns"] for i, s in enumerate(spans)}
    for i, s in enumerate(spans):
        assert s["start_ns"] <= s["end_ns"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] and s["end_ns"] <= parent["end_ns"]
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) == roots[0]["end_ns"] - roots[0]["start_ns"]
    assert rep["raw"]["cli.execute_plan.self_s"] == pytest.approx(own[0] / 1e9)


def test_output_check_rejects_a_wrong_report(tmp_path):
    rep = run_child("truncation_agreement", 7, 0, 2, "plain", tmp_path, timeout=120)
    assert "failure" not in rep
    plan = make_plan("truncation_agreement", 7, 0, 2)
    check_outputs(plan, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    report["rows"][0]["disagreements"] = report["rows"][0]["replicas"] + 1
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(ValueError):
        check_outputs(plan, tmp_path)


def test_digest_gate_flags_changed_bytes():
    reps = [{"index": 0, "digests": {"report.json": "a"}},
            {"index": 0, "digests": {"report.json": "b"}},
            {"index": 1, "digests": {"report.json": "c"}}]
    check_digests(reps, pins=None)
    assert ["failure" in r for r in reps] == [False, True, False]
    assert "an earlier run" in reps[1]["failure"]
    reps = [{"index": 0, "digests": {"report.json": "a"}}, {"index": 1, "digests": {"report.json": "c"}},
            {"index": 2, "digests": {"report.json": "d"}}, {"index": 2, "digests": {"report.json": "e"}}]
    check_digests(reps, pins=[{"digests": {"report.json": "a"}}, {"digests": {"report.json": "x"}}])
    assert ["failure" in r for r in reps] == [False, True, False, True]
    assert "its pin" in reps[1]["failure"] and "an earlier run" in reps[3]["failure"]
