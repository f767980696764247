"""What the benchmark reads of the package must stay in it.

``bench/tracer.py`` wraps every ``TARGETS`` entry and calls ``execute_plan``
and ``simulate_frogs`` with fixed arguments, and ``bench/workloads.py``
writes its plans by hand in the CLI's key order.  A deletion or a changed
plan would otherwise show only as a failed or unpinned benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from frogsim.cli import _plan_from_args, build_parser, execute_plan
from frogsim.passage import simulate_frogs
from frogsim.percolation import label_clusters, sample_bernoulli_field
from frogsim.walks import SeedSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only
    return module


def _targets():
    return _load("tracer").TARGETS


@pytest.mark.parametrize("module,qualname", _targets())
def test_tracer_target_resolves(module, qualname):
    owner = importlib.import_module(f"frogsim.{module}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_bench_call_signatures():
    inspect.signature(execute_plan).bind({}, Path("."), threads=1)
    inspect.signature(simulate_frogs).bind(None, (0, 0), 1, record_trace=True)


def test_label_clusters_labels_every_open_site():
    # the tracer counts len(labels.label) as the sites labelled
    f = sample_bernoulli_field(0.6, 2, 12, SeedSpec(4, "tracer"))
    assert len(label_clusters(f).label) == f.open_coords().shape[0]


# the argv of plan 3 of workload seed 7, as a user would type it
WORKLOAD_ARGV = {
    "mu_ladder": ["mu", "--law", "poisson:1.0", "--direction", "1,0", "--k", "4,8,16,32", "--replicas", "8"],
    "truncation_agreement": ["truncation", "--law", "poisson:1.0", "--x", "8,0", "--t", "4,8,16",
                             "--replicas", "4", "--mu-hat", "2.0"],
    "percolation_p08": ["percolation", "--p", "0.8", "--radius", "100", "--replicas", "1",
                        "--targets", "20,0;0,28;18,18;48,0;0,60"],
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_ARGV))
def test_workload_plan_is_the_cli_plan(workload):
    # bench/workloads.py writes its plans by hand, in the order the CLI writes them
    workloads = _load("workloads")
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_ARGV)
    args = build_parser().parse_args([*WORKLOAD_ARGV[workload], "--seed", "7003", "--out", "o"])
    # json.dumps keeps key order, which plan.json and report.json bytes follow
    assert json.dumps(workloads.make_plan(workload, 7, 3)) == json.dumps(_plan_from_args(args))
