"""The names the benchmark's span tracer wraps must stay in the package.

``bench/tracer.py`` wraps every ``TARGETS`` entry and calls ``execute_plan``
and ``simulate_frogs`` with fixed arguments.  The benchmark's own self-tests
are not part of this suite, so a deletion that breaks a traced run would
otherwise go unnoticed here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from frogsim.cli import execute_plan
from frogsim.passage import simulate_frogs
from frogsim.percolation import label_clusters, sample_bernoulli_field
from frogsim.walks import SeedSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library only
    return tracer.TARGETS


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
