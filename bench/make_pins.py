"""Write pins.json: the sha256 of report.json and every CSV of plans 0..PIN_PLANS-1 at the default seed.

    python3 bench/make_pins.py

PIN_PLANS (run.py) is 200 per workload, several times the plans a 40 s run
reaches at the seed commit, so a much faster commit is still checked
against pins. Regenerate only when a change is meant to alter frogsim's
reports, and say so in the change; run.py fails every plan whose bytes
differ from its pin.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import PIN_PLANS, PINS, ROOT, run_child
from workloads import DEFAULT_SEED, WORKLOADS, plan_seed


def main() -> int:
    pins = {}
    workdir = ROOT / ".bench_out" / "pins"
    for workload, spec in WORKLOADS.items():
        pins[workload] = []
        for index in range(PIN_PLANS):
            rep = run_child(workload, DEFAULT_SEED, index, spec["replicas"], "plain",
                            workdir / f"{workload}-{index}", timeout=170)
            if "failure" in rep:
                print(f"{workload} plan {index}: {rep['failure']}", file=sys.stderr)
                return 1
            pins[workload].append({"seed": plan_seed(DEFAULT_SEED, index), "digests": rep["digests"]})
        print(f"{workload}: pinned {PIN_PLANS} plans")
    shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
