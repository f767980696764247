"""Compare two result files written by ``run.py --save``, workload by workload.

    python3 bench/compare.py OLD.json NEW.json

Prints each metric's old and new value and the change, and flags a pair of
records made on different hosts (CPU, core count, Python or numpy version):
such numbers do not measure the code alone. Also lists plans whose report
digests differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu", "python", "numpy")


def main(argv: list[str]) -> int:
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    key = lambda r: (r["workload"], r["trace"], r["seed"], r["replicas"])  # noqa: E731
    newest = {key(r): r for r in new}
    mismatched = 0
    for a in {key(r): r for r in old}.values():
        b = newest.get(key(a))
        if b is None:
            continue
        hosts = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
        if hosts:
            mismatched += 1
            print(f"WARNING {a['workload']}: results come from different hosts ({', '.join(hosts)})")
        print(f"{a['workload']} seed {a['seed']}{' traced' if a['trace'] else ''}:"
              f" '{a['label']}' -> '{b['label']}'")
        for name, m in a["metrics"].items():
            if name in b["metrics"]:
                v0, v1 = m["value"], b["metrics"][name]["value"]
                change = f"{v1 / v0 - 1:+.1%}" if v0 else "n/a"
                print(f"  {name}: {v0:.6g} -> {v1:.6g} {m['unit']} ({change})")
        for index, digests in a.get("digests", {}).items():
            if index in b.get("digests", {}) and b["digests"][index] != digests:
                print(f"  plan {index}: report digests differ")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
