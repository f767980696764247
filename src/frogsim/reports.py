"""Deterministic report emission.

All numeric output is decimal with 12 significant digits and a fixed column
order, so reruns of the same plan produce byte-identical JSON and CSV.
Wall-clock timing goes to a log file outside the determinism contract.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence


def round12(x: float) -> float:
    """Round to 12 significant decimal digits; stable shortest-repr floats."""
    return float(format(x, ".12g")) if isinstance(x, float) else x


def fmt12(x: Any) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def normalize(obj: Any) -> Any:
    """Recursively round floats and flatten dataclasses/tuples for JSON."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: normalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return round12(obj)
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return normalize(obj.item())
    return str(obj)


def dump_json(obj: Any, path: Path) -> None:
    text = json.dumps(normalize(obj), indent=2, separators=(",", ": "))
    path.write_text(text + "\n", encoding="utf-8")


def dump_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    lines = [",".join(header), *(",".join(fmt12(v) for v in row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
