"""Deterministic report serialization.

JSON output is byte-stable for identical inputs: map keys sorted, floats
rendered with 17 significant digits, trailing newline. CSV flattens scalar
metrics into (metric, value) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

VERSION = "0.1.0"


def _normalize(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _format_scalar(x) -> str:
    x = _normalize(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            raise ValueError("NaN is not serializable in reports")
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(x, str):
        out = x.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(obj, indent: int = 0) -> str:
    obj = _normalize(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj.keys()):
            items.append(f'{inner}"{key}": {dumps(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _format_scalar(obj)


def to_json(obj) -> str:
    return dumps(obj) + "\n"


def flatten_scalars(obj, prefix: str = ""):
    obj = _normalize(obj)
    if isinstance(obj, dict):
        for key in sorted(obj.keys()):
            yield from flatten_scalars(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from flatten_scalars(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def to_csv(obj) -> str:
    lines = ["metric,value"]
    for metric, value in flatten_scalars(obj):
        if value is None:
            value = ""
        elif not isinstance(value, str):
            value = _format_scalar(value).strip('"')  # "inf" unquoted
        lines.append(f"{metric},{value}")
    return "\n".join(lines) + "\n"


@dataclass
class RunManifest:
    command: str
    specs: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    version: str = VERSION

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "specs": list(self.specs),
            "config": dict(self.config),
            "version": self.version,
        }
