"""CSV and JSON emission with locale-free full-precision formatting."""

from __future__ import annotations

import datetime
import json
import math
import os

import numpy as np

from . import __version__


def fmt(x) -> str:
    """17 significant digits, never locale dependent."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _jsonable(obj):
    """Plain JSON values; a non-finite float (NaN or an infinity) becomes ``None``."""
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_sidecar(path, config: dict, results: dict) -> None:
    """Run sidecar: verbatim config, tool version, results, timestamp.

    The file is strict JSON: ``_jsonable`` writes non-finite floats as
    ``null``, and one that slips past it raises rather than writing ``NaN``.
    """
    doc = {
        "tool": "striplab",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _jsonable(config),
        "results": _jsonable(results),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
