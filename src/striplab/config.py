"""Experiment configuration: JSON schema validation and model construction.

Configs are plain JSON with four blocks (geometry, potential, run, output).
Validation errors carry a JSON-pointer-style path to the offending field.
"""

from __future__ import annotations

import dataclasses
import json
import typing

import numpy as np

from .errors import ConfigInvalid, InvalidParam, TailTooLarge
from .instances import SurfaceModel
from .potential import (
    CompactProfile,
    ConstantBulk,
    CosineBulk,
    IidUniformBulk,
    NoBulk,
    PowerLawProfile,
    TwoPointCouplings,
    UniformCouplings,
    ZeroBulk,
)

# each potential block: its kinds and the class each kind builds
_KINDS = {
    "profile": {"compact": CompactProfile, "power_law": PowerLawProfile},
    "distribution": {"uniform": UniformCouplings, "two_point": TwoPointCouplings},
    "bulk_random": {"none": NoBulk, "iid_uniform": IidUniformBulk},
    "bulk_periodic": {"zero": ZeroBulk, "constant": ConstantBulk, "cosine": CosineBulk},
}


def _is_number(v) -> bool:
    return type(v) in (int, float)  # not bool, though it subclasses int


# the JSON form of each field type in the potential classes, as (types, check,
# message) for ``_need``; a tuple is an interval [lo, hi), ordered by its class
_JSON_TYPES = {float: ((int, float),), int: (int,),
               tuple: (list, lambda v: len(v) == 2 and all(map(_is_number, v)),
                       "must be a list of two numbers")}


def _need(block: dict, key: str, path: str, types, check=None, msg=""):
    if key not in block:
        raise ConfigInvalid(f"{path}.{key}: missing required field")
    val = block[key]
    # JSON true/false is no number, though bool subclasses int in Python
    if types is not None and (not isinstance(val, types) or
                              (isinstance(val, bool) and types is not bool)):
        raise ConfigInvalid(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    if check is not None and not check(val):
        raise ConfigInvalid(f"{path}.{key}: {msg}")
    return val


def _opt(block: dict, key: str, default, path: str, types=None, check=None, msg=""):
    if key not in block:
        return default
    return _need(block, key, path, types, check, msg)


def _int_at_least(block: dict, key: str, default: int, path: str, least: int) -> int:
    """A count field: an int >= ``least``."""
    return _opt(block, key, default, path, int, lambda v: v >= least, f"must be >= {least}")


def _real(block: dict, key: str, default: float, path: str, closed: bool) -> float:
    """A finite real field: > 0, or >= 0 when ``closed``."""
    return float(_opt(block, key, default, path, (int, float),
                      lambda v: (0 <= v if closed else 0 < v) and v < np.inf,
                      f"must be finite and {'>=' if closed else '>'} 0"))


def _check_finite(val, path: str) -> None:
    """Raise at the first NaN or infinite number under ``val``: JSON has neither, yet
    Python's parser reads the NaN and Infinity tokens and overflows 1e400 to inf."""
    if isinstance(val, dict):
        for key, item in val.items():
            _check_finite(item, f"{path}.{key}" if path else key)
    if isinstance(val, list):
        for i, item in enumerate(val):
            _check_finite(item, f"{path}[{i}]")
    if isinstance(val, float) and not np.isfinite(val):
        raise ConfigInvalid(f"{path or '(root)'}: must be a finite number, got {val}")


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"(root): not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"(root): expected an object, got {type(cfg).__name__}")
    _check_finite(cfg, "")
    return cfg


def validate_geometry(cfg: dict) -> dict:
    g = _need(cfg, "geometry", "(root)", dict)
    d1 = _need(g, "d1", "geometry", int, lambda v: v in (1, 2), "must be 1 or 2")
    d2 = _need(g, "d2", "geometry", int, lambda v: v in (1, 2), "must be 1 or 2")
    a = _opt(g, "a", 1, "geometry", int, lambda v: v >= 1, "must be >= 1")
    M = _need(g, "M", "geometry", int, lambda v: v >= 2 and v % 2 == 0, "must be even and >= 2")
    L = _opt(g, "L", None, "geometry", int, lambda v: v >= 1, "must be >= 1")
    L_values = _opt(g, "L_values", None, "geometry", list,
                    lambda v: len(v) > 0 and all(type(x) is int and x >= 1 for x in v),
                    "must be a non-empty list of ints >= 1")
    M_ref = _opt(g, "M_ref", M + 4, "geometry", int, lambda v: v >= M + 2 and v % 2 == 0,
                 f"must be even and >= M+2 = {M + 2}")
    return {"d1": d1, "d2": d2, "a": a, "M": M, "L": L, "L_values": L_values, "M_ref": M_ref}


def _build(block: dict, path: str, kinds: dict):
    """The class that ``block["kind"]`` names, built from the block: the class's
    fields, defaults, type hints and value checks are the block's schema."""
    kind = _need(block, "kind", path, str)
    if kind not in kinds:
        raise ConfigInvalid(f"{path}.kind: unknown kind {kind!r}")
    cls = kinds[kind]
    hints = typing.get_type_hints(cls)
    args = {}
    for f in dataclasses.fields(cls):
        if f.name in block or f.default is dataclasses.MISSING:
            val = _need(block, f.name, path, *_JSON_TYPES[hints[f.name]])
            args[f.name] = tuple(val) if isinstance(val, list) else val
    try:
        return cls(**args)
    except InvalidParam as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def build_model(cfg: dict) -> SurfaceModel:
    geo = validate_geometry(cfg)
    p = _need(cfg, "potential", "(root)", dict)
    # a bulk block left out means no random bulk and a zero periodic bulk
    left_out = {"bulk_random": {"kind": "none"}, "bulk_periodic": {"kind": "zero"}}
    part = {}
    for name, kinds in _KINDS.items():
        block = (_opt(p, name, left_out[name], "potential", dict) if name in left_out
                 else _need(p, name, "potential", dict))
        part[name] = _build(block, f"potential.{name}", kinds)
    tail_tol = _opt(p, "tail_tol", SurfaceModel.tail_tol, "potential", (int, float),
                    lambda v: v > 0, "must be > 0")
    try:  # the model checks the profile's exponent and truncation tail
        return SurfaceModel(
            d1=geo["d1"], d2=geo["d2"], a=geo["a"],
            profile=part["profile"], dist=part["distribution"],
            bulk_random=part["bulk_random"], bulk_periodic=part["bulk_periodic"],
            tail_tol=tail_tol,
        )
    except TailTooLarge as exc:
        raise ConfigInvalid(f"potential.tail_tol: {exc}") from exc
    except InvalidParam as exc:
        raise ConfigInvalid(f"potential.profile: {exc}") from exc


def energy_grid(run_cfg: dict, e0: float) -> np.ndarray:
    """Energy grid resolution: explicit values or geometric offsets above e0.

    The default covers 1.5 decades below the bulk bottom at 20 points per
    decade, geometric in E - e0.
    """
    spec = _opt(run_cfg, "energies", {"kind": "geometric"}, "run", dict)
    kind = _opt(spec, "kind", "geometric", "run.energies", str)
    if kind == "explicit":
        vals = _need(spec, "values", "run.energies", list,
                     lambda v: len(v) > 0 and all(map(_is_number, v)) and len(set(v)) == len(v),
                     "must be a non-empty list of distinct numbers")
        return np.sort(np.asarray(vals, dtype=float))
    if kind == "geometric":
        num = (int, float)
        hi = float(_opt(spec, "offset_hi", 0.95 * abs(e0), "run.energies", num))
        decades = float(_opt(spec, "decades", 1.5, "run.energies", num))
        per_decade = _int_at_least(spec, "points_per_decade", 20, "run.energies", 1)
        lo = float(_opt(spec, "offset_lo", hi * 10 ** (-decades), "run.energies", num))
        # the window, defaults filled in, is 0 < lo < hi; a NaN fails both comparisons
        if not 0 < hi < np.inf:
            raise ConfigInvalid(f"run.energies.offset_hi: must be finite and > 0, got {hi:g}")
        if not 0 < lo < hi:
            field = "offset_lo" if "offset_lo" in spec else "decades"
            raise ConfigInvalid(f"run.energies.{field}: the window needs "
                                f"0 < offset_lo < offset_hi, got {lo:g} and {hi:g}")
        n = max(2, int(round(np.log10(hi / lo) * per_decade)))
        return e0 + np.geomspace(lo, hi, n)
    raise ConfigInvalid(f"run.energies.kind: unknown kind {kind!r}")


def ladder(run_cfg: dict, key: str, lo: float, hi: float, points: int) -> tuple:
    """``run.<key>`` = ``{lo, hi, points}``: the geometric ladder from lo to hi (just lo at
    one point) and hi; defaults filled in, it needs 0 < lo <= hi < inf."""
    path = f"run.{key}"
    spec = _opt(run_cfg, key, {}, "run", dict)
    lo = _real(spec, "lo", lo, path, closed=False)
    hi = float(_opt(spec, "hi", hi, path, (int, float)))
    points = _int_at_least(spec, "points", points, path, 1)
    if not lo <= hi < np.inf:
        field = "hi" if "hi" in spec else "lo"
        raise ConfigInvalid(f"{path}.{field}: the ladder needs 0 < lo <= hi < inf, "
                            f"got {lo:g} and {hi:g}")
    return np.geomspace(lo, hi, points), hi
