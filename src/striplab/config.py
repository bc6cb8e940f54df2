"""Experiment configuration: JSON schema validation and model construction.

Configs are plain JSON with four blocks (geometry, potential, run, output).
Validation errors carry a JSON-pointer-style path to the offending field.
"""

from __future__ import annotations

import json
import numpy as np

from .errors import ConfigInvalid
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


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"(root): not valid JSON: {exc}") from exc


def validate_geometry(cfg: dict) -> dict:
    g = _need(cfg, "geometry", "(root)", dict)
    d1 = _need(g, "d1", "geometry", int, lambda v: v in (1, 2), "must be 1 or 2")
    d2 = _need(g, "d2", "geometry", int, lambda v: v in (1, 2), "must be 1 or 2")
    a = _opt(g, "a", 1, "geometry", int, lambda v: v >= 1, "must be >= 1")
    M = _need(g, "M", "geometry", int, lambda v: v >= 2 and v % 2 == 0, "must be even and >= 2")
    L = _opt(g, "L", None, "geometry", int, lambda v: v >= 1, "must be >= 1")
    L_values = _opt(g, "L_values", None, "geometry", list,
                    lambda v: all(type(x) is int and x >= 1 for x in v),
                    "must be a list of ints >= 1")
    M_ref = _opt(g, "M_ref", M + 4, "geometry", int, lambda v: v >= M + 2 and v % 2 == 0,
                 f"must be even and >= M+2 = {M + 2}")
    return {"d1": d1, "d2": d2, "a": a, "M": M, "L": L, "L_values": L_values, "M_ref": M_ref}


def build_model(cfg: dict) -> SurfaceModel:
    geo = validate_geometry(cfg)
    p = _need(cfg, "potential", "(root)", dict)

    prof_cfg = _need(p, "profile", "potential", dict)
    kind = _need(prof_cfg, "kind", "potential.profile", str)
    if kind == "compact":
        profile = CompactProfile(
            x1_halfwidth=_opt(prof_cfg, "x1_halfwidth", 0.25, "potential.profile", (int, float)),
            x2_box=tuple(_opt(prof_cfg, "x2_box", [-1.0, 1.0], "potential.profile", list)),
            amplitude=_opt(prof_cfg, "amplitude", 1.0, "potential.profile", (int, float)),
        )
    elif kind == "power_law":
        profile = PowerLawProfile(
            alpha=_need(prof_cfg, "alpha", "potential.profile", (int, float)),
            f0=_opt(prof_cfg, "f0", 1.0, "potential.profile", (int, float)),
            x2_box=tuple(_opt(prof_cfg, "x2_box", [-1.0, 1.0], "potential.profile", list)),
            truncation_radius=_opt(prof_cfg, "truncation_radius", 64, "potential.profile", int),
        )
    else:
        raise ConfigInvalid(f"potential.profile.kind: unknown kind {kind!r}")

    dist_cfg = _need(p, "distribution", "potential", dict)
    dkind = _need(dist_cfg, "kind", "potential.distribution", str)
    q_min = _need(dist_cfg, "q_min", "potential.distribution", (int, float))
    q_max = _need(dist_cfg, "q_max", "potential.distribution", (int, float))
    if dkind == "uniform":
        dist = UniformCouplings(q_min, q_max)
    elif dkind == "two_point":
        dist = TwoPointCouplings(q_min, q_max, _opt(dist_cfg, "p", 0.5, "potential.distribution", (int, float)))
    else:
        raise ConfigInvalid(f"potential.distribution.kind: unknown kind {dkind!r}")

    br_cfg = _opt(p, "bulk_random", {"kind": "none"}, "potential", dict)
    brkind = _need(br_cfg, "kind", "potential.bulk_random", str)
    if brkind == "none":
        bulk_random = NoBulk()
    elif brkind == "iid_uniform":
        bulk_random = IidUniformBulk(_need(br_cfg, "v_max", "potential.bulk_random", (int, float)))
    else:
        raise ConfigInvalid(f"potential.bulk_random.kind: unknown kind {brkind!r}")

    bp_cfg = _opt(p, "bulk_periodic", {"kind": "zero"}, "potential", dict)
    bpkind = _need(bp_cfg, "kind", "potential.bulk_periodic", str)
    if bpkind == "zero":
        bulk_periodic = ZeroBulk()
    elif bpkind == "constant":
        bulk_periodic = ConstantBulk(_need(bp_cfg, "value", "potential.bulk_periodic", (int, float)))
    elif bpkind == "cosine":
        bulk_periodic = CosineBulk(
            amplitude=_need(bp_cfg, "amplitude", "potential.bulk_periodic", (int, float)),
            wavelength=_opt(bp_cfg, "wavelength", 4.0, "potential.bulk_periodic", (int, float)),
        )
    else:
        raise ConfigInvalid(f"potential.bulk_periodic.kind: unknown kind {bpkind!r}")

    return SurfaceModel(
        d1=geo["d1"],
        d2=geo["d2"],
        a=geo["a"],
        profile=profile,
        dist=dist,
        bulk_random=bulk_random,
        bulk_periodic=bulk_periodic,
        tail_tol=_opt(p, "tail_tol", 1e-8, "potential", (int, float)),
    )


def energy_grid(run_cfg: dict, e0: float) -> np.ndarray:
    """Energy grid resolution: explicit values or geometric offsets above e0.

    The default covers 1.5 decades below the bulk bottom at 20 points per
    decade, geometric in E - e0.
    """
    spec = _opt(run_cfg, "energies", {"kind": "geometric"}, "run", dict)
    kind = spec.get("kind", "geometric")
    if kind == "explicit":
        vals = np.asarray(_need(spec, "values", "run.energies", list), dtype=float)
        return np.sort(vals)
    if kind == "geometric":
        num = (int, float)
        hi = float(_opt(spec, "offset_hi", 0.95 * abs(e0), "run.energies", num))
        decades = float(_opt(spec, "decades", 1.5, "run.energies", num))
        per_decade = int(_opt(spec, "points_per_decade", 20, "run.energies", int))
        lo = float(_opt(spec, "offset_lo", hi * 10 ** (-decades), "run.energies", num))
        n = max(2, int(round(np.log10(hi / lo) * per_decade)))
        return e0 + np.geomspace(lo, hi, n)
    raise ConfigInvalid(f"run.energies.kind: unknown kind {kind!r}")
