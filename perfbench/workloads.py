"""The four benchmark workloads: one generated striplab config each, plus the
CLI invocations that make up one pass of the workload.

Why each workload exists is written in README.md next to this file.  The
benchmark's ``--seed`` becomes ``run.master_seed``; nothing else in a config
depends on it.
"""

from __future__ import annotations

import copy
import math

COMPACT = {"kind": "compact", "x1_halfwidth": 0.25, "x2_box": [-1.0, 1.0], "amplitude": 1.0}
UNIFORM = {"kind": "uniform", "q_min": -2.0, "q_max": -1.0}
TWO_POINT = {"kind": "two_point", "q_min": -2.0, "q_max": -1.0, "p": 0.5}

# name -> config without a seed, and the (subcommand, workers) invocations of one pass
WORKLOADS = {
    "idss_curve": {
        "config": {
            "geometry": {"d1": 1, "d2": 1, "a": 1, "L": 16, "M": 16, "M_ref": 20},
            "potential": {"profile": COMPACT, "distribution": UNIFORM},
            "run": {"n_samples": 128, "bc": "chi", "checks": True,
                    "energies": {"kind": "geometric", "points_per_decade": 8}},
        },
        "invocations": [("idss", 1)],
    },
    "quantum_tail": {
        "config": {
            "geometry": {"d1": 1, "d2": 1, "a": 1, "M": 24, "M_ref": 28},
            "potential": {"profile": COMPACT, "distribution": TWO_POINT},
            "run": {
                "mode": "quantum",
                "n_samples": 96,
                "deltas": {"lo": 0.018, "hi": 0.7, "points": 12},
                "c_factor": 8 * math.sqrt(0.7),
                "L_bounds": [8, 48],
            },
        },
        "invocations": [("lifshits", 2)],
    },
    "classical_tail": {
        "config": {
            "geometry": {"d1": 1, "d2": 1, "a": 1, "L": 16, "M": 24, "M_ref": 28},
            "potential": {
                "profile": {"kind": "power_law", "alpha": 1.5, "truncation_radius": 256},
                "distribution": TWO_POINT,
                "tail_tol": 0.2,
            },
            "run": {
                "mode": "classical",
                "n_samples": 192,
                "deltas": {"lo": 0.9, "hi": 3.0, "points": 10},
            },
        },
        "invocations": [("lifshits", 1)],
    },
    "certificates": {
        "config": {
            "geometry": {"d1": 1, "d2": 1, "a": 4, "L": 16, "M": 24, "M_ref": 28,
                         "L_values": [16, 32, 64]},
            "potential": {"profile": COMPACT, "distribution": UNIFORM},
            "run": {"theta_points": 129},
        },
        "invocations": [("band", 1), ("gap", 1), ("bounds", 1), ("decay", 1), ("dynamics", 1)],
    },
}


def config(name: str, seed: int) -> dict:
    """The workload's striplab config with ``run.master_seed`` set to ``seed``."""
    cfg = copy.deepcopy(WORKLOADS[name]["config"])
    cfg["run"]["master_seed"] = int(seed)
    return cfg


def csv_name(cfg: dict, subcommand: str) -> str:
    """File name of the CSV a subcommand writes (see striplab.cli)."""
    if subcommand == "lifshits":
        return f"lifshits_{cfg['run']['mode']}.csv"
    return f"{subcommand}.csv"
