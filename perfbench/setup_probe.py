"""Set-up probe: import striplab and build every ground-state reference and
ensemble one workload's CLI invocations build before they count or solve.

The benchmark times this script as a fresh process, from spawn to exit.

Usage: python3 perfbench/setup_probe.py WORKLOAD CONFIG_JSON
"""

from __future__ import annotations

import json
import sys

import numpy as np

from striplab import cli
from striplab.config import build_model, validate_geometry
from striplab.idss import StripEnsemble
from striplab.rng import mix64


def build(workload: str, cfg: dict) -> None:
    """Build what ``workload`` builds."""
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg["run"]
    seed = int(run["master_seed"])
    M, M_ref = geo["M"], geo["M_ref"]
    if workload == "idss_curve":
        # run_idss: cached reference; idss_estimate (chi); sandwich_check (chi and D)
        cli.cached_reference(model, M, M_ref)
        for bc in ("chi", "chi", "D"):
            StripEnsemble(model, geo["L"], M, bc=bc, M_ref=M_ref, master_seed=seed)
    elif workload == "quantum_tail":
        # quantum_campaign: a probe ensemble at L_bounds[0], then one per delta
        d = run["deltas"]
        deltas = np.sort(np.geomspace(d["lo"], d["hi"], d["points"]))
        lo, hi = run["L_bounds"]
        L_values = np.clip(np.round(run["c_factor"] / np.sqrt(deltas)).astype(int), lo, hi)
        StripEnsemble(model, lo, M, M_ref=M_ref, master_seed=seed)
        for i, L in enumerate(L_values):
            StripEnsemble(model, int(L), M, M_ref=M_ref, master_seed=mix64(seed, 7000 + i))
    elif workload == "classical_tail":
        StripEnsemble(model, geo["L"], M, M_ref=M_ref, master_seed=seed)
    elif workload == "certificates":
        # gap and bounds take the cached reference; decay (chi) and dynamics (D) an ensemble
        for _ in ("gap", "bounds"):
            cli.cached_reference(model, M, M_ref)
        for bc in ("chi", "D"):
            StripEnsemble(model, geo["L"], M, bc=bc, M_ref=M_ref, master_seed=seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    with open(sys.argv[2]) as fh:
        build(sys.argv[1], json.load(fh))
