#!/usr/bin/env python3
"""Quantum vs classical Lifshits-tail campaigns on the two-point alloy.

Reproduces the acceptance-scale tail study: the compact-impurity model with
strip length tied to the energy offset against the power-law model at fixed
length, both with couplings carrying an atom at the floor.  Each study runs
through ``striplab lifshits``'s runner; writes its per-point CSV curve plus
the fitted double-log slopes.

    python scripts/lifshits_campaigns.py --out out/lifshits --samples 2000
"""

import argparse
import os
from dataclasses import replace

from striplab.cli import run_lifshits
from striplab.instances import classical_model, default_model
from striplab.potential import TwoPointCouplings
from striplab.reports import ensure_dir, write_csv, write_sidecar

DIST = TwoPointCouplings(-2.0, -1.0, p=0.5)
# name: (model, geometry, run block, master seed offset); a new study is a new row
STUDIES = {
    "quantum": (replace(default_model(), dist=DIST), {"M": 24, "M_ref": 28},
                {"mode": "quantum", "deltas": {"lo": 0.05, "hi": 0.7, "points": 12},
                 "L_bounds": [8, 48]}, 0),
    "classical": (replace(classical_model(), dist=DIST), {"L": 16, "M": 24, "M_ref": 28},
                  {"mode": "classical", "deltas": {"lo": 0.9, "hi": 3.0, "points": 10}}, 1),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/lifshits")
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20240808)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    ensure_dir(args.out)

    fits = {}
    for name, (model, geo, run, offset) in STUDIES.items():
        _, _, header, rows, fit = run_lifshits(model, geo, dict(run, n_samples=args.samples),
                                               args.seed + offset, args.workers)
        write_csv(os.path.join(args.out, f"{name}.csv"), header, rows)
        fits[name] = fit
        print(f"{name:9s}: E0 = {fit['e0']:+.6f}, slope = {fit['slope']:+.4f}, "
              f"R^2 = {fit['r_squared']:.4f} over {fit['n_points']} points")
    print(f"separation: {fits['quantum']['slope'] - fits['classical']['slope']:+.4f}")
    write_sidecar(
        os.path.join(args.out, "fits.json"), {"samples": args.samples, "seed": args.seed}, fits
    )


if __name__ == "__main__":
    main()
