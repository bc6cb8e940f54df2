#!/usr/bin/env python3
"""Ground-band parabolicity and finite-strip gap certificates.

Computes the twist-angle band of the default surface cell and of a few
random periodic cells, the certified parabolic sandwich margins, and the
per-L gap comparison against the separable averaged model.

    python scripts/band_and_gap_report.py --out out/band
"""

import argparse
import os

import numpy as np

from striplab.floquet import band_curve, cached_reference, gap_certificate
from striplab.grid import build_grid
from striplab.instances import default_model, random_periodic_cell
from striplab.reports import ensure_dir, write_csv, write_sidecar


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/band")
    ap.add_argument("--cells", type=int, default=5, help="number of random periodic cells")
    args = ap.parse_args()
    ensure_dir(args.out)

    model = default_model()
    jobs = [("default", model.cell_grid(16), model.u_per())]
    for seed in range(args.cells):
        a = 2 + seed % 3
        jobs.append((f"random{seed}", build_grid(1, 1, L=1, a=a, M=10), random_periodic_cell(seed)))

    summary = {}
    for name, cell, fn in jobs:
        curve = band_curve(cell, fn)
        write_csv(
            os.path.join(args.out, f"band_{name}.csv"),
            ["theta", "E0_h_theta", "k_disc", "upper_margin", "lower_margin"],
            [
                [curve.thetas[i, 0], curve.values[i], curve.kdisc[i],
                 curve.upper_margin_kdisc[i], curve.lower_margin[i]]
                for i in range(len(curve.values))
            ],
        )
        summary[name] = {
            "e0": curve.e0,
            "harnack_ratio_sq": (curve.c1 / curve.c2) ** 2,
            "min_upper_margin": float(curve.upper_margin_kdisc.min()),
            "min_lower_margin": float(curve.lower_margin.min()),
        }
        print(f"{name:9s}: E0 = {curve.e0:+.6f}, (C1/C2)^2 = {(curve.c1 / curve.c2) ** 2:.4f}, "
              f"worst margins {curve.upper_margin_kdisc.min():+.2e} / {curve.lower_margin.min():+.2e}")

    ref = cached_reference(model, 16, 20)
    reports = gap_certificate(model.u_per(), [4, 8, 16, 32, 64], ref, M=16)
    write_csv(
        os.path.join(args.out, "gap.csv"),
        ["L", "gap", "gbar", "margin", "gap_L_sq", "e0_error"],
        [[r.L, r.gap, r.gbar, r.margin, r.gap * r.L**2, r.e0_error] for r in reports],
    )
    for r in reports:
        print(f"L={r.L:3d}: gap*L^2 = {r.gap * r.L ** 2:.6f} (pi^2 = {np.pi ** 2:.6f}), "
              f"margin = {r.margin:+.2e}")
    write_sidecar(os.path.join(args.out, "summary.json"), vars(args), summary)


if __name__ == "__main__":
    main()
