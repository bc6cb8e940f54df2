#!/usr/bin/env python3
"""Strip-length convergence of the surface-state counting curve.

Estimates the per-length counting curve N_L(E) = E[count]/L for a ladder of
strip lengths and reports the successive differences |N_2L - N_L| with
standard errors: the infinite-volume limit shows up as these differences
sinking into the noise.

    python scripts/idss_convergence_study.py --out out/idss --samples 800
"""

import argparse
import os

import numpy as np

from striplab.floquet import cached_reference
from striplab.idss import idss_estimate
from striplab.instances import default_model
from striplab.reports import ensure_dir, write_csv, write_sidecar


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/idss")
    ap.add_argument("--samples", type=int, default=800)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--lengths", type=int, nargs="+", default=[4, 8, 16, 32, 64])
    args = ap.parse_args()
    ensure_dir(args.out)

    model = default_model()
    e0 = cached_reference(model, 16, 20).e0
    energies = np.linspace(e0 + 0.1, -0.1, 14)

    curves = {}
    for L in args.lengths:
        curves[L] = idss_estimate(
            model, L, 16, energies, args.samples, args.seed, M_ref=20, workers=args.workers
        )
        write_csv(
            os.path.join(args.out, f"idss_L{L}.csv"),
            ["E", "mean", "se", "n_samples", "L", "M"],
            [
                [E, m, s, args.samples, L, 16]
                for E, m, s in zip(energies, curves[L].means, curves[L].ses)
            ],
        )

    print(f"E0 = {e0:+.6f}; mean |N_2L - N_L| over the energy grid:")
    diffs = {}
    for L, L2 in zip(args.lengths, args.lengths[1:]):
        d = np.abs(curves[L2].means - curves[L].means)
        se = np.hypot(curves[L2].ses, curves[L].ses)
        diffs[f"{L}->{L2}"] = {"mean_abs_diff": float(d.mean()), "mean_se": float(se.mean())}
        print(f"  L {L:3d} -> {L2:3d}: {d.mean():.5f} (combined SE {se.mean():.5f})")
    write_sidecar(os.path.join(args.out, "convergence.json"), vars(args), diffs)


if __name__ == "__main__":
    main()
