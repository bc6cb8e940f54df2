#!/usr/bin/env python3
"""Strip-length convergence of the surface-state counting curve.

Estimates the per-length counting curve N_L(E) = E[count]/L for a ladder of
strip lengths, each through ``striplab idss``'s runner with its checks off,
and reports the successive differences |N_2L - N_L| with standard errors:
the infinite-volume limit shows up as these differences sinking into the
noise.

    python scripts/idss_convergence_study.py --out out/idss --samples 800
"""

import argparse
import os

import numpy as np

from striplab.cli import run_idss
from striplab.floquet import cached_reference
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
    run = {"energies": {"kind": "explicit", "values": np.linspace(e0 + 0.1, -0.1, 14).tolist()},
           "n_samples": args.samples, "checks": False}

    curves = {}
    for L in args.lengths:
        _, _, header, rows, curves[L] = run_idss(model, {"L": L, "M": 16, "M_ref": 20}, run,
                                                 args.seed, args.workers)
        write_csv(os.path.join(args.out, f"idss_L{L}.csv"), header, rows)

    print(f"E0 = {e0:+.6f}; mean |N_2L - N_L| over the energy grid:")
    diffs = {}
    for L, L2 in zip(args.lengths, args.lengths[1:]):
        d = np.abs(curves[L2]["means"] - curves[L]["means"])
        se = np.hypot(curves[L2]["ses"], curves[L]["ses"])
        diffs[f"{L}->{L2}"] = {"mean_abs_diff": float(d.mean()), "mean_se": float(se.mean())}
        print(f"  L {L:3d} -> {L2:3d}: {d.mean():.5f} (combined SE {se.mean():.5f})")
    write_sidecar(os.path.join(args.out, "convergence.json"), vars(args), diffs)


if __name__ == "__main__":
    main()
