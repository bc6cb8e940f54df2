#!/usr/bin/env python3
"""Cost of the two counting kernels on real strip ensembles, and their crossover.

For each strip shape (n sites, bandwidth bw) the script draws 256 samples of
the two-point compact-impurity model and times, through
``count_below_ensemble``:

* one batched LDL^T pass (a single energy, e0 + 0.1) over 1, 48, 96, 128,
  192 and 256 lanes: one operator, half of a 96-sample ensemble (the block
  of a lone ensemble split over two workers), a whole quantum-tail ensemble
  (the task a worker takes when a campaign's ensembles share one pool), the
  ensembles of the IDSS curve and of the classical tail, and the ensemble
  chunk;
* one banded eigensolve per lane (a 12-point tail grid, e0 + 0.02 ... e0 +
  0.7), on 32 lanes.

The crossover is the eigensolve per lane over the pass per lane: how many
single-energy passes one lane's eigenvalues cost.  ``count_below_ensemble``
counts one energy by the pass and more by the eigenvalues, which is the
cheaper choice wherever the crossover lies between one and the number of
energies sent.  Each time is the median of three runs.

    python scripts/kernel_timing.py
"""

import os
import platform
import time
from dataclasses import replace

import numpy as np
import scipy

from striplab.idss import StripEnsemble
from striplab.instances import default_model
from striplab.potential import TwoPointCouplings
from striplab.spectral import count_below_ensemble

# (L, M): n = L * M sites at bandwidth M; L 8..48 at M=24 spans the quantum
# tail's strips, 16 x 16 is the IDSS curve's and 16 x 24 the classical tail's
SHAPES = [(8, 24), (16, 24), (30, 24), (48, 24), (16, 16), (16, 32)]
LANES = (1, 48, 96, 128, 192, 256)
EIG_LANES = 32
REPEATS = 3


def median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {os.cpu_count()} cores, {platform.machine()}")
    print(f"{'n':>5} {'bw':>3} {'lanes':>5} {'pass ms':>9} {'pass ms/lane':>12} "
          f"{'eig ms/lane':>11} {'crossover':>9}")
    model = replace(default_model(), dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    for L, M in SHAPES:
        eng = StripEnsemble(model, L=L, M=M, master_seed=0)
        diags = eng.sample_diags(range(max(LANES)))
        grid = eng.e0 + np.geomspace(0.02, 0.7, 12)
        eig = median_seconds(
            lambda: count_below_ensemble(eng.base_band, diags[:EIG_LANES], grid)
        ) / EIG_LANES
        n, bw = eng.base_band.shape[1], eng.base_band.shape[0] - 1
        for lanes in LANES:
            ldl = median_seconds(
                lambda: count_below_ensemble(eng.base_band, diags[:lanes], [eng.e0 + 0.1])
            ) / lanes
            print(f"{n:>5} {bw:>3} {lanes:>5} {ldl * lanes * 1e3:>9.2f} {ldl * 1e3:>12.3f} "
                  f"{eig * 1e3:>11.3f} {eig / ldl:>9.2f}")


if __name__ == "__main__":
    main()
