#!/usr/bin/env python3
"""Cost of the counting kernels on real strip ensembles, and of ``lowest_k``'s dense path.

Five tables, each time the median of three runs:

* the single-energy LDL^T pass (e0 + 0.1) of ``count_below_ensemble`` on
  the two-point compact-impurity model, per lane, over 1, 48, 96, 128, 192,
  256, 512, 1024 and 1536 lanes: one operator, half of a 96-sample ensemble
  (the block of a lone ensemble split over two workers), a whole
  quantum-tail ensemble (the task a worker takes when a campaign's
  ensembles share one pool), the ensembles of the IDSS curve and of the
  classical tail, a block of ``spectral.BLOCK_LANES`` (the cap of
  ``spectral.block_lanes``), and the larger blocks a 2000-sample ensemble
  would take without that cap.  Beside it, one lane's
  banded eigensolve over a 12-point tail grid (e0 + 0.02 ... e0 + 0.7,
  median over 32 lanes), and the crossover: how many passes that
  eigensolve costs.  ``count_below`` counts one operator by the eigensolve,
  at one energy or many;
* the same pass on 96 lanes at the quantum tail's strips (M = 24, n = 192
  to 1152) for several row counts of the LDL^T buffer, the last being n
  (the whole band at once); ``spectral.INERTIA_ROWS`` is chosen from it;
* the same pass on 96 lanes at those strips and at the IDSS curve's
  (n = 256, bw = 16) for several panel widths, the pivots whose trailing
  updates one matmul applies; ``spectral.INERTIA_PANEL`` is chosen from
  it.  Widths 6 and 12 do not divide ``INERTIA_ROWS``, so each buffer load
  ends in a shorter panel;
* the two grid kernels on the benchmark's grid ensembles, the IDSS curve
  (12 energies, n = 256, bw = 16, 128 lanes) and the classical tail (10
  energies, n = 384, bw = 24, 192 lanes): the bisection of
  ``count_below_ensemble``, with its (lane, energy) passes per lane, and one
  banded eigensolve per lane.  Both give the same counts;
* ``lowest_k(H, 2)``'s dense path on the certificates' operators (a = 4,
  M = 24, reference depth 28): a complex band cell h_theta (n = 96, a run
  being the 129 cells of one band curve) and the real chi strips at L = 8
  and 16 (n = 768 and 1536), with the full ``?syevd``/``?heevd`` against
  ``values_only=True``, which back-transforms the 2 returned vectors only.
  Both give the same eigenvalues.

    PYTHONPATH=src python scripts/kernel_timing.py
"""

import os
import platform
import time
from dataclasses import replace

import numpy as np
import scipy

from striplab import spectral
from striplab.config import build_model, energy_grid
from striplab.floquet import cached_reference, reduced_operator
from striplab.grid import bc_for_tag
from striplab.idss import StripEnsemble
from striplab.instances import default_model
from striplab.operator import assemble
from striplab.potential import TwoPointCouplings, periodic_bulk

# (L, M): n = L * M sites at bandwidth M; L 8..48 at M=24 spans the quantum
# tail's strips, 8 x 16 is the shortest of a quantum tail at M=16, 16 x 16 the
# IDSS curve's and 16 x 24 the classical tail's
SHAPES = [(8, 24), (16, 24), (30, 24), (48, 24), (8, 16), (16, 16), (16, 32)]
LANES = (1, 48, 96, 128, 192, 256, 512, 1024, 1536)
EIG_LANES = 32
ROWS = (16, 32, 64, 128)
PANELS = (4, 6, 8, 12, 16)
REPEATS = 3

COMPACT = {"kind": "compact", "x1_halfwidth": 0.25, "x2_box": [-1.0, 1.0], "amplitude": 1.0}
TWO_POINT = {"kind": "two_point", "q_min": -2.0, "q_max": -1.0, "p": 0.5}
# (name, geometry, potential, energies above e0) of the benchmark's grid ensembles
GRIDS = [
    ("idss curve", {"d1": 1, "d2": 1, "a": 1, "L": 16, "M": 16, "M_ref": 20},
     {"profile": COMPACT, "distribution": {"kind": "uniform", "q_min": -2.0, "q_max": -1.0}},
     lambda e0: energy_grid({"energies": {"kind": "geometric", "points_per_decade": 8}}, e0),
     128),
    ("classical tail", {"d1": 1, "d2": 1, "a": 1, "L": 16, "M": 24, "M_ref": 28},
     {"profile": {"kind": "power_law", "alpha": 1.5, "truncation_radius": 256},
      "distribution": TWO_POINT, "tail_tol": 0.2},
     lambda e0: e0 + np.geomspace(0.9, 3.0, 10),
     192),
]


def median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def eigenvalue_counts(band, diags, energies):
    """The per-lane eigenvalue kernel: each lane's banded eigenvalues, searched for every energy."""
    lane_norm, tie = spectral._lane_scales(band, diags, energies)
    return np.array([spectral._lane_counts(band, d, energies + t, nrm)
                     for d, t, nrm in zip(diags, tie, lane_norm)])


def pass_table(model):
    print(f"{'n':>5} {'bw':>3} {'lanes':>5} {'pass ms':>9} {'pass ms/lane':>12} "
          f"{'eig ms/lane':>11} {'crossover':>9}")
    for L, M in SHAPES:
        eng = StripEnsemble(model, L=L, M=M, master_seed=0)
        n, bw = eng.base_band.shape[1], eng.base_band.shape[0] - 1
        diags = eng.sample_diags(range(max(LANES)))
        grid = eng.e0 + np.geomspace(0.02, 0.7, 12)
        eig = median_seconds(
            lambda: eigenvalue_counts(eng.base_band, diags[:EIG_LANES], grid)
        ) / EIG_LANES
        for lanes in LANES:
            ldl = median_seconds(
                lambda: spectral.count_below_ensemble(eng.base_band, diags[:lanes], [eng.e0 + 0.1])
            ) / lanes
            print(f"{n:>5} {bw:>3} {lanes:>5} {ldl * lanes * 1e3:>9.2f} {ldl * 1e3:>12.3f} "
                  f"{eig * 1e3:>11.3f} {eig / ldl:>9.2f}")


def sweep_table(model, constant, label, shapes, values):
    """Pass ms per lane on 96 lanes with ``spectral.<constant>`` set to each of ``values(n)``."""
    print(f"{'n':>5} {'bw':>3} " + " ".join(f"{f'{label}={b}':>8}" for b in values("n"))
          + "   (pass ms/lane, 96 lanes)")
    kept = getattr(spectral, constant)
    for L, M in shapes:
        eng = StripEnsemble(model, L=L, M=M, master_seed=0)
        diags = eng.sample_diags(range(96))
        row = []
        for value in values(eng.grid.n_sites):
            setattr(spectral, constant, value)
            row.append(median_seconds(
                lambda: spectral.count_below_ensemble(eng.base_band, diags, [eng.e0 + 0.1])) / 96)
        setattr(spectral, constant, kept)
        print(f"{eng.grid.n_sites:>5} {M:>3} " + " ".join(f"{t * 1e3:>8.3f}" for t in row))


def grid_table():
    print(f"{'ensemble':>14} {'n':>5} {'bw':>3} {'lanes':>5} {'energies':>8} {'bisect ms':>10} "
          f"{'passes/lane':>11} {'eig ms':>8} {'eig/bisect':>10}")
    probes = []
    inertia = spectral.banded_inertia

    def counting(base_band, shifts, reg):
        probes.append(len(shifts))
        return inertia(base_band, shifts, reg)

    for name, geometry, potential, energies_of, lanes in GRIDS:
        model = build_model({"geometry": geometry, "potential": potential})
        eng = StripEnsemble(model, L=geometry["L"], M=geometry["M"], M_ref=geometry["M_ref"],
                            master_seed=0)
        diags = eng.sample_diags(range(lanes))
        energies = energies_of(eng.e0)
        spectral.banded_inertia = counting
        counts = spectral.count_below_ensemble(eng.base_band, diags, energies)
        spectral.banded_inertia = inertia
        assert np.array_equal(counts, eigenvalue_counts(eng.base_band, diags, energies))
        bisect = median_seconds(
            lambda: spectral.count_below_ensemble(eng.base_band, diags, energies))
        eig = median_seconds(lambda: eigenvalue_counts(eng.base_band, diags, energies))
        n, bw = eng.base_band.shape[1], eng.base_band.shape[0] - 1
        print(f"{name:>14} {n:>5} {bw:>3} {lanes:>5} {len(energies):>8} {bisect * 1e3:>10.1f} "
              f"{sum(probes) / lanes:>11.2f} {eig * 1e3:>8.1f} {eig / bisect:>10.2f}")
        probes.clear()


def lowest_k_table():
    model = replace(default_model(), a=4)
    ref = cached_reference(model, 24, 28)
    ops = [("band cell", reduced_operator(model.cell_grid(24), model.u_per(), [1.1]), 129)]
    for L in (8, 16):
        strip = model.strip_grid(L, 24)
        chi = assemble(strip, periodic_bulk(strip, model.u_per()), bc_for_tag("chi", ref))
        ops.append(("chi strip", chi, 1))
    print(f"{'operator':>10} {'n':>5} {'calls':>5} {'full ms/call':>12} "
          f"{'values-only ms/call':>19} {'full/values-only':>16}")
    for name, H, calls in ops:
        def run(values_only):
            for _ in range(calls):
                spectral.lowest_k(H, 2, values_only=values_only)

        full, fast = median_seconds(lambda: run(False)), median_seconds(lambda: run(True))
        assert np.array_equal(spectral.lowest_k(H, 2).eigenvalues,
                              spectral.lowest_k(H, 2, values_only=True).eigenvalues)
        print(f"{name:>10} {H.n:>5} {calls:>5} {full / calls * 1e3:>12.2f} "
              f"{fast / calls * 1e3:>19.2f} {full / fast:>16.2f}")


def main():
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, {os.cpu_count()} cores, {platform.machine()}")
    model = replace(default_model(), dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    pass_table(model)
    print()
    quantum = [(L, 24) for L in (8, 16, 30, 48)]
    sweep_table(model, "INERTIA_ROWS", "B", quantum, lambda n: ROWS + (n,))
    print()
    sweep_table(model, "INERTIA_PANEL", "nb", quantum + [(16, 16)], lambda n: PANELS)
    print()
    grid_table()
    print()
    lowest_k_table()


if __name__ == "__main__":
    main()
