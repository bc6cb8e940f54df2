#!/usr/bin/env python3
"""Cost of the counting kernels on real strip ensembles, of ``lowest_k``'s dense path and of sampling.

Six tables, each time the median of three runs.  Every pass runs on the
band ``StripEnsemble`` counts, its sites in ``grid.band_order()`` (the
longest axis outermost), with the sampled diagonals in that order; the
tables print that band's width ``bw`` beside the width ``grid bw`` of the
grid's own order (x1 outermost):

* the single-energy LDL^T pass (e0 + 0.1) of ``count_below_ensemble`` on
  the two-point compact-impurity model, per lane, over 1, 48, 96, 128, 192,
  256, 512, 1024 and 1536 lanes: one operator, half of a 96-sample ensemble
  (the block of a lone ensemble split over two workers), a whole
  quantum-tail ensemble (the task a worker takes when a campaign's
  ensembles share one pool), the ensembles of the IDSS curve and of the
  classical tail, a block of ``spectral.BLOCK_LANES`` (the cap of
  ``spectral.block_lanes``), and the larger blocks a 2000-sample ensemble
  would take without that cap, on the strips of ``SHAPES`` (one at
  d1 = 2).  Beside it, one lane's banded eigensolve over a 12-point tail
  grid (e0 + 0.02 ... e0 + 0.7,
  median over 32 lanes), and the crossover: how many passes that
  eigensolve costs.  ``count_below`` counts one operator by the eigensolve,
  at one energy or many;
* the same pass on 96 lanes at the quantum tail's strips (M = 24, n = 192
  to 1152, bw 8, 16, 24 and 24) for several row counts of the LDL^T
  buffer, the last being n (the whole band at once);
  ``spectral.INERTIA_ROWS`` is chosen from it;
* the same pass on 96 lanes at those strips and at the IDSS curve's
  (n = 256, bw = 16) for several panel widths, the pivots whose trailing
  updates one matmul applies; ``spectral.INERTIA_PANEL`` is chosen from
  it.  Widths 6 and 12 do not divide ``INERTIA_ROWS``, so each buffer load
  ends in a shorter panel;
* the two grid kernels on the benchmark's grid ensembles, the IDSS curve
  (12 energies, n = 256, bw = 16, 128 lanes) and the classical tail (10
  energies, n = 384, bw = 16 where the grid's order has 24, 192 lanes):
  the bisection of ``count_below_ensemble``, with its (lane, energy)
  passes per lane, and one banded eigensolve per lane.  Both give the same
  counts;
* ``lowest_k(H, 2)``'s dense path on the certificates' operators (a = 4,
  M = 24, reference depth 28): a complex band cell h_theta (n = 96, a run
  being the 129 cells of one band curve) and the real chi strips at L = 8
  and 16 (n = 768 and 1536), with the full ``?syevd``/``?heevd`` against
  ``values_only=True``, which back-transforms the 2 returned vectors only.
  Both give the same eigenvalues;
* sampling on the strips of ``SAMPLING``: the classical tail's, the
  quantum tail's longest (L = 48) and a d1 = 2 strip (L = 20, M = 12, the
  largest of a d1 = 2 quantum tail run with L_bounds [6, 20]).  It gives
  the window cells (couplings drawn per sample), the alloy kernel's
  relative cells (offsets) and reached cell-local sites, the time
  ``alloy_kernel`` takes to build it (uncached), the bytes it holds, and
  the time of one ``contract_couplings`` call on 96 samples, the block of
  a quantum-tail ensemble.

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
from striplab.potential import TwoPointCouplings, alloy_kernel, contract_couplings, periodic_bulk

# (d1, L, M) at a = 1 and d2 = 1: n = L^d1 * M sites at band width n / max(L, M)
# (the grid's own order has n / L); L 8..48 at M=24 spans the quantum tail's
# strips, 8 x 16 is the shortest of a quantum tail at M=16, 16 x 16 the IDSS
# curve's, 16 x 24 the classical tail's, and 6 x 6 x 16 a d1 = 2 strip (bw 36
# where the grid's order has 96)
SHAPES = [(1, 8, 24), (1, 16, 24), (1, 30, 24), (1, 48, 24), (1, 8, 16), (1, 16, 16),
          (1, 16, 32), (2, 6, 16)]
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

# (name, geometry, potential) of the strips the sampling table builds weights for
SAMPLING = [
    ("classical tail", {"d1": 1, "L": 16, "M": 24}, GRIDS[1][2]),
    ("quantum tail", {"d1": 1, "L": 48, "M": 24}, {"profile": COMPACT, "distribution": TWO_POINT}),
    ("d1 = 2", {"d1": 2, "L": 20, "M": 12}, {"profile": COMPACT, "distribution": TWO_POINT}),
]
SAMPLES = 96


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


def widths(eng) -> str:
    """n, the band width of the grid's own order and that of the band order ``eng`` counts in."""
    n = eng.grid.n_sites
    return f"{n:>5} {n // eng.grid.shape[0]:>7} {eng.base_band.shape[0] - 1:>3}"


def band_diags(eng, lanes):
    """The sampled diagonals of samples 0..lanes-1, in the band order ``eng.counts`` takes."""
    return eng.sample_diags(range(lanes))[:, eng.order]


def pass_table(model):
    print(f"{'n':>5} {'grid bw':>7} {'bw':>3} {'lanes':>5} {'pass ms':>9} {'pass ms/lane':>12} "
          f"{'eig ms/lane':>11} {'crossover':>9}")
    for d1, L, M in SHAPES:
        eng = StripEnsemble(replace(model, d1=d1), L=L, M=M, master_seed=0)
        diags = band_diags(eng, max(LANES))
        grid = eng.e0 + np.geomspace(0.02, 0.7, 12)
        eig = median_seconds(
            lambda: eigenvalue_counts(eng.base_band, diags[:EIG_LANES], grid)
        ) / EIG_LANES
        for lanes in LANES:
            ldl = median_seconds(
                lambda: spectral.count_below_ensemble(eng.base_band, diags[:lanes], [eng.e0 + 0.1])
            ) / lanes
            print(f"{widths(eng)} {lanes:>5} {ldl * lanes * 1e3:>9.2f} {ldl * 1e3:>12.3f} "
                  f"{eig * 1e3:>11.3f} {eig / ldl:>9.2f}")


def sweep_table(model, constant, label, shapes, values):
    """Pass ms per lane on 96 lanes with ``spectral.<constant>`` set to each of ``values(n)``."""
    print(f"{'n':>5} {'grid bw':>7} {'bw':>3} "
          + " ".join(f"{f'{label}={b}':>8}" for b in values("n"))
          + "   (pass ms/lane, 96 lanes)")
    kept = getattr(spectral, constant)
    for L, M in shapes:
        eng = StripEnsemble(model, L=L, M=M, master_seed=0)
        diags = band_diags(eng, 96)
        row = []
        for value in values(eng.grid.n_sites):
            setattr(spectral, constant, value)
            row.append(median_seconds(
                lambda: spectral.count_below_ensemble(eng.base_band, diags, [eng.e0 + 0.1])) / 96)
        setattr(spectral, constant, kept)
        print(f"{widths(eng)} " + " ".join(f"{t * 1e3:>8.3f}" for t in row))


def grid_table():
    print(f"{'ensemble':>14} {'n':>5} {'grid bw':>7} {'bw':>3} {'lanes':>5} {'energies':>8} "
          f"{'bisect ms':>10} {'passes/lane':>11} {'eig ms':>8} {'eig/bisect':>10}")
    probes = []
    inertia = spectral.banded_inertia

    def counting(base_band, shifts, reg):
        probes.append(len(shifts))
        return inertia(base_band, shifts, reg)

    for name, geometry, potential, energies_of, lanes in GRIDS:
        model = build_model({"geometry": geometry, "potential": potential})
        eng = StripEnsemble(model, L=geometry["L"], M=geometry["M"], M_ref=geometry["M_ref"],
                            master_seed=0)
        diags = band_diags(eng, lanes)
        energies = energies_of(eng.e0)
        spectral.banded_inertia = counting
        counts = spectral.count_below_ensemble(eng.base_band, diags, energies)
        spectral.banded_inertia = inertia
        assert np.array_equal(counts, eigenvalue_counts(eng.base_band, diags, energies))
        bisect = median_seconds(
            lambda: spectral.count_below_ensemble(eng.base_band, diags, energies))
        eig = median_seconds(lambda: eigenvalue_counts(eng.base_band, diags, energies))
        print(f"{name:>14} {widths(eng)} {lanes:>5} {len(energies):>8} {bisect * 1e3:>10.1f} "
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


def sampling_table():
    print(f"{'strip':>14} {'d1':>2} {'n':>5} {'cells':>5} {'offsets':>7} {'reached':>7} "
          f"{'build ms':>8} {'held B':>7} {f'contract ms ({SAMPLES})':>17}")
    rng = np.random.default_rng(0)
    for name, geometry, potential in SAMPLING:
        model = build_model({"geometry": dict(geometry, d2=1, a=1, M_ref=geometry["M"] + 4),
                             "potential": potential})
        grid = model.strip_grid(geometry["L"], geometry["M"])
        key = (model.profile, grid.a, grid.d1, grid.d2, grid.M)
        build = median_seconds(lambda: alloy_kernel.__wrapped__(*key))
        kernel = alloy_kernel.__wrapped__(*key)
        n_cells = kernel.n_cells(grid.L)
        q = rng.uniform(model.dist.q_min, model.dist.q_max, (SAMPLES, n_cells))
        contract = median_seconds(lambda: contract_couplings(q, kernel))
        held = kernel.rows.nbytes + kernel.sites.nbytes + kernel.offsets.nbytes
        print(f"{name:>14} {grid.d1:>2} {grid.n_sites:>5} {n_cells:>5} {len(kernel.offsets):>7} "
              f"{len(kernel.sites):>7} {build * 1e3:>8.2f} {held:>7} "
              f"{contract * 1e3:>17.2f}")


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
    print()
    sampling_table()


if __name__ == "__main__":
    main()
