"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and budget is pinned here; configurations and seeds are
frozen so the statistical runs are reproducible bit for bit.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_banded_symmetric, random_grid_hamiltonian, surface_field
from striplab.floquet import (
    averaged_reduction,
    band_curve,
    gap_certificate,
    ground_state_cell,
)
from striplab.grid import (
    BoundarySpec,
    Mezincescu,
    bc_all_dirichlet,
    bc_all_neumann,
    build_grid,
)
from striplab.idss import (
    StripEnsemble,
    bc_for_tag,
    bracketing_check,
    classical_campaign,
    lifshits_fit,
    quantum_campaign,
    sandwich_check,
)
from striplab.instances import classical_model, default_model, random_periodic_cell
from striplab.localization import (
    decay_profile,
    dynamics_moment,
    transverse_bound_rate,
    wegner_probe,
)
from striplab.operator import assemble
from striplab.potential import (
    TwoPointCouplings,
    periodic_bulk,
)
from striplab.spectral import (
    count_below,
    lowest_k,
    rayleigh_ritz_upper,
    temple_lower_bound,
    variational_count_bound,
)


def _report(num, name, ok, detail="", budget_s=None, elapsed=None):
    line = f"[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if elapsed is not None:
        line += f"  [{elapsed:.1f}s]"
    print(line)
    assert ok, f"criterion {num} {name} failed: {detail}"
    if budget_s is not None and elapsed is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


# -- shared campaign results (criteria 8 and 9) ------------------------------------

QUANTUM_SEED = 20240808
CLASSICAL_SEED = 3141


@pytest.fixture(scope="module")
def tail_model():
    return replace(default_model(), dist=TwoPointCouplings(-2.0, -1.0, p=0.5))


@pytest.fixture(scope="module")
def quantum_result(tail_model):
    t0 = time.time()
    deltas = np.geomspace(0.05, 0.7, 12)
    camp = quantum_campaign(
        tail_model, deltas, c_factor=8 * np.sqrt(0.7), M=24, n_samples=2000,
        master_seed=QUANTUM_SEED, L_bounds=(8, 48), M_ref=28,
    )
    fit = lifshits_fit(camp, camp.e0, (camp.e0, camp.e0 + 0.7 * 1.01))
    return camp, fit, time.time() - t0


def test_criterion_01_exact_identities(model, ref14):
    t0 = time.time()
    checks = []
    # averaged transverse identity on the default instance
    avg = averaged_reduction(ref14, model.u_per())
    checks.append(avg.identity_residual <= 1e-10 * (1 + abs(ref14.e0)))
    # ... and on 20 random periodic cells
    worst = avg.identity_residual
    for seed in range(20):
        a = 2 + seed % 3
        M = 8 + 2 * (seed % 3)
        fn = random_periodic_cell(seed, d1=1)
        ref = ground_state_cell(build_grid(1, 1, L=1, a=a, M=M), fn, M + 4)
        res = averaged_reduction(ref, fn).identity_residual
        worst = max(worst, res / (1 + abs(ref.e0)))
        checks.append(res <= 1e-10 * (1 + abs(ref.e0)))
    # Mezincescu ground-energy invariance, full variant
    worst_e = 0.0
    for L in (4, 8, 16):
        grid = model.strip_grid(L, 14)
        fld = periodic_bulk(grid, model.u_per())
        H = assemble(grid, fld, BoundarySpec(x1=Mezincescu(ref14), x2=Mezincescu(ref14)))
        e0 = float(lowest_k(H, 1, tol=1e-9).eigenvalues[0])
        worst_e = max(worst_e, abs(e0 - ref14.e0))
        checks.append(abs(e0 - ref14.e0) <= 10 * ref14.residual)
    _report(1, "exact identities", all(checks),
            f"identity<= {worst:.1e}, invariance<= {worst_e:.1e}",
            budget_s=60, elapsed=time.time() - t0)


def test_criterion_02_closed_form_spectra(model):
    t0 = time.time()
    checks = []
    g = build_grid(1, 1, L=2, a=1, M=2)
    eD = np.linalg.eigvalsh(assemble(g, np.zeros(4), bc_all_dirichlet()).dense())
    eN = np.linalg.eigvalsh(assemble(g, np.zeros(4), bc_all_neumann()).dense())
    checks.append(np.max(np.abs(eD - [2, 4, 4, 6])) <= 1e-12)
    checks.append(np.max(np.abs(eN - [0, 2, 2, 4])) <= 1e-12)
    # separable gap: exact closed form at L = 8, continuum limit at L = 64
    ref = ground_state_cell(model.cell_grid(16), model.u_per(), 20)
    g8 = gap_certificate(model.u_per(), [8], ref, M=16)[0].gap
    checks.append(abs(g8 - 2 * (1 - np.cos(np.pi / 8))) <= 1e-12)
    g64 = gap_certificate(model.u_per(), [64], ref, M=16)[0].gap
    rel = abs(g64 * 64**2 - np.pi**2) / np.pi**2
    checks.append(rel <= 0.05)
    _report(2, "closed-form spectra", all(checks),
            f"g(8)={g8:.12f}, g(64)*L^2/pi^2 off by {rel:.3%}",
            budget_s=60, elapsed=time.time() - t0)


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(0xACCE55)
    # counting vs dense, exactly, on 200 instances with n <= 400
    count_ok = 0
    for trial in range(200):
        if trial % 5 < 3:
            Hs, A = random_banded_symmetric(rng, n=int(rng.integers(20, 400)),
                                            bw=int(rng.integers(1, 12)))
        else:
            H, _ = random_grid_hamiltonian(rng)
            Hs, A = H.matrix, H.dense()
        E = float(rng.uniform(-3, 7))
        scale = np.abs(A).sum(axis=1).max() + abs(E) + 1.0
        want = int(np.sum(np.linalg.eigvalsh(A) <= E + 1e-12 * scale))
        count_ok += count_below(Hs, E) == want
    # lowest_k vs dense within 1e-9 on 50 instances (10 forced iterative)
    eig_ok = 0
    for trial in range(50):
        H, _ = random_grid_hamiltonian(rng, L=int(rng.integers(4, 9)), M=int(2 * rng.integers(3, 7)))
        dense = np.linalg.eigvalsh(H.dense())
        k = int(rng.integers(1, 5))
        cap = 1 if trial < 10 else 2000
        res = lowest_k(H, k, tol=1e-8 if cap == 1 else 1e-9, dense_cap=cap)
        eig_ok += np.max(np.abs(res.eigenvalues - dense[:k])) <= 1e-9
    # counting certificates never contradicted over 1000 randomized trials
    cert_trials, cert_ok = 0, 0
    while cert_trials < 1000:
        n = int(rng.integers(8, 40))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        evals, evecs = np.linalg.eigh(A)
        k = int(rng.integers(1, 5))
        noise = rng.uniform(0.0, 0.25)
        phis = [evecs[:, j] + noise * rng.standard_normal(n) / np.sqrt(n) for j in range(k)]
        Phi = np.column_stack(phis)
        G, B = Phi.T @ Phi, Phi.T @ A @ Phi
        eps1 = float(np.abs(G - np.eye(k)).max())
        if eps1 >= 0.9 or np.linalg.eigvalsh(G)[0] <= 1e-12:
            continue
        cert = variational_count_bound(
            lambda v: A @ v, phis, float(np.max(np.diag(B))), eps1,
            float(np.abs(B - np.diag(np.diag(B))).max()),
        )
        cert_trials += 1
        have = int(np.sum(evals <= cert.threshold + 1e-10 * (1 + abs(cert.threshold))))
        cert_ok += have >= cert.n
    ok = count_ok == 200 and eig_ok == 50 and cert_ok == 1000
    _report(3, "oracle equivalence", ok,
            f"counts {count_ok}/200, eigs {eig_ok}/50, certificates {cert_ok}/1000",
            budget_s=300, elapsed=time.time() - t0)


def test_criterion_04_ordering_invariants(model, ref14):
    t0 = time.time()
    rng = np.random.default_rng(0x09D)
    order_ok = 0
    for _ in range(50):
        grid = model.strip_grid(int(rng.integers(4, 8)), 12)
        fld = surface_field(model, grid, int(rng.integers(1 << 62)))
        lv = {}
        for tag, bcs in (
            ("N", bc_all_neumann()),
            ("chi", BoundarySpec(x1=Mezincescu(ref14), x2=Mezincescu(ref14))),
            ("D", bc_all_dirichlet()),
        ):
            lv[tag] = np.linalg.eigvalsh(assemble(grid, fld, bcs).dense())[:3]
        order_ok += bool(np.all(lv["N"] <= lv["chi"] + 1e-11) and np.all(lv["chi"] <= lv["D"] + 1e-11))
    # Temple <= dense E0 <= Rayleigh-Ritz on 100 instances
    tr_ok, tried = 0, 0
    while tried < 100:
        Hs, A = random_banded_symmetric(rng, n=int(rng.integers(15, 80)), bw=int(rng.integers(1, 6)))
        evals, evecs = np.linalg.eigh(A)
        u = evecs[:, 0] + 0.08 * rng.standard_normal(A.shape[0])
        u /= np.linalg.norm(u)
        if u @ A @ u >= evals[1]:  # Temple precondition needs mean below E1
            continue
        tried += 1
        lower = temple_lower_bound(Hs, u, float(evals[1]))
        upper = rayleigh_ritz_upper(Hs, u)
        tr_ok += lower <= evals[0] + 1e-10 and evals[0] <= upper + 1e-12
    # per-realization bracketing on 50 realizations
    energies = np.linspace(ref14.e0 + 0.05, -0.06, 9)
    br_ok = 0
    for seed in range(50):
        bracketing_check(model, L=8, M_values=[10, 20], energies=energies, seed=seed)
        br_ok += 1  # bracketing_check raises on any violation
    ok = order_ok == 50 and tr_ok == 100 and br_ok == 50
    _report(4, "ordering invariants", ok,
            f"N<=chi<=D {order_ok}/50, temple/rr {tr_ok}/100, bracketing {br_ok}/50",
            budget_s=300, elapsed=time.time() - t0)


def test_criterion_05_parabolicity_sandwich(model):
    t0 = time.time()
    worst = np.inf
    ok = True
    cells = [(model.cell_grid(14), model.u_per())]
    for seed in range(100, 110):
        a = 2 + seed % 3
        cells.append((build_grid(1, 1, L=1, a=a, M=8 + 2 * (seed % 2)), random_periodic_cell(seed)))
    for cell, fn in cells:
        curve = band_curve(cell, fn)
        tol = 1e-9
        lo = float(np.min(curve.lower_margin))
        hi = float(np.min(curve.upper_margin_kdisc))
        worst = min(worst, lo, hi)
        ok &= lo >= -tol and hi >= -tol
    _report(5, "parabolicity sandwich", ok, f"worst margin {worst:.2e} >= -1e-9",
            budget_s=300, elapsed=time.time() - t0)


def test_criterion_06_truncation_stabilization(model, e0_default):
    t0 = time.time()
    energies = np.linspace(e0_default + 0.05, -0.05, 12)
    stab_ok = 0
    for seed in range(20):
        rep = bracketing_check(model, L=8, M_values=[16, 32], energies=energies, seed=seed)
        stab_ok += np.array_equal(rep.counts_dd[16], rep.counts_dd[32]) and np.array_equal(
            rep.counts_nd[16], rep.counts_nd[32]
        )
    # paper-faithful variant: x1 Mezincescu, x2 Dirichlet truncation error
    deep = ground_state_cell(model.cell_grid(40), model.u_per(), 44)
    errs = []
    for M in (4, 8, 16):
        grid = model.strip_grid(8, M)
        fld = periodic_bulk(grid, model.u_per())
        H = assemble(grid, fld, bc_for_tag("chi_x1", deep))
        errs.append(abs(float(lowest_k(H, 1, tol=1e-9).eigenvalues[0]) - deep.e0))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = stab_ok == 20 and all(r >= 3 for r in ratios)
    _report(6, "truncation stabilization", ok,
            f"stable {stab_ok}/20, error ratios {ratios[0]:.1f}, {ratios[1]:.1f}",
            budget_s=300, elapsed=time.time() - t0)


def test_criterion_07_idss_sandwich(model, e0_default):
    t0 = time.time()
    energies = np.linspace(e0_default + 0.07, -0.07, 12)
    rep = sandwich_check(model, L=16, M=16, energies=energies, n_samples=500,
                         master_seed=2718)
    _report(7, "IDSS sandwich within 3 SE", rep.ok,
            f"{len(energies)} energies, 500 samples", budget_s=600,
            elapsed=time.time() - t0)


def test_criterion_08_lifshits_quantum(quantum_result):
    camp, fit, elapsed = quantum_result
    decade = np.log10(camp.deltas.max() / camp.deltas.min())
    ok = (
        -0.8 <= fit.slope <= -0.3
        and fit.r_squared >= 0.9
        and decade >= 1.0
        and bool(np.all((camp.means > 0) & (camp.means < 1)))
        and bool(np.all((camp.L_values >= 8) & (camp.L_values <= 48)))
    )
    _report(8, "Lifshits quantum exponent", ok,
            f"slope={fit.slope:.4f} in [-0.8,-0.3], R2={fit.r_squared:.4f}, "
            f"window {decade:.2f} decades", budget_s=1800, elapsed=elapsed)


def test_criterion_09_lifshits_classical_ordering(quantum_result, tail_model):
    t0 = time.time()
    _, qfit, _ = quantum_result
    mc = replace(classical_model(), dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    deltas = np.geomspace(0.9, 3.0, 10)
    camp = classical_campaign(mc, deltas, L=16, M=24, n_samples=2400,
                              master_seed=CLASSICAL_SEED, M_ref=28)
    fit = lifshits_fit(camp, camp.e0, (camp.e0, camp.e0 + 3.0 * 1.01))
    ok = fit.slope <= qfit.slope - 0.5 and fit.n_points >= 5
    _report(9, "Lifshits classical ordering", ok,
            f"classical {fit.slope:.4f} <= quantum {qfit.slope:.4f} - 0.5",
            budget_s=1800, elapsed=time.time() - t0)


def test_criterion_10_decay_fits(model):
    t0 = time.time()
    # separable oracle match
    from striplab.grid import Dirichlet, Neumann

    grid = model.strip_grid(4, 48)
    fld = periodic_bulk(grid, model.u_per())
    H = assemble(grid, fld, BoundarySpec(x1=Neumann(), x2=Dirichlet()))
    res = lowest_k(H, 1, tol=1e-9)
    E = float(res.eigenvalues[0])
    fit = decay_profile(grid, E, res.eigenvectors[:, 0])
    oracle = transverse_bound_rate(E, model.a)
    rel = abs(fit.gamma - oracle) / oracle
    # disordered ground state
    eng = StripEnsemble(model, 8, 32, bc="chi", master_seed=4)
    fld2 = eng.sample_diag(0)
    H2 = assemble(eng.grid, fld2, bc_for_tag("chi", eng.ref))
    res2 = lowest_k(H2, 1, tol=1e-9)
    fit2 = decay_profile(eng.grid, float(res2.eigenvalues[0]), res2.eigenvectors[:, 0])
    ok = rel <= 0.02 and fit2.gamma > 0 and fit2.r_squared >= 0.95
    _report(10, "eigenfunction decay fits", ok,
            f"separable off by {rel:.3%}, disordered gamma={fit2.gamma:.3f} "
            f"R2={fit2.r_squared:.3f}", budget_s=120, elapsed=time.time() - t0)


def test_criterion_11_wegner_probe(model, e0_default):
    t0 = time.time()
    E = e0_default + 0.4 * abs(e0_default)
    eps = np.geomspace(3e-4, 3e-4 * 10**1.5, 9)
    rep = wegner_probe(model, E, eps, L=16, M=16, n_samples=2000, master_seed=17)
    ok = rep.slope >= 0.8 and rep.n_usable >= 5
    _report(11, "Wegner window probe", ok,
            f"log-log slope {rep.slope:.3f} >= 0.8 over 1.5 decades",
            budget_s=600, elapsed=time.time() - t0)


def test_criterion_12_dynamics_contrast(model):
    t0 = time.time()
    L, M = 64, 24
    eng = StripEnsemble(model, L, M, bc="D", master_seed=5)
    grid = eng.grid
    coords = grid.coords_of(np.arange(grid.n_sites))
    sites = [int(i) for i in np.nonzero(
        (coords[:, 0] == L // 2) & np.isin(coords[:, 1], [M // 2 - 1, M // 2]))[0]]
    H_free = assemble(grid, np.zeros(grid.n_sites), bc_all_dirichlet())
    free = dynamics_moment(H_free, (-10.0, 10.0), 2.0, np.linspace(0, 8, 17), sites)
    fld = eng.sample_diag(0)
    H_dis = assemble(grid, fld, bc_all_dirichlet())
    window = (eng.e0, eng.e0 + 0.3 * abs(eng.e0))
    early = dynamics_moment(H_dis, window, 2.0, np.linspace(0, 10, 21), sites)
    longr = dynamics_moment(H_dis, window, 2.0, np.linspace(0, 1000, 101), sites)
    ratio = longr.sup_moment / max(early.sup_moment, 1e-300)
    ok = bool(np.all(np.diff(free.moments) > 0)) and ratio <= 10.0
    _report(12, "dynamics contrast", ok,
            f"free strictly ballistic, disordered sup ratio {ratio:.2f} <= 10",
            budget_s=300, elapsed=time.time() - t0)
