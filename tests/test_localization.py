import numpy as np
import pytest

import striplab.localization as localization
from striplab.errors import DenseCapExceeded, InvalidParam
from striplab.grid import BoundarySpec, Dirichlet, Neumann, bc_all_dirichlet, build_grid
from striplab.idss import StripEnsemble
from striplab.localization import (
    decay_profile,
    dynamics_moment,
    initial_scale_probe,
    transverse_bound_rate,
    wegner_probe,
)
from striplab.operator import assemble
from striplab.potential import periodic_bulk
from striplab.spectral import lowest_k


def test_decay_separable_matches_transfer_matrix_oracle(model):
    # x1-independent potential with Neumann x1 faces: the total ground
    # energy equals the transverse bound-state energy, whose lattice decay
    # rate is arccosh(1 + |E|/2)
    grid = model.strip_grid(4, 48)
    fld = periodic_bulk(grid, model.u_per())
    H = assemble(grid, fld, BoundarySpec(x1=Neumann(), x2=Dirichlet()))
    res = lowest_k(H, 1, tol=1e-9)
    E = float(res.eigenvalues[0])
    fit = decay_profile(grid, E, res.eigenvectors[:, 0])
    oracle = transverse_bound_rate(E, model.a)
    assert abs(fit.gamma - oracle) / oracle <= 0.02
    assert fit.r_squared >= 0.99


def test_decay_default_realization(model):
    eng = StripEnsemble(model, 8, 32, bc="chi", master_seed=4)
    res = lowest_k(eng.hamiltonian(0), 1, tol=1e-9)
    fit = decay_profile(eng.grid, float(res.eigenvalues[0]), res.eigenvectors[:, 0])
    assert fit.gamma > 0
    assert fit.r_squared >= 0.95


@pytest.mark.parametrize("d2", [1, 2])
def test_decay_shells_are_x2_sup_norms(d2):
    # oracle: a layer's shell is |x2| at d2 = 1 and max(|x2_0|, |x2_1|) at d2 = 2
    grid = build_grid(2, d2, L=2, a=1, M=12)
    rng = np.random.default_rng(5)
    r_site = np.abs(grid.x2_positions()).max(axis=1)
    vec = np.exp(-r_site) * rng.uniform(0.5, 1.0, grid.n_sites)
    fit = decay_profile(grid, -1.0, vec)
    sup_x1 = vec.reshape(grid.shape).max(axis=(0, 1))
    x2 = np.abs(grid.x2_layer_coordinate(np.arange(grid.M)))
    if d2 == 1:
        r, flat = x2, sup_x1
    else:
        A, B = np.meshgrid(x2, x2, indexing="ij")
        r, flat = np.maximum(A, B).ravel(), sup_x1.ravel()
    shells = np.unique(r)
    assert np.array_equal(fit.shells, shells)
    assert np.array_equal(fit.profile, [flat[r == s].max() for s in shells])


def test_decay_refuses_bulk_energies(model):
    grid = model.strip_grid(4, 16)
    vec = np.ones(grid.n_sites)
    with pytest.raises(InvalidParam):
        decay_profile(grid, 0.5, vec)


def test_wegner_saturated_and_empty_windows(model, e0_default):
    # 0-width windows never capture spectrum; a window from below the ground
    # energy up to just under the bulk bottom always does; informative
    # widths sit in between
    E = e0_default + 0.4 * abs(e0_default)
    eps = [0.0, 1e-3, 3e-3, 1e-2, 0.99 * abs(E)]
    rep = wegner_probe(model, E, eps, L=8, M=8, n_samples=60, master_seed=1)
    assert rep.probs[0] == 0.0
    assert rep.probs[-1] == 1.0


def test_wegner_uninformative_range_has_no_slope(model, e0_default):
    # saturated windows, still below the bulk bottom, report their
    # probabilities, with a nan slope
    E = e0_default + 0.4 * abs(e0_default)
    rep = wegner_probe(model, E, [0.98 * abs(E), 0.99 * abs(E)], L=4, M=8, n_samples=10,
                       master_seed=1)
    assert np.array_equal(rep.probs, [1.0, 1.0]) and np.array_equal(rep.ses, [0.0, 0.0])
    assert rep.n_usable == 0 and np.isnan(rep.slope)


def test_probes_refuse_energies_past_bulk_bottom(model, e0_default):
    # wegner windows and initial-scale energies are counted through
    # ensemble_counts, which holds them below the bulk bottom (0 here)
    E = e0_default + 0.4 * abs(e0_default)
    with pytest.raises(InvalidParam, match="bulk bottom estimate 0"):
        wegner_probe(model, E, [1e-3, 1.01 * abs(E)], L=4, M=8, n_samples=2, master_seed=1)
    with pytest.raises(InvalidParam, match="bulk bottom estimate 0"):
        initial_scale_probe(model, [4, 6], [E, 0.0], M=8, n_samples=2, master_seed=1)


def test_wegner_monotone_and_slope(model, e0_default):
    E = e0_default + 0.4 * abs(e0_default)
    eps = np.geomspace(1e-3, 3e-2, 6)
    rep = wegner_probe(model, E, eps, L=10, M=10, n_samples=300, master_seed=17)
    assert np.all(np.diff(rep.probs) >= 0)
    assert rep.slope > 0


def test_initial_scale_below_ground_is_impossible(model, e0_default):
    rep = initial_scale_probe(model, [4, 6], [e0_default - 0.1], M=10,
                              n_samples=40, master_seed=2)
    assert np.all(rep.probs == 0.0)


def test_initial_scale_pinned_deterministic(model, e0_default):
    from striplab.instances import pinned_model

    pm = pinned_model(model)
    grid_energies = [e0_default + 0.02, e0_default + 0.3 * abs(e0_default)]
    rep = initial_scale_probe(pm, [6], grid_energies, M=10, n_samples=8, master_seed=3)
    assert set(np.unique(rep.probs)) <= {0.0, 1.0}


def test_initial_scale_monotone_in_L(model, e0_default):
    E = e0_default + 0.3 * abs(e0_default)
    rep = initial_scale_probe(model, [8, 16, 32], [E], M=12, n_samples=250, master_seed=5)
    assert rep.nondecreasing_in_L
    assert rep.probs[-1, 0] > rep.probs[0, 0]  # strictly more likely on longer strips


def test_dynamics_single_eigenvector_is_stationary(model):
    grid = model.strip_grid(6, 8)
    fld = periodic_bulk(grid, model.u_per())
    H = assemble(grid, fld, bc_all_dirichlet())
    evals = np.linalg.eigvalsh(H.dense())
    lo = float(evals[0])
    sites = list(range(grid.n_sites))
    # interval isolating the ground level: the filtered state is stationary
    rep = dynamics_moment(H, (lo - 1e-9, lo + 1e-9), 2.0, np.linspace(0, 50, 11), sites)
    assert rep.n_window == 1
    assert np.max(np.abs(rep.moments - rep.moments[0])) <= 1e-9
    # a window below the spectrum holds no eigenvalue: the run says so, and its
    # moments and drift are all 0
    rep = dynamics_moment(H, (lo - 2.0, lo - 1.0), 2.0, np.linspace(0, 50, 11), sites)
    assert rep.n_window == 0 and rep.projected_norm_sq == 0
    assert not rep.moments.any() and rep.norm_drift == 0


def test_dynamics_free_ballistic_growth(model):
    grid = model.strip_grid(40, 10)
    H = assemble(grid, np.zeros(grid.n_sites), bc_all_dirichlet())
    coords = grid.coords_of(np.arange(grid.n_sites))
    center = 20
    sites = [int(i) for i in np.nonzero(coords[:, 0] == center)[0]]
    rep = dynamics_moment(H, (-10, 10), 2.0, np.linspace(0, 6, 13), sites)
    assert rep.n_window == grid.n_sites
    assert np.all(np.diff(rep.moments) > 0)
    assert rep.norm_drift <= 1e-9


def test_dynamics_dense_cap(model, monkeypatch):
    grid = model.strip_grid(40, 10)
    H = assemble(grid, np.zeros(grid.n_sites), bc_all_dirichlet())
    monkeypatch.setattr(localization, "DENSE_CAP", 100)
    with pytest.raises(DenseCapExceeded):
        dynamics_moment(H, (-10, 10), 2.0, [0.0], [0])
