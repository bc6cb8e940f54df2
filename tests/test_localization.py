import numpy as np
import pytest

from striplab.errors import AllZeroOrOne, DenseCapExceeded, InvalidParam
from striplab.grid import BoundarySpec, Dirichlet, Neumann, bc_all_dirichlet
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


def test_decay_refuses_bulk_energies(model):
    grid = model.strip_grid(4, 16)
    vec = np.ones(grid.n_sites)
    with pytest.raises(InvalidParam):
        decay_profile(grid, 0.5, vec)


def test_wegner_saturated_and_empty_windows(model, e0_default):
    # 0-width windows never capture spectrum; windows wider than the
    # spectral diameter always do; informative widths sit in between
    E = e0_default + 0.4 * abs(e0_default)
    eps = [0.0, 1e-3, 3e-3, 1e-2, 50.0]
    rep = wegner_probe(model, E, eps, L=8, M=8, n_samples=60, master_seed=1)
    assert rep.probs[0] == 0.0
    assert rep.probs[-1] == 1.0


def test_wegner_uninformative_range_raises(model, e0_default):
    E = e0_default + 0.4 * abs(e0_default)
    with pytest.raises(AllZeroOrOne):
        wegner_probe(model, E, [50.0, 60.0], L=4, M=8, n_samples=10, master_seed=1)


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
    assert np.max(np.abs(rep.moments - rep.moments[0])) <= 1e-9


def test_dynamics_free_ballistic_growth(model):
    grid = model.strip_grid(40, 10)
    H = assemble(grid, np.zeros(grid.n_sites), bc_all_dirichlet())
    coords = grid.coords_of(np.arange(grid.n_sites))
    center = 20
    sites = [int(i) for i in np.nonzero(coords[:, 0] == center)[0]]
    rep = dynamics_moment(H, (-10, 10), 2.0, np.linspace(0, 6, 13), sites)
    assert np.all(np.diff(rep.moments) > 0)
    assert rep.norm_drift <= 1e-9


def test_dynamics_dense_cap(model):
    grid = model.strip_grid(40, 10)
    H = assemble(grid, np.zeros(grid.n_sites), bc_all_dirichlet())
    with pytest.raises(DenseCapExceeded):
        dynamics_moment(H, (-10, 10), 2.0, [0.0], [0], dense_cap=100)
