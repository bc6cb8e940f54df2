import numpy as np
import pytest

from striplab.errors import IncompatibleRef, ShapeMismatch
from striplab.grid import (
    Bloch,
    BoundarySpec,
    Dirichlet,
    Mezincescu,
    Neumann,
    bc_all_dirichlet,
    bc_all_neumann,
    build_grid,
)
from striplab.operator import assemble
from striplab.spectral import rayleigh_ritz_upper
from conftest import surface_field
from striplab.potential import periodic_bulk


def free_path_eigs(n, bc):
    k = np.arange(n)
    if bc == "D":
        return 2.0 - 2.0 * np.cos((k + 1) * np.pi / (n + 1))
    return 2.0 - 2.0 * np.cos(k * np.pi / n)


def test_dirichlet_2x2_matrix_and_spectrum():
    g = build_grid(1, 1, L=2, a=1, M=2)
    H = assemble(g, np.zeros(4), bc_all_dirichlet())
    dense = H.dense()
    assert np.array_equal(np.diag(dense), [4.0, 4.0, 4.0, 4.0])
    assert (dense != 0).sum() == 4 + 8  # diagonal plus 4 bonds twice
    got = np.linalg.eigvalsh(dense)
    want = np.sort(np.add.outer(free_path_eigs(2, "D"), free_path_eigs(2, "D")).ravel())
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.allclose(want, [2, 4, 4, 6])


def test_neumann_2x2_spectrum():
    g = build_grid(1, 1, L=2, a=1, M=2)
    got = np.linalg.eigvalsh(assemble(g, np.zeros(4), bc_all_neumann()).dense())
    assert np.max(np.abs(got - [0, 2, 2, 4])) <= 1e-12


def test_constant_potential_shifts_spectrum_exactly():
    g = build_grid(1, 1, L=3, a=1, M=4)
    H0 = assemble(g, np.zeros(g.n_sites), bc_all_dirichlet())
    Hc = assemble(g, np.full(g.n_sites, 0.7), bc_all_dirichlet())
    e0 = np.linalg.eigvalsh(H0.dense())
    ec = np.linalg.eigvalsh(Hc.dense())
    assert np.max(np.abs(ec - (e0 + 0.7))) <= 1e-12


def test_exact_hermiticity():
    g = build_grid(1, 1, L=3, a=2, M=4)
    rng = np.random.default_rng(0)
    v = rng.uniform(-2, 1, g.n_sites)
    for bc in (
        bc_all_dirichlet(),
        bc_all_neumann(),
        BoundarySpec(x1=Bloch((0.9,)), x2=Dirichlet()),
    ):
        H = assemble(g, v, bc)
        diff = H.matrix - H.matrix.conj().T
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_bloch_real_for_zero_and_pi():
    g = build_grid(1, 1, L=1, a=3, M=4)
    v = np.zeros(g.n_sites)
    for th in (0.0, np.pi, -np.pi):
        H = assemble(g, v, BoundarySpec(x1=Bloch((th,)), x2=Dirichlet()))
        assert not H.is_complex
    assert assemble(g, v, BoundarySpec(x1=Bloch((0.4,)), x2=Dirichlet())).is_complex


def test_bloch_conjugate_pair():
    g = build_grid(1, 1, L=1, a=4, M=6)
    rng = np.random.default_rng(1)
    v = rng.uniform(-2, 0, g.n_sites)
    Hp = assemble(g, v, BoundarySpec(x1=Bloch((0.7,)), x2=Dirichlet()))
    Hm = assemble(g, v, BoundarySpec(x1=Bloch((-0.7,)), x2=Dirichlet()))
    assert np.array_equal(Hp.matrix.toarray(), Hm.matrix.toarray().conj())
    ep = np.linalg.eigvalsh(Hp.dense())
    em = np.linalg.eigvalsh(Hm.dense())
    assert np.max(np.abs(ep - em)) <= 1e-12


def test_mezincescu_reproduces_reference_eigenpair(model, ref14):
    grid = model.strip_grid(6, 14)
    fld = periodic_bulk(grid, model.u_per())
    H = assemble(grid, fld, BoundarySpec(x1=Mezincescu(ref14), x2=Mezincescu(ref14)))
    coords = grid.coords_of(np.arange(grid.n_sites))
    psi = ref14.values_at(coords, grid)
    resid = np.linalg.norm(H.matrix @ psi - ref14.e0 * psi) / np.linalg.norm(psi)
    assert resid <= 10 * ref14.residual


def test_boundary_ordering_eigenvalue_wise(model, ref14):
    rng = np.random.default_rng(11)
    for _ in range(6):
        grid = model.strip_grid(5, 12)
        v_s = surface_field(model, grid, int(rng.integers(1 << 62)))
        levels = {}
        for tag, bcs in (
            ("N", bc_all_neumann()),
            ("chi", BoundarySpec(x1=Mezincescu(ref14), x2=Mezincescu(ref14))),
            ("D", bc_all_dirichlet()),
        ):
            levels[tag] = np.linalg.eigvalsh(assemble(grid, v_s, bcs).dense())[:3]
        assert np.all(levels["N"] <= levels["chi"] + 1e-11)
        assert np.all(levels["chi"] <= levels["D"] + 1e-11)


def test_mezincescu_incompatible_ref(model, ref14):
    grid = model.strip_grid(4, 18)  # needs M_ref >= 20 on x2 faces
    fld = periodic_bulk(grid, model.u_per())
    with pytest.raises(IncompatibleRef):
        assemble(grid, fld, BoundarySpec(x1=Dirichlet(), x2=Mezincescu(ref14)))
    grid = model.strip_grid(4, 20)  # needs M_ref >= 20 on x1 faces
    fld = periodic_bulk(grid, model.u_per())
    with pytest.raises(IncompatibleRef):
        assemble(grid, fld, BoundarySpec(x1=Mezincescu(ref14), x2=Dirichlet()))


def test_shape_mismatch():
    g = build_grid(1, 1, L=2, a=1, M=2)
    with pytest.raises(ShapeMismatch):
        assemble(g, np.zeros(5), bc_all_dirichlet())
    for bad in (np.nan, np.inf):
        with pytest.raises(ShapeMismatch, match="non-finite"):
            assemble(g, np.array([0.0, 1.0, bad, 0.0]), bc_all_dirichlet())


# The operator's quadratic form, read through its one implementation,
# spectral.rayleigh_ritz_upper (<u, H u> / <u, u>).
def test_quadratic_form_ground_and_constant():
    g = build_grid(1, 1, L=3, a=1, M=4)
    H = assemble(g, np.zeros(g.n_sites), bc_all_neumann())
    const = np.full(g.n_sites, 1.0 / np.sqrt(g.n_sites))
    assert abs(rayleigh_ritz_upper(H, const)) <= 1e-12
    evals, evecs = np.linalg.eigh(H.dense())
    v = evecs[:, 0]
    assert abs(rayleigh_ritz_upper(H, v) - evals[0]) <= 1e-12


def test_quadratic_form_dense_oracle():
    rng = np.random.default_rng(3)
    g = build_grid(1, 1, L=3, a=1, M=6)
    v = rng.uniform(-1, 1, g.n_sites)
    H = assemble(g, v, bc_all_dirichlet())
    dense = H.dense()
    for _ in range(5):
        u = rng.standard_normal(g.n_sites)
        want = (u @ dense @ u) / (u @ u)
        assert abs(rayleigh_ritz_upper(H, u) - want) <= 1e-12 * (1 + abs(want))
