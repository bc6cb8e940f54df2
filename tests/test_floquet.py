import numpy as np
import pytest

from striplab.errors import IncompatibleRef, InvalidParam
from striplab.floquet import (
    averaged_reduction,
    band_curve,
    default_theta_grid,
    gap_certificate,
    ground_state_cell,
    harnack_constants,
    k_disc,
    neumann_x1_gap,
    reduced_operator,
    transverse_operator,
)
from striplab.grid import build_grid, central_layers
from striplab.instances import random_periodic_cell
from striplab.spectral import lowest_k


def zero_cell(x1, x2):
    return np.zeros(len(x1))


def test_reduced_operator_free_band():
    cell = build_grid(1, 1, L=1, a=1, M=4)
    base = lowest_k(reduced_operator(cell, zero_cell, [0.0]), 1).eigenvalues[0]
    for th in (0.3, 1.2, np.pi):
        e = lowest_k(reduced_operator(cell, zero_cell, [th]), 1).eigenvalues[0]
        assert abs((e - base) - 2 * (1 - np.cos(th))) <= 1e-12


def test_reduced_operator_theta_symmetry():
    cell = build_grid(1, 1, L=1, a=3, M=6)
    fn = random_periodic_cell(3)
    hp = reduced_operator(cell, fn, [0.9])
    hm = reduced_operator(cell, fn, [-0.9])
    ep = np.linalg.eigvalsh(hp.dense())
    em = np.linalg.eigvalsh(hm.dense())
    assert np.max(np.abs(ep - em)) <= 1e-12
    h0 = reduced_operator(cell, fn, [0.0])
    assert not h0.is_complex


def test_ground_state_cell_free():
    cell = build_grid(1, 1, L=1, a=1, M=8)
    ref = ground_state_cell(cell, zero_cell, 12)
    want = 2 * (1 - np.cos(np.pi / 13))
    assert abs(ref.e0 - want) <= 1e-12
    assert np.all(ref.psi0 > 0)


def test_ground_state_cell_constant_shift():
    cell = build_grid(1, 1, L=1, a=1, M=8)
    ref0 = ground_state_cell(cell, zero_cell, 12)
    refc = ground_state_cell(cell, lambda x1, x2: np.full(len(x1), 0.4), 12)
    assert abs(refc.e0 - ref0.e0 - 0.4) <= 1e-12
    assert np.max(np.abs(refc.psi0 - ref0.psi0)) <= 1e-10


def test_ground_state_cell_s4(model):
    ref = ground_state_cell(model.cell_grid(16), model.u_per(), 20)
    assert ref.e0 < 0  # the surface floor binds a negative-energy state


def test_ground_state_cell_depth_guard(model):
    with pytest.raises(InvalidParam):
        ground_state_cell(model.cell_grid(16), model.u_per(), 16)


def test_kdisc_below_theta_squared():
    for a in (1, 2, 3):
        for th in np.linspace(-np.pi, np.pi, 41):
            assert k_disc([th], a) <= th * th + 1e-15


def test_band_separable_exact(model):
    cell = model.cell_grid(12)  # a = 1: any cell potential is x1-independent
    curve = band_curve(cell, model.u_per())
    delta = curve.values - curve.e0
    assert np.max(np.abs(delta - curve.kdisc)) <= 1e-10
    assert curve.c1 == curve.c2 == 1.0


def test_band_minimum_and_symmetry(model):
    fn = random_periodic_cell(17, d1=1)
    cell = build_grid(1, 1, L=1, a=3, M=8)
    curve = band_curve(cell, fn)
    i0 = int(np.argmin(curve.values))
    assert abs(curve.values[i0] - curve.e0) <= 1e-9 * (1 + abs(curve.e0))
    # symmetric grid: values at theta and -theta agree
    n = len(curve.values)
    assert np.max(np.abs(curve.values - curve.values[::-1])) <= 1e-9


def test_band_sandwich_random_cells():
    for seed in (21, 22, 23):
        a = 2 + seed % 3
        cell = build_grid(1, 1, L=1, a=a, M=8)
        curve = band_curve(cell, random_periodic_cell(seed))
        tol = 1e-9 * (1 + abs(curve.e0))
        assert np.all(curve.upper_margin_kdisc >= -tol)
        assert np.all(curve.upper_margin_theta_sq >= -tol)
        assert np.all(curve.lower_margin >= -tol)


def test_band_requires_zero_in_grid(model):
    cell = model.cell_grid(8)
    with pytest.raises(InvalidParam):
        band_curve(cell, model.u_per(), thetas=np.array([[0.3], [0.5]]))


def test_averaged_reduction_x1_independent(model, ref14):
    avg = averaged_reduction(ref14, model.u_per())
    grid = ref14.grid
    # a = 1: psibar equals psi0 itself and ubar the cell potential profile
    assert np.array_equal(avg.psibar, ref14.psi0)
    assert avg.identity_residual <= 1e-10 * (1 + abs(ref14.e0))
    c1, c2 = harnack_constants(grid, ref14.psi0)
    assert c1 == c2 == 1.0


def test_averaged_reduction_random_cell():
    fn = random_periodic_cell(5)
    cell = build_grid(1, 1, L=1, a=4, M=8)
    ref = ground_state_cell(cell, fn, 12)
    avg = averaged_reduction(ref, fn)
    assert avg.identity_residual <= 1e-10 * (1 + abs(ref.e0))
    c1, c2 = harnack_constants(ref.grid, ref.psi0)
    assert 0 < c1 <= c2
    # the two-sided bound holds sitewise by construction
    psi = ref.psi0.reshape(ref.grid.shape)
    pb = avg.psibar
    assert np.all(c1 * pb <= psi + 1e-15)
    assert np.all(psi <= c2 * pb + 1e-15)


def dirichlet_transverse(ubar, d2, a, M):
    """-Delta_{x2} + ubar on (M,)^d2 sites with Dirichlet faces, written out."""
    h2i = float(a * a)
    n = M**d2
    idx = np.arange(n).reshape((M,) * d2)
    A = np.zeros((n, n))
    for axis in range(d2):
        view = np.moveaxis(idx, axis, 0)
        A[view[:-1].ravel(), view[1:].ravel()] = -h2i
        A[view[1:].ravel(), view[:-1].ravel()] = -h2i
    A[np.arange(n), np.arange(n)] = ubar + 2 * d2 * h2i
    return A


@pytest.mark.parametrize("d2, a", [(1, 1), (1, 3), (2, 1), (2, 2)])
def test_transverse_operator_ghosts(d2, a):
    # at the reference depth every ghost lies beyond the reference, so the
    # faces are Dirichlet; inside it the centred psibar is an eigenvector
    fn = random_periodic_cell(4)
    M_ref = 10
    ref = ground_state_cell(build_grid(1, d2, L=1, a=a, M=M_ref - 4), fn, M_ref)
    avg = averaged_reduction(ref, fn)
    assert np.array_equal(transverse_operator(avg.ubar, avg.psibar, d2, a, M_ref),
                          dirichlet_transverse(avg.ubar, d2, a, M_ref))
    for M in (M_ref - 4, M_ref - 2):
        T = transverse_operator(avg.ubar, avg.psibar, d2, a, M)
        pb = central_layers(avg.psibar.reshape((M_ref,) * d2), d2, M).ravel()
        assert np.abs(T @ pb - ref.e0 * pb).max() <= 10 * ref.residual


def test_harnack_stabilizes_under_deepening():
    fn = random_periodic_cell(9)
    vals = []
    for M_ref in (12, 24):
        cell = build_grid(1, 1, L=1, a=3, M=8)
        ref = ground_state_cell(cell, fn, M_ref)
        avg = averaged_reduction(ref, fn)
        # compare ratios on the shared central block
        off = (M_ref - 8) // 2
        psi = ref.psi0.reshape(3, M_ref)[:, off : off + 8]
        pb = psi.sum(axis=0)
        ratio = psi / pb
        vals.append((ratio.min(), ratio.max()))
    (c1a, c2a), (c1b, c2b) = vals
    assert abs(c1a - c1b) / c1b <= 0.01
    assert abs(c2a - c2b) / c2b <= 0.01


def test_gap_certificate_separable(model, ref14):
    reps = gap_certificate(model.u_per(), [8], ref14, M=12)
    r = reps[0]
    assert abs(r.gap - 2 * (1 - np.cos(np.pi / 8))) <= 1e-12
    assert r.margin >= -1e-12
    assert r.e0_error <= 10 * ref14.residual


@pytest.mark.parametrize("M", [18, 20])
def test_gap_certificate_shallow_reference(model, ref14, M):
    # M_ref = 18 lacks the chi ghosts of depth 18 and the whole depth-20 block;
    # both name the reference, not a numpy index
    with pytest.raises(IncompatibleRef, match="M_ref=18"):
        gap_certificate(model.u_per(), [4], ref14, M=M)


def test_gap_certificate_continuum_limit(model):
    ref = ground_state_cell(model.cell_grid(16), model.u_per(), 20)
    r = gap_certificate(model.u_per(), [64], ref, M=16)[0]
    assert abs(r.gap * 64**2 - np.pi**2) / np.pi**2 <= 0.05


def test_gap_certificate_random_cell():
    fn = random_periodic_cell(31)
    cell = build_grid(1, 1, L=1, a=3, M=10)
    ref = ground_state_cell(cell, fn, 14)
    for r in gap_certificate(fn, [4, 8], ref, M=10):
        assert r.margin >= -1e-9
        assert r.e0_error <= 10 * ref.residual


def test_neumann_x1_gap_formula():
    assert abs(neumann_x1_gap(1, 8) - 2 * (1 - np.cos(np.pi / 8))) <= 1e-15
    assert abs(neumann_x1_gap(2, 8) - 8 * (1 - np.cos(np.pi / 16))) <= 1e-15


def test_default_theta_grid_contains_endpoints():
    th = default_theta_grid(1, 33)
    assert th.shape == (33, 1)
    assert 0.0 in th
    assert np.pi in th and -np.pi in th


@pytest.mark.parametrize("d1", [1, 2])
def test_default_theta_grid_is_the_product_grid(d1):
    # oracle: the d1 = 1 column and the d1 = 2 meshgrid pairs, written out
    axis = np.linspace(-np.pi, np.pi, 9)
    if d1 == 1:
        want = axis[:, None]
    else:
        A, B = np.meshgrid(axis, axis, indexing="ij")
        want = np.stack([A.ravel(), B.ravel()], axis=-1)
    assert np.array_equal(default_theta_grid(d1, 8), want)  # 8 rounds up to 9 points
