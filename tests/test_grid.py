import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from striplab.errors import CapExceeded, InvalidParam
from striplab.grid import (
    Bloch,
    BoundarySpec,
    Dirichlet,
    bc_all_dirichlet,
    build_grid,
    central_layers,
)
from striplab.operator import assemble
from striplab.spectral import lower_band

grids = st.builds(
    lambda d1, d2, L, a, M: (d1, d2, L, a, 2 * M),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 4),
)


def test_site_counts_and_spacing():
    assert build_grid(1, 1, L=2, a=1, M=2).n_sites == 4
    g = build_grid(1, 1, L=8, a=2, M=16)
    assert g.n_sites == 256
    assert g.h == 0.5
    assert build_grid(2, 1, L=4, a=1, M=8).n_sites == 128


def test_invalid_parameters():
    with pytest.raises(InvalidParam):
        build_grid(3, 1, L=2, a=1, M=4)
    with pytest.raises(InvalidParam):
        build_grid(1, 1, L=2, a=1, M=5)  # odd M
    with pytest.raises(CapExceeded):
        build_grid(2, 2, L=100, a=2, M=100)


def test_x2_centered_between_middle_layers():
    g = build_grid(1, 1, L=2, a=1, M=4)
    x2 = np.unique(g.x2_positions())
    assert np.allclose(x2, [-1.5, -0.5, 0.5, 1.5])
    assert x2.min() >= -g.M * g.h / 2
    assert x2.max() < g.M * g.h / 2
    # surface plane sits exactly between the two middle layers
    assert np.allclose(x2 + x2[::-1], 0.0)


def boundary_faces(g, site):
    """(axis, direction) of every face the site lies on."""
    return [(axis, direction) for axis in range(g.n_axes) for direction in (-1, +1)
            if site in g.face_sites(axis, direction)]


def test_neighbors_corner_and_interior():
    g = build_grid(1, 1, L=2, a=1, M=2)
    corner = int(np.ravel_multi_index((0, 0), g.shape))
    assert boundary_faces(g, corner) == [(0, -1), (1, -1)]

    g2 = build_grid(1, 1, L=4, a=1, M=4)
    inner = int(np.ravel_multi_index((2, 2), g2.shape))
    assert boundary_faces(g2, inner) == []


def test_x2_face_tagging():
    g = build_grid(1, 1, L=4, a=1, M=4)
    top = int(np.ravel_multi_index((1, 3), g.shape))
    assert boundary_faces(g, top) == [(1, 1)]


@given(grids, st.integers(0, 10_000))
def test_index_round_trip(shape, raw):
    d1, d2, L, a, M = shape
    g = build_grid(d1, d2, L=L, a=a, M=M)
    site = raw % g.n_sites
    coords = g.coords_of(site)
    assert int(np.ravel_multi_index(tuple(coords), g.shape)) == site


@given(grids)
def test_bond_parity_and_arm_budget(shape):
    d1, d2, L, a, M = shape
    g = build_grid(d1, d2, L=L, a=a, M=M)
    interior = np.zeros(g.n_sites, dtype=int)
    for axis in range(g.n_axes):
        src, dst = g.interior_bonds(axis)
        np.add.at(interior, src, 1)
        np.add.at(interior, dst, 1)
    assert interior.sum() % 2 == 0
    for site in (0, g.n_sites - 1, g.n_sites // 2):
        # every arm of a site is an interior bond or crosses a boundary face
        assert interior[site] + len(boundary_faces(g, site)) == 2 * (d1 + d2)


def test_bloch_only_on_x1():
    with pytest.raises(InvalidParam):
        BoundarySpec(x1=Dirichlet(), x2=Bloch((0.3,)))


def test_bloch_angle_bounds():
    with pytest.raises(InvalidParam):
        Bloch((4.0,))
    assert Bloch((np.pi,)).is_real
    assert Bloch((0.0, -np.pi)).is_real
    assert not Bloch((0.5,)).is_real


@pytest.mark.parametrize("d1", [1, 2])
@pytest.mark.parametrize("d2", [1, 2])
def test_central_layers(d1, d2):
    big, small = build_grid(d1, d2, L=3, a=2, M=8), build_grid(d1, d2, L=3, a=2, M=4)
    off = (big.M - small.M) // 2
    # a site field of the deeper grid, restricted to the shallow one's layers
    field = np.arange(big.n_sites, dtype=float).reshape(big.shape)
    got = central_layers(field, d2, small.M)
    assert got.shape == small.shape
    sl = (slice(None),) * d1 + (slice(off, off + small.M),) * d2
    assert np.array_equal(got, field[sl])
    # the block holds the shallow grid's x2 layers: it straddles the surface
    assert np.array_equal(np.unique(big.x2_positions()[field[sl].ravel().astype(int)]),
                          np.unique(small.x2_positions()))
    # a flat transverse profile of the deeper grid, by its central flat indices
    profile = np.arange(big.M**d2, dtype=float)
    rows = np.arange(off, off + small.M)
    sel = rows if d2 == 1 else (rows[:, None] * big.M + rows[None, :]).ravel()
    assert np.array_equal(central_layers(profile.reshape((big.M,) * d2), d2, small.M).ravel(),
                          profile[sel])


@pytest.mark.parametrize("d1", [1, 2])
@pytest.mark.parametrize("d2", [1, 2])
def test_center_sites(d1, d2):
    g = build_grid(d1, d2, L=3, a=2, M=6)
    sites = g.center_sites()
    assert len(sites) == 2**d2
    assert np.all(np.diff(sites) > 0)
    coords = g.coords_of(sites)
    # x1 index (a*L)//2 = 3 on every x1 axis; the layers 2 and 3 straddle x2 = 0
    assert np.all(coords[:, :d1] == 3)
    assert {tuple(c - 2) for c in coords[:, d1:]} == set(np.ndindex((2,) * d2))
    assert np.allclose(np.abs(g.x2_positions()[sites]), g.h / 2)


@pytest.mark.parametrize("d1", [1, 2])
@pytest.mark.parametrize("d2", [1, 2])
def test_band_order(d1, d2):
    # (L, a, M): x1 shorter, tied (aL = M, also at a = 2) and longer than the depth
    for L, a, M in ((2, 1, 4), (4, 1, 4), (2, 2, 4), (5, 1, 2), (3, 2, 4)):
        g = build_grid(d1, d2, L=L, a=a, M=M)
        order = g.band_order()
        assert np.array_equal(np.sort(order), np.arange(g.n_sites))
        assert np.array_equal(order, np.arange(g.n_sites)) == (a * L >= M)
        # the assembled strip, its sites in band order, is n / (longest axis) wide
        mat = assemble(g, np.zeros(g.n_sites), bc_all_dirichlet()).matrix
        assert lower_band(mat[order][:, order]).shape == (g.n_sites // max(g.shape) + 1, g.n_sites)
        # the longest axis is outermost: the slowest index of the band order
        first = g.coords_of(order)[:, int(np.argmax(g.shape))]
        assert np.array_equal(first, np.arange(g.n_sites) // (g.n_sites // max(g.shape)))
