import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from striplab.errors import InvalidParam, ShapeMismatch, TailTooLarge
from striplab.grid import build_grid
from striplab.instances import default_model
from striplab.potential import (
    CompactProfile,
    IidUniformBulk,
    NoBulk,
    PowerLawProfile,
    TwoPointCouplings,
    UniformCouplings,
    estimate_bulk_bottom,
    f_weight_matrix,
    periodic_bulk,
    sample_bulk,
    sample_surface,
    surface_cell_potential,
    surface_floor,
)


def test_periodic_bulk_zero_and_constant():
    g = build_grid(1, 1, L=4, a=2, M=6)
    zero = periodic_bulk(g, lambda x1, x2: np.zeros(len(x1)))
    assert np.all(zero.values == 0)
    const = periodic_bulk(g, lambda x1, x2: np.full(len(x1), 2.5))
    assert np.all(const.values == 2.5)


def test_periodic_bulk_cell_shift_exact():
    # shifting by one cell reproduces the field exactly
    g = build_grid(1, 1, L=4, a=3, M=4)
    fld = periodic_bulk(g, lambda x1, x2: np.cos(2 * np.pi * x1[:, 0]) + 0.3 * x2[:, 0])
    arr = fld.values.reshape(g.shape)
    assert np.array_equal(arr[: 3 * 3], arr[3:])


def test_periodic_bulk_shape_mismatch():
    g = build_grid(1, 1, L=2, a=1, M=4)
    with pytest.raises(ShapeMismatch):
        periodic_bulk(g, lambda x1, x2: np.zeros(3))


def test_surface_floor_compact_columns():
    m = default_model()
    g = m.strip_grid(5, 6)
    fld = surface_floor(g, m.profile, -2.0)
    arr = fld.values.reshape(g.shape)
    x2 = (np.arange(6) - 3 + 0.5) * 1.0
    in_box = (x2 >= -1.0) & (x2 < 1.0)
    for i in range(5):
        assert np.array_equal(arr[i][in_box], [-2.0, -2.0])
        assert np.all(arr[i][~in_box] == 0.0)


def test_surface_floor_zero_coupling():
    m = default_model()
    g = m.strip_grid(4, 4)
    assert np.all(surface_floor(g, m.profile, 0.0).values == 0.0)


def test_power_law_doubled_radius_oracle():
    g = build_grid(1, 1, L=4, a=1, M=4)
    base = PowerLawProfile(alpha=2.5, truncation_radius=64, x2_box=(-1.0, 1.0))
    fine = PowerLawProfile(alpha=2.5, truncation_radius=128, x2_box=(-1.0, 1.0))
    tol = 5e-3  # the recorded tail bound for R = 64 at alpha = 2.5
    v1 = surface_floor(g, base, -2.0, tol=tol).values
    v2 = surface_floor(g, fine, -2.0, tol=tol).values
    mask = v1 != 0
    rel = np.max(np.abs(v1[mask] - v2[mask]) / np.abs(v1[mask]))
    assert rel <= tol


def test_power_law_tail_too_large():
    g = build_grid(1, 1, L=4, a=1, M=4)
    prof = PowerLawProfile(alpha=1.5, truncation_radius=16)
    with pytest.raises(TailTooLarge):
        surface_floor(g, prof, -2.0, tol=1e-8)


def test_power_law_dimension_check():
    prof = PowerLawProfile(alpha=1.5, truncation_radius=16)
    with pytest.raises(InvalidParam):
        prof.validate_for_dimension(2)  # needs alpha > d1


def test_pinned_sampling_matches_floor_bitwise():
    m = default_model()
    g = m.strip_grid(6, 8)
    pinned = TwoPointCouplings(-2.0, -1.0, p=1.0)
    _, fld = sample_surface(g, m.profile, pinned, seed=99)
    floor = surface_floor(g, m.profile, -2.0)
    assert np.array_equal(fld.v_s, floor.v_s)


def test_sampling_seed_determinism():
    m = default_model()
    g = m.strip_grid(6, 8)
    q1, f1 = sample_surface(g, m.profile, m.dist, seed=1234)
    q2, f2 = sample_surface(g, m.profile, m.dist, seed=1234)
    assert np.array_equal(q1, q2)
    assert np.array_equal(f1.values, f2.values)
    q3, _ = sample_surface(g, m.profile, m.dist, seed=1235)
    assert not np.array_equal(q1, q3)


def test_coupling_mean_law_of_large_numbers():
    dist = UniformCouplings(-2.0, -1.0)
    rng = np.random.default_rng(8)
    vals = dist.sample(rng, 10_000)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - (-1.5)) <= 3 * se
    assert vals.min() >= -2.0 and vals.max() <= -1.0


def test_bulk_sampling():
    g = build_grid(1, 1, L=10, a=1, M=10)
    zero = sample_bulk(g, NoBulk(), seed=4)
    assert np.all(zero.values == 0)
    fld = sample_bulk(g, IidUniformBulk(1.0), seed=4)
    assert np.all((fld.values >= 0) & (fld.values <= 1.0))
    big = build_grid(1, 1, L=100, a=1, M=100)
    vals = sample_bulk(big, IidUniformBulk(1.0), seed=4).values
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.5) <= 3 * se
    assert np.array_equal(vals, sample_bulk(big, IidUniformBulk(1.0), seed=4).values)


def test_distribution_validation():
    with pytest.raises(InvalidParam):
        UniformCouplings(-1.0, -2.0)
    with pytest.raises(InvalidParam):
        UniformCouplings(-2.0, 0.0)
    with pytest.raises(InvalidParam):
        TwoPointCouplings(-2.0, -1.0, p=0.0)


@given(st.integers(0, 2**32), st.integers(2, 5), st.integers(2, 5))
def test_pointwise_ordering_invariants(seed, L, Mh):
    """U_s <= V_s <= 0 and V >= U_b + U_s at every site."""
    m = default_model()
    g = m.strip_grid(L, 2 * Mh)
    _, fld = sample_surface(g, m.profile, m.dist, seed=seed)
    floor = surface_floor(g, m.profile, m.dist.q_min)
    assert np.all(floor.values <= fld.v_s)
    assert np.all(fld.v_s <= 0)
    v_b = sample_bulk(g, IidUniformBulk(0.7), seed=seed).v_b
    total = fld.v_s + v_b
    assert np.all(total >= floor.values)


def test_cell_potential_matches_strip_floor():
    """Tiling the cell floor reproduces the strip floor exactly."""
    m = default_model()
    for a in (1, 2):
        g = build_grid(1, 1, L=5, a=a, M=6)
        floor = surface_floor(g, m.profile, -2.0)
        fn = surface_cell_potential(m.profile, -2.0)
        tiled = periodic_bulk(g, fn)
        assert np.array_equal(tiled.values, floor.values)


def test_field_decomposition_resums_bitwise():
    m = default_model()
    g = m.strip_grid(4, 6)
    _, fld = sample_surface(g, m.profile, m.dist, seed=5)
    assert np.array_equal(fld.values, (fld.u_b + fld.v_b) + fld.v_s)


def test_window_radius_shapes():
    m = default_model()
    g = m.strip_grid(4, 6)
    F = f_weight_matrix(g, m.profile)
    assert F.shape == (4, g.n_sites)  # compact halfwidth 0.25, halo 0
    assert np.all(F >= 0)


def test_estimate_bulk_bottom_free_and_shift():
    lo, hi = estimate_bulk_bottom(lambda x1, x2: np.zeros(len(x1)), 1, 1, 1, M_probe=16)
    assert abs(lo) <= 1e-12
    assert lo <= 0 <= hi
    lo_c, hi_c = estimate_bulk_bottom(lambda x1, x2: np.full(len(x1), 1.7), 1, 1, 1, M_probe=16)
    assert lo_c <= 1.7 <= hi_c


def test_estimate_bulk_bottom_refines():
    fn = lambda x1, x2: 0.4 * (1.0 + np.cos(2 * np.pi * x2[:, 0] / 4.0))
    lo1, hi1 = estimate_bulk_bottom(fn, 1, 1, 1, M_probe=12)
    lo2, hi2 = estimate_bulk_bottom(fn, 1, 1, 1, M_probe=24)
    assert (hi2 - lo2) < (hi1 - lo1)
