import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import surface_field
from striplab.config import build_model
from striplab.errors import InvalidParam, ShapeMismatch, TailTooLarge
from striplab.grid import bc_all_dirichlet, build_grid
from striplab.idss import StripEnsemble, ensemble_counts
from striplab.instances import SurfaceModel, default_model
from striplab.operator import assemble
from striplab.potential import (
    CompactProfile,
    ConstantBulk,
    IidUniformBulk,
    PowerLawProfile,
    TwoPointCouplings,
    UniformCouplings,
    contract_couplings,
    estimate_bulk_bottom,
    f_weight_matrix,
    periodic_bulk,
    surface_cell_potential,
)
from striplab.spectral import lowest_k

SMALL_CONFIG = Path(__file__).with_name("small_config.json")


def pinned_floor(grid, profile, q_min):
    """The floor U_s: every window coupling pinned to ``q_min``, contracted on ``grid``."""
    F = f_weight_matrix(grid, profile)
    return contract_couplings(np.full(F.shape[0], float(q_min)), F)


def test_periodic_bulk_zero_and_constant():
    g = build_grid(1, 1, L=4, a=2, M=6)
    zero = periodic_bulk(g, lambda x1, x2: np.zeros(len(x1)))
    assert np.all(zero == 0)
    const = periodic_bulk(g, lambda x1, x2: np.full(len(x1), 2.5))
    assert np.all(const == 2.5)


def test_periodic_bulk_cell_shift_exact():
    # shifting by one cell reproduces the field exactly
    g = build_grid(1, 1, L=4, a=3, M=4)
    fld = periodic_bulk(g, lambda x1, x2: np.cos(2 * np.pi * x1[:, 0]) + 0.3 * x2[:, 0])
    arr = fld.reshape(g.shape)
    assert np.array_equal(arr[: 3 * 3], arr[3:])


def test_periodic_bulk_shape_mismatch():
    g = build_grid(1, 1, L=2, a=1, M=4)
    with pytest.raises(ShapeMismatch):
        periodic_bulk(g, lambda x1, x2: np.zeros(3))


def test_surface_floor_compact_columns():
    m = default_model()
    g = m.strip_grid(5, 6)
    arr = pinned_floor(g, m.profile, -2.0).reshape(g.shape)
    x2 = (np.arange(6) - 3 + 0.5) * 1.0
    in_box = (x2 >= -1.0) & (x2 < 1.0)
    for i in range(5):
        assert np.array_equal(arr[i][in_box], [-2.0, -2.0])
        assert np.all(arr[i][~in_box] == 0.0)


def test_surface_floor_zero_coupling():
    m = default_model()
    g = m.strip_grid(4, 4)
    assert np.all(pinned_floor(g, m.profile, 0.0) == 0.0)


def test_power_law_doubled_radius_oracle():
    g = build_grid(1, 1, L=4, a=1, M=4)
    base = PowerLawProfile(alpha=2.5, truncation_radius=64, x2_box=(-1.0, 1.0))
    fine = PowerLawProfile(alpha=2.5, truncation_radius=128, x2_box=(-1.0, 1.0))
    tol = 5e-3  # the recorded tail bound for R = 64 at alpha = 2.5
    assert base.tail_bound(1) <= tol * 2.0
    v1 = pinned_floor(g, base, -2.0)
    v2 = pinned_floor(g, fine, -2.0)
    mask = v1 != 0
    rel = np.max(np.abs(v1[mask] - v2[mask]) / np.abs(v1[mask]))
    assert rel <= tol


def power_law_model(d1, tail_tol):
    return SurfaceModel(d1=d1, d2=1, a=1, profile=PowerLawProfile(alpha=1.5, truncation_radius=16),
                        dist=UniformCouplings(-2.0, -1.0), tail_tol=tail_tol)


def test_power_law_tail_too_large():
    # the model checks the truncation tail when it is built, not at first use
    with pytest.raises(TailTooLarge):
        power_law_model(1, 1e-8)
    m = power_law_model(1, 0.5)  # tail bound 1.0 = 0.5 * |q_min|
    periodic_bulk(build_grid(1, 1, L=4, a=1, M=4), m.u_per())
    with pytest.raises(TailTooLarge):
        replace(m, tail_tol=0.4)


def test_power_law_dimension_check():
    prof = PowerLawProfile(alpha=1.5, truncation_radius=16)
    with pytest.raises(InvalidParam):
        prof.validate_for_dimension(2)  # needs alpha > d1
    with pytest.raises(InvalidParam):
        power_law_model(2, 0.5)  # at construction, whatever the tolerance


def test_pinned_sampling_matches_floor_bitwise():
    m = replace(default_model(), dist=TwoPointCouplings(-2.0, -1.0, p=1.0))
    g = m.strip_grid(6, 8)
    assert np.array_equal(surface_field(m, g, 99), pinned_floor(g, m.profile, -2.0))


def test_sampling_seed_determinism():
    m = replace(default_model(), bulk_random=IidUniformBulk(1.0))
    g = m.strip_grid(6, 8)
    F = f_weight_matrix(g, m.profile)
    q1, v1 = m.draw(1234, F.shape[0], g.n_sites)
    q2, v2 = m.draw(1234, F.shape[0], g.n_sites)
    assert np.array_equal(q1, q2) and np.array_equal(v1, v2)
    assert np.array_equal(surface_field(m, g, 1234), contract_couplings(q1, F))
    q3, v3 = m.draw(1235, F.shape[0], g.n_sites)
    assert not np.array_equal(q1, q3) and not np.array_equal(v1, v3)


def test_contraction_skips_unreached_sites_bitwise():
    # summing only the sites some cell reaches (12 of 48 here) gives the
    # bytes of the loop over every site, for a compact and a power-law
    # window, one sample and a batch, couplings of both signs
    rng = np.random.default_rng(61)
    g = build_grid(1, 1, L=6, a=1, M=8)
    for profile in (default_model().profile, PowerLawProfile(alpha=1.5, truncation_radius=16)):
        F = f_weight_matrix(g, profile)
        assert 0 < np.count_nonzero(F.any(axis=0)) < F.shape[1]
        for q in (rng.uniform(-2.0, 1.0, F.shape[0]), rng.uniform(-2.0, 1.0, (5, F.shape[0]))):
            want = np.zeros(q.shape[:-1] + (F.shape[1],))
            for c in range(F.shape[0]):
                want += q[..., c, None] * F[c]
            got = contract_couplings(q, F)
            assert got.tobytes() == want.tobytes()


def test_coupling_mean_law_of_large_numbers():
    dist = UniformCouplings(-2.0, -1.0)
    rng = np.random.default_rng(8)
    vals = dist.sample(rng, 10_000)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - (-1.5)) <= 3 * se
    assert vals.min() >= -2.0 and vals.max() <= -1.0


def test_bulk_sampling():
    m = default_model()
    _, zero = m.draw(4, 8, 100)
    assert zero.shape == (100,) and np.all(zero == 0)
    m = replace(m, bulk_random=IidUniformBulk(1.0))
    _, vals = m.draw(4, 8, 100)
    assert np.all((vals >= 0) & (vals <= 1.0))
    _, vals = m.draw(4, 8, 10_000)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.5) <= 3 * se
    assert np.array_equal(vals, m.draw(4, 8, 10_000)[1])


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
    m = replace(default_model(), bulk_random=IidUniformBulk(0.7))
    g = m.strip_grid(L, 2 * Mh)
    v_s = surface_field(m, g, seed)
    floor = pinned_floor(g, m.profile, m.dist.q_min)
    assert np.all(floor <= v_s)
    assert np.all(v_s <= 0)
    _, v_b = m.draw(seed, f_weight_matrix(g, m.profile).shape[0], g.n_sites)
    total = v_s + v_b
    assert np.all(total >= floor)


def test_cell_potential_matches_strip_floor():
    """Tiling the cell floor reproduces the strip floor exactly."""
    m = default_model()
    for a in (1, 2):
        g = build_grid(1, 1, L=5, a=a, M=6)
        fn = surface_cell_potential(m.profile, -2.0, a)
        assert np.array_equal(periodic_bulk(g, fn), pinned_floor(g, m.profile, -2.0))


def test_window_radius_shapes():
    m = default_model()
    g = m.strip_grid(4, 6)
    F = f_weight_matrix(g, m.profile)
    assert F.shape == (4, g.n_sites)  # compact halfwidth 0.25, halo 0
    assert np.all(F >= 0)


def dirichlet_probe(fn, M_probe):
    """Ground energy of ``estimate_bulk_bottom``'s d1 = 1 probe under all-Dirichlet faces."""
    probe = build_grid(1, 1, L=M_probe, a=1, M=M_probe)
    H = assemble(probe, periodic_bulk(probe, fn), bc_all_dirichlet())
    return float(lowest_k(H, 1, tol=1e-9).eigenvalues[0])


def test_estimate_bulk_bottom_free_and_shift():
    free = lambda x1, x2: np.zeros(len(x1))
    lo = estimate_bulk_bottom(free, 1, 1, 1, M_probe=16)
    assert abs(lo) <= 1e-12
    assert lo <= 0 <= dirichlet_probe(free, 16)
    shifted = lambda x1, x2: np.full(len(x1), 1.7)
    lo_c = estimate_bulk_bottom(shifted, 1, 1, 1, M_probe=16)
    assert lo_c <= 1.7 <= dirichlet_probe(shifted, 16)


def test_estimate_bulk_bottom_refines():
    # the Neumann bound stays below the Dirichlet ground energy, and the gap
    # between them closes as the probe grows
    fn = lambda x1, x2: 0.4 * (1.0 + np.cos(2 * np.pi * x2[:, 0] / 4.0))
    gaps = []
    for M_probe in (12, 16, 24):
        lo, hi = estimate_bulk_bottom(fn, 1, 1, 1, M_probe=M_probe), dirichlet_probe(fn, M_probe)
        assert lo <= hi
        gaps.append(hi - lo)
    assert gaps[2] < gaps[1] < gaps[0]


def test_constant_bulk_bottom_bounds_the_energies():
    # a constant periodic bulk, as a config names it, lifts the bulk bottom to
    # its value: 0.2, past a zero bulk's bottom, is counted and 0.35 is refused
    cfg = json.loads(SMALL_CONFIG.read_text())
    cfg["potential"]["bulk_periodic"] = {"kind": "constant", "value": 0.3}
    m = build_model(cfg)
    assert m.bulk_periodic == ConstantBulk(0.3)
    assert abs(estimate_bulk_bottom(m.bulk_periodic, m.d1, m.d2, m.a, M_probe=16) - 0.3) <= 1e-12
    engine = StripEnsemble(m, L=4, M=8, master_seed=1)
    (counts,) = ensemble_counts([(engine, 1, [0.2])])
    assert counts.shape == (1, 1)
    with pytest.raises(InvalidParam, match="bulk bottom"):
        ensemble_counts([(engine, 1, [0.2, 0.35])])
