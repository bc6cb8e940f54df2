import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

import striplab.floquet as floquet
import striplab.idss as idss
import striplab.spectral as spectral
from striplab.errors import GapTooSmall, InvalidParam, S4Violated
from striplab.floquet import gap_certificate, ground_state_cell
from striplab.grid import bc_all_dirichlet, central_layers
from striplab.idss import (
    StripEnsemble,
    bc_for_tag,
    bracketing_check,
    classical_campaign,
    ensemble_counts,
    idss_estimate,
    lifshits_fit,
    quantum_campaign,
    rayleigh_tail_bound,
    sandwich_check,
    temple_tail_bound,
)
from striplab.instances import SurfaceModel, classical_model, default_model, pinned_model
from striplab.operator import assemble
from striplab.potential import (
    CompactProfile,
    CosineBulk,
    IidUniformBulk,
    TwoPointCouplings,
    UniformCouplings,
    contract_couplings,
    estimate_bulk_bottom,
    f_weight_matrix,
    periodic_bulk,
)
from striplab.rng import mix64
from striplab.spectral import count_below, count_below_ensemble, lower_band


@pytest.fixture(scope="module")
def energies(e0_default):
    return np.linspace(e0_default + 0.06, -0.1, 9)


def test_engine_matches_direct_counts(model, energies, e0_default):
    # the counted operator is the assembled one, periodic bulk U_b and random
    # bulk V_b included, with its sites in the grid's band order: on this
    # L = 7 < M = 10 strip that is the depth axis outermost, at band width 7
    for m in (model, replace(model, bulk_periodic=CosineBulk(0.3)),
              replace(model, bulk_random=IidUniformBulk(0.4))):
        eng = StripEnsemble(m, L=7, M=10, bc="chi", master_seed=42)
        order = eng.grid.band_order()
        assert np.array_equal(eng.order, order) and eng.base_band.shape == (8, 70)
        base = assemble(eng.grid, eng.u_b, eng.bcs).matrix
        assert np.array_equal(eng.base_band, lower_band(base[order][:, order]))
        grid_energies = energies - e0_default + eng.e0
        for i in (0, 5):
            H = eng.hamiltonian(i)
            direct = [count_below(H, E) for E in grid_energies]
            assert list(eng.counts([i], grid_energies)[0]) == direct
            diag = H.matrix.diagonal()[order]
            assert np.max(np.abs(diag - (eng.base_band[0] + eng.sample_diag(i)[order]))) <= 1e-12


def test_memoized_reference_matches_direct_solve(model, monkeypatch):
    # one solve serves ensembles of any L, periodic bulk U_b included, and
    # equals a direct solve bit for bit
    m = replace(model, bulk_periodic=CosineBulk(0.3))
    calls = []

    def counting(*args):
        calls.append(args)
        return ground_state_cell(*args)

    monkeypatch.setattr(floquet, "ground_state_cell", counting)
    floquet._reference.cache_clear()
    engines = [StripEnsemble(m, L=L, M=10, bc="chi", master_seed=5) for L in (6, 9)]
    assert len(calls) == 1
    assert engines[0].ref is engines[1].ref
    direct = ground_state_cell(m.cell_grid(10), m.u_per(), 14)
    ref = engines[0].ref
    assert np.array_equal(ref.psi0, direct.psi0) and not ref.psi0.flags.writeable
    assert (ref.e0, ref.residual, ref.grid) == (direct.e0, direct.residual, direct.grid)


def test_ground_state_reference_solved_once(model, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return ground_state_cell(*args)

    monkeypatch.setattr(floquet, "ground_state_cell", counting)
    floquet._reference.cache_clear()
    quantum_campaign(model, [0.2, 0.4, 0.7], c_factor=4.0, M=8, n_samples=4, master_seed=3,
                     L_bounds=(4, 8))
    assert len(calls) == 1
    # the default depth M + 4 and the same depth given explicitly are one key
    StripEnsemble(model, L=5, M=8, bc="chi", M_ref=12, master_seed=3)
    rayleigh_tail_bound(model, L=5, M=8, seed=3)
    assert len(calls) == 1


def inline_pool():
    """A ProcessPoolExecutor stand-in that runs each task in this process.

    It records every pool's ``max_workers`` and every task's sample count.
    """

    class InlinePool:
        sizes, blocks = [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, args):
            self.blocks.append(len(args[1]))
            result = fn(args)
            return SimpleNamespace(result=lambda: result)

    return InlinePool


def test_engine_counts_batch_size_invariant(model, energies, monkeypatch):
    # a lane cap of five, or a byte budget of three lanes' diagonals and LDL^T
    # buffer shares, cuts 12 samples into near-equal blocks of at most that
    # many lanes, and two workers into at least two blocks; ensemble_counts
    # sends each block as one kernel call, with the counts of one 12-lane
    # call, with and without a random bulk V_b
    lanes = []

    def recording(base_band, diag_samples, energies):
        lanes.append(len(diag_samples))
        return count_below_ensemble(base_band, diag_samples, energies)

    monkeypatch.setattr(idss, "count_below_ensemble", recording)
    monkeypatch.setattr(idss, "ProcessPoolExecutor", inline_pool())
    eng = StripEnsemble(model, L=6, M=8, bc="D", master_seed=3)
    # one lane's bytes, read back from block_lanes under a budget so far above
    # a lane's that the floor division loses nothing; block_lanes first sets
    # aside the ufunc buffers' reserve, three operands of np.getbufsize() entries
    max_lanes, max_bytes = spectral.BLOCK_LANES, spectral.BLOCK_BYTES
    monkeypatch.setattr(spectral, "BLOCK_LANES", 1 << 40)
    monkeypatch.setattr(spectral, "BLOCK_BYTES", 1 << 40)
    per_lane = (1 << 40) // spectral.block_lanes(eng.base_band)
    reserve = 3 * np.getbufsize() * eng.base_band.itemsize
    # (lane cap, byte budget, blocks at one worker, blocks at two)
    caps = ((max_lanes, max_bytes, [12], [6, 6]), (5, max_bytes, [4] * 3, [4] * 3),
            (max_lanes, reserve + 3 * per_lane, [3] * 4, [3] * 4),
            (5, reserve + 4 * per_lane - 1, [3] * 4, [3] * 4))
    for m in (model, replace(model, bulk_random=IidUniformBulk(0.4))):
        eng = StripEnsemble(m, L=6, M=8, bc="D", master_seed=3)
        for E in (energies, energies[:1]):  # a bisected grid and one round
            want = eng.counts(range(12), E)
            for cap, budget, *blocks in caps:
                monkeypatch.setattr(spectral, "BLOCK_LANES", cap)
                monkeypatch.setattr(spectral, "BLOCK_BYTES", budget)
                for workers, want_lanes in zip((1, 2), blocks):
                    lanes.clear()
                    (got,) = ensemble_counts([(eng, 12, E)], workers=workers)
                    assert lanes == want_lanes, (cap, budget, workers)
                    assert np.array_equal(got, want)


def test_pool_capped_at_cpu_count(model, energies, monkeypatch):
    # 64 workers on a 2-core machine: the samples are cut for 64 workers, one
    # block a sample here, but the pool holds two processes, with the counts
    # of one worker, which starts no pool; no process is started
    pool = inline_pool()
    monkeypatch.setattr(idss, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(idss.os, "cpu_count", lambda: 2)
    eng = StripEnsemble(model, L=6, M=8, bc="chi", master_seed=9)
    jobs = [(eng, 16, energies), (eng, 3, energies[:1])]
    got = ensemble_counts(jobs, workers=64)
    assert pool.sizes == [2] and pool.blocks == [1] * 19
    for g, w in zip(got, ensemble_counts(jobs, workers=1)):
        assert np.array_equal(g, w)
    assert pool.sizes == [2] and multiprocessing.active_children() == []


def test_worker_count_never_changes_results(model, energies):
    eng = StripEnsemble(model, L=6, M=8, bc="chi", master_seed=9)
    (one,) = ensemble_counts([(eng, 16, energies)], workers=1)
    (two,) = ensemble_counts([(eng, 16, energies)], workers=2)
    assert np.array_equal(one, two)
    # a job of no samples is an empty array at any worker count, zero included
    for workers in (0, 1):
        (none,) = ensemble_counts([(eng, 0, energies)], workers=workers)
        assert none.shape == (0, len(energies))


def test_ensemble_counts_job_list(model, energies, monkeypatch):
    # one task list over mixed jobs (two L values, chi and D, one energy and a
    # grid) counts every job as its engine does alone, at any worker count
    chi = StripEnsemble(model, L=5, M=8, bc="chi", master_seed=11)
    d = StripEnsemble(model, L=9, M=8, bc="D", master_seed=12)
    jobs = [(d, 1, energies), (chi, 7, [chi.e0 + 0.1])]
    expected = [eng.counts(range(n), E) for eng, n, E in jobs]
    submitted = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, args):
            submitted.append(args[0].grid.n_sites * len(args[1]))
            return super().submit(fn, args)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was started at one worker")

    for workers in (1, 2, 3):
        monkeypatch.setattr(idss, "ProcessPoolExecutor", NoPool if workers == 1 else RecordingPool)
        submitted.clear()
        got = ensemble_counts(jobs, workers=workers)
        assert len(got) == len(jobs)
        for g, e in zip(got, expected):
            assert g.dtype == np.int64 and np.array_equal(g, e)
        assert multiprocessing.active_children() == []
        # ceil(workers / 2) blocks per job, largest first; at 3 workers the
        # one-sample job's second block is empty and is not sent
        assert submitted == {1: [], 2: [40 * 7, 72], 3: [40 * 4, 40 * 3, 72]}[workers]


def test_idss_pinned_distribution_zero_variance(model, energies):
    pm = pinned_model(model)
    curve = idss_estimate(pm, L=8, M=10, energies=energies, n_samples=4, master_seed=1)
    assert np.all(curve.ses == 0)
    eng = StripEnsemble(pm, L=8, M=10, bc="chi", master_seed=1)
    H_per = assemble(eng.grid, periodic_bulk(eng.grid, pm.u_per()), bc_for_tag("chi", eng.ref))
    per = np.array([count_below(H_per, E) for E in energies]) / 8.0
    assert np.allclose(curve.means, per)


def test_pinned_model_changes_only_the_distribution():
    # every field but dist survives, the classical model's loose tail
    # tolerance included, so the pinned model solves the same reference
    cm = classical_model()
    pm = pinned_model(cm)
    assert replace(pm, dist=cm.dist) == cm
    assert pm.dist == TwoPointCouplings(cm.dist.q_min, cm.dist.q_min / 2, p=1.0)
    want = ground_state_cell(cm.cell_grid(8), cm.u_per(), 12)
    got = ground_state_cell(pm.cell_grid(8), pm.u_per(), 12)
    assert got.e0 == want.e0 and np.array_equal(got.psi0, want.psi0)


def test_idss_zero_below_ground_energy(model, e0_default):
    grid_energies = np.array([e0_default - 0.3, e0_default - 0.05, -0.3])
    curve = idss_estimate(model, L=6, M=10, energies=grid_energies, n_samples=20, master_seed=2)
    assert curve.means[0] == 0.0 and curve.means[1] == 0.0
    assert np.isfinite(curve.p0_upper[0])


def test_idss_seed_split_consistency(model, energies):
    a = idss_estimate(model, L=8, M=10, energies=energies, n_samples=150, master_seed=100)
    b = idss_estimate(model, L=8, M=10, energies=energies, n_samples=150, master_seed=101)
    comb = np.sqrt(a.ses**2 + b.ses**2)
    mask = comb > 0
    assert np.all(np.abs(a.means - b.means)[mask] <= 3.5 * comb[mask])


def test_idss_validates_energy_grid(model, e0_default):
    with pytest.raises(InvalidParam):
        idss_estimate(model, 4, 8, [0.5], 2, 0)  # above the bulk bottom
    with pytest.raises(InvalidParam):
        idss_estimate(model, 4, 8, [-0.5, -0.7], 2, 0)  # not ascending
    with pytest.raises(InvalidParam, match="bulk bottom"):
        idss_estimate(model, 4, 8, [np.nan], 2, 0)  # a NaN lies below no bottom
    # the sandwich check and the quantum campaign count through
    # ensemble_counts too, so each refuses an energy past the bulk bottom
    e0 = floquet.cached_reference(model, 8).e0
    with pytest.raises(InvalidParam, match="bulk bottom estimate 0"):
        sandwich_check(model, L=4, M=8, energies=[e0 + 0.2, 0.05], n_samples=2, master_seed=1)
    with pytest.raises(InvalidParam, match="bulk bottom estimate 0"):
        quantum_campaign(model, [0.2, abs(e0) + 0.05], c_factor=4.0, M=8, n_samples=2,
                         master_seed=1, L_bounds=(4, 8))


def test_idss_s4_guard():
    m = default_model()
    # a repulsive-floor model has no negative-energy surface state
    weak = replace(m, dist=TwoPointCouplings(-1e-6, -5e-7, p=0.5))
    with pytest.raises(S4Violated):
        idss_estimate(weak, 4, 8, [-0.5], 2, 0)


def test_energy_rule_raises_before_any_pool(model, energies, monkeypatch):
    # ensemble_counts checks every job before it builds a task or a pool:
    # one job past the bulk bottom, or one model out of the surface regime,
    # and nothing is counted at one worker and no pool is made at two
    pool = inline_pool()
    monkeypatch.setattr(idss, "ProcessPoolExecutor", pool)
    kernel_calls = []
    monkeypatch.setattr(idss, "count_below_ensemble", lambda *a: kernel_calls.append(a))
    good = StripEnsemble(model, L=6, M=8, bc="chi", master_seed=9)
    weak = replace(model, dist=TwoPointCouplings(-1e-6, -5e-7, p=0.5))
    bad = ((InvalidParam, "bulk bottom", [(good, 4, energies), (good, 4, [good.e0, 0.0])]),
           (S4Violated, "not negative",
            [(good, 4, energies), (StripEnsemble(weak, L=6, M=8, master_seed=9), 4, [-0.5])]))
    for exc, words, jobs in bad:
        for workers in (1, 2):
            with pytest.raises(exc, match=words):
                ensemble_counts(jobs, workers=workers)
    assert pool.sizes == [] and kernel_calls == []


def test_bulk_bottom_estimated_once_per_call(model, monkeypatch):
    # a 12-job quantum campaign on a cosine periodic bulk estimates the bulk
    # bottom once; two depths in one call estimate it once each
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["M_probe"])
        return estimate_bulk_bottom(*args, **kwargs)

    monkeypatch.setattr(idss, "estimate_bulk_bottom", counting)
    m = replace(model, bulk_periodic=CosineBulk(0.3))
    curve = quantum_campaign(m, np.geomspace(0.05, 0.3, 12), c_factor=1.0, M=8, n_samples=1,
                             master_seed=3, L_bounds=(4, 8))
    assert len(curve.energies) == 12 and calls == [16]
    calls.clear()
    jobs = [(StripEnsemble(m, L=4, M=M, master_seed=3), 1, [curve.e0]) for M in (8, 10, 8, 10)]
    ensemble_counts(jobs)
    assert calls == [16, 20]


def test_bracketing_report(model, energies):
    rep = bracketing_check(model, L=8, M_values=[8, 16, 32], energies=energies, seed=7)
    assert rep.M_stab in (8, 16)
    for M in (8, 16, 32):
        assert np.all(rep.counts_dd[M] <= rep.counts_nd[M])
    assert np.array_equal(rep.counts_dd[16], rep.counts_dd[32])


def test_bracketing_restricts_one_deep_realization(monkeypatch):
    # each depth counts the central layers of one diagonal built on the
    # deepest grid, bit for bit the diagonal built on its own grid from the
    # same couplings and the restricted random bulk (d1 = d2 = 2, iid and
    # cosine bulks)
    m = SurfaceModel(d1=2, d2=2, a=1,
                     profile=CompactProfile(x1_halfwidth=0.25, x2_box=(-1.0, 1.0), amplitude=1.0),
                     dist=UniformCouplings(-2.0, -1.0), bulk_random=IidUniformBulk(0.4),
                     bulk_periodic=CosineBulk(0.3))
    seen = {}

    def recording(grid, values, bcs):
        seen[grid.M] = values.copy()
        return assemble(grid, values, bcs)

    monkeypatch.setattr(idss, "assemble", recording)
    bracketing_check(m, L=3, M_values=[8, 4], energies=[-1.0, -0.5], seed=5)
    grid_max = m.strip_grid(3, 8)
    q, v_b_max = m.draw(5, f_weight_matrix(grid_max, m.profile).n_cells(3), grid_max.n_sites)
    for M in (4, 8):
        grid = m.strip_grid(3, M)
        v_s = contract_couplings(q, f_weight_matrix(grid, m.profile))
        v_b = central_layers(v_b_max.reshape(grid_max.shape), grid.d2, M).ravel()
        want = (periodic_bulk(grid, m.bulk_periodic) + v_b) + v_s
        assert seen[M].tobytes() == want.tobytes()


def test_sandwich_check_passes(model, e0_default):
    energies = np.linspace(e0_default + 0.08, -0.15, 7)
    rep = sandwich_check(model, L=8, M=12, energies=energies, n_samples=120, master_seed=13)
    assert rep.ok and rep.detail == ""
    assert np.all(rep.lhs <= rep.mid + 3 * np.hypot(rep.lhs_se, rep.mid_se) + 1e-15)


def test_temple_tail_bound_zero_profile(model, ref14):
    gap = gap_certificate(model.u_per(), [8], ref14, M=12)[0].gap
    rep = temple_tail_bound(model, ref14, L=8, w_x1=np.zeros(8), M=12, gap=gap)
    assert rep.bound == ref14.e0
    assert abs(rep.direct_e0 - ref14.e0) <= 1e-10


def test_temple_tail_bound_margin_and_scaling(model, ref14):
    gap = gap_certificate(model.u_per(), [8], ref14, M=12)[0].gap
    w = np.zeros(8)
    w[3] = gap / 4
    full = temple_tail_bound(model, ref14, L=8, w_x1=w, M=12, gap=gap)
    half = temple_tail_bound(model, ref14, L=8, w_x1=w / 2, M=12, gap=gap)
    assert full.margin >= -1e-10
    assert half.shift * 2 == full.shift  # the shift is exactly linear in W
    assert full.bound <= full.direct_e0 + 1e-10


def test_temple_tail_bound_gap_guard(model, ref14):
    gap = gap_certificate(model.u_per(), [8], ref14, M=12)[0].gap
    w = np.full(8, gap)  # sup W far above gap/3
    with pytest.raises(GapTooSmall):
        temple_tail_bound(model, ref14, L=8, w_x1=w, M=12, gap=gap)


def test_rayleigh_tail_bound_decomposition(model):
    rep = rayleigh_tail_bound(model, L=8, M=12, seed=11)
    assert rep.margin >= -1e-10
    total = rep.e0 + rep.coupling_term + rep.bulk_term + rep.cutoff_penalty
    assert abs(total - rep.bound) <= 1e-9 * (1 + abs(rep.bound))
    assert rep.bulk_term == 0.0  # the default model has no random bulk


def test_rayleigh_penalty_decays_like_L_squared(model):
    p8 = rayleigh_tail_bound(model, L=8, M=12, seed=11).cutoff_penalty
    p16 = rayleigh_tail_bound(model, L=16, M=12, seed=11).cutoff_penalty
    p32 = rayleigh_tail_bound(model, L=32, M=12, seed=11).cutoff_penalty
    assert p8 > 0 and p16 > 0 and p32 > 0
    assert 2.5 <= p8 / p16 <= 6.0
    assert 2.5 <= p16 / p32 <= 6.0


def test_rayleigh_single_coupling_term_exact(model):
    # the reported coupling term is the exact rho-weighted trial weight
    rep = rayleigh_tail_bound(model, L=6, M=12, seed=21)
    assert rep.coupling_term >= 0


def test_rayleigh_pinned_floor_is_pure_penalty(model):
    # all couplings at the floor: no excess term, bound = E0 + cutoff penalty
    pm = pinned_model(model)
    rep = rayleigh_tail_bound(pm, L=8, M=12, seed=21)
    assert rep.coupling_term == 0.0
    assert rep.bulk_term == 0.0
    assert abs(rep.bound - (rep.e0 + rep.cutoff_penalty)) <= 1e-12


def test_coupling_monotonicity_raises_levels(model, ref14):
    # pushing one coupling toward zero can only raise eigenvalues
    grid = model.strip_grid(6, 12)
    from striplab.potential import f_weight_matrix, contract_couplings

    weights = f_weight_matrix(grid, model.profile)
    q, _ = model.draw(77, weights.n_cells(grid.L), grid.n_sites)
    before = np.linalg.eigvalsh(
        assemble(grid, contract_couplings(q, weights), bc_all_dirichlet()).dense()
    )
    q2 = q.copy()
    q2[3] = q2[3] / 2  # toward zero
    after = np.linalg.eigvalsh(
        assemble(grid, contract_couplings(q2, weights), bc_all_dirichlet()).dense()
    )
    assert np.all(after >= before - 1e-12)


def test_ensemble_ground_energy_floor(model):
    # every chi-boundary realization sits at or above the periodic ground energy
    eng = StripEnsemble(model, L=8, M=12, bc="chi", master_seed=6)
    for i in range(8):
        e0 = np.linalg.eigvalsh(eng.hamiltonian(i).dense())[0]
        assert e0 >= eng.e0 - 1e-9


def test_idss_L_convergence_trend(model, e0_default):
    # |N_2L - N_L| shrinks with L at fixed energies (within noise)
    energies = np.linspace(e0_default + 0.15, -0.2, 6)
    curves = {
        L: idss_estimate(model, L, 12, energies, n_samples=400, master_seed=31)
        for L in (4, 8, 16, 32)
    }
    gap_small = np.abs(curves[8].means - curves[4].means)
    gap_large = np.abs(curves[32].means - curves[16].means)
    se = np.sqrt(curves[32].ses**2 + curves[16].ses**2 + curves[8].ses**2 + curves[4].ses**2)
    assert np.mean(gap_large) <= np.mean(gap_small) + 3 * np.mean(se)


def test_lifshits_fit_synthetic_slopes():
    d = np.geomspace(0.01, 1.0, 12)
    fit = lifshits_fit(SimpleNamespace(energies=d, means=np.exp(-(d**-0.5))), 0.0, (0.0, 2.0))
    assert abs(fit.slope + 0.5) <= 1e-6
    assert fit.r_squared >= 1 - 1e-12
    d2 = np.geomspace(0.1, 1.0, 12)
    fit2 = lifshits_fit(SimpleNamespace(energies=d2, means=np.exp(-(d2**-2.0))), 0.0, (0.0, 2.0))
    assert abs(fit2.slope + 2.0) <= 1e-6


def test_lifshits_fit_too_few_points():
    # all means >= 1 leave no usable point; four usable points are still too few
    d = np.geomspace(0.01, 1.0, 12)
    fit = lifshits_fit(SimpleNamespace(energies=d, means=np.full(12, 1.5)), 0.0, (0.0, 2.0))
    assert fit.n_points == 0
    assert np.isnan(fit.slope) and np.isnan(fit.intercept) and np.isnan(fit.r_squared)
    means = np.where(np.arange(12) < 4, np.exp(-(d**-0.5)), 1.5)
    fit = lifshits_fit(SimpleNamespace(energies=d, means=means), 0.0, (0.0, 2.0))
    assert fit.n_points == 4 and np.isnan(fit.slope)


def test_quantum_campaign_smoke():
    m = replace(default_model(), dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    deltas = np.geomspace(0.2, 0.7, 5)
    camp = quantum_campaign(m, deltas, c_factor=8 * np.sqrt(0.7), M=12, n_samples=120,
                            master_seed=7, L_bounds=(8, 24))
    assert np.all(camp.L_values >= 8) and np.all(camp.L_values <= 24)
    # points are independent ensembles; assert the trend, not strict order
    assert camp.means[-1] > camp.means[0]
    assert np.all(camp.energies < 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_campaigns_single_sample_zero_se(model):
    q = quantum_campaign(model, [0.2, 0.7], c_factor=4.0, M=8, n_samples=1, master_seed=3,
                         L_bounds=(4, 8))
    c = classical_campaign(model, [0.2, 0.7], L=6, M=8, n_samples=1, master_seed=3)
    for camp in (q, c):
        assert np.all(camp.ses == 0)  # a NaN fails this too
    e0 = floquet.cached_reference(model, 8).e0
    rep = sandwich_check(model, L=6, M=8, energies=[e0 + 0.2, e0 + 0.7], n_samples=1,
                         master_seed=3)
    assert np.all(rep.mid_se == 0)


def test_density_curves_match_direct_reduction(model):
    # each campaign's points are the per-ensemble mean, standard error and
    # zero-count bound of its ensembles' own counts, bit for bit
    def reduce(counts, L, n, axis=0):
        vol = float(L**model.d1)
        means = counts.mean(axis=axis) / vol
        ses = counts.std(axis=axis, ddof=1) / np.sqrt(n) / vol
        return means, ses, np.where(means == 0, 1.0 - 0.05 ** (1.0 / n), np.nan)

    tail = replace(model, dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    e0 = floquet.cached_reference(model, 10).e0
    energies = np.linspace(e0 - 0.05, -0.2, 8)
    curve = idss_estimate(model, L=6, M=10, energies=energies, n_samples=30, master_seed=5)
    want = reduce(StripEnsemble(model, 6, 10, master_seed=5).counts(range(30), energies), 6, 30)
    checked = [(curve, want)]

    deltas = [0.05, 0.2, 0.7]
    curve = quantum_campaign(tail, deltas, c_factor=4.0, M=10, n_samples=16, master_seed=9,
                             L_bounds=(4, 16))
    assert curve.L_values.tolist() == [16, 9, 5]
    points = [reduce(StripEnsemble(tail, L, 10, master_seed=mix64(9, 7000 + i))
                     .counts(range(16), [curve.e0 + d]), L, 16, axis=None)
              for i, (d, L) in enumerate(zip(deltas, curve.L_values))]
    checked.append((curve, [np.array(col) for col in zip(*points)]))

    curve = classical_campaign(tail, deltas, L=7, M=10, n_samples=20, master_seed=4)
    engine = StripEnsemble(tail, 7, 10, master_seed=4)
    checked.append((curve, reduce(engine.counts(range(20), curve.e0 + np.array(deltas)), 7, 20)))

    for curve, (means, ses, p0) in checked:
        assert np.array_equal(curve.means, means)
        assert np.array_equal(curve.ses, ses)
        assert np.array_equal(curve.p0_upper, p0, equal_nan=True)
    assert np.isnan(curve.p0_upper).any() and checked[0][0].means[0] == 0


def test_classical_campaign_smoke():
    mc = classical_model()
    mc = replace(mc, profile=replace(mc.profile, truncation_radius=64), tail_tol=0.3,
                 dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    deltas = np.geomspace(1.0, 2.5, 5)
    camp = classical_campaign(mc, deltas, L=10, M=12, n_samples=120, master_seed=7)
    assert camp.e0 < -5  # deep floor from the slowly decaying profile
    assert np.all(np.diff(camp.means) >= 0)
