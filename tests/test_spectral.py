import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_banded_symmetric, random_grid_hamiltonian
from striplab.errors import (
    DenominatorNonpositive,
    GramDegenerate,
    HypothesisViolated,
    InvalidParam,
    ZeroVector,
)
from striplab.floquet import ground_state_cell, reduced_operator
from striplab.grid import Bloch, BoundarySpec, Dirichlet, bc_all_neumann, bc_for_tag, build_grid
from striplab.idss import StripEnsemble
from striplab.instances import default_model
from striplab.operator import assemble
from striplab.potential import TwoPointCouplings, periodic_bulk
from striplab.spectral import (
    banded_inertia,
    count_below,
    count_below_ensemble,
    eigh_dense,
    lower_band,
    lowest_k,
    rayleigh_ritz_upper,
    temple_lower_bound,
    variational_count_bound,
)


def dense_count(A, E):
    scale = np.abs(A).sum(axis=1).max() + abs(E) + 1.0
    return int(np.sum(np.linalg.eigvalsh(A) <= E + 1e-12 * scale))


def test_lowest_k_free_neumann():
    g = build_grid(1, 1, L=2, a=1, M=2)
    H = assemble(g, np.zeros(4), bc_all_neumann())
    res = lowest_k(H, 2, tol=1e-9)
    assert np.max(np.abs(res.eigenvalues - [0.0, 2.0])) <= 1e-12
    assert res.method == "dense"
    assert np.all(res.residuals <= 1e-9)


def test_lowest_k_diagonal():
    A = sp.csr_matrix(np.diag([-1.0, 0.0, 2.0]))
    res = lowest_k(A, 2, tol=1e-12)
    assert np.array_equal(res.eigenvalues, [-1.0, 0.0])


def test_lowest_k_validates_k():
    A = sp.csr_matrix(np.eye(3))
    with pytest.raises(InvalidParam):
        lowest_k(A, 0)
    with pytest.raises(InvalidParam):
        lowest_k(A, 4)


def test_lowest_k_orthonormal_and_certified():
    rng = np.random.default_rng(5)
    H, _ = random_grid_hamiltonian(rng, L=6, M=10)
    res = lowest_k(H, 4, tol=1e-9)
    gram = res.eigenvectors.T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-8
    assert np.all(res.residuals <= 1e-9)


def test_lowest_k_iterative_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(5):
        H, _ = random_grid_hamiltonian(rng, L=7, M=10)
        dense = np.linalg.eigvalsh(H.dense())[:3]
        res = lowest_k(H, 3, tol=1e-8, dense_cap=1)  # force the Lanczos path
        assert res.method == "iterative"
        assert np.max(np.abs(res.eigenvalues - dense)) <= 1e-9


def chi_strip(a, L, M, M_ref):
    """The certificates' operator: periodic potential, chi faces from a depth-M_ref reference."""
    model = replace(default_model(), a=a)
    ref = ground_state_cell(model.cell_grid(M), model.u_per(), M_ref)
    strip = model.strip_grid(L, M)
    return assemble(strip, periodic_bulk(strip, model.u_per()), bc_for_tag("chi", ref))


def test_dense_path_bit_equal_to_numpy_and_leaves_input_alone():
    # the CSV digests rest on this equality: numpy's eigh runs the same
    # ?syevd/?heevd; n = 768 takes the divide-and-conquer merges (QR below 26).
    # values_only runs the driver's reduction and ?stedc('I') itself and
    # back-transforms k vectors only: the eigenvalue bits stay, the vectors'
    # may change.  At n = 1 the driver skips both steps.
    model = replace(default_model(), a=4)
    strip = chi_strip(4, 8, 24, 28)
    cell = reduced_operator(model.cell_grid(24), model.u_per(), [1.1])
    _, A = random_banded_symmetric(np.random.default_rng(8), n=60, bw=5)
    one, two = np.array([[-0.5]]), np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
    assert strip.n == 768 and cell.is_complex
    for H, stored in ((strip, strip.matrix.data), (cell, cell.matrix.data), (A, A), (one, one),
                      (two, two)):
        before = stored.copy()
        w, v = np.linalg.eigh(stored if H is stored else H.dense())
        k = min(3, len(w))
        got_w, got_v = eigh_dense(H)
        assert np.array_equal(got_w, w) and np.array_equal(got_v, v)
        res = lowest_k(H, k)
        assert np.array_equal(res.eigenvalues, w[:k])
        assert np.array_equal(res.eigenvectors, v[:, :k])
        fast = lowest_k(H, k, values_only=True)
        assert fast.method == "dense" and np.array_equal(fast.eigenvalues, w[:k])
        assert np.all(fast.residuals <= 1e-9)
        gram = fast.eigenvectors.conj().T @ fast.eigenvectors
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
        assert np.array_equal(stored, before)


def test_values_only_takes_the_driver_where_lapack_rescales():
    # ?syevd and ?stevd rescale a matrix far from unit norm, each by its own
    # factor, so the reduction alone would change the eigenvalue bits there
    _, A = random_banded_symmetric(np.random.default_rng(8), n=60, bw=5)
    for scale in (1e150, 1e-150):
        res = lowest_k(A * scale, 3, tol=1e-9 * scale, values_only=True)
        assert np.array_equal(res.eigenvalues, np.linalg.eigh(A * scale)[0][:3])


def test_dense_path_memory():
    # ?syevd in place holds the dense copy and its 2 n^2 workspace, about
    # 3.3 n^2 doubles; a copy for numpy's eigh and a fresh eigenvector
    # array took 5.4 n^2.  values_only holds the reflectors, and ?stevd's
    # eigenvectors and workspace, about 3 n^2.  ru_maxrss needs a fresh process.
    root = Path(__file__).parents[1]
    path = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")) if p
    )
    for values_only in (False, True):
        code = (
            "import resource\n"
            "from test_spectral import chi_strip\n"
            "from striplab.spectral import lowest_k\n"
            "H = chi_strip(3, 16, 24, 28)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            f"lowest_k(H, 2, values_only={values_only})\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(H.n, (after - before) * 1024 / (8 * H.n**2))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        n, growth = proc.stdout.split()
        assert int(n) == 1152
        assert float(growth) <= 4.0, (
            f"lowest_k(values_only={values_only}) grew RSS by {float(growth):.2f} n^2 doubles")


def test_count_below_examples():
    A = sp.csr_matrix(np.diag([-1.0, 0.0, 2.0]))
    assert count_below(A, 0.0) == 2
    g = build_grid(1, 1, L=2, a=1, M=2)
    H = assemble(g, np.zeros(4), bc_all_neumann())
    assert count_below(H, 1.0) == 1


def test_count_below_dense_oracle_batch():
    rng = np.random.default_rng(7)
    for _ in range(60):
        Hs, A = random_banded_symmetric(rng)
        E = float(rng.standard_normal() * 2)
        assert count_below(Hs, E) == dense_count(A, E)


def test_count_below_grid_instances():
    rng = np.random.default_rng(8)
    for _ in range(20):
        H, _ = random_grid_hamiltonian(rng)
        E = float(rng.uniform(-1.5, 6.0))
        assert count_below(H, E) == dense_count(H.dense(), E)


def test_count_below_complex_hermitian():
    g = build_grid(1, 1, L=1, a=5, M=8)
    rng = np.random.default_rng(9)
    v = rng.uniform(-2, 0, g.n_sites)
    H = assemble(g, v, BoundarySpec(x1=Bloch((1.1,)), x2=Dirichlet()))
    assert H.is_complex
    for E in (-1.5, 0.0, 2.0, 5.0):
        assert count_below(H, E) == dense_count(H.dense(), E)


@given(st.floats(-3, 3), st.floats(-5, 5), st.integers(0, 2**31))
def test_count_shift_identity(c, E, seed):
    rng = np.random.default_rng(seed)
    Hs, A = random_banded_symmetric(rng, n=30, bw=3)
    evals = np.linalg.eigvalsh(A)
    if np.min(np.abs(evals - E)) < 1e-6:  # stay off ties
        return
    n = A.shape[0]
    shifted = Hs + c * sp.eye(n, format="csr")
    assert count_below(shifted, E + c) == count_below(Hs, E)


def test_count_monotone_in_energy():
    rng = np.random.default_rng(10)
    Hs, A = random_banded_symmetric(rng, n=50, bw=4)
    energies = np.linspace(-4, 4, 17)
    counts = [count_below(Hs, E) for E in energies]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_count_below_energy_array():
    rng = np.random.default_rng(11)
    Hs, A = random_banded_symmetric(rng, n=60, bw=3)
    energies = np.linspace(-4, 4, 9)
    got = count_below(Hs, energies)
    assert got.dtype == np.int64
    assert got.tolist() == [count_below(Hs, E) for E in energies] == [dense_count(A, E) for E in energies]
    assert count_below(Hs, energies.reshape(3, 3)).tolist() == got.reshape(3, 3).tolist()
    assert type(count_below(Hs, 0.5)) is int
    assert type(count_below(Hs, np.float64(0.5))) is int
    # the lowest eigenvalue sits at -||A||_inf + 1, inside the searched range
    A = sp.csr_matrix(np.diag([-1.0, 0.0, 2.0]))
    assert count_below(A, [-1.0, 0.0, 2.0]).tolist() == [1, 2, 3]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_counting_refuses_non_finite_energy(bad):
    # no count is defined there: unguarded, a NaN sorts last and ends every
    # lane at zero, -inf plus its tie is a NaN threshold, and the banded
    # eigensolver does not converge on either
    Hs, _ = random_banded_symmetric(np.random.default_rng(12), n=30, bw=3)
    band = lower_band(Hs)
    with pytest.raises(InvalidParam, match="finite"):
        count_below(Hs, bad)
    with pytest.raises(InvalidParam, match="finite"):
        count_below(Hs, [bad, -0.5])
    with pytest.raises(InvalidParam, match="finite"):
        count_below_ensemble(band, np.zeros((3, 30)), [-0.5, bad, 0.2])
    with pytest.raises(InvalidParam, match="finite"):  # even with no lane to count
        count_below_ensemble(band, np.zeros((0, 30)), [bad])


def _random_lower_band(rng, n, bw, is_complex):
    band = rng.standard_normal((bw + 1, n))
    if is_complex:
        band = band + 1j * rng.standard_normal((bw + 1, n))
        band[0] = band[0].real
    for r in range(1, bw + 1):
        band[r, n - r :] = 0
    return band


@pytest.mark.parametrize("is_complex", [False, True])
def test_ensemble_kernels_agree_by_column(is_complex, monkeypatch):
    # an energy grid is bisected by LDL^T passes and makes no eigensolve; it
    # counts as its columns do one energy at a time, nondecreasing along it
    import striplab.spectral

    passes, solves = [], []
    inertia, lane_counts = striplab.spectral.banded_inertia, striplab.spectral._lane_counts

    def counting(base_band, shifts, reg):
        passes.append(len(shifts))
        return inertia(base_band, shifts, reg)

    def solving(*args):
        solves.append(args)
        return lane_counts(*args)

    monkeypatch.setattr(striplab.spectral, "banded_inertia", counting)
    monkeypatch.setattr(striplab.spectral, "_lane_counts", solving)
    rng = np.random.default_rng(19 + is_complex)
    for n, bw, n_e in ((12, 2, 6), (150, 2, 9), (300, 5, 3), (300, 5, 8)):
        base = _random_lower_band(rng, n, bw, is_complex)
        diags = rng.uniform(-2.0, 2.0, (5, n))
        energies = np.sort(rng.uniform(-4.0, 4.0, n_e))
        counts = count_below_ensemble(base, diags, energies)
        assert passes and max(passes) <= 5 and solves == []
        passes.clear()
        cols = [count_below_ensemble(base, diags, [E])[:, 0] for E in energies]
        assert passes == [5] * n_e and solves == []
        passes.clear()
        assert np.array_equal(counts, np.column_stack(cols))
        assert np.all(np.diff(counts, axis=1) >= 0)


def _dense_lane(base, diag):
    """Dense Hermitian operator of the lower band ``base`` plus ``diag`` on its diagonal."""
    n = base.shape[1]
    A = np.diag(base[0] + diag).astype(base.dtype)
    for r in range(1, base.shape[0]):
        A[np.arange(r, n), np.arange(n - r)] = base[r, : n - r]
        A[np.arange(n - r), np.arange(r, n)] = np.conj(base[r, : n - r])
    return A


@pytest.mark.parametrize("is_complex", [False, True])
def test_ensemble_grid_bisection_dense_oracle(is_complex, monkeypatch):
    # unsorted grids with repeated energies, a lane above the whole grid
    # (counts 0 at its top), an empty grid and no lanes; no call takes more
    # lanes than were sent, and each lane alone counts as in the batch
    import striplab.spectral

    passes, inertia = [], striplab.spectral.banded_inertia

    def counting(base_band, shifts, reg):
        passes.append(len(shifts))
        return inertia(base_band, shifts, reg)

    monkeypatch.setattr(striplab.spectral, "banded_inertia", counting)
    rng = np.random.default_rng(37 + is_complex)
    for n, bw in ((1, 0), (7, 3), (40, 0), (60, 2), (120, 6)):
        base = _random_lower_band(rng, n, bw, is_complex)
        diags = rng.uniform(-3.0, 3.0, (9, n))
        diags[0] += 100.0
        grid = rng.uniform(-4.0, 4.0, 7)
        energies = rng.permutation(np.concatenate([grid, grid[:3]]))
        passes.clear()
        counts = count_below_ensemble(base, diags, energies)
        assert max(passes) <= 9
        assert counts.dtype == np.int64 and counts.shape == (9, 10)
        assert not counts[0].any()
        for s in range(9):
            A = _dense_lane(base, diags[s])
            assert counts[s].tolist() == [dense_count(A, E) for E in energies]
            assert count_below_ensemble(base, diags[s : s + 1], energies)[0].tolist() == counts[s].tolist()
        assert count_below_ensemble(base, diags, []).shape == (9, 0)
        assert count_below_ensemble(base, diags[:0], energies).shape == (0, 10)


def test_ensemble_grid_recounts_flagged_mid_probe(monkeypatch):
    # the 2x2 lane of test_count_below_recounts_flagged_pivot on a grid: the
    # top and bottom probes count 2 and 0, so the bisection probes E = 1,
    # where the nudged pivot undercounts; the lane is recounted from its
    # eigenvalues at every energy, and only that lane
    import striplab.spectral

    recounted, lane_counts = [], striplab.spectral._lane_counts

    def solving(base_band, diag, thresholds, lane_norm):
        recounted.append(diag.tolist())
        return lane_counts(base_band, diag, thresholds, lane_norm)

    monkeypatch.setattr(striplab.spectral, "_lane_counts", solving)
    E, b, c = 1.0, 8e-7, 1.3
    tie = 1e-12 * (c + b + E + 1.0)
    base = np.array([[0.0, 0.0], [b, 0.0]])
    diags = np.array([[E + 1.5 * tie, c], [0.7, 1.6], [-0.2, 2.5]])
    energies = [2.0, E, 0.5, E]
    counts = count_below_ensemble(base, diags, energies)
    assert recounted == [diags[0].tolist()]
    for s in range(3):
        A = _dense_lane(base, diags[s])
        assert counts[s].tolist() == [dense_count(A, e) for e in energies]
    assert counts[0].tolist() == [2, 1, 0, 1]
    # the flagged pass alone undercounts E: only the recount sees 1
    neg, hit = banded_inertia(base, diags[:1] - (E + tie), tie)
    assert neg[0] == 0 and hit[0]


def test_ensemble_grid_recounts_probe_outside_bracket(monkeypatch):
    # a second-round probe that counts more than its interval's upper end
    # (here n + 1, forced) sends its lane to the eigenvalue recount
    import striplab.spectral

    rounds, inertia = [], striplab.spectral.banded_inertia
    recounted, lane_counts = [], striplab.spectral._lane_counts

    def lying(base_band, shifts, reg):
        neg, hit = inertia(base_band, shifts, reg)
        rounds.append(shifts.copy())
        return (neg + base_band.shape[1] + 1 if len(rounds) == 2 else neg), hit

    def solving(base_band, diag, thresholds, lane_norm):
        recounted.append(diag.tolist())
        return lane_counts(base_band, diag, thresholds, lane_norm)

    monkeypatch.setattr(striplab.spectral, "banded_inertia", lying)
    monkeypatch.setattr(striplab.spectral, "_lane_counts", solving)
    rng = np.random.default_rng(43)
    base = _random_lower_band(rng, 30, 2, False)
    diags = rng.uniform(-2.0, 2.0, (4, 30))
    energies = np.linspace(-3.0, 3.0, 8)
    counts = count_below_ensemble(base, diags, energies)
    assert len(rounds[1]) == 4 and len(recounted) == 4
    for s in range(4):
        A = _dense_lane(base, diags[s])
        assert counts[s].tolist() == [dense_count(A, E) for E in energies]


def test_banded_inertia_memory_flat_in_n():
    # the rolling row buffer holds INERTIA_ROWS + bw rows whatever n is
    import tracemalloc

    rng = np.random.default_rng(41)
    peaks = []
    for n in (256, 4096):
        base = _random_lower_band(rng, n, 8, False)
        shifts = rng.uniform(-3.0, 3.0, (16, n))
        tracemalloc.start()
        banded_inertia(base, shifts, 1e-12)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # a whole-band (n + bw, bw + 1, S) work array would take 4.7 MB at n = 4096
    assert peaks[1] <= 1.1 * peaks[0] + 4096
    assert peaks[1] < 200_000


def test_block_lanes_bounds_a_wide_band_pass(monkeypatch):
    # one pass of block_lanes lanes at a wide band, its shifts included,
    # peaks inside BLOCK_BYTES: every per-lane array of the kernel is counted,
    # and numpy's ufunc buffers are reserved (long narrow bands overshot the
    # budget by 0.3-1.3% without that reserve)
    import tracemalloc

    import striplab.spectral

    rng = np.random.default_rng(47)
    for n, bw, budget in ((512, 128, 3 << 20), (1024, 256, 5 << 20), (2048, 48, 2 << 20),
                          (2048, 64, 4 << 20), (4096, 32, 4 << 20)):
        monkeypatch.setattr(striplab.spectral, "BLOCK_BYTES", budget)
        base = _random_lower_band(rng, n, bw, False)
        diags = rng.uniform(-3.0, 3.0, (striplab.spectral.block_lanes(base), n))
        tracemalloc.start()
        banded_inertia(base, diags - 0.5, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(diags) > 1 and peak <= budget


def _column_loop_inertia(band, reg):
    """Reference LDL^T: one strided update per column offset, in place on (S, bw+1, n)."""
    S, bwp1, n = band.shape
    bw = bwp1 - 1
    reg = np.broadcast_to(np.asarray(reg, dtype=float), (S,))
    is_complex = np.iscomplexobj(band)
    neg = np.zeros(S, dtype=np.int64)
    hit = np.zeros(S, dtype=bool)
    for j in range(n):
        d = band[:, 0, j].real.copy()
        small = np.abs(d) < reg
        if small.any():
            hit |= small
            d[small] = np.where(d[small] < 0, -reg[small], reg[small])
        neg += d < 0
        m = min(bw, n - 1 - j)
        if m == 0:
            continue
        l = band[:, 1 : m + 1, j] / d[:, None]
        lc = np.conj(l) if is_complex else l
        for q in range(1, m + 1):
            band[:, 0 : m - q + 1, j + q] -= (d * lc[:, q - 1])[:, None] * l[:, q - 1 : m]
    return neg, hit


def _assert_matches_column_loop(base, shifts, reg):
    band = np.broadcast_to(base, (len(shifts),) + base.shape).copy()
    band[:, 0, :] += shifts
    want = _column_loop_inertia(band, reg)
    kept = (base.copy(), shifts.copy())
    got = banded_inertia(base, shifts, reg)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(base, kept[0]) and np.array_equal(shifts, kept[1])
    return got


@pytest.mark.parametrize("is_complex", [False, True])
def test_banded_inertia_matches_column_loop(is_complex):
    # the blocked pass gives every pivot, count and flag of the column loop:
    # narrow and wide bands, n at and around bw, a panel and a buffer load,
    # a scalar and a per-lane reg; each lane alone as in the batch.  Lanes
    # 0-4 meet a zero or a negative pivot inside reg: at the first pivot,
    # inside a panel, at a panel's last pivot and just after a buffer
    # reload; each sits on a row with nothing left of its diagonal, so it
    # is the same diagonal entry in both kernels
    import striplab.spectral

    rng = np.random.default_rng(29 + is_complex)
    rows, panel = striplab.spectral.INERTIA_ROWS, striplab.spectral.INERTIA_PANEL
    for bw in (0, 1, 3, 7, 8, 9, 24):
        nb = striplab.spectral._panel_width(bw)
        nudged = [(0, 0.0), (0, -5e-13), (nb // 2, 0.0), (2 * nb - 1, -5e-13), (rows, 0.0)]
        for n in sorted({0, 1, max(bw - 1, 1), max(bw, 1), bw + 1, panel - 1, panel, panel + 1,
                         rows - 1, rows, rows + 1, 2 * rows + 3, 300}):
            base = _random_lower_band(rng, n, bw, is_complex)
            shifts = rng.uniform(-3.0, 3.0, (7, n))
            for s, (j, off) in enumerate(nudged):
                if j < n:
                    for r in range(1, min(bw, j) + 1):
                        base[r, j - r] = 0
                    shifts[s, j] = off - base[0, j].real
            for reg in (1e-12, rng.uniform(0.0, 0.5, 7)):
                neg, hit = _assert_matches_column_loop(base, shifts, reg)
                assert all(hit[s] for s, (j, _) in enumerate(nudged) if j < n)
                reg_s = np.broadcast_to(reg, (7,))
                for s in range(7):
                    alone = banded_inertia(base, shifts[s : s + 1], reg_s[s])
                    assert (alone[0][0], alone[1][0]) == (neg[s], hit[s])


def test_banded_inertia_matches_column_loop_on_strip_ensemble(monkeypatch):
    # a two-point ensemble at n=192, bw=24, counted near the bottom of the
    # spectrum as the quantum tail counts it
    import striplab.spectral

    calls = []

    def checked(base_band, shifts, reg):
        calls.append(shifts.shape)
        return _assert_matches_column_loop(base_band, shifts, reg)

    monkeypatch.setattr(striplab.spectral, "banded_inertia", checked)
    model = replace(default_model(), dist=TwoPointCouplings(-2.0, -1.0, p=0.5))
    eng = StripEnsemble(model, L=8, M=24, master_seed=5)
    diags = eng.sample_diags(range(12))
    for E in (eng.e0 + 0.05, eng.e0 + 0.7):
        count_below_ensemble(eng.base_band, diags, [E])
    assert calls == [(12, 192), (12, 192)]


def test_count_below_grid_under_spectrum():
    # energies at or below -||A||_inf - 1 lie under every eigenvalue and
    # under the searched range of the eigenvalue kernel: all counts are zero
    rng = np.random.default_rng(23)
    Hs, A = random_banded_symmetric(rng, n=40, bw=3)
    low = -np.abs(A).sum(axis=1).max() - 1.0
    assert count_below(Hs, low - np.array([3.0, 2.0, 1.0])).tolist() == [0, 0, 0]
    assert count_below(Hs, [low - 1.0, low]).tolist() == [0, 0]
    assert count_below(Hs, low) == 0


def test_count_below_near_tie_beyond_dense_size():
    # an eigenvalue strictly inside the regularization band around E + tie,
    # also on an operator past the old dense-fallback size: count_below
    # counts it from the banded eigenvalues, at one energy and on a grid,
    # and an ensemble lane recounts its flagged LDL^T pivot the same way,
    # with no exception
    diag = np.full(2001, 3.0)
    diag[:2] = [1.0 + 2.5e-12, 1.0]
    near = sp.csr_matrix(np.diag([1.0 + 2.5e-12, 1.0, 3.0]))
    assert count_below(near, 1.0) == 2
    assert count_below(near, [1.0, 2.0]).tolist() == [2, 2]
    assert count_below(sp.diags(diag, format="csr"), 1.0) == 2
    assert count_below_ensemble(np.zeros((1, 2001)), diag[None], [1.0]).tolist() == [[2]]


def test_count_below_recounts_flagged_pivot():
    # the first pivot lies inside the tie band and is nudged, which flips the
    # sign of the second; the lowest eigenvalue sits 4.8e-13 below E + tie, so
    # only the eigenvalue recount of the flagged lane counts it, in a one-lane
    # ensemble at one energy as on one operator
    E, b, c = 1.0, 8e-7, 1.3
    tie = 1e-12 * (c + b + E + 1.0)
    A = np.array([[E + 1.5 * tie, b], [b, c]])
    base, diag = np.array([[0.0, 0.0], [b, 0.0]]), np.array([[A[0, 0], c]])
    neg, hit = banded_inertia(base, diag - (E + tie), tie)
    assert neg[0] == 0 and hit[0]
    assert count_below_ensemble(base, diag, [E]).tolist() == [[dense_count(A, E)]] == [[1]]
    assert count_below(sp.csr_matrix(A), E) == 1


def test_ensemble_count_independent_of_chunkmates():
    # the tie scale is the lane's own norm, so a large-diagonal chunkmate
    # cannot widen it, in the LDL^T pass of one energy and in the bisection
    # of a grid; one lane eigenvalue lies exactly at E
    base = np.zeros((1, 3))
    lane = np.array([1.0 + 1e-9, 1.0, 3.0])
    grid = np.linspace(1.0, 2.0, 5)
    for energies, want in (([1.0], [1]), (grid, [1, 2, 2, 2, 2])):
        alone = count_below_ensemble(base, lane[None], energies)
        beside = count_below_ensemble(base, np.stack([lane, [1e6, 0.0, 0.0]]), energies)
        assert alone[0].tolist() == beside[0].tolist() == want
    assert count_below(sp.diags(lane, format="csr"), 1.0) == 1


def test_temple_exact_eigenvector():
    A = np.diag([1.0, 3.0, 5.0])
    u = np.array([1.0, 0.0, 0.0])
    bound = temple_lower_bound(sp.csr_matrix(A), u, 2.0)
    assert abs(bound - 1.0) <= 1e-12


def test_temple_two_by_two_frozen():
    eps = 0.1
    A = sp.csr_matrix(np.array([[0.0, eps], [eps, 1.0]]))
    bound = temple_lower_bound(A, np.array([1.0, 0.0]), 0.5)
    assert abs(bound - (-0.02)) <= 1e-15
    e0 = (1 - np.sqrt(1 + 4 * eps * eps)) / 2
    assert bound <= e0


def test_temple_denominator_guard():
    A = sp.csr_matrix(np.diag([0.0, 1.0]))
    with pytest.raises(DenominatorNonpositive):
        temple_lower_bound(A, np.array([1.0, 0.0]), -0.5)


def test_temple_random_instances_below_ground():
    rng = np.random.default_rng(12)
    for _ in range(40):
        Hs, A = random_banded_symmetric(rng, n=30, bw=4)
        evals, evecs = np.linalg.eigh(A)
        u = evecs[:, 0] + 0.05 * rng.standard_normal(30)
        u /= np.linalg.norm(u)
        mean = u @ A @ u
        if evals[1] <= mean:
            continue
        bound = temple_lower_bound(Hs, u, evals[1])
        assert bound <= evals[0] + 1e-10


def test_rayleigh_ritz():
    g = build_grid(1, 1, L=2, a=1, M=2)
    H = assemble(g, np.zeros(4), bc_all_neumann())
    const = np.ones(4)
    assert abs(rayleigh_ritz_upper(H, const)) <= 1e-12
    with pytest.raises(ZeroVector):
        rayleigh_ritz_upper(H, np.zeros(4))
    rng = np.random.default_rng(13)
    for _ in range(30):
        Hs, A = random_banded_symmetric(rng, n=25, bw=3)
        u = rng.standard_normal(25)
        assert rayleigh_ritz_upper(Hs, u) >= np.linalg.eigvalsh(A)[0] - 1e-12


def certificate_never_contradicted(rng, n_trials):
    for _ in range(n_trials):
        n = int(rng.integers(8, 40))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        evals, evecs = np.linalg.eigh(A)
        k = int(rng.integers(1, 5))
        noise = rng.uniform(0.0, 0.25)
        phis = [
            evecs[:, j] + noise * rng.standard_normal(n) / np.sqrt(n) for j in range(k)
        ]
        Phi = np.column_stack(phis)
        G = Phi.T @ Phi
        B = Phi.T @ A @ Phi
        eps1 = float(np.abs(G - np.eye(k)).max())
        eps2 = float(np.abs(B - np.diag(np.diag(B))).max())
        alpha = float(np.max(np.diag(B)))
        if eps1 >= 0.9:
            continue
        try:
            cert = variational_count_bound(lambda v: A @ v, phis, alpha, eps1, eps2)
        except GramDegenerate:
            continue
        have = int(np.sum(evals <= cert.threshold + 1e-10 * (1 + abs(cert.threshold))))
        assert have >= cert.n, (have, cert)
        assert cert.rayleigh_max <= cert.threshold + 1e-10 * (1 + abs(cert.threshold))


def test_variational_count_bound_exact_vectors():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((20, 20))
    A = (A + A.T) / 2
    evals, evecs = np.linalg.eigh(A)
    phis = [evecs[:, j] for j in range(3)]
    cert = variational_count_bound(lambda v: A @ v, phis, float(evals[2]), 1e-12, 1e-10)
    assert abs(cert.threshold - evals[2]) <= 1e-9
    assert int(np.sum(evals <= cert.threshold + 1e-9)) >= 3


def test_variational_count_bound_perturbed_50x50():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((50, 50))
    A = (A + A.T) / 2
    evals, evecs = np.linalg.eigh(A)
    phis = [evecs[:, j] + 1e-3 * rng.standard_normal(50) for j in range(2)]
    Phi = np.column_stack(phis)
    G, B = Phi.T @ Phi, Phi.T @ A @ Phi
    cert = variational_count_bound(
        lambda v: A @ v,
        phis,
        float(np.max(np.diag(B))),
        float(np.abs(G - np.eye(2)).max()),
        float(np.abs(B - np.diag(np.diag(B))).max()),
    )
    assert int(np.sum(evals <= cert.threshold + 1e-12)) >= 2


def test_variational_count_bound_randomized():
    certificate_never_contradicted(np.random.default_rng(16), 150)


def test_variational_count_bound_hypothesis_violated():
    A = np.diag([0.0, 1.0])
    phis = [np.array([1.0, 0.0]), np.array([0.8, 0.6])]
    with pytest.raises(HypothesisViolated):
        variational_count_bound(lambda v: A @ v, phis, 1.0, 1e-6, 10.0)
