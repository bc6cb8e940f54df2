"""Eigenvalue machinery: lowest eigenpairs, counting, certified bounds.

Counting below energies runs through ``count_below_ensemble``, one lane per
operator sharing the off-diagonal structure; a single operator is the
one-lane case.  Two kernels answer the same question:

* the inertia of the shifted operator: an unpivoted batched LDL^T pass
  over the lower band storage counts negative pivots at one energy;
* the eigenvalues of each lane's band (LAPACK ``?sbevx``/``?hbevx`` over a
  range), found once and searched for every energy.

A pass costs about n bw^2 multiply-adds per lane in about ten numpy calls
per pivot, whatever the bandwidth and the lane count: pivot j subtracts one
rank-1 update from its bw x bw trailing window in all lanes at once.  A
banded eigensolve costs about n^2 bw per lane, inside LAPACK.
``scripts/kernel_timing.py`` times both on real strip ensembles.  One
lane's eigensolve, counted in passes per lane, over three runs on a 2-core
x86 VM (numpy 2.4, scipy 1.17; the 96-lane column from three later runs):

    n / bw      1 lane    48 lanes   96 lanes   128 lanes   192 lanes   256 lanes
    192 / 24    0.3-0.4   3.0-4.0    3.1-5.5    4.6-5.9     3.3-5.4     4.9-6.8
    256 / 16    0.4       6.5-7.3    8.7-10     9.1-10      14-15       13-15
    384 / 24    0.7-0.8   6.7-7.6    6.8-8.9    9.7-13      9.8-12      10-13
    512 / 32    1.1-1.2   6.0-7.4    7.9-11     8.7-11      9.1-13      8.4-10
    720 / 24    1.2-1.6   10-14      12-17      17-25       14-24       17-32
    1152 / 24   2.1-2.8   20-22      21-31      28-35       28-36       26-39

A single energy takes the LDL^T pass and more than one take the
eigenvalues, which stays the cheaper choice on the campaigns' traffic: the
quantum tail counts one energy on whole 96-sample ensembles at n=192 to
1152 (one pool task each), where a pass is 3 to 31 times cheaper, and
bracketing and the sandwich check count grids on one operator, where an
eigensolve costs 0.4 to 2.8 passes.  The margin on ensemble grids is thin:
the benchmark's IDSS curve sends 12 energies at n=256/bw16 on 128 lanes
(crossover 9-10) and its classical tail 10 energies at n=384/bw24 on 192
lanes (crossover 10-12), where the two kernels tie within the noise.  Grids
of fewer than about 20 energies on ensembles at n >= 720, and a single
energy on one operator below n of about 720, would be cheaper the other
way, but no campaign sends them.  The rule reads only the number of
energies, never the lane count, so a chunk or a worker block never changes
the kernel a sample is counted with.

Both kernels keep one tie contract: each lane counts eigenvalues <= E +
tie with tie = 1e-12 * (||H_s||_inf + |E| + 1) from its own operator.
The LDL^T pass shifts by E + tie, nudges near-zero pivots to the tie
scale and flags them; a flagged lane is recounted from its eigenvalues.
So every call returns a count, counts never depend on the batch, and the
eigenvalue kernel is nondecreasing in E by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DenominatorNonpositive,
    GramDegenerate,
    HypothesisViolated,
    InvalidParam,
    NoConvergence,
    ZeroVector,
)

DENSE_CAP = 2000
TIE_REL = 1e-12
_EIGSH_SEED = 0x5EED_C0DE


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal
    residuals: np.ndarray
    method: str


def _as_matrix(H):
    mat = getattr(H, "matrix", H)
    if isinstance(mat, np.ndarray):
        return sp.csr_matrix(mat)
    return mat.tocsr()


def lowest_k(H, k: int, tol: float = 1e-9, dense_cap: int = DENSE_CAP) -> SpectralResult:
    """k lowest eigenpairs with certified residuals.

    Dense path below ``dense_cap``; seeded Lanczos (full reorthogonalization
    via ARPACK) above it.  Deterministic for a given operator.
    """
    mat = _as_matrix(H)
    n = mat.shape[0]
    if not 1 <= k <= n:
        raise InvalidParam(f"need 1 <= k <= {n}, got k={k}")

    if n <= dense_cap:
        dense = mat.toarray()
        evals, evecs = np.linalg.eigh(dense)
        evals, evecs = evals[:k].copy(), evecs[:, :k].copy()
        method = "dense"
    else:
        rng = np.random.Generator(np.random.PCG64(_EIGSH_SEED ^ (n * 1000003 + k)))
        v0 = rng.standard_normal(n)
        try:
            evals, evecs = spla.eigsh(
                mat, k=k, which="SA", v0=v0, tol=tol * 1e-2, maxiter=max(5000, 50 * n)
            )
        except spla.ArpackNoConvergence as exc:
            raise NoConvergence(f"eigsh failed: {exc}") from exc
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        method = "iterative"

    residuals = np.array(
        [np.linalg.norm(mat @ evecs[:, i] - evals[i] * evecs[:, i]) for i in range(k)]
    )
    if np.any(residuals > tol):
        raise NoConvergence(
            f"residuals {residuals.max():.3e} exceed tol {tol:.3e}", achieved=float(residuals.max())
        )
    return SpectralResult(
        eigenvalues=np.real(evals), eigenvectors=evecs, residuals=residuals, method=method
    )


# -- banded inertia counting --------------------------------------------------


def lower_band(mat) -> np.ndarray:
    """Lower band storage band[r, j] = A[j+r, j] of a sparse Hermitian matrix."""
    coo = mat.tocoo()
    mask = coo.row >= coo.col
    r, c, v = coo.row[mask], coo.col[mask], coo.data[mask]
    bw = int((r - c).max()) if len(r) else 0
    band = np.zeros((bw + 1, mat.shape[0]), dtype=coo.data.dtype)
    np.add.at(band, (r - c, c), v)
    return band


def _offdiag_row_sums(band: np.ndarray) -> np.ndarray:
    """Row sums of |A| off the diagonal, A symmetric in lower band storage."""
    n = band.shape[1]
    absb = np.abs(band[1:])
    s = absb.sum(axis=0)
    for r in range(1, band.shape[0]):
        s[r:] += absb[r - 1, : n - r]
    return s


def banded_inertia(base_band: np.ndarray, shifts: np.ndarray, reg):
    """Negative-pivot counts of batched banded LDL^T.

    Lane s factors the Hermitian operator with lower band ``base_band``
    (shape (bw+1, n)) plus ``shifts[s]`` on its diagonal; ``shifts`` has
    shape (S, n) and ``reg`` is a scalar or one value per lane.  Returns
    (neg_counts, hit_reg) where ``hit_reg`` marks lanes whose factorization
    met a pivot below the lane's ``reg`` in magnitude (nudged to +-reg to
    continue).  Lanes are independent: results do not depend on the batch
    size.  The inputs are not modified.

    The work array ``work[j, r, s]`` = A_s[j+r, j] keeps the lanes last and
    bw zero rows past n, so pivot j updates its whole trailing window at
    once: ``work[j+q, r] -= (d conj(l_q)) l_{q+r}`` for q = 1..bw, r =
    0..bw-1, with the multipliers l read through a Hankel view of a
    zero-padded buffer.  Every entry of the operator takes the same
    products, in the same order, as in a column-by-column update; the
    extra updates subtract zeros or land past n, where no pivot reads them.
    """
    S, n = shifts.shape
    bw = base_band.shape[0] - 1
    reg = np.broadcast_to(np.asarray(reg, dtype=float), (S,))
    work = np.zeros((n + bw, bw + 1, S), dtype=np.result_type(base_band, shifts))
    work[:n] = base_band.T[:, :, None]
    work[:n, 0] += shifts.T
    l_pad = np.zeros((2 * bw, S), dtype=work.dtype)
    # hankel[c, r] = l_pad[c + r] = l_{c+r+1}
    hankel = sliding_window_view(l_pad, bw, axis=0)[:bw].transpose(0, 2, 1)
    neg = np.zeros(S, dtype=np.int64)
    hit = np.zeros(S, dtype=bool)
    for j in range(n):
        d = work[j, 0].real.copy()
        small = np.abs(d) < reg
        if small.any():
            hit |= small
            d[small] = np.where(d[small] < 0, -reg[small], reg[small])
        neg += d < 0
        np.divide(work[j, 1:], d, out=l_pad[:bw])
        work[j + 1 : j + 1 + bw, :bw] -= (d * np.conj(l_pad[:bw]))[:, None, :] * hankel
    return neg, hit


def count_below(H, E):
    """Number of eigenvalues <= E, multiplicity counted.

    ``E`` is a scalar or an array of energies, with numpy semantics: a
    scalar gives an ``int``, an array an int64 array of its shape, counted
    by one call of count_below_ensemble with one lane.  So single operators
    and ensembles share the kernels and their tie rule: eigenvalues within
    1e-12 * (||H||_inf + |E| + 1) of E count as below.  A near-tie pivot
    is resolved by the banded eigenvalue recount, so no size of operator
    raises and no caller retries with a perturbed energy.
    """
    band = lower_band(_as_matrix(H))
    counts = count_below_ensemble(band, np.zeros((1, band.shape[1])), np.ravel(E))[0]
    return int(counts[0]) if np.ndim(E) == 0 else counts.reshape(np.shape(E))


def _lane_counts(base_band, diag, thresholds: np.ndarray, lane_norm: float) -> np.ndarray:
    """Eigenvalues <= each threshold of the lane ``base_band`` plus ``diag`` on its diagonal.

    Only eigenvalues in (-||H_s||_inf - 1, max threshold] are computed;
    no eigenvalue lies below that range, so thresholds at or below its
    lower end count zero.
    """
    low = -lane_norm - 1.0
    if thresholds.max(initial=low) <= low:
        return np.zeros(len(thresholds), dtype=np.int64)
    lane = base_band.copy()
    lane[0] += diag
    evals = sla.eigvals_banded(
        lane, lower=True, select="v", select_range=(low, thresholds.max())
    )
    return np.searchsorted(evals, thresholds, side="right")


def count_below_ensemble(base_band: np.ndarray, diag_samples: np.ndarray, energies) -> np.ndarray:
    """Counts for an ensemble sharing off-diagonal structure.

    ``base_band`` is the lower band of the sample-independent part
    (boundary terms and floor included as assembled), ``diag_samples``
    holds per-sample diagonal additions, shape (S, n).  Returns an
    integer array of shape (S, n_energies): the eigenvalues of each lane
    <= E + tie, with tie = 1e-12 * (||H_s||_inf + |E| + 1) taken from that
    lane's own operator, so a count never depends on which samples share
    the batch.

    For more than one energy, each lane's eigenvalues below the largest
    E + tie are found once with the LAPACK banded solver and searched for
    every energy; the counts are then nondecreasing in E.  A single energy
    takes one batched LDL^T pass, and a lane whose factorization meets a
    pivot below its tie scale is recounted from its eigenvalues, at any n.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    S = diag_samples.shape[0]
    counts = np.empty((S, len(energies)), dtype=np.int64)
    # ||H_s||_inf from the shared off-diagonal row sums and each lane's diagonal
    off = _offdiag_row_sums(base_band)
    lane_norm = (np.abs(base_band[0] + diag_samples) + off).max(axis=1, initial=0.0)
    tie = TIE_REL * (lane_norm[:, None] + np.abs(energies) + 1.0)
    if len(energies) == 1:
        counts[:, 0], hit = banded_inertia(base_band, diag_samples - (energies + tie), tie[:, 0])
        lanes = np.nonzero(hit)[0]
    else:
        lanes = range(S)
    for s in lanes:
        counts[s] = _lane_counts(base_band, diag_samples[s], energies + tie[s], lane_norm[s])
    return counts


# -- certified variational bounds ---------------------------------------------


def temple_lower_bound(H, u: np.ndarray, lam1_low: float) -> float:
    """Temple's inequality: a lower bound on the ground energy.

    Valid whenever ``lam1_low`` does not exceed the first excited level and
    exceeds the trial mean <u, H u>.
    """
    mat = _as_matrix(H)
    u = np.asarray(u, dtype=mat.dtype)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise ZeroVector("Temple bound needs a nonzero trial vector")
    u = u / nrm
    Hu = mat @ u
    mean = float(np.vdot(u, Hu).real)
    second = float(np.vdot(Hu, Hu).real)
    var = max(second - mean * mean, 0.0)
    denom = lam1_low - mean
    if denom <= 0:
        raise DenominatorNonpositive(
            f"gap floor {lam1_low} does not exceed the trial mean {mean}"
        )
    return mean - var / denom


def rayleigh_ritz_upper(H, u: np.ndarray) -> float:
    """Rayleigh quotient <u, H u>/<u, u>: an upper bound on the ground energy."""
    mat = _as_matrix(H)
    u = np.asarray(u, dtype=mat.dtype)
    nrm2 = float(np.vdot(u, u).real)
    if nrm2 == 0:
        raise ZeroVector("Rayleigh-Ritz bound needs a nonzero trial vector")
    return float(np.vdot(u, mat @ u).real) / nrm2


@dataclass(frozen=True)
class CountCertificate:
    """Certified lower bound on the eigenvalue count below ``threshold``.

    Guarantees N(A, threshold) >= n from verified near-orthonormality and
    near-diagonality of the trial family.  ``rayleigh_max`` is the exact
    supremum of the Rayleigh quotient over the trial span (always <=
    threshold); ``threshold`` reduces to the familiar
    (alpha + eps2) / (1 - eps1) for small deviations and nonnegative
    numerator, with the Gram extremal eigenvalues replacing the first-order
    1 -+ eps1 factors so the certificate stays valid for negative spectra.
    """

    threshold: float
    n: int
    alpha: float
    eps1: float
    eps2: float
    eps1_spectral: float
    eps2_spectral: float
    gram_min_eig: float
    rayleigh_max: float


def variational_count_bound(apply_A, phis, alpha: float, eps1: float, eps2: float) -> CountCertificate:
    """Certify N(A, alpha') >= n from n approximate eigenvectors.

    Verifies internally that the Gram matrix deviates from the identity by
    at most ``eps1`` entrywise, that the A-matrix of the family deviates
    from diag(<phi_j, A phi_j>) by at most ``eps2`` entrywise with all
    diagonal values <= alpha, and that the Gram matrix is positive.
    """
    Phi = np.column_stack([np.asarray(p) for p in phis])
    n_vec = Phi.shape[1]
    if not 0 <= eps1 < 1:
        raise HypothesisViolated(f"need 0 <= eps1 < 1, got {eps1}")
    APhi = np.column_stack([apply_A(Phi[:, j]) for j in range(n_vec)])
    G = Phi.conj().T @ Phi
    B = Phi.conj().T @ APhi
    B = 0.5 * (B + B.conj().T)

    # verification slacks absorb evaluation noise of the Gram/A matrices
    slack = 1e-12 * (1.0 + float(np.abs(B).max()))
    dev_g = float(np.abs(G - np.eye(n_vec)).max())
    if dev_g > eps1 * (1 + 1e-12) + slack:
        raise HypothesisViolated(f"Gram deviation {dev_g:.3e} exceeds eps1={eps1:.3e}")
    alphas = np.real(np.diag(B))
    if alphas.max() > alpha + slack:
        raise HypothesisViolated(
            f"diagonal value {alphas.max():.6e} exceeds alpha={alpha:.6e}"
        )
    off = B - np.diag(np.diag(B))
    dev_b = float(np.abs(off).max())
    if dev_b > eps2 * (1 + 1e-12) + slack:
        raise HypothesisViolated(f"A-matrix off-diagonal {dev_b:.3e} exceeds eps2={eps2:.3e}")

    g_eigs = np.linalg.eigvalsh(G)
    if g_eigs[0] <= 0:
        raise GramDegenerate(f"Gram matrix minimum eigenvalue {g_eigs[0]:.3e} <= 0")

    e1s = float(np.abs(np.linalg.eigvalsh(G - np.eye(n_vec))).max())
    e2s = float(np.abs(np.linalg.eigvalsh(B - np.diag(alphas))).max())
    num = alpha + e2s
    denom = g_eigs[0] if num >= 0 else g_eigs[-1]
    threshold = num / denom

    rayleigh_max = float(sla.eigh(B, G, eigvals_only=True)[-1])
    return CountCertificate(
        threshold=threshold,
        n=n_vec,
        alpha=float(alpha),
        eps1=float(eps1),
        eps2=float(eps2),
        eps1_spectral=e1s,
        eps2_spectral=e2s,
        gram_min_eig=float(g_eigs[0]),
        rayleigh_max=rayleigh_max,
    )
