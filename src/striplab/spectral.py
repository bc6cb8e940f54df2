"""Eigenvalue machinery: lowest eigenpairs, counting, certified bounds.

Every eigenpair the lab reads comes from ``lowest_k``: seeded Lanczos above
``DENSE_CAP`` sites, and up to it one of two LAPACK paths, each on its own
Fortran copy of the operator, which it overwrites:

* ``eigh_dense`` runs the divide-and-conquer driver ``?syevd``/``?heevd``,
  the one numpy's ``eigh`` runs, so every eigenpair is bit-equal to numpy's.
  A real operator peaks at about 3.3 n^2 doubles where
  ``np.linalg.eigh(mat.toarray())`` took 5.3 n^2 (59 against 95 MiB at
  n = 1536).  ``lowest_k`` takes it by default, and nothing else calls
  it: the reference ground state, ``striplab decay``'s profile and the
  pairs of ``striplab dynamics``' window read the vectors' bits.
* ``lowest_k(..., values_only=True)`` runs the driver's own two steps,
  ``?sytrd``/``?hetrd`` and then ``?stevd``, which calls ``?stedc('I')`` as
  the driver does, so its eigenvalues are bit-equal to ``eigh_dense``'s by
  construction.  It then back-transforms only the k vectors it returns,
  where the driver's ``?ormtr`` transforms all n, about 30% of a solve at
  n = 1536.  Those k vectors are orthonormal with certified residuals but
  in general not bit-equal to the driver's: at n = 1536, of k = 1 to 256,
  only some multiples of 12 matched (five multiples of 48 at two BLAS
  threads), none below 36.
  The band cells, the gap strips, Temple's and Rayleigh's direct energies
  and the bulk bottom's Neumann probe read eigenvalues alone and take it.

The subset drivers (``?syevr``, ``?syevx``) and ``eig_banded`` are faster
still but not bit-equal.  The bytes of both paths also depend on the BLAS
thread count: on the benchmark's certificates config (seed 0)
``OPENBLAS_NUM_THREADS=1`` changes the n = 1536 solves (the L=16 row of
``gap.csv``, both ``direct_e0`` values in ``bounds.csv``, ``decay.csv``) and
leaves ``band.csv`` (n = 96) and the ARPACK rows of ``gap.csv`` as they are
(``dynamics.csv`` too, but its window there holds no eigenvalue to solve).
``OPENBLAS_THREAD_TIMEOUT``, which ``import striplab`` sets, changes no
byte: it decides only when an idle BLAS thread sleeps.

Counting below energies has two entry points: ``count_below_ensemble`` for
lanes that share off-diagonal structure (the disorder ensembles), and
``count_below`` for one operator.  The kernels see a strip's operator with
its sites in ``grid.band_order()``, the longest axis outermost:
``lower_band`` so orders a ``Hamiltonian``, which ``count_below`` and
``idss.StripEnsemble``'s base band take, and the ensemble orders its
sampled diagonals so.  The band is then n / (longest axis) wide where the
grid's own order (x1 outermost) gives n / (aL): 16 against 24 on the
classical tail's L = 16, M = 24 strip, L against 24 on the quantum tail's
strips with L < 24, and (aL)^2 against aL M at d1 = 2 when M > aL.  A
permutation changes no eigenvalue and moves values without arithmetic, so
a count could differ from the grid order's only for an eigenvalue within
rounding of E + tie; no CSV byte of ``scripts/csv_digests.py`` moved.  Two kernels answer the
same question:

* the inertia of the shifted operator: an unpivoted, blocked, batched
  LDL^T pass over the band counts negative pivots at one energy a lane
  (``banded_inertia``);
* the eigenvalues of one lane's band (LAPACK ``?sbevx``/``?hbevx`` over a
  range), found once and searched for every energy.

A pass costs about n bw^2 multiply-adds per lane.  It takes its pivots in
panels of ``INERTIA_PANEL``: each pivot costs a few numpy calls on its
panel's columns in all lanes at once, and each panel one batched matmul (a
BLAS product a lane) for its rank-nb update of the bw x bw trailing block.
Its buffer holds ``INERTIA_ROWS`` + bw rows a lane, so its memory does not
grow with n.  A banded eigensolve costs about n^2 bw per lane, inside
LAPACK.  ``scripts/kernel_timing.py`` times both on real strip ensembles,
in band order (bw below; 576 / 36 is a d1 = 2 strip, L = 6, M = 16, whose
grid order has bw 96).  One lane's eigensolve, counted in passes per lane,
over three runs on a 2-core x86 VM (numpy 2.4, scipy 1.17):

    n / bw      1 lane      48 lanes   96 lanes   128 lanes   192 lanes   256 lanes
    128 / 8     0.19-0.27   7-9        11-13      12-16       14-19       15-21
    192 / 8     0.29-0.33   9-11       14-17      16-20       18-23       20-24
    256 / 16    0.44-0.51   11-13      15-17      16-19       17-19       19-20
    384 / 16    0.34-0.70   9-18       13-25      14-25       16-27       19-26
    512 / 16    0.95-1.04   22-25      31-35      28-36       34-40       37-41
    576 / 36    1.32-1.65   22-23      23-25      21-23       21-23       20-22
    720 / 24    1.23-1.76   33-35      39-42      30-37       35-39       35-39
    1152 / 24   2.91-3.33   59-71      73-85      60-74       67-74       72-77

The kernel follows the entry point, never the lane count, so a counting or
worker block never changes the kernel a sample is counted with: ensembles
are counted by passes, one operator by its eigenvalues.

* ``count_below_ensemble`` counts every energy by passes.  Counts are
  nondecreasing in E, so a lane bisects its grid: it counts its highest
  energy first, and an interval whose two end counts agree is filled
  without a pass.  Near the band bottom counts are small, so most of a
  grid is filled.  On the benchmark's grid ensembles (seed 0; time of the
  per-lane eigensolves over the bisection's, three runs):

      ensemble         n / bw     lanes   energies   passes a lane   eig / bisection
      IDSS curve       256 / 16   128     12         7.08            2.7-3.0
      classical tail   384 / 16   192     10         5.42            4.8-5.0

  The classical tail's bisection took 126-128 ms, against 187-276 ms in
  the grid's order at bw 24 (three alternating runs).  A single energy is
  one round, the quantum tail's traffic: 96-sample ensembles at n=192 to
  1152, bw 8 to 24 (one pool task each), where a pass is 13 to 85 times
  cheaper than an eigensolve.
* ``count_below`` counts one operator from its banded eigenvalues, found
  once, at one energy or many: its callers, bracketing and the sandwich
  check's periodic ``H_per``, count grids, where an eigensolve costs 0.2
  to 3.3 passes of one lane, fewer than a bisection takes.

Past a few hundred lanes a pass gets no cheaper per lane.  Milliseconds
per lane of one pass, three runs of the script on the same VM:

    n / bw      256 lanes     512 lanes     1024 lanes    1536 lanes
    128 / 8     0.019-0.022   0.018-0.022   0.018-0.018   0.018-0.019
    192 / 8     0.029-0.034   0.030-0.030   0.029-0.032   0.029-0.034
    256 / 16    0.073-0.075   0.071-0.074   0.082-0.114   0.124-0.151
    384 / 16    0.122-0.161   0.105-0.136   0.149-0.178   0.189-0.269

So ``block_lanes`` caps a block at ``BLOCK_LANES`` = 256 lanes, and a grid
round takes at most as many probes as the block has lanes.  With the
rank-1 pass that preceded the blocked one, a 2000-sample quantum tail at
M=24 (n = 192 to 1152, one worker) took a median 15.1 s over five
alternating pairs of runs that way, against 17.2 s in blocks filling
64 MiB (1553 lanes at n=192).

The buffer's ``INERTIA_ROWS`` = 32 rows cost no time against holding all n
rows, and keep a lane's share at (32 + bw)(bw + 1) entries where the
whole band took (n + bw)(bw + 1).  Milliseconds per lane of one pass on 96
lanes, three runs:

    n / bw      16 rows       32 rows       64 rows       128 rows      n rows
    192 / 8     0.041-0.050   0.041-0.046   0.041-0.055   0.040-0.053   0.039-0.053
    384 / 16    0.116-0.161   0.113-0.133   0.115-0.140   0.117-0.137   0.123-0.158
    720 / 24    0.313-0.365   0.330-0.351   0.322-0.359   0.329-0.372   0.354-0.404
    1152 / 24   0.545-0.574   0.522-0.562   0.523-0.545   0.539-0.568   0.575-0.613

The panel width ``INERTIA_PANEL`` = 8 (at most bw) is the fastest or tied
in every row, and keeps the panel arrays small: narrower panels take more
matmuls, wider ones more work in the per-pivot calls.  Milliseconds per
lane, 96 lanes, three runs (6 and 12 do not divide ``INERTIA_ROWS``, so
each buffer load ends in a shorter panel; at bw 8 a panel holds at most 8
pivots, so 12 and 16 run as 8):

    n / bw      4 pivots      6 pivots      8 pivots      12 pivots     16 pivots
    192 / 8     0.045-0.050   0.043-0.048   0.042-0.045   0.043-0.046   0.044-0.045
    384 / 16    0.145-0.162   0.133-0.150   0.120-0.137   0.132-0.141   0.137-0.143
    720 / 24    0.367-0.405   0.341-0.380   0.324-0.343   0.349-0.365   0.341-0.355
    1152 / 24   0.614-0.657   0.577-0.638   0.541-0.589   0.578-0.871   0.556-0.600
    256 / 16    0.102-0.112   0.096-0.102   0.087-0.092   0.089-0.097   0.091-0.098

At wide bands the blocked pass is several times cheaper than the rank-1
one: 8 lanes took 0.18 s against 1.36 s at n=1728, bw=144, and 4 lanes
1.57 s against 6.07 s at n=4096, bw=256 (one run each).

Both kernels keep one tie contract: each lane counts eigenvalues <= E +
tie with tie = 1e-12 * (||H_s||_inf + |E| + 1) from its own operator.
The LDL^T pass shifts by E + tie, nudges near-zero pivots to the tie
scale and flags them; a lane with a flagged pass is recounted from its
eigenvalues at every energy.  So every call returns a count, and counts
never depend on the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import as_strided

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
INERTIA_ROWS = 32  # rows an LDL^T pass factors between two loads of its buffer
INERTIA_PANEL = 8  # pivots whose trailing updates an LDL^T pass applies as one product
assert INERTIA_ROWS % INERTIA_PANEL == 0, "a buffer load must factor whole panels"
BLOCK_LANES = 256
BLOCK_BYTES = 64 << 20
_EIGSH_SEED = 0x5EED_C0DE
# ?syevd and ?stevd each rescale a matrix whose largest entry lies outside
# [_RMIN, 1/_RMIN].  The reduction keeps the Frobenius norm, so the
# tridiagonal's largest entry lies between 1/sqrt(3n) and n times the
# operator's, and a margin of 2n keeps both drivers unscaled.
_RMIN = float(np.sqrt(np.finfo(float).tiny / np.finfo(float).eps))


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


def eigh_dense(H):
    """All eigenpairs of a Hermitian operator, ascending, through LAPACK ``?syevd``/``?heevd``.

    ``H`` is what ``lowest_k`` takes.  The driver factors its own
    Fortran-ordered dense copy in place and writes the eigenvectors over it,
    so a real operator peaks at about 3.3 n^2 doubles (the copy and the
    driver's 2 n^2 workspace); ``H`` itself is never written.  numpy's
    ``eigh`` runs the same driver on the same (lower) triangle, so the pairs
    are bit-equal to ``np.linalg.eigh`` of the dense matrix.  ``lowest_k``
    without ``values_only`` takes it: its callers read the vectors' bits.
    """
    a = _as_matrix(H).toarray(order="F")
    return sla.eigh(a, driver="evd", overwrite_a=True, check_finite=False)


def _lowest_dense(mat, k: int):
    """The k lowest eigenpairs by ``?syevd``'s own steps, back-transforming k vectors only.

    ``?sytrd``/``?hetrd`` reduces a Fortran copy to tridiagonal form in place
    with the driver's (lower) triangle and blocking, and ``?stevd`` runs
    ``?stedc('I')`` on it as the driver does, so the eigenvalues are
    bit-equal to ``eigh_dense``'s while neither rescales (see ``lowest_k``).
    ``?ormqr``/``?unmqr`` then applies the reflectors, stored below the
    subdiagonal, to rows 2..n of the first k tridiagonal eigenvectors.  The
    copy goes once its reflectors are taken, so a real operator peaks at about
    3 n^2 doubles: the reflectors, and ``?stevd``'s eigenvectors and workspace.
    """
    a = mat.toarray(order="F")
    n = a.shape[0]
    if n == 1:  # the driver's own shortcut; ?stevd and ?ormqr would get an empty e and K = 0
        return a[0].real.copy(), np.ones((1, 1), dtype=a.dtype)
    trd, mqr = ("hetrd", "unmqr") if np.iscomplexobj(a) else ("sytrd", "ormqr")
    trd, trd_lwork, mqr = sla.get_lapack_funcs((trd, trd + "_lwork", mqr), (a,))
    lwork, _ = trd_lwork(n, lower=1)
    c, d, e, tau, _ = trd(a, lower=1, lwork=int(lwork.real), overwrite_a=True)
    reflectors = np.asfortranarray(c[1:, : n - 1])
    del a, c
    stevd = sla.get_lapack_funcs("stevd", (d,))
    evals, z, info = stevd(d, e, overwrite_d=True, overwrite_e=True)
    if info:
        raise NoConvergence(f"?stevd failed to converge (info={info})")
    vecs = z[:, :k].astype(reflectors.dtype)
    del z
    _, work, _ = mqr("L", "N", reflectors, tau, vecs[1:], -1)
    vecs[1:] = mqr("L", "N", reflectors, tau, vecs[1:], int(work[0].real))[0]
    return evals[:k].copy(), vecs


def lowest_k(
    H, k: int, tol: float = 1e-9, dense_cap: int = DENSE_CAP, *, values_only: bool = False
) -> SpectralResult:
    """k lowest eigenpairs with certified residuals.

    Dense path below ``dense_cap``: ``eigh_dense``, ``?syevd``/``?heevd`` in
    place on one dense copy (a peak of about 3.3 n^2 doubles for a real
    operator), bit-equal to ``np.linalg.eigh``.  ``values_only`` is for a
    caller that reads the eigenvalues and residuals alone: ``_lowest_dense``
    gives the same eigenvalue bits and back-transforms only the k returned
    vectors (a peak of about 3 n^2 doubles).  Those vectors are orthonormal
    and certified like the others, but their bits differ from the driver's.
    An operator whose largest entry lies outside [2n 1e-146, 1e146 / 2n],
    where LAPACK would rescale it, takes the driver anyway.
    Seeded Lanczos (full reorthogonalization via ARPACK) above ``dense_cap``,
    where ``values_only`` changes nothing and k must stay below n.
    Deterministic for a given operator.
    """
    mat = _as_matrix(H)
    n = mat.shape[0]
    if not 1 <= k <= n:
        raise InvalidParam(f"need 1 <= k <= {n}, got k={k}")
    if k == n > dense_cap:
        raise InvalidParam(f"Lanczos above dense_cap = {dense_cap} needs k < n = {n}")

    if n <= dense_cap:
        if values_only and 2 * n * _RMIN <= abs(mat).max() <= 1 / (2 * n * _RMIN):
            evals, evecs = _lowest_dense(mat, k)
        else:
            evals, evecs = eigh_dense(mat)
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


def lower_band(H) -> np.ndarray:
    """Lower band storage band[r, j] = A[j+r, j] of a sparse Hermitian operator.

    ``H`` is what ``lowest_k`` takes.  A ``Hamiltonian`` is banded with its
    sites in ``H.grid.band_order()``, the order counting takes; a bare
    matrix keeps its own order.
    """
    mat = _as_matrix(H)
    if hasattr(H, "grid"):
        order = H.grid.band_order()
        mat = mat[order][:, order]
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


def _load_rows(dst, base_band, shifts, first):
    """Rows first, first+1, ... of the shifted operators into ``dst`` in row storage.

    ``dst[i, k, s]`` = A_s[first+i, first+i-bw+k]; rows past n are zero.
    Entries left of column 0 are not written: only the first load, into a
    zeroed buffer, reaches them.
    """
    bw = base_band.shape[0] - 1
    m = min(len(dst), max(0, shifts.shape[1] - first))
    dst[m:] = 0
    for r in range(bw + 1):  # subdiagonal r: band[r, c] = A[c+r, c] sits at k = bw - r
        lo = min(m, max(0, r - first))
        dst[lo:m, bw - r] = base_band[r, first + lo - r : first + m - r, None]
    dst[:m, bw] += shifts.T[first : first + m]


def _panel_width(bw: int) -> int:
    """Pivots in one panel of an LDL^T pass at bandwidth bw."""
    return min(INERTIA_PANEL, max(bw, 1))


def banded_inertia(base_band: np.ndarray, shifts: np.ndarray, reg):
    """Negative-pivot counts of batched banded LDL^T.

    Lane s factors the Hermitian operator with lower band ``base_band``
    (shape (bw+1, n)) plus ``shifts[s]`` on its diagonal; ``shifts`` has
    shape (S, n) and ``reg`` is a scalar or one value per lane.  Returns
    (neg_counts, hit_reg) where ``hit_reg`` marks lanes whose factorization
    met a pivot below the lane's ``reg`` in magnitude (nudged to +-reg to
    continue).  Lanes are independent: results do not depend on the batch
    size.  The inputs are not modified.

    The factorization is blocked.  Within a panel of ``INERTIA_PANEL``
    pivots (at most bw), the pivots update only the panel's own columns:
    column q takes the terms of the panel's earlier pivots on its bw + 1
    band rows in one einsum over lanes, then gives the scalar pivot q,
    nudged and flagged as above.  Then one batched matmul over lanes
    subtracts the panel's rank-nb update B D^-1 B^H from the bw x bw
    trailing block, where B is the bw x nb block under the panel.

    The buffer holds ``INERTIA_ROWS`` + bw rows of the lower band from row
    ``top`` on, in row storage with lanes last: ``buf[i, k, s]`` =
    A_s[top+i, top+i-bw+k].  So entry (r, c) = A_s[top+r, top+c] sits at
    flat offset bw*r + c past the diagonal of row 0, and the panel columns,
    the block under them and the trailing block are plain slices of one
    ``as_strided`` view; its last entry is the buffer's last diagonal.  An
    (r, c) outside the band aliases a live entry of a neighbouring row:
    - the block under the panel has such a corner, r - c > bw, read into the
      panel copy and zeroed there;
    - the trailing block's entries above its diagonal alias row r + 1 at
      column c - bw, left of the trailing block: a column already factored,
      which the matmul writes and nothing reads again.
    After ``INERTIA_ROWS`` pivots the bw rows they updated but did not
    factor move to the front and the next rows load behind them.  Every
    entry takes the same rank-1 terms as in a column-by-column update,
    summed per panel, so each pivot agrees with the column loop's to
    rounding; extra updates subtract zeros or land past n, where no pivot
    reads them.
    """
    S, n = shifts.shape
    bw = base_band.shape[0] - 1
    rows, nb = INERTIA_ROWS, _panel_width(bw)
    reg = np.broadcast_to(np.asarray(reg, dtype=float), (S,))
    dtype = np.result_type(base_band, shifts)
    buf = np.zeros((rows + bw, bw + 1, S), dtype=dtype)
    item = buf.itemsize
    A = as_strided(buf.reshape(-1)[bw * S :], (rows + bw, rows + bw, S),
                   (bw * S * item, S * item, item), writeable=True)
    panel = np.empty((nb + bw, nb, S), dtype=dtype)
    corner = np.nonzero(np.subtract.outer(np.arange(nb + bw), np.arange(nb)) > bw)
    below = np.empty((S, bw, nb), dtype=dtype)  # B, lanes first
    scaled = np.empty((S, bw, nb), dtype=dtype)  # conj(B) D^-1
    product = np.empty((S, bw, bw), dtype=dtype)
    d = np.empty((nb, S))
    neg = np.zeros(S, dtype=np.int64)
    hit = np.zeros(S, dtype=bool)
    _load_rows(buf[rows:], base_band, shifts, 0)
    for top in range(0, n, rows):
        # rows top .. top+bw-1, updated by every pivot above them, in chunks that do not overlap
        for i in range(0, bw, rows):
            j = min(i + rows, bw)
            buf[i:j] = buf[i + rows : j + rows]
        _load_rows(buf[bw:], base_band, shifts, top + bw)
        m = min(rows, n - top)
        for p in range(0, m, nb):
            w = min(nb, m - p)
            col = panel[: w + bw, :w]
            np.copyto(col, A[p : p + w + bw, p : p + w])
            panel[corner] = 0
            for q in range(w):
                if q:  # the panel's earlier pivots, one rank-1 term each, on rows q .. q+bw
                    x = np.conj(col[q, :q]) / d[:q]
                    col[q : q + bw + 1, q] -= np.einsum("ijs,js->is", col[q : q + bw + 1, :q], x)
                dq = d[q]
                np.copyto(dq, col[q, q].real)
                small = np.abs(dq) < reg
                if small.any():
                    hit |= small
                    dq[small] = np.where(dq[small] < 0, -reg[small], reg[small])
            neg += np.count_nonzero(d[:w] < 0, axis=0)
            b, bs = below[:, :, :w], scaled[:, :, :w]
            np.copyto(b, col[w:].transpose(2, 0, 1))
            np.divide(b, d[:w].T[:, None, :], out=bs)
            if np.iscomplexobj(bs):
                np.conjugate(bs, out=bs)
            np.matmul(b, bs.transpose(0, 2, 1), out=product)
            trailing = A[p + w : p + w + bw, p + w : p + w + bw]
            trailing -= product.transpose(1, 2, 0)
    return neg, hit


def count_below(H, E):
    """Number of eigenvalues <= E, multiplicity counted.

    ``E`` is a scalar or an array of energies, with numpy semantics: a
    scalar gives an ``int``, an array an int64 array of its shape.  Every
    energy is searched in the operator's banded eigenvalues, found once,
    under the ensemble's tie rule: eigenvalues within
    1e-12 * (||H||_inf + |E| + 1) of E count as below.  So no size of
    operator raises and no caller retries with a perturbed energy.  A
    non-finite energy raises ``InvalidParam``.  A ``Hamiltonian`` is
    banded with its sites in ``H.grid.band_order()`` (``lower_band``), as
    an ensemble is.
    """
    band = lower_band(H)
    energies = np.ravel(np.asarray(E, dtype=float))
    diag = np.zeros((1, band.shape[1]))
    lane_norm, tie = _lane_scales(band, diag, energies)
    counts = _lane_counts(band, diag[0], energies + tie[0], lane_norm[0])
    return int(counts[0]) if np.ndim(E) == 0 else counts.reshape(np.shape(E))


def _lane_scales(base_band, diag_samples, energies: np.ndarray):
    """(||H_s||_inf, tie) per lane, tie[s, k] = 1e-12 * (||H_s||_inf + |E_k| + 1).

    Raises ``InvalidParam`` on a non-finite energy, which no count is defined at.
    """
    if not np.all(np.isfinite(energies)):
        raise InvalidParam(f"energies must be finite, got {energies[~np.isfinite(energies)][0]}")
    # ||H_s||_inf from the shared off-diagonal row sums and each lane's diagonal
    off = _offdiag_row_sums(base_band)
    lane_norm = (np.abs(base_band[0] + diag_samples) + off).max(axis=1, initial=0.0)
    return lane_norm, TIE_REL * (lane_norm[:, None] + np.abs(energies) + 1.0)


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


def block_lanes(base_band: np.ndarray) -> int:
    """Most lanes one ``count_below_ensemble`` call should take on ``base_band``.

    At most ``BLOCK_LANES``, and no more than fit in ``BLOCK_BYTES`` at a
    lane's share of every array a pass holds: its diagonal row, the
    (INERTIA_ROWS + bw)(bw + 1) row buffer, the bw x bw trailing product,
    the (nb + bw) x nb panel copy, the bw x nb block under the panel and its
    scaled copy, a column update and the panel's pivots.  So a block's
    memory does not grow with n or bw.  Besides its lanes a pass holds
    index arrays and numpy's ufunc buffers, at most ``np.getbufsize()``
    entries for each of a ufunc's three operands; those buffers are
    reserved once, out of the budget, not per lane.
    """
    bw1, n = base_band.shape
    bw, nb = bw1 - 1, _panel_width(bw1 - 1)
    lane = n + (INERTIA_ROWS + bw) * bw1 + bw * bw + (nb + 3 * bw) * nb + bw1 + 2 * nb
    reserve = 3 * np.getbufsize() * base_band.itemsize
    return max(1, min(BLOCK_LANES, (BLOCK_BYTES - reserve) // (lane * base_band.itemsize)))


def count_below_ensemble(base_band: np.ndarray, diag_samples: np.ndarray, energies) -> np.ndarray:
    """Counts for an ensemble sharing off-diagonal structure.

    ``base_band`` is the lower band of the sample-independent part
    (boundary terms and floor included as assembled), ``diag_samples``
    holds per-sample diagonal additions, shape (S, n).  Returns an
    integer array of shape (S, n_energies): the eigenvalues of each lane
    <= E + tie, with tie = 1e-12 * (||H_s||_inf + |E| + 1) taken from that
    lane's own operator, so a count never depends on which samples share
    the batch.  The energies may come in any order and may repeat; a
    non-finite one raises ``InvalidParam``, even for an empty ensemble.

    Every count is an LDL^T inertia, and counts are nondecreasing in E, so
    each lane bisects its thresholds E + tie in ascending order: it counts
    the highest first, and is done if that counts zero; then it splits
    every interval whose two end counts differ at its midpoint, and fills
    one whose end counts agree without a pass.  One round is one
    ``banded_inertia`` call over at most S (lane, energy) probes.  A lane
    is recounted from its banded eigenvalues, at every energy, when a
    probe meets a pivot below its tie scale or counts outside the bracket
    of its interval's end counts.  ``block_lanes`` sizes the call.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    S, K = diag_samples.shape[0], len(energies)
    lane_norm, tie = _lane_scales(base_band, diag_samples, energies)
    if S == 0 or K == 0:
        return np.zeros((S, K), dtype=np.int64)
    order = np.argsort(energies + tie, axis=1, kind="stable")
    thresholds = np.take_along_axis(energies + tie, order, axis=1)
    regs = np.take_along_axis(tie, order, axis=1)
    found = np.full((S, K), -1, dtype=np.int64)
    recount = np.zeros(S, dtype=bool)

    def probe(lane, k):
        shifts = diag_samples[lane] - thresholds[lane, k][:, None]
        neg, hit = banded_inertia(base_band, shifts, regs[lane, k])
        found[lane, k] = neg
        recount[lane[hit]] = True
        return neg

    lanes = np.arange(S)
    top = probe(lanes, np.full(S, K - 1))
    # open intervals (lane, a, b, count at a, count at b); index -1 counts 0
    todo = np.stack([lanes, np.full(S, -1), np.full(S, K - 1), np.zeros(S, dtype=np.int64), top])
    while True:
        lane, a, b, ca, cb = todo
        todo = todo[:, (b - a > 1) & (ca != cb) & ~recount[lane]]
        if not todo.shape[1]:
            break
        (lane, a, b, ca, cb), todo = todo[:, :S], todo[:, S:]
        m = (a + b) // 2
        c = probe(lane, m)
        recount[lane[(c < ca) | (c > cb)]] = True
        todo = np.concatenate([todo, [lane, a, m, ca, c], [lane, m, b, c, cb]], axis=1)
    # an energy left unprobed takes the count of the next probed one above it
    probed = np.where(found >= 0, np.arange(K), K - 1)
    above = np.minimum.accumulate(probed[:, ::-1], axis=1)[:, ::-1]
    counts = np.empty((S, K), dtype=np.int64)
    np.put_along_axis(counts, order, np.take_along_axis(found, above, axis=1), axis=1)
    for s in np.nonzero(recount)[0]:
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
    threshold).  ``variational_count_bound`` computes the threshold as
    (alpha + spectral A-deviation) / extremal Gram eigenvalue, which reduces
    to the familiar (alpha + eps2) / (1 - eps1) for small deviations and
    nonnegative numerator and stays valid for negative spectra.
    """

    threshold: float
    n: int
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

    e2s = float(np.abs(np.linalg.eigvalsh(B - np.diag(alphas))).max())
    num = alpha + e2s
    denom = g_eigs[0] if num >= 0 else g_eigs[-1]
    threshold = num / denom

    rayleigh_max = float(sla.eigh(B, G, eigvals_only=True)[-1])
    return CountCertificate(threshold=threshold, n=n_vec, rayleigh_max=rayleigh_max)
