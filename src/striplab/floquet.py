"""Phase-twisted reduction of partially periodic operators on one cell.

The periodic operator decomposes over twist angles theta in [-pi, pi]^d1
into cell operators h_theta with wrap bonds carrying e^{i theta_j}.  This
module computes the ground band E_0(h_theta), the positive periodic ground
state, the x1-averaged comparison model, Harnack constants, and certified
parabolicity and finite-strip gap inequalities.

The discrete free-band function

    k_disc(theta) = sum_j 2 a^2 (1 - cos(theta_j / a))

plays the role of |theta|^2: it is the exact band of the separable problem
on the lattice and never exceeds |theta|^2, so upper bounds stated against
|theta|^2 remain true verbatim.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DivisionUnderflow,
    InvalidParam,
    NearDegenerate,
    NotPositive,
    ShapeMismatch,
)
from .grid import Bloch, BoundarySpec, Dirichlet, GridSpec, Mezincescu, build_grid
from .instances import SurfaceModel
from .operator import GroundStateRef, Hamiltonian, assemble
from .potential import periodic_bulk
from .spectral import lowest_k

UNDERFLOW_GUARD = 1e-300


def k_disc(theta, a: int) -> float:
    """Discrete free-band analogue of |theta|^2 (per-axis sum)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(np.sum(2.0 * a * a * (1.0 - np.cos(th / a))))


def reduced_operator(cell_grid: GridSpec, u_per, theta, x2_bc=None) -> Hamiltonian:
    """Cell operator h_theta with phase-twisted x1 wrap bonds.

    ``u_per`` is a cell potential: a callable (x1_frac, x2) -> values or a
    field/array on the cell grid.  x2 boundary defaults to Dirichlet at the
    cell depth.
    """
    if cell_grid.L != 1:
        raise InvalidParam("reduced operators live on a one-cell grid (L=1)")
    field = periodic_bulk(cell_grid, u_per) if _is_cell_fn(u_per) else u_per
    th = tuple(np.atleast_1d(np.asarray(theta, dtype=float)))
    if len(th) != cell_grid.d1:
        raise InvalidParam(f"theta needs {cell_grid.d1} components, got {len(th)}")
    bc = BoundarySpec(x1=Bloch(th), x2=x2_bc if x2_bc is not None else Dirichlet())
    return assemble(cell_grid, field, bc)


def _is_cell_fn(obj) -> bool:
    # cell potentials take (x1_frac, x2); fields/arrays do not
    return callable(obj) and not hasattr(obj, "values") and not isinstance(obj, np.ndarray)


def _positive_ground(H: Hamiltonian, k: int = 2):
    """Lowest two levels with the ground vector polished to positive entries.

    Shifted M-matrix solves after the dense eigendecomposition restore
    componentwise relative accuracy in the exponential tail, where plain
    eigh only achieves absolute accuracy.
    """
    if H.is_complex:
        raise InvalidParam("positive ground states are defined for the untwisted (real) operator")
    res = lowest_k(H, min(k, H.n), tol=1e-8)
    e0 = float(res.eigenvalues[0])
    e1 = float(res.eigenvalues[1]) if H.n > 1 else e0 + 1.0
    psi = np.real(res.eigenvectors[:, 0]).copy()
    psi *= np.sign(psi[np.argmax(np.abs(psi))])
    gap = max(e1 - e0, 1e-8)
    shifted = (H.matrix - (e0 - 0.5 * gap) * sp.eye(H.n, format="csr")).tocsc()
    lu = spla.splu(shifted)
    for _ in range(2):
        psi = lu.solve(np.abs(psi))
        psi /= np.linalg.norm(psi)
    e0 = float(np.vdot(psi, H.matrix @ psi).real)
    residual = float(np.linalg.norm(H.matrix @ psi - e0 * psi))
    return e0, e1, psi, residual


def ground_state_cell(cell_grid: GridSpec, u_per, M_ref: int) -> GroundStateRef:
    """Positive normalized periodic ground state at reference depth M_ref.

    Requires M_ref >= M + 2 so the reference supplies ghost layers for
    boundary conditions on grids of depth up to M.  Verifies positivity
    (guaranteed by the nonnegative off-diagonal structure) and simplicity.
    """
    if M_ref < cell_grid.M + 2:
        raise InvalidParam(f"M_ref={M_ref} must be >= M+2 = {cell_grid.M + 2}")
    if M_ref % 2 != 0:
        raise InvalidParam("M_ref must be even")
    if not _is_cell_fn(u_per):
        raise InvalidParam("ground_state_cell needs a cell potential callable (x1_frac, x2)")
    ref_grid = build_grid(cell_grid.d1, cell_grid.d2, L=1, a=cell_grid.a, M=M_ref)
    h0 = reduced_operator(ref_grid, u_per, np.zeros(ref_grid.d1))
    e0, e1, psi, residual = _positive_ground(h0)
    if np.any(psi <= 0):
        raise NotPositive(
            f"ground state has {np.sum(psi <= 0)} non-positive entries; solver failure"
        )
    # a residual certificate cannot honestly beat evaluation noise
    noise_floor = 16 * np.finfo(float).eps * float(np.abs(h0.matrix).sum(axis=1).max())
    residual = max(residual, noise_floor)
    if e1 - e0 <= 10 * residual:
        raise NearDegenerate(f"gap {e1 - e0:.3e} too close to residual {residual:.3e}")
    tol = 1e-10 * abs(e0) + 1e-12
    if residual > tol:
        raise NearDegenerate(f"reference residual {residual:.3e} exceeds {tol:.3e}")
    return GroundStateRef(grid=ref_grid, psi0=psi, e0=e0, residual=residual)


def cached_reference(model: SurfaceModel, M: int, M_ref: Optional[int] = None) -> GroundStateRef:
    """Ground-state reference of ``model.cell_grid(M)`` at depth ``M_ref`` (default M + 4).

    Each process solves each (model, M, M_ref) key once; with
    ``$STRIPLAB_CACHE_DIR`` set, processes share references through files
    there.  The reference is shared between callers; its ``psi0`` is read-only.
    """
    return _reference(model, int(M), int(M + 4 if M_ref is None else M_ref))


@functools.lru_cache(maxsize=16)
def _reference(model: SurfaceModel, M: int, M_ref: int) -> GroundStateRef:
    cache_dir = os.environ.get("STRIPLAB_CACHE_DIR")
    key = hashlib.sha256(f"{model!r}|{M}|{M_ref}".encode()).hexdigest()[:24]
    path = os.path.join(cache_dir, f"ref_{key}.npz") if cache_dir else None
    if path and os.path.exists(path):
        with np.load(path) as data:
            ref = GroundStateRef(grid=model.cell_grid(M_ref), psi0=data["psi0"],
                                 e0=float(data["e0"]), residual=float(data["residual"]))
    else:
        ref = ground_state_cell(model.cell_grid(M), model.u_per(), M_ref)
        if path:
            # other processes read ``path``: write elsewhere, then rename into place
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".ref_", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, psi0=ref.psi0, e0=ref.e0, residual=ref.residual,
                             M_ref=ref.grid.M)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
    ref.psi0.setflags(write=False)
    return ref


# -- averaged comparison model -------------------------------------------------


@dataclass(frozen=True)
class AveragedModel:
    """x1-averaged transverse model sharing the ground energy.

    psibar(x2) = sum over the cell's x1 sites of psi0; ubar is the
    psi0-weighted x1 average of the potential.  The transverse operator
    with potential ubar annihilates (psibar, E0) exactly up to the
    reference residual because the x1 hopping telescopes under cell
    periodicity.
    """

    psibar: np.ndarray  # flattened over (M,)*d2
    ubar: np.ndarray
    e0: float
    identity_residual: float
    d2: int
    a: int
    M: int


@dataclass(frozen=True)
class HarnackConstants:
    c1: float
    c2: float

    @property
    def ratio_sq(self) -> float:
        return (self.c1 / self.c2) ** 2


def transverse_operator(ubar: np.ndarray, d2: int, a: int, M: int, edge="dirichlet", psibar=None):
    """Dense transverse operator -Delta_{x2} + ubar on (M,)^d2 sites.

    ``edge`` is "dirichlet" or "chi"; the chi variant takes ghost values
    from ``psibar`` (a deeper reference profile, centered), making that
    profile an exact eigenvector of the restriction.
    """
    shape = (M,) * d2
    n = M**d2
    h2i = float(a * a)
    A = np.zeros((n, n))
    idx = np.arange(n).reshape(shape)
    diag = np.asarray(ubar, dtype=float).copy()
    if diag.shape != (n,):
        raise ShapeMismatch(f"ubar shape {diag.shape} != ({n},)")
    diag += 2.0 * d2 * h2i
    for axis in range(d2):
        src = np.moveaxis(idx, axis, 0)[:-1].ravel()
        dst = np.moveaxis(idx, axis, 0)[1:].ravel()
        A[src, dst] -= h2i
        A[dst, src] -= h2i
        if edge == "chi":
            if psibar is None:
                raise InvalidParam("chi edges need the deeper reference profile")
            M_ref = round(len(psibar) ** (1.0 / d2))
            off = (M_ref - M) // 2
            pb = np.asarray(psibar).reshape((M_ref,) * d2)
            for direction, face_pos in ((-1, 0), (+1, M - 1)):
                face = np.moveaxis(idx, axis, 0)[face_pos].ravel()
                coords = np.stack(np.unravel_index(face, shape), axis=-1)
                ghost = coords.copy()
                ghost[:, axis] += direction
                ref_site = coords + off
                ref_ghost = ghost + off
                ratio = pb[tuple(ref_ghost.T)] / pb[tuple(ref_site.T)]
                A[face, face] += h2i * (1.0 - ratio) - h2i  # replace Dirichlet arm below
    A[np.arange(n), np.arange(n)] += diag
    return A


def averaged_reduction(ref: GroundStateRef, u_per) -> AveragedModel:
    """Collapse the cell problem to its x1-averaged transverse model."""
    grid = ref.grid
    if _is_cell_fn(u_per):
        u_vals = periodic_bulk(grid, u_per).values
    else:
        u_vals = np.asarray(getattr(u_per, "values", u_per), dtype=float)
        if u_vals.shape != (grid.n_sites,):
            raise ShapeMismatch("cell potential does not match the reference grid")
    shape = grid.shape
    psi = ref.psi0.reshape(shape)
    u = u_vals.reshape(shape)
    x1_axes = tuple(range(grid.d1))
    psibar = psi.sum(axis=x1_axes)
    if np.any(psibar < UNDERFLOW_GUARD):
        raise DivisionUnderflow("averaged ground state underflows the guard")
    ubar = (u * psi).sum(axis=x1_axes) / psibar
    psibar_f = psibar.ravel()
    ubar_f = ubar.ravel()
    A = transverse_operator(ubar_f, grid.d2, grid.a, grid.M, edge="dirichlet")
    residual = float(np.abs(A @ psibar_f - ref.e0 * psibar_f).max())
    return AveragedModel(
        psibar=psibar_f,
        ubar=ubar_f,
        e0=ref.e0,
        identity_residual=residual,
        d2=grid.d2,
        a=grid.a,
        M=grid.M,
    )


def harnack_constants(ref: GroundStateRef, avg: AveragedModel) -> HarnackConstants:
    """Extremal ratios of the periodic ground state to its x1 average."""
    shape = ref.grid.shape
    psi = ref.psi0.reshape(shape)
    pb = avg.psibar.reshape((ref.grid.M,) * ref.grid.d2)
    ratio = psi / pb  # broadcasts over the leading x1 axes
    return HarnackConstants(c1=float(ratio.min()), c2=float(ratio.max()))


# -- ground band ----------------------------------------------------------------


@dataclass(frozen=True)
class BandCurve:
    thetas: np.ndarray  # (n_pts, d1)
    values: np.ndarray  # E_0(h_theta)
    residuals: np.ndarray
    e0: float
    c1: float
    c2: float
    kdisc: np.ndarray
    upper_margin_theta_sq: np.ndarray  # |theta|^2 - (E0(h_th) - E0(h_0))
    upper_margin_kdisc: np.ndarray  # k_disc - (E0(h_th) - E0(h_0))
    lower_margin: np.ndarray  # (E0(h_th) - E0(h_0)) - (C1/C2)^2 k_disc


def default_theta_grid(d1: int, points_per_axis: int = 33) -> np.ndarray:
    """Symmetric grid including 0 and +-pi on each axis."""
    if points_per_axis % 2 == 0:
        points_per_axis += 1  # keep 0 on the grid
    axis = np.linspace(-np.pi, np.pi, points_per_axis)
    if d1 == 1:
        return axis[:, None]
    A, B = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([A.ravel(), B.ravel()], axis=-1)


def band_curve(cell_grid: GridSpec, u_per, thetas=None) -> BandCurve:
    """Ground band over a twist grid with parabolicity margins.

    The sandwich constants come from the cell's own positive ground state:
    C1 and C2 are the extremal ratios to the x1 average, and the certified
    bounds are

        (C1/C2)^2 k_disc(theta) <= E0(h_theta) - E0(h_0) <= k_disc(theta).
    """
    if thetas is None:
        thetas = default_theta_grid(cell_grid.d1)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != cell_grid.d1:
        raise InvalidParam(f"theta grid must have {cell_grid.d1} columns")
    if not np.any(np.all(thetas == 0.0, axis=1)):
        raise InvalidParam("theta grid must include 0")

    h0 = reduced_operator(cell_grid, u_per, np.zeros(cell_grid.d1))
    e0, _, psi, _ = _positive_ground(h0)
    shape = cell_grid.shape
    psibar = psi.reshape(shape).sum(axis=tuple(range(cell_grid.d1)))
    ratio = psi.reshape(shape) / psibar
    c1, c2 = float(ratio.min()), float(ratio.max())

    values = np.empty(len(thetas))
    residuals = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        h = reduced_operator(cell_grid, u_per, th)
        res = lowest_k(h, 1, tol=1e-8)
        values[i] = res.eigenvalues[0]
        residuals[i] = res.residuals[0]

    kd = np.array([k_disc(th, cell_grid.a) for th in thetas])
    delta = values - e0
    th_sq = np.sum(thetas**2, axis=1)
    return BandCurve(
        thetas=thetas,
        values=values,
        residuals=residuals,
        e0=e0,
        c1=c1,
        c2=c2,
        kdisc=kd,
        upper_margin_theta_sq=th_sq - delta,
        upper_margin_kdisc=kd - delta,
        lower_margin=delta - (c1 / c2) ** 2 * kd,
    )


# -- finite-strip gap certificates ----------------------------------------------


@dataclass(frozen=True)
class GapReport:
    L: int
    e0: float
    e1: float
    gap: float
    gbar: float
    harnack_ratio_sq: float
    margin: float  # gap - (C1/C2)^2 * gbar, certified nonnegative
    e0_error: float  # |E0(H_chi) - E0|, bounded by 10x the reference residual


def neumann_x1_gap(a: int, L: int) -> float:
    """First nonzero level of the free x1 operator with Neumann faces."""
    return 2.0 * a * a * (1.0 - np.cos(np.pi / (a * L)))


def gap_certificate(u_per, L_values: Sequence[int], ref: GroundStateRef, M: int = None) -> list:
    """Per-L certified gap bounds for the strip operator with chi boundaries.

    For each L the strip operator H^chi (Mezincescu faces from the
    reference on x1 and x2) is assembled with the periodic potential; its
    gap g(L) is compared against the separable averaged-model gap

        gbar(L) = min( 2 a^2 (1 - cos(pi / (a L))),  transverse gap )

    via g(L) >= (C1/C2)^2 * gbar(L), and E0 invariance is certified.
    """
    if M is None:
        M = ref.grid.M - 2
    if min(L_values) < 2:
        raise InvalidParam("gap certificates need L >= 2")
    avg = averaged_reduction(ref, u_per)
    har = harnack_constants(ref, avg)
    # transverse comparison operator at the working depth with chi ends
    sel = _central_block_indices(ref.grid.M, M, ref.grid.d2)
    ubar_M = avg.ubar[sel]
    T = transverse_operator(ubar_M, ref.grid.d2, ref.grid.a, M, edge="chi", psibar=avg.psibar)
    t_eigs = np.linalg.eigvalsh(T)
    x2_gap = float(t_eigs[1] - t_eigs[0]) if len(t_eigs) > 1 else np.inf

    reports = []
    for L in L_values:
        strip = build_grid(ref.grid.d1, ref.grid.d2, L=int(L), a=ref.grid.a, M=M)
        field = periodic_bulk(strip, u_per)
        bc = BoundarySpec(x1=Mezincescu(ref), x2=Mezincescu(ref))
        H = assemble(strip, field, bc)
        res = lowest_k(H, 2, tol=1e-8)
        e0L, e1L = float(res.eigenvalues[0]), float(res.eigenvalues[1])
        gap = e1L - e0L
        gbar = min(neumann_x1_gap(ref.grid.a, int(L)), x2_gap)
        reports.append(
            GapReport(
                L=int(L),
                e0=e0L,
                e1=e1L,
                gap=gap,
                gbar=gbar,
                harnack_ratio_sq=har.ratio_sq,
                margin=gap - har.ratio_sq * gbar,
                e0_error=abs(e0L - ref.e0),
            )
        )
    return reports


def _central_block_indices(M_ref: int, M: int, d2: int) -> np.ndarray:
    """Flat indices of the centered (M,)^d2 block inside (M_ref,)^d2."""
    off = (M_ref - M) // 2
    if d2 == 1:
        return np.arange(off, off + M)
    rows = np.arange(off, off + M)
    return (rows[:, None] * M_ref + rows[None, :]).ravel()
