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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DivisionUnderflow, InvalidParam, NearDegenerate
from .grid import (Bloch, BoundarySpec, Dirichlet, GridSpec, bc_for_tag, build_grid,
                   central_layers)
from .instances import SurfaceModel
from .operator import GroundStateRef, Hamiltonian, assemble
from .potential import periodic_bulk
from .spectral import lowest_k

UNDERFLOW_GUARD = 1e-300


def k_disc(theta, a: int) -> float:
    """Discrete free-band analogue of |theta|^2 (per-axis sum)."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(np.sum(2.0 * a * a * (1.0 - np.cos(th / a))))


def reduced_operator(cell_grid: GridSpec, u_per, theta) -> Hamiltonian:
    """Cell operator h_theta with phase-twisted x1 wrap bonds.

    ``u_per`` is a cell potential, a callable (x1_frac, x2) -> values; the
    x2 faces are Dirichlet at the cell depth.
    """
    if cell_grid.L != 1:
        raise InvalidParam("reduced operators live on a one-cell grid (L=1)")
    th = tuple(np.atleast_1d(np.asarray(theta, dtype=float)))
    if len(th) != cell_grid.d1:
        raise InvalidParam(f"theta needs {cell_grid.d1} components, got {len(th)}")
    bc = BoundarySpec(x1=Bloch(th), x2=Dirichlet())
    return assemble(cell_grid, periodic_bulk(cell_grid, u_per), bc)


def _positive_ground(H: Hamiltonian):
    """Lowest two levels with the ground vector polished to positive entries.

    Shifted M-matrix solves after the dense eigendecomposition restore
    componentwise relative accuracy in the exponential tail, where plain
    eigh only achieves absolute accuracy.
    """
    if H.is_complex:
        raise InvalidParam("positive ground states are defined for the untwisted (real) operator")
    res = lowest_k(H, min(2, H.n), tol=1e-8)
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
    ref_grid = build_grid(cell_grid.d1, cell_grid.d2, L=1, a=cell_grid.a, M=M_ref)
    h0 = reduced_operator(ref_grid, u_per, np.zeros(ref_grid.d1))
    e0, e1, psi, residual = _positive_ground(h0)
    # a residual certificate cannot honestly beat evaluation noise
    noise_floor = 16 * np.finfo(float).eps * float(np.abs(h0.matrix).sum(axis=1).max())
    residual = max(residual, noise_floor)
    # raises NotPositive unless psi > 0, before the gap and residual checks
    ref = GroundStateRef(grid=ref_grid, psi0=psi, e0=e0, residual=residual)
    if e1 - e0 <= 10 * residual:
        raise NearDegenerate(f"gap {e1 - e0:.3e} too close to residual {residual:.3e}")
    tol = 1e-10 * abs(e0) + 1e-12
    if residual > tol:
        raise NearDegenerate(f"reference residual {residual:.3e} exceeds {tol:.3e}")
    return ref


def cached_reference(model: SurfaceModel, M: int, M_ref: Optional[int] = None) -> GroundStateRef:
    """Ground-state reference of ``model.cell_grid(M)`` at depth ``M_ref`` (default M + 4).

    Each process solves each (model, M, M_ref) key once.  The reference is
    shared between callers; its ``psi0`` is read-only.
    """
    return _reference(model, int(M), int(M + 4 if M_ref is None else M_ref))


@functools.lru_cache(maxsize=16)
def _reference(model: SurfaceModel, M: int, M_ref: int) -> GroundStateRef:
    ref = ground_state_cell(model.cell_grid(M), model.u_per(), M_ref)
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
    identity_residual: float


def transverse_operator(ubar: np.ndarray, psibar: np.ndarray, d2: int, a: int, M: int):
    """Dense transverse operator -Delta_{x2} + ubar on the centred (M,)^d2 block.

    ``ubar`` and ``psibar`` are the averaged model's arrays at the reference
    depth M_ref >= M.  Every face arm takes its ghost value from ``psibar``,
    zero beyond the reference: so the faces are Dirichlet at M = M_ref, and
    inside the reference the centred block of ``psibar`` is an exact
    eigenvector of the restriction.
    """
    M_ref = round(len(psibar) ** (1.0 / d2))
    shape = (M,) * d2
    n = M**d2
    h2i = float(a * a)
    A = np.zeros((n, n))
    idx = np.arange(n).reshape(shape)
    diag = central_layers(np.reshape(ubar, (M_ref,) * d2), d2, M).ravel() + 2.0 * d2 * h2i
    # psibar with its zero ghost layer, cropped so site x sits at x + 1
    pb = central_layers(np.pad(np.reshape(psibar, (M_ref,) * d2), 1), d2, M + 2)
    for axis in range(d2):
        view = np.moveaxis(idx, axis, 0)
        src, dst = view[:-1].ravel(), view[1:].ravel()
        A[src, dst] -= h2i
        A[dst, src] -= h2i
        for direction, face_pos in ((-1, 0), (+1, M - 1)):
            face = view[face_pos].ravel()
            site = np.stack(np.unravel_index(face, shape), axis=-1) + 1
            ghost = site.copy()
            ghost[:, axis] += direction
            ratio = pb[tuple(ghost.T)] / pb[tuple(site.T)]
            A[face, face] += h2i * (1.0 - ratio) - h2i  # replace the Dirichlet arm in diag
    A[np.arange(n), np.arange(n)] += diag
    return A


def averaged_reduction(ref: GroundStateRef, u_per) -> AveragedModel:
    """Collapse the cell problem (cell potential ``u_per``) to its x1-averaged transverse model.

    The identity residual is read at the reference depth, where the model's
    faces are Dirichlet like the reference cell's own.
    """
    grid = ref.grid
    shape = grid.shape
    psi = ref.psi0.reshape(shape)
    u = periodic_bulk(grid, u_per).reshape(shape)
    x1_axes = tuple(range(grid.d1))
    psibar = psi.sum(axis=x1_axes)
    if np.any(psibar < UNDERFLOW_GUARD):
        raise DivisionUnderflow("averaged ground state underflows the guard")
    ubar = (u * psi).sum(axis=x1_axes) / psibar
    psibar_f = psibar.ravel()
    ubar_f = ubar.ravel()
    A = transverse_operator(ubar_f, psibar_f, grid.d2, grid.a, grid.M)
    residual = float(np.abs(A @ psibar_f - ref.e0 * psibar_f).max())
    return AveragedModel(psibar=psibar_f, ubar=ubar_f, identity_residual=residual)


def harnack_constants(grid: GridSpec, psi: np.ndarray) -> tuple:
    """Harnack constants (C1, C2) of a positive ground state ``psi`` on a cell grid.

    C1 and C2 are the extremal ratios of psi to psibar, its sum over the
    cell's x1 sites; the band and gap comparisons scale by (C1/C2)^2.
    """
    psi = psi.reshape(grid.shape)
    ratio = psi / psi.sum(axis=tuple(range(grid.d1)))  # broadcasts over the x1 axes
    return float(ratio.min()), float(ratio.max())


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
    return np.stack(np.meshgrid(*[axis] * d1, indexing="ij"), axis=-1).reshape(-1, d1)


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
    c1, c2 = harnack_constants(cell_grid, psi)

    values = np.empty(len(thetas))
    residuals = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        h = reduced_operator(cell_grid, u_per, th)
        res = lowest_k(h, 1, tol=1e-8, values_only=True)
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


def gap_certificate(u_per, L_values: Sequence[int], ref: GroundStateRef, M: int) -> list:
    """Per-L certified gap bounds for the strip operator with chi boundaries.

    For each L the depth-``M`` strip operator H^chi (Mezincescu faces from
    the reference on x1 and x2) is assembled with the periodic potential; its
    gap g(L) is compared against the separable averaged-model gap

        gbar(L) = min( 2 a^2 (1 - cos(pi / (a L))),  transverse gap )

    via g(L) >= (C1/C2)^2 * gbar(L), and E0 invariance is certified.
    """
    if min(L_values) < 2:
        raise InvalidParam("gap certificates need L >= 2")
    # the strips first: their chi faces raise IncompatibleRef from a reference
    # too shallow for depth M, before the transverse operator indexes it
    ops = []
    for L in L_values:
        strip = build_grid(ref.grid.d1, ref.grid.d2, L=int(L), a=ref.grid.a, M=M)
        ops.append(assemble(strip, periodic_bulk(strip, u_per), bc_for_tag("chi", ref)))
    avg = averaged_reduction(ref, u_per)
    c1, c2 = harnack_constants(ref.grid, ref.psi0)
    ratio_sq = (c1 / c2) ** 2
    # transverse comparison operator at the working depth, ghosts from the reference
    T = transverse_operator(avg.ubar, avg.psibar, ref.grid.d2, ref.grid.a, M)
    t_eigs = np.linalg.eigvalsh(T)
    x2_gap = float(t_eigs[1] - t_eigs[0]) if len(t_eigs) > 1 else np.inf

    reports = []
    for L, H in zip(L_values, ops):
        res = lowest_k(H, 2, tol=1e-8, values_only=True)
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
                harnack_ratio_sq=ratio_sq,
                margin=gap - ratio_sq * gbar,
                e0_error=abs(e0L - ref.e0),
            )
        )
    return reports
