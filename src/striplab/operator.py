"""Sparse lattice Hamiltonians H = -Delta + V under mixed boundary conditions.

The interior stencil is

    (H u)(x) = h^{-2} * sum_{y ~ x} (u(x) - u(y)) + V(x) u(x)

with 2*(d1+d2) arms per site.  An arm that leaves the domain toward a ghost
site y contributes, per face boundary condition:

* Dirichlet:   h^{-2} * u(x)                    (ghost value 0)
* Neumann:     0                                (ghost value u(x))
* Bloch:       wrap to the opposite face with phase e^{+-i theta_j}
* Mezincescu:  h^{-2} * (1 - psi0(y)/psi0(x)) * u(x), the ghost value taken
  from a periodic ground-state reference; this makes the reference an exact
  eigenvector of the restricted operator, which is the point of the
  construction.

Assembly order is deterministic (site-major, axis-major), matrices are
exactly Hermitian by construction and real symmetric whenever no Bloch
phase has a nonzero sine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import IncompatibleRef, InvalidParam, NotPositive, ShapeMismatch
from .grid import Bloch, BoundarySpec, Dirichlet, GridSpec, Mezincescu, Neumann


@dataclass(frozen=True)
class GroundStateRef:
    """Positive normalized ground state of a periodic cell operator.

    Lives on a one-cell grid (full x1 period, transverse depth M_ref) and
    supplies ghost values for Mezincescu boundary conditions by periodic
    extension in x1 and direct lookup in x2.
    """

    grid: GridSpec
    psi0: np.ndarray
    e0: float
    residual: float

    def __post_init__(self):
        if self.grid.L != 1:
            raise InvalidParam("ground-state reference must live on a one-cell grid")
        if self.psi0.shape != (self.grid.n_sites,):
            raise ShapeMismatch("reference vector does not match its grid")
        if np.any(self.psi0 <= 0):
            raise NotPositive("reference ground state has non-positive entries")

    def values_at(self, coords: np.ndarray, domain: GridSpec) -> np.ndarray:
        """psi0 at integer domain coordinates, ghosts included.

        x1 coordinates are folded modulo the cell period; x2 coordinates are
        shifted into the (deeper, centered) reference cell.
        """
        ref = self.grid
        idx = []
        for j in range(domain.d1):
            idx.append(np.mod(coords[..., j], ref.a))
        off = [(ref.M - domain.M) // 2] * domain.d2
        for j in range(domain.d2):
            k = coords[..., domain.d1 + j] + off[j]
            if np.any(k < 0) or np.any(k >= ref.M):
                raise IncompatibleRef(
                    f"reference depth M_ref={ref.M} lacks ghost layers for domain M={domain.M}"
                )
            idx.append(k)
        flat = np.ravel_multi_index(tuple(idx), ref.shape)
        return self.psi0[flat]


@dataclass(frozen=True)
class Hamiltonian:
    grid: GridSpec
    bcs: BoundarySpec
    matrix: sp.csr_matrix
    is_complex: bool

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _check_ref(ref: GroundStateRef, grid: GridSpec):
    """Spacing and dimensions; ``ref.values_at`` checks that the reference reaches every ghost."""
    if ref.grid.a != grid.a or ref.grid.d1 != grid.d1 or ref.grid.d2 != grid.d2:
        raise IncompatibleRef("reference grid spacing or dimensions differ from the domain")


def _phase(theta: float, direction: int, is_real: bool):
    if is_real:
        return 1.0 if theta == 0.0 else -1.0  # theta in {0, +-pi}
    return complex(np.cos(theta * direction), np.sin(theta * direction))


def assemble(grid: GridSpec, values: np.ndarray, bcs: BoundarySpec) -> Hamiltonian:
    """Assemble the sparse operator for the per-site potential ``values`` on a grid."""
    diag = np.array(values, dtype=np.float64)
    if diag.shape != (grid.n_sites,):
        raise ShapeMismatch(f"potential shape {diag.shape} != ({grid.n_sites},)")
    if not np.all(np.isfinite(diag)):
        raise ShapeMismatch("potential contains non-finite values")

    h2i = float(grid.a * grid.a)  # h^{-2}
    n = grid.n_sites
    x1_bloch = isinstance(bcs.x1, Bloch)
    if x1_bloch and len(bcs.x1.theta) != grid.d1:
        raise InvalidParam(f"Bloch needs {grid.d1} angles, got {len(bcs.x1.theta)}")
    use_complex = x1_bloch and not bcs.x1.is_real
    dtype = np.complex128 if use_complex else np.float64

    rows, cols, data = [], [], []

    for axis in range(grid.n_axes):
        n_ax = grid.shape[axis]
        # interior arms: 2 per site along this axis, 1 on each face
        arms = np.full(grid.shape, 2.0)
        view = np.moveaxis(arms, axis, 0)
        view[0] -= 1.0
        view[-1] -= 1.0
        diag += h2i * arms.ravel()

        src, dst = grid.interior_bonds(axis)
        if len(src):
            rows.extend((src, dst))
            cols.extend((dst, src))
            off = np.full(len(src), -h2i, dtype=dtype)
            data.extend((off, off))

        bc = bcs.x1 if grid.is_x1_axis(axis) else bcs.x2
        for direction in (-1, +1):
            face = grid.face_sites(axis, direction)
            if isinstance(bc, Dirichlet):
                diag[face] += h2i
            elif isinstance(bc, Neumann):
                pass
            elif isinstance(bc, Bloch):
                theta = bc.theta[axis]
                wrap = grid.face_sites(axis, -direction)
                diag[face] += h2i
                rows.append(face)
                cols.append(wrap)
                data.append(np.full(len(face), -h2i * _phase(theta, direction, not use_complex), dtype=dtype))
            elif isinstance(bc, Mezincescu):
                ref = bc.ref
                _check_ref(ref, grid)
                coords = grid.coords_of(face)
                ghost = coords.copy()
                ghost[:, axis] += direction
                ratio = ref.values_at(ghost, grid) / ref.values_at(coords, grid)
                diag[face] += h2i * (1.0 - ratio)
            else:
                raise InvalidParam(f"unsupported boundary condition {bc!r}")

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    data.append(diag.astype(dtype))  # diagonal stays real even in the complex case

    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return Hamiltonian(grid=grid, bcs=bcs, matrix=mat, is_complex=use_complex)
