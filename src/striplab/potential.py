"""Potential ingredients on a grid.

The total potential decomposes as ``V = U_b + V_b + V_s``:

* ``U_b``  -- deterministic bulk part, periodic per unit cell in x1,
* ``V_b``  -- nonnegative i.i.d. random bulk part (may vanish),
* ``V_s``  -- alloy-type random surface part, one coupling per unit cell,

plus the deterministic floor ``U_s`` obtained by pinning every coupling to
``q_min``.  Continuum single-site profiles are evaluated pointwise at grid
nodes, and every field is a plain per-site array.  ``in_x2_box`` holds the
half-open [lo, hi) rule for a profile's transverse support; the profiles
and the Temple tail bound all use it.  The deterministic bulk kinds
(``ZeroBulk``, ``ConstantBulk``, ``CosineBulk``) are cell functions
themselves: ``periodic_bulk`` calls them with (x1_frac, x2).  The couplings
and the random bulk of one realization come from ``SurfaceModel.draw``, a
pure function of (parameters, seed): identical seeds give bit-identical
fields no matter how samples are partitioned across workers.

Alloy sums use a per-site symmetric truncation window: a site in unit cell
``s`` sums the cells ``s + r``, ``r`` in [-R, R]^d1 (``R`` the profile's
support or truncation radius).  The terms do not depend on where the cell
sits, so ``alloy_kernel`` evaluates the profile once, on one cell, and an
ensemble or pool task holds only that kernel, whatever the strip length.
``contract_couplings`` sums it against a strip's couplings and
``surface_cell_potential`` against the pinned ones, so the floor is
exactly periodic, equal to the pinned contraction bit for bit, and the
ordering ``U_s <= V_s <= 0`` holds term by term.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParam, ShapeMismatch
from .grid import GridSpec, build_grid, bc_all_neumann


# -- single-site profiles ----------------------------------------------------


def in_x2_box(x2: np.ndarray, box: tuple) -> np.ndarray:
    """Mask of the sites whose transverse coordinates all lie in [lo, hi)."""
    lo, hi = box
    return np.all((x2 >= lo) & (x2 < hi), axis=-1)


@dataclass(frozen=True)
class CompactProfile:
    """Box-supported single-site potential.

    f(x1, x2) = amplitude on {|x1|_inf <= x1_halfwidth} x {x2 in [lo, hi)^d2},
    zero elsewhere.  Nonnegative, positive on a nonempty open set.
    """

    x1_halfwidth: float = 0.25
    x2_box: tuple = (-1.0, 1.0)
    amplitude: float = 1.0

    def __post_init__(self):
        if self.amplitude <= 0:
            raise InvalidParam("profile amplitude must be positive")
        if self.x1_halfwidth <= 0 or self.x2_box[0] >= self.x2_box[1]:
            raise InvalidParam("profile support box must be nonempty")

    def window_radius(self, a: int) -> int:
        # farthest cell whose box can reach a site of another cell (spacing 1/a)
        return int(math.floor(self.x1_halfwidth + (a - 1) / a + 1e-12))

    def evaluate(self, x1_offset: np.ndarray, x2: np.ndarray) -> np.ndarray:
        inside_x1 = np.all(np.abs(x1_offset) <= self.x1_halfwidth + 1e-12, axis=-1)
        return self.amplitude * (inside_x1 & in_x2_box(x2, self.x2_box))

    def tail_bound(self, d1: int) -> float:
        return 0.0  # compact support: no neglected tail


@dataclass(frozen=True)
class PowerLawProfile:
    """Slowly decaying single-site potential.

    f(x1, x2) = f0 * max(|x1|_inf, 1)^(-alpha) * 1[x2 in box], so the
    lower and upper power-law bounds on f hold with one amplitude f0.
    Lattice sums are truncated at ``truncation_radius`` cells;
    ``tail_bound`` bounds the neglected tail.
    """

    alpha: float
    f0: float = 1.0
    x2_box: tuple = (-1.0, 1.0)
    truncation_radius: int = 64

    def __post_init__(self):
        if self.f0 <= 0:
            raise InvalidParam("need f0 > 0")
        if self.truncation_radius < 2:
            raise InvalidParam("truncation_radius must be >= 2 cells")
        if self.x2_box[0] >= self.x2_box[1]:
            raise InvalidParam("x2 support box must be nonempty")

    def validate_for_dimension(self, d1: int):
        if not (d1 < self.alpha <= d1 + 2):
            raise InvalidParam(
                f"power-law exponent must satisfy d1 < alpha <= d1+2, got alpha={self.alpha}, d1={d1}"
            )

    def window_radius(self, a: int) -> int:
        return int(self.truncation_radius)

    def evaluate(self, x1_offset: np.ndarray, x2: np.ndarray) -> np.ndarray:
        r = np.max(np.abs(x1_offset), axis=-1)
        return self.f0 * np.maximum(r, 1.0) ** (-self.alpha) * in_x2_box(x2, self.x2_box)

    def tail_bound(self, d1: int) -> float:
        """Upper bound on the neglected sum over cells beyond the radius (d1 < alpha)."""
        c_d1 = 2.0 if d1 == 1 else 8.0
        R = float(self.truncation_radius)
        return self.f0 * c_d1 * R ** (d1 - self.alpha) / (self.alpha - d1)


# -- coupling distributions --------------------------------------------------


@dataclass(frozen=True)
class UniformCouplings:
    """Couplings uniform on [q_min, q_max] with q_min < q_max < 0.

    Mass near the floor scales linearly in the window width, and the
    distribution is Lipschitz, i.e. Hoelder with exponent one.
    """

    q_min: float
    q_max: float

    def __post_init__(self):
        if not (self.q_min < self.q_max < 0):
            raise InvalidParam(f"need q_min < q_max < 0, got [{self.q_min}, {self.q_max}]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.q_min, self.q_max, size)


@dataclass(frozen=True)
class TwoPointCouplings:
    """Couplings equal to q_min with probability p, else q_max.

    ``p = 1`` is the pinned (degenerate) limit used to check floor
    identities; it is allowed here but does not qualify as a disorder
    distribution for statistical runs.
    """

    q_min: float
    q_max: float
    p: float = 0.5

    def __post_init__(self):
        if not (self.q_min < self.q_max < 0):
            raise InvalidParam(f"need q_min < q_max < 0, got [{self.q_min}, {self.q_max}]")
        if not (0 < self.p <= 1):
            raise InvalidParam(f"need 0 < p <= 1, got p={self.p}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        picks = rng.random(size) < self.p
        return np.where(picks, self.q_min, self.q_max)


# -- random bulk specs -------------------------------------------------------


@dataclass(frozen=True)
class NoBulk:
    def sample(self, rng, n: int) -> np.ndarray:
        return np.zeros(n)


@dataclass(frozen=True)
class IidUniformBulk:
    """Per-site i.i.d. values uniform on [0, v_max]."""

    v_max: float

    def __post_init__(self):
        if self.v_max < 0:
            raise InvalidParam("v_max must be nonnegative")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(0.0, self.v_max, n)


# -- deterministic bulk (U_b) cell potentials --------------------------------


@dataclass(frozen=True)
class ZeroBulk:
    def __call__(self, x1f: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return np.zeros(x1f.shape[0])


@dataclass(frozen=True)
class ConstantBulk:
    value: float

    def __call__(self, x1f: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return np.full(x1f.shape[0], float(self.value))


@dataclass(frozen=True)
class CosineBulk:
    """amplitude * (1 + cos(2*pi*x2/wavelength)) -- a smooth x2-periodic bulk."""

    amplitude: float
    wavelength: float = 4.0

    def __call__(self, x1f: np.ndarray, x2: np.ndarray) -> np.ndarray:
        return self.amplitude * (1.0 + np.cos(2 * np.pi * x2[..., 0] / self.wavelength))


# -- alloy machinery ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlloyKernel:
    """One unit cell's alloy terms, kept at the cell's sites they reach.

    ``rows[o]`` holds f(x1_frac - r, x2) for the o-th relative cell r of
    ``offsets`` ([-R, R]^d1 ascending, R = ``radius``) at ``sites``, the
    ascending flat indices into ``cell_shape`` = (a,)*d1 + (M,)*d2 where
    some row is nonzero; every other cell-local site has weight zero.  The
    arrays are read-only, and nothing depends on the strip length.
    """

    radius: int
    cell_shape: tuple
    offsets: np.ndarray
    sites: np.ndarray
    rows: np.ndarray

    def n_cells(self, L: int) -> int:
        """Window cells of an L-cell strip, one coupling each: (L + 2R)^d1."""
        return (L + 2 * self.radius) ** self.offsets.shape[1]


@functools.lru_cache(maxsize=16)
def alloy_kernel(profile, a: int, d1: int, d2: int, M: int) -> AlloyKernel:
    """The profile's one evaluation: one ``evaluate`` call at every (relative cell, cell site).

    The columns zero in every term are dropped.  The most recent kernels
    are cached and shared between callers.
    """
    radius = profile.window_radius(a)
    cell = build_grid(d1, d2, L=1, a=a, M=M)
    offsets = np.array(list(itertools.product(range(-radius, radius + 1), repeat=d1)))
    terms = profile.evaluate(cell.x1_frac_positions() - offsets[:, None, :].astype(float),
                             cell.x2_positions())
    sites = np.flatnonzero(terms.any(axis=0))
    rows = np.ascontiguousarray(terms[:, sites])
    for arr in (offsets, sites, rows):
        arr.setflags(write=False)
    return AlloyKernel(radius, cell.shape, offsets, sites, rows)


def f_weight_matrix(grid: GridSpec, profile) -> AlloyKernel:
    """The alloy kernel of ``grid``'s depth, shared by strips of every L.

    It keeps the name it had when it returned a dense (window cells, sites)
    matrix, because the benchmark's tracer wraps it by name.
    """
    return alloy_kernel(profile, grid.a, grid.d1, grid.d2, grid.M)


def contract_couplings(couplings: np.ndarray, kernel: AlloyKernel) -> np.ndarray:
    """Sum_c q_c * f_c at every site of the strip whose window ``couplings`` covers.

    The last axis holds the (L + 2R)^d1 window cells, ascending cell-major,
    which fix L.  One term per relative cell r, in ascending order, adds
    q_{s+r} * rows[r] to every strip cell s, so each site sums its cells in
    ascending order: a plain loop, not a BLAS product, whose fixed order
    makes fields bit-identical across batch sizes and worker counts.
    Unreached sites are +0.0, what the skipped terms q * 0.0 would leave.
    """
    R, d1, a = kernel.radius, kernel.offsets.shape[1], kernel.cell_shape[0]
    n, batch = couplings.shape[-1], couplings.shape[:-1]
    width, nb = (n if d1 == 1 else math.isqrt(n)), len(batch)
    if width ** d1 != n or width <= 2 * R:
        raise ShapeMismatch(f"{n} couplings is no window of radius {R} at d1 = {d1}")
    L = width - 2 * R
    # samples last, so a term is one run over (strip cells, samples)
    q = np.ascontiguousarray(np.moveaxis(couplings.reshape(batch + (width,) * d1),
                                         range(nb), range(d1, d1 + nb)))
    windows = np.lib.stride_tricks.sliding_window_view(q, (L,) * d1 + batch)
    rows = kernel.rows.reshape(kernel.rows.shape + (1,) * (d1 + nb))
    part = np.zeros((len(kernel.sites),) + (L,) * d1 + batch)
    for start, row in zip((kernel.offsets + R).tolist(), rows):
        part += row * windows[tuple(start) + (0,) * nb]
    # the strip with each x1 axis split into (cell, site in cell), viewed
    # as (strip cells, cell-local sites, samples)
    out = np.zeros(batch + (L, a) * d1 + kernel.cell_shape[d1:])
    axes = [*range(nb, nb + 2 * d1, 2), *range(nb + 1, nb + 2 * d1, 2),
            *range(nb + 2 * d1, out.ndim), *range(nb)]
    local = np.unravel_index(kernel.sites, kernel.cell_shape)
    out.transpose(axes)[(slice(None),) * d1 + local] = np.moveaxis(part, 0, d1)
    return out.reshape(batch + (L ** d1 * math.prod(kernel.cell_shape),))


def periodic_bulk(grid: GridSpec, cell_function: Callable) -> np.ndarray:
    """Extend a unit-cell function Z^d1-periodically across the grid.

    ``cell_function(x1_frac, x2)`` receives positions folded to [0,1)^d1 and
    physical transverse coordinates; periodicity on the grid is exact
    because folded positions are computed from integer coordinates.
    """
    x1f = grid.x1_frac_positions()
    x2 = grid.x2_positions()
    vals = np.asarray(cell_function(x1f, x2), dtype=float)
    if vals.shape != (grid.n_sites,):
        raise ShapeMismatch(f"cell function returned shape {vals.shape}, expected ({grid.n_sites},)")
    return vals


def surface_cell_potential(profile, q_min: float, a: int) -> Callable:
    """Floor (every coupling pinned to ``q_min``) as a cell function, ``a`` sites per cell axis.

    It is ``contract_couplings`` of the pinned one-cell window on the kernel
    of the depth M its transverse layers span, so on a grid of depth M it
    tiles to that grid's pinned contraction bit for bit.
    """

    def fn(x1f: np.ndarray, x2: np.ndarray) -> np.ndarray:
        layer = np.rint(x2 * a - 0.5).astype(int)  # in [-M/2, M/2) on a grid of depth M
        M = 2 * int(max(-layer.min(), layer.max() + 1))
        kernel = alloy_kernel(profile, a, x1f.shape[-1], x2.shape[-1], M)
        cell = contract_couplings(np.full(kernel.n_cells(1), float(q_min)), kernel)
        local = tuple(np.rint(x1f * a).astype(int).T) + tuple((layer + M // 2).T)
        return cell[np.ravel_multi_index(local, kernel.cell_shape)]

    return fn


# -- bulk bottom estimate ------------------------------------------------------


def estimate_bulk_bottom(
    cell_function: Callable,
    d1: int,
    d2: int,
    a: int,
    M_probe: int,
) -> float:
    """Lower bound on inf spec of the bulk operator with the periodic potential U_b.

    The ground energy of the probe-domain operator (M_probe transverse
    sites, M_probe cells at d1 = 1 and about sqrt(M_probe) per axis at
    d1 = 2) with all-Neumann boundary conditions; it tends to the bulk
    bottom as the probe domain grows.
    """
    from .operator import assemble
    from .spectral import lowest_k

    L_probe = M_probe if d1 == 1 else max(4, int(round(math.sqrt(M_probe))))
    probe = build_grid(d1, d2, L=L_probe, a=a, M=M_probe)
    u_b = periodic_bulk(probe, cell_function)
    res = lowest_k(assemble(probe, u_b, bc_all_neumann()), 1, tol=1e-9, values_only=True)
    return float(res.eigenvalues[0])
