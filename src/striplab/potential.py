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
``c`` sums contributions from cells within sup-distance ``R`` of ``c``
(``R`` is the profile's support or truncation radius).  This keeps the
pinned floor exactly periodic on the grid and preserves the pointwise
ordering ``U_s <= V_s <= 0`` term by term.  A strip's window weights are
an ``AlloyWeights``: the sites some cell reaches and one row of weights per
cell at those sites only, never a dense (cells x sites) matrix, whose size
grows as L^(2 d1) M.  That is all an ensemble, a cached entry of
``f_weight_matrix`` or a pool task holds of the profile.
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


def window_cells(grid: GridSpec, radius: int) -> list:
    """Cell multi-indices of the coupling window, ascending cell-major."""
    rng = range(-radius, grid.L + radius)
    return list(itertools.product(rng, repeat=grid.d1))


@dataclass(frozen=True, eq=False)
class AlloyWeights:
    """Profile weights of a strip's coupling window, kept at the sites they reach.

    ``sites`` holds, ascending, the indices of the sites at which some
    window cell's weight is nonzero; ``rows[c]`` holds cell ``c``'s weights
    at those sites, cells in the window's ascending order.  Every other
    site has weight zero from every cell.  Both arrays are read-only.  A
    profile whose transverse box covers a few layers reaches only those, so
    this holds n_cells * len(sites) of a dense matrix's n_cells * n_sites
    entries.
    """

    sites: np.ndarray
    rows: np.ndarray
    n_sites: int

    @property
    def n_cells(self) -> int:
        """Window cells, one coupling each: the coupling count a realization draws."""
        return self.rows.shape[0]


# window cells whose weights one step of f_weight_matrix evaluates at once:
# as many as make about this many (cell, site) pairs, so each step's
# temporaries stay near 128 KiB while numpy's per-call cost is shared
WEIGHT_BLOCK = 1 << 14


@functools.lru_cache(maxsize=16)
def f_weight_matrix(grid: GridSpec, profile) -> AlloyWeights:
    """Profile weights of the coupling window of ``grid``, at the sites they reach.

    Cell ``c``'s weight at a site is f(x1 - c, x2) if the site's own cell
    is within the truncation radius of ``c``, else zero.  One pass over the
    window cells, ``WEIGHT_BLOCK`` (cell, site) pairs a step, evaluates each
    cell's weights at every site and keeps the nonzero ones; the reached
    sites are their union.  The (n_cells, n_sites) matrix is never built.
    The most recent (grid, profile) pairs are cached; the returned weights
    are shared between callers and read-only.  The function keeps the name
    it had when it returned that matrix, because the benchmark's tracer
    wraps it by name; each row of its result is still a row of that matrix,
    restricted to the reached sites.
    """
    radius = profile.window_radius(grid.a)
    cells = np.array(window_cells(grid, radius))
    x1 = grid.x1_positions()
    x2 = grid.x2_positions()
    site_cells = grid.cell_of_sites()
    step = max(1, WEIGHT_BLOCK // grid.n_sites)
    hit_cells, hit_sites, hit_vals = [], [], []
    for lo in range(0, len(cells), step):
        block = cells[lo : lo + step, None, :]
        dist = np.max(np.abs(site_cells - block), axis=-1)
        f = np.where(dist <= radius, profile.evaluate(x1 - block.astype(float), x2), 0.0)
        cell, site = np.nonzero(f)
        hit_cells.append(lo + cell)
        hit_sites.append(site)
        hit_vals.append(f[cell, site])
    hit_sites = np.concatenate(hit_sites)
    reached = np.zeros(grid.n_sites, dtype=bool)
    reached[hit_sites] = True
    sites = np.flatnonzero(reached)
    rows = np.zeros((len(cells), len(sites)))
    rows[np.concatenate(hit_cells), np.cumsum(reached)[hit_sites] - 1] = np.concatenate(hit_vals)
    sites.setflags(write=False)
    rows.setflags(write=False)
    return AlloyWeights(sites, rows, grid.n_sites)


def contract_couplings(couplings: np.ndarray, weights: AlloyWeights) -> np.ndarray:
    """Sum_c q_c * f_c over the window cells, accumulated in ascending cell order.

    ``couplings`` has one entry per window cell on its last axis.  A plain
    loop rather than a BLAS product: the fixed accumulation order makes
    fields bit-identical across batch sizes and worker counts.  Only the
    reached sites are summed; every other site is +0.0, the value the loop
    over every site would leave there (each of its terms is q * 0.0 = +-0.0).
    """
    part = np.zeros(couplings.shape[:-1] + (len(weights.sites),))
    for c in range(weights.n_cells):
        part += couplings[..., c, None] * weights.rows[c]
    out = np.zeros(couplings.shape[:-1] + (weights.n_sites,))
    out[..., weights.sites] = part
    return out


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

    Sums relative cells in the same ascending order as the strip window of
    ``f_weight_matrix``, so tiling this function reproduces the pinned
    contraction ``contract_couplings(full(n_cells, q_min), weights)`` on any strip.
    """
    radius = profile.window_radius(a)

    def fn(x1f: np.ndarray, x2: np.ndarray) -> np.ndarray:
        d1 = x1f.shape[-1]
        out = np.zeros(x1f.shape[0])
        for c in itertools.product(range(-radius, radius + 1), repeat=d1):
            out += q_min * profile.evaluate(x1f - np.asarray(c, dtype=float), x2)
        return out

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
