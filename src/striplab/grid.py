"""Discretized strip and cuboid geometry.

A grid covers ``L`` unit cells per surface (x1) axis with ``a`` sites per
cell per axis (spacing ``h = 1/a``) and ``M`` sites per transverse (x2)
axis.  Transverse coordinates are centered so the surface hyperplane
``x2 = 0`` falls between the two middle layers (``M`` even)::

    x1[i] = i * h,                 i in [0, a*L)
    x2[k] = (k - M/2 + 1/2) * h,   k in [0, M)

Sites are addressed by a flat, site-major index with transverse axes
fastest; the index <-> coordinate maps are exact bijections.  Counting
takes the sites in another order, ``GridSpec.band_order``, which puts the
longest axis outermost so the operator's band is narrowest.  GridSpec is
immutable and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvalidParam

HARD_SITE_CAP = 2_000_000


@dataclass(frozen=True)
class GridSpec:
    d1: int
    d2: int
    L: int
    a: int
    M: int

    def __post_init__(self):
        if self.d1 not in (1, 2) or self.d2 not in (1, 2):
            raise InvalidParam(f"d1, d2 must be 1 or 2, got d1={self.d1}, d2={self.d2}")
        if self.L < 1 or self.a < 1:
            raise InvalidParam(f"L >= 1 and a >= 1 required, got L={self.L}, a={self.a}")
        if self.M < 2 or self.M % 2 != 0:
            raise InvalidParam(f"M must be even and >= 2, got M={self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.a

    @property
    def n_axes(self) -> int:
        return self.d1 + self.d2

    @property
    def shape(self) -> tuple:
        """Per-axis site counts, x1 axes first."""
        return (self.a * self.L,) * self.d1 + (self.M,) * self.d2

    @property
    def n_sites(self) -> int:
        return math.prod(self.shape)

    # -- index & coordinate maps ------------------------------------------

    def coords_of(self, index) -> np.ndarray:
        """Integer coordinates for flat indices; shape (..., n_axes)."""
        return np.stack(np.unravel_index(np.asarray(index), self.shape), axis=-1)

    def x1_positions(self) -> np.ndarray:
        """Physical x1 positions of all sites, shape (n_sites, d1)."""
        return self.coords_of(np.arange(self.n_sites))[:, : self.d1] * self.h

    def x2_positions(self) -> np.ndarray:
        """Physical x2 positions of all sites, shape (n_sites, d2).

        Spans [-M*h/2, M*h/2) symmetrically about the surface.
        """
        return self.x2_layer_coordinate(self.coords_of(np.arange(self.n_sites))[:, self.d1:])

    def x1_frac_positions(self) -> np.ndarray:
        """x1 positions folded to the unit cell [0,1)^d1, shape (n_sites, d1)."""
        return (self.coords_of(np.arange(self.n_sites))[:, : self.d1] % self.a) * self.h

    def cell_of_sites(self) -> np.ndarray:
        """Unit-cell index per x1 axis of every site, shape (n_sites, d1)."""
        return self.coords_of(np.arange(self.n_sites))[:, : self.d1] // self.a

    def center_sites(self) -> np.ndarray:
        """Ascending flat indices of the 2^d2 sites at the strip's centre.

        A centre site has x1 index (a*L)//2 on every x1 axis and, on every x2
        axis, one of the two layers M/2 - 1 and M/2 that straddle the surface.
        """
        axes = [[self.a * self.L // 2]] * self.d1 + [[self.M // 2 - 1, self.M // 2]] * self.d2
        return np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"), self.shape).ravel()

    def x2_layer_coordinate(self, k) -> np.ndarray:
        """Physical x2 coordinate of transverse layer index k."""
        return (np.asarray(k) - self.M / 2 + 0.5) * self.h

    def band_order(self) -> np.ndarray:
        """The site order that counting factors in: ``order[p]`` is the flat index of site p.

        A nearest-neighbour operator on the grid, its sites taken in flat
        index order, has band width n / (first axis): a bond along an axis
        joins sites as far apart as the product of the axes after it.  So
        the order moves the longest axis to the front (a stable sort by
        length, the others keeping theirs) and its band width is
        n / (longest axis): 16 where the grid's own order has 24 on an
        L = 16, M = 24 strip at a = 1, (aL)^2 where it has aL M at d1 = 2,
        d2 = 1 when M > aL.  When the first x1 axis is longest, or tied
        for it, the order is the identity.
        """
        axes = sorted(range(self.n_axes), key=lambda j: -self.shape[j])
        return np.arange(self.n_sites).reshape(self.shape).transpose(axes).ravel()

    # -- bond and face enumeration (used by operator assembly) ------------

    def interior_bonds(self, axis: int):
        """(from, to) flat-index arrays of all interior bonds along one axis."""
        n_ax = self.shape[axis]
        idx = np.arange(self.n_sites).reshape(self.shape)
        src = np.moveaxis(idx, axis, 0)[: n_ax - 1].ravel()
        dst = np.moveaxis(idx, axis, 0)[1:].ravel()
        return src, dst

    def face_sites(self, axis: int, direction: int) -> np.ndarray:
        """Flat indices of the sites on one boundary face."""
        idx = np.arange(self.n_sites).reshape(self.shape)
        sl = -1 if direction > 0 else 0
        return np.moveaxis(idx, axis, 0)[sl].ravel()

    def is_x1_axis(self, axis: int) -> bool:
        return axis < self.d1


def central_layers(arr: np.ndarray, d2: int, M: int) -> np.ndarray:
    """A view of the centred depth-``M`` block of the last ``d2`` axes of ``arr`` (each >= M)."""
    off = (arr.shape[-1] - M) // 2
    return arr[(Ellipsis,) + (slice(off, off + M),) * d2]


def build_grid(d1: int, d2: int, L: int, a: int, M: int) -> GridSpec:
    """Validated grid constructor.

    Raises CapExceeded if the site count exceeds ``HARD_SITE_CAP`` and
    InvalidParam for out-of-range dimensions or odd M.
    """
    grid = GridSpec(d1=d1, d2=d2, L=L, a=a, M=M)
    if grid.n_sites > HARD_SITE_CAP:
        raise CapExceeded(f"{grid.n_sites} sites exceeds cap {HARD_SITE_CAP}")
    return grid


# -- boundary condition specs ---------------------------------------------


@dataclass(frozen=True)
class Dirichlet:
    pass


@dataclass(frozen=True)
class Neumann:
    pass


@dataclass(frozen=True)
class Bloch:
    """Phase-twisted wrap across the x1 extent; theta_j in [-pi, pi] per axis."""

    theta: tuple

    def __post_init__(self):
        th = tuple(float(t) for t in np.atleast_1d(self.theta))
        object.__setattr__(self, "theta", th)
        if any(abs(t) > np.pi + 1e-12 for t in th):
            raise InvalidParam(f"Bloch angles must lie in [-pi, pi], got {th}")

    @property
    def is_real(self) -> bool:
        """True when every phase is +-1 and the operator stays real symmetric."""
        return all(t == 0.0 or abs(t) == np.pi for t in self.theta)


@dataclass(frozen=True)
class Mezincescu:
    """Ground-state boundary condition; ghost values read from a reference.

    ``ref`` is a GroundStateRef whose cell grid shares the spacing of the
    domain and is at least two layers deeper when used on x2 faces.
    """

    ref: object  # GroundStateRef; kept untyped to avoid a circular import


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary conditions per axis group: x1 faces and x2 faces."""

    x1: object
    x2: object

    def __post_init__(self):
        if isinstance(self.x2, Bloch):
            raise InvalidParam("Bloch boundary conditions are only admissible on x1 axes")
        for bc, name in ((self.x1, "x1"), (self.x2, "x2")):
            if not isinstance(bc, (Dirichlet, Neumann, Bloch, Mezincescu)):
                raise InvalidParam(f"unknown boundary condition for {name}: {bc!r}")


def bc_all_dirichlet() -> BoundarySpec:
    return BoundarySpec(x1=Dirichlet(), x2=Dirichlet())


def bc_all_neumann() -> BoundarySpec:
    return BoundarySpec(x1=Neumann(), x2=Neumann())


# the boundary tags of a strip ensemble:
#   "D"       Dirichlet x1 faces, Dirichlet x2 faces
#   "N"       Neumann x1, Dirichlet x2
#   "chi"     Mezincescu on all faces (ground-state invariant variant)
#   "chi_x1"  Mezincescu x1, Dirichlet x2 (truncation error decays in M)
BC_TAGS = ("D", "N", "chi", "chi_x1")


def bc_for_tag(tag: str, ref) -> BoundarySpec:
    """The BoundarySpec of a tag; ``ref`` (a GroundStateRef) feeds its Mezincescu faces."""
    if tag not in BC_TAGS:
        raise InvalidParam(f"unknown boundary tag {tag!r}")
    x1 = Dirichlet() if tag == "D" else Neumann() if tag == "N" else Mezincescu(ref)
    return BoundarySpec(x1=x1, x2=Mezincescu(ref) if tag == "chi" else Dirichlet())
