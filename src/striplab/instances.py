"""Concrete model instances used by experiments, tests and the CLI.

A SurfaceModel bundles the four potential ingredients with the surface
geometry parameters they are sampled on.  The default instance is the
tight-binding workhorse: one-dimensional surface and transverse axes,
single-column compact impurity on the two layers straddling the surface,
couplings uniform on [-2, -1], no deterministic or random bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import TailTooLarge
from .grid import GridSpec, build_grid
from .potential import (
    CompactProfile,
    NoBulk,
    PowerLawProfile,
    TwoPointCouplings,
    UniformCouplings,
    ZeroBulk,
    surface_cell_potential,
)
from .rng import ROLE_BULK, ROLE_SURFACE, stream


@dataclass(frozen=True)
class SurfaceModel:
    """Potential ingredients plus the surface geometry they live on.

    ``tail_tol`` is the relative truncation tolerance for power-law alloy
    sums; slowly decaying profiles (alpha close to d1) cannot meet the
    tight default and must declare a looser value.  Building the model (or
    a ``replace`` of it) raises InvalidParam for a power-law alpha outside
    (d1, d1+2] and TailTooLarge for a tail bound above ``tail_tol * |q_min|``.
    """

    d1: int
    d2: int
    a: int
    profile: object
    dist: object
    bulk_random: object = field(default_factory=NoBulk)
    bulk_periodic: object = field(default_factory=ZeroBulk)
    tail_tol: float = 1e-8

    def __post_init__(self):
        if isinstance(self.profile, PowerLawProfile):
            self.profile.validate_for_dimension(self.d1)
        tail = self.profile.tail_bound(self.d1)
        if tail > self.tail_tol * abs(self.dist.q_min):
            raise TailTooLarge(f"truncation tail bound {tail:.3e} exceeds tail_tol*|q_min| = "
                               f"{self.tail_tol * abs(self.dist.q_min):.3e}")

    def u_per(self) -> Callable:
        """Cell potential of the periodic background: U_b + U_s (floor)."""
        floor = surface_cell_potential(self.profile, self.dist.q_min, self.a)
        return lambda x1f, x2: self.bulk_periodic(x1f, x2) + floor(x1f, x2)

    def draw(self, seed: int, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """Couplings q of ``grid``'s (L + 2R)^d1 window cells and random bulk V_b of its sites.

        The one sampling path: every realization maps its seed to the
        surface and bulk streams here, so q and V_b of a seed do not depend
        on who draws them or on how samples are split across workers.
        R is the profile's window radius, as in ``potential.AlloyKernel``.
        """
        n_cells = (grid.L + 2 * self.profile.window_radius(grid.a)) ** grid.d1
        q = self.dist.sample(stream(seed, ROLE_SURFACE), n_cells)
        v_b = self.bulk_random.sample(stream(seed, ROLE_BULK), grid.n_sites)
        return q, v_b

    def cell_grid(self, M: int) -> GridSpec:
        return build_grid(self.d1, self.d2, L=1, a=self.a, M=M)

    def strip_grid(self, L: int, M: int) -> GridSpec:
        return build_grid(self.d1, self.d2, L=L, a=self.a, M=M)


def default_model() -> SurfaceModel:
    """d1 = d2 = 1, a = 1, compact single-column impurity, q ~ U[-2, -1]."""
    return SurfaceModel(
        d1=1,
        d2=1,
        a=1,
        profile=CompactProfile(x1_halfwidth=0.25, x2_box=(-1.0, 1.0), amplitude=1.0),
        dist=UniformCouplings(-2.0, -1.0),
    )


def classical_model() -> SurfaceModel:
    """Power-law impurity profile selecting the classical tail regime.

    alpha = 1.5 truncated at 256 cells, q ~ U[-2, -1].  The truncation tail
    of a sum with alpha - d1 = 1/2 falls off only like the square root of
    the radius, so the tolerance (0.2) is necessarily loose; the truncated
    model is studied self-consistently (its own ground energy, its own tail
    fit).
    """
    return SurfaceModel(
        d1=1,
        d2=1,
        a=1,
        profile=PowerLawProfile(
            alpha=1.5,
            f0=1.0,
            x2_box=(-1.0, 1.0),
            truncation_radius=256,
        ),
        dist=UniformCouplings(-2.0, -1.0),
        tail_tol=0.2,
    )


def pinned_model(model: SurfaceModel) -> SurfaceModel:
    """The same model with every coupling pinned to the floor (degenerate)."""
    return replace(model, dist=TwoPointCouplings(model.dist.q_min, model.dist.q_min / 2, p=1.0))


def random_periodic_cell(seed: int, d1: int = 1) -> Callable:
    """Random smooth cell potential, periodic in x1 and localized in x2.

    A surface well of random depth (1 to 2) plus three random x1 harmonics
    (amplitudes up to 2.5) with Gaussian transverse envelopes (widths up to
    1.8); decays toward zero for large |x2| so the instance stays in the
    surface-state regime.
    """
    n_harmonics = 3
    rng = np.random.default_rng(seed)
    amps = rng.uniform(-2.5, 2.5, size=n_harmonics)
    modes = rng.integers(1, 4, size=(n_harmonics, d1))
    phases = rng.uniform(0, 2 * np.pi, size=n_harmonics)
    widths = rng.uniform(0.6, 1.8, size=n_harmonics)
    well = rng.uniform(0.5, 1.0) * -2.0
    well_width = rng.uniform(0.8, 1.8)

    def fn(x1f: np.ndarray, x2: np.ndarray) -> np.ndarray:
        r2 = np.sum(x2**2, axis=-1)
        out = well * np.exp(-r2 / well_width**2)
        for j in range(n_harmonics):
            phase = 2 * np.pi * (x1f @ modes[j]) + phases[j]
            out = out + amps[j] * np.cos(phase) * np.exp(-r2 / widths[j] ** 2)
        return out

    return fn
