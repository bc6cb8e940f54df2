"""Desk-scale localization diagnostics.

Transverse decay-rate fits for surface states, empirical level-in-window
probabilities over shrinking energy windows, finite-volume ground-energy
statistics, and dense spectral time evolution with moment tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AllZeroOrOne,
    DenseCapExceeded,
    InequalityViolated,
    InvalidParam,
    ProfileUnderflow,
    TooFewPoints,
)
from .grid import GridSpec
from .idss import StripEnsemble, ensemble_counts
from .instances import SurfaceModel
from .spectral import DENSE_CAP

PROFILE_GUARD = 1e-300


# -- transverse decay ------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    eigenvalue: float
    shells: np.ndarray  # |x2| shell coordinates
    profile: np.ndarray  # sup over x1 (and shell) of |psi|
    gamma: float  # decay rate per unit length; positive means decay
    prefactor: float
    r_squared: float


def decay_profile(
    grid: GridSpec,
    eigenvalue: float,
    eigenvector: np.ndarray,
    eta: float = -1e-9,
    edge_cushion: int = 2,
) -> DecayFit:
    """Log-linear fit of the transverse sup-profile on the outer layers.

    Requires the eigenvalue to sit below the bulk bottom by the margin
    ``|eta|``; fits ln sup_{x1} |psi| against |x2| over the outer half of
    the shells, excluding ``edge_cushion`` shells next to the wall where
    the hard truncation distorts the slope.
    """
    if eigenvalue > eta:
        raise InvalidParam(
            f"decay fits need an eigenvalue below the bulk bottom: {eigenvalue} > {eta}"
        )
    vec = np.abs(np.asarray(eigenvector)).reshape(grid.shape)
    sup_x1 = vec.max(axis=tuple(range(grid.d1)))  # shape (M,)*d2
    x2_of_layer = grid.x2_layer_coordinate(np.arange(grid.M))
    if grid.d2 == 1:
        r = np.abs(x2_of_layer)
        flat = sup_x1
    else:
        A, B = np.meshgrid(np.abs(x2_of_layer), np.abs(x2_of_layer), indexing="ij")
        r = np.maximum(A, B).ravel()
        flat = sup_x1.ravel()
    shells = np.unique(r)
    prof = np.array([flat[r == s].max() for s in shells])

    r_max = shells[-1]
    alive = prof > PROFILE_GUARD
    keep = alive & (shells >= 0.5 * r_max)
    if edge_cushion > 0:
        keep &= shells <= r_max - edge_cushion * grid.h + 1e-12
    if keep.sum() < 3:  # shallow grids: drop the cushion, then widen the window
        keep = alive & (shells >= 0.5 * r_max)
    if keep.sum() < 3:
        keep = alive & (shells >= 0.25 * r_max)
    if keep.sum() < 3:
        raise ProfileUnderflow(
            f"only {int(keep.sum())} usable outer shells above the underflow guard"
        )
    x = shells[keep]
    y = np.log(prof[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        eigenvalue=float(eigenvalue),
        shells=shells,
        profile=prof,
        gamma=float(-slope),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
    )


def transverse_bound_rate(eigenvalue: float, a: int = 1) -> float:
    """Closed-form lattice decay rate below the free transverse band.

    The decaying solution of the free second-difference recurrence at
    energy E < 0 falls like exp(-gamma |x2|) with
    cosh(gamma / a / a ... ) -- per unit length: a * arccosh(1 + |E| h^2 / 2).
    """
    if eigenvalue >= 0:
        raise InvalidParam("bound-state rate needs a negative eigenvalue")
    h2 = 1.0 / (a * a)
    return float(a * np.arccosh(1.0 + abs(eigenvalue) * h2 / 2.0))


# -- level-in-window probabilities --------------------------------------------------


@dataclass(frozen=True)
class WegnerReport:
    energy: float
    eps: np.ndarray
    probs: np.ndarray
    ses: np.ndarray
    slope: float  # d ln P / d ln eps over the usable range
    n_usable: int
    n_samples: int


def wegner_probe(
    model: SurfaceModel,
    energy: float,
    eps_list,
    L: int,
    M: int,
    n_samples: int,
    master_seed: int,
    bc: str = "D",
    workers: int = 1,
) -> WegnerReport:
    """P{spectrum intersects (E - eps, E + eps)} over a window ladder.

    The event is evaluated from two inertia counts per sample; it is
    monotone in eps realization by realization, which is asserted.  The
    log-log slope uses windows with nondegenerate probabilities.
    """
    eps = np.sort(np.atleast_1d(np.asarray(eps_list, dtype=float)))
    if np.any(eps < 0):
        raise InvalidParam("window half-widths must be nonnegative")
    energies = np.concatenate([energy - eps[::-1], energy + eps])
    order = np.argsort(energies)
    engine = StripEnsemble(model, L, M, bc=bc, master_seed=master_seed)
    (counts_sorted,) = ensemble_counts([(engine, n_samples, energies[order])], workers=workers)
    counts = np.empty_like(counts_sorted)
    counts[:, order] = counts_sorted
    k = len(eps)
    lo = counts[:, :k][:, ::-1]  # column j: count at energy - eps_j
    hi = counts[:, k:]
    events = hi > lo  # (n_samples, k)
    mono = np.diff(events.astype(int), axis=1)
    if np.any(mono < 0):
        raise InequalityViolated("window event not monotone in eps for some realization")
    probs = events.mean(axis=0)
    ses = np.sqrt(probs * (1 - probs) / n_samples)
    usable = (probs > 0) & (probs < 1) & (eps > 0)
    if usable.sum() < 2:
        raise AllZeroOrOne("probabilities saturated over the whole eps range")
    slope = float(np.polyfit(np.log(eps[usable]), np.log(probs[usable]), 1)[0])
    return WegnerReport(
        energy=float(energy),
        eps=eps,
        probs=probs,
        ses=ses,
        slope=slope,
        n_usable=int(usable.sum()),
        n_samples=n_samples,
    )


@dataclass(frozen=True)
class InitialScaleReport:
    L_values: np.ndarray
    energies: np.ndarray
    probs: np.ndarray  # (n_L, n_E): P{E0(H^D(V)) < E}
    ses: np.ndarray
    n_samples: int
    nondecreasing_in_L: bool


def initial_scale_probe(
    model: SurfaceModel,
    L_values: Sequence[int],
    energies,
    M: int,
    n_samples: int,
    master_seed: int,
    workers: int = 1,
) -> InitialScaleReport:
    """Ground-energy tail probabilities of the Dirichlet strip per (L, E).

    Reports raw probabilities.  At fixed E they are nondecreasing in L:
    enlarging a Dirichlet box can only lower its ground energy, so larger
    strips reach a fixed tail energy at least as often (checked here
    within three combined standard errors).
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    L_values = np.asarray(sorted(int(L) for L in L_values))
    probs = np.empty((len(L_values), len(energies)))
    ses = np.empty_like(probs)
    jobs = [(StripEnsemble(model, int(L), M, bc="D", master_seed=master_seed), n_samples, energies)
            for L in L_values]
    for i, counts in enumerate(ensemble_counts(jobs, workers=workers)):
        hit = counts >= 1
        probs[i] = hit.mean(axis=0)
        ses[i] = np.sqrt(probs[i] * (1 - probs[i]) / n_samples)
    ok = True
    for i in range(len(L_values) - 1):
        slack = 3.0 * np.hypot(ses[i], ses[i + 1])
        if np.any(probs[i + 1] < probs[i] - slack):
            ok = False
    return InitialScaleReport(
        L_values=L_values,
        energies=energies,
        probs=probs,
        ses=ses,
        n_samples=n_samples,
        nondecreasing_in_L=ok,
    )


# -- dense dynamics -------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsReport:
    times: np.ndarray
    moments: np.ndarray  # M_p(t) along the grid
    sup_moment: float
    p: float
    projected_norm_sq: float
    norm_drift: float  # max |  ||psi_t||^2 - ||psi_0||^2 |


def dynamics_moment(
    H,
    interval: tuple,
    p: float,
    times,
    sites: Sequence[int],
    u: Optional[np.ndarray] = None,
    dense_cap: int = DENSE_CAP,
) -> DynamicsReport:
    """Spectrally exact evolution of an interval-filtered local state.

    M_p(t) sums |x1 - x1_center(K)|^p against the evolved probability
    density; the spectral filter projects onto eigenvalues inside
    ``interval``.  Unitarity of the filtered evolution is certified via
    the norm drift.
    """
    grid: GridSpec = H.grid
    mat = H.matrix
    n = mat.shape[0]
    if n > dense_cap:
        raise DenseCapExceeded(f"dense evolution capped at {dense_cap} sites, got {n}")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    sites = np.asarray(sites, dtype=int)
    if u is None:
        u = np.zeros(n)
        u[sites] = 1.0 / math.sqrt(len(sites))
    else:
        u = np.asarray(u, dtype=float)
        if np.any(u[np.setdiff1d(np.arange(n), sites)] != 0):
            raise InvalidParam("initial vector must be supported in the site set")
        u = u / np.linalg.norm(u)

    evals, evecs = np.linalg.eigh(mat.toarray())
    lo, hi = interval
    keep = (evals >= lo) & (evals <= hi)
    coef = evecs[:, keep].conj().T @ u
    basis = evecs[:, keep]
    filtered_norm_sq = float(np.sum(np.abs(coef) ** 2))

    x1 = grid.x1_positions()
    center = x1[sites].mean(axis=0)
    weight = np.linalg.norm(x1 - center, axis=1) ** p

    moments = np.empty(len(times))
    drift = 0.0
    for i, t in enumerate(times):
        psi = basis @ (np.exp(-1j * evals[keep] * t) * coef)
        dens = np.abs(psi) ** 2
        moments[i] = float(weight @ dens)
        drift = max(drift, abs(float(dens.sum()) - filtered_norm_sq))
    if drift > 1e-9:
        raise InequalityViolated(f"filtered evolution norm drift {drift:.2e} exceeds 1e-9")
    return DynamicsReport(
        times=times,
        moments=moments,
        sup_moment=float(moments.max()),
        p=float(p),
        projected_norm_sq=filtered_norm_sq,
        norm_drift=drift,
    )
