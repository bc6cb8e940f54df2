"""Desk-scale localization diagnostics.

Transverse decay-rate fits for surface states, empirical level-in-window
probabilities over shrinking energy windows, finite-volume ground-energy
statistics, and spectral time evolution of an energy window with moment
tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InequalityViolated, InvalidParam, NoConvergence, ProfileUnderflow
from .grid import GridSpec
from .idss import StripEnsemble, ensemble_counts, hit_rate, line_fit
from .instances import SurfaceModel
from .spectral import TIE_REL, count_below, lowest_k

PROFILE_GUARD = 1e-300


# -- transverse decay ------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    eigenvalue: float
    shells: np.ndarray  # |x2| shell coordinates
    profile: np.ndarray  # sup over x1 (and shell) of |psi|
    gamma: float  # decay rate per unit length; positive means decay
    r_squared: float


def decay_profile(grid: GridSpec, eigenvalue: float, eigenvector: np.ndarray) -> DecayFit:
    """Log-linear fit of the transverse sup-profile on the outer layers.

    Requires the eigenvalue to sit below the bulk bottom by at least 1e-9;
    fits ln sup_{x1} |psi| against |x2| over the outer half of the shells,
    excluding the two shells next to the wall where the hard truncation
    distorts the slope.
    """
    if eigenvalue > -1e-9:
        raise InvalidParam(
            f"decay fits need an eigenvalue below the bulk bottom: {eigenvalue} > -1e-9"
        )
    vec = np.abs(np.asarray(eigenvector)).reshape(grid.shape)
    sup_x1 = vec.max(axis=tuple(range(grid.d1)))  # shape (M,)*d2
    # a layer's shell is the sup norm of its x2 position
    abs_x2 = np.abs(grid.x2_layer_coordinate(np.arange(grid.M)))
    r = np.max(np.meshgrid(*[abs_x2] * grid.d2, indexing="ij"), axis=0).ravel()
    flat = sup_x1.ravel()
    shells = np.unique(r)
    prof = np.array([flat[r == s].max() for s in shells])

    r_max = shells[-1]
    alive = prof > PROFILE_GUARD
    keep = alive & (shells >= 0.5 * r_max) & (shells <= r_max - 2 * grid.h + 1e-12)
    if keep.sum() < 3:  # shallow grids: drop the cushion, then widen the window
        keep = alive & (shells >= 0.5 * r_max)
    if keep.sum() < 3:
        keep = alive & (shells >= 0.25 * r_max)
    if keep.sum() < 3:
        raise ProfileUnderflow(
            f"only {int(keep.sum())} usable outer shells above the underflow guard"
        )
    slope, _, r2 = line_fit(shells[keep], np.log(prof[keep]))
    return DecayFit(
        eigenvalue=float(eigenvalue),
        shells=shells,
        profile=prof,
        gamma=-slope,
        r_squared=r2,
    )


def transverse_bound_rate(eigenvalue: float, a: int = 1) -> float:
    """Closed-form lattice decay rate below the free transverse band.

    The decaying solution of the free second-difference recurrence at
    energy E < 0 falls like exp(-gamma |x2|), with the rate per unit length

        gamma = a * arccosh(1 + |E| h^2 / 2),   h = 1/a.
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
    slope: float  # d ln P / d ln eps over the usable range; nan with fewer than 2 usable
    n_usable: int


def wegner_probe(
    model: SurfaceModel,
    energy: float,
    eps_list,
    L: int,
    M: int,
    n_samples: int,
    master_seed: int,
    M_ref: Optional[int] = None,
    workers: int = 1,
) -> WegnerReport:
    """P{spectrum intersects (E - eps, E + eps)} over a window ladder of the Dirichlet strip.

    The event is evaluated from two inertia counts per sample; it is
    monotone in eps realization by realization, which is asserted.  The
    log-log slope uses windows with nondegenerate probabilities; with fewer
    than two of them it is nan, and ``n_usable`` says so.  Counts through
    ``ensemble_counts``, so every window edge obeys the IDSS energy rule.
    """
    eps = np.sort(np.atleast_1d(np.asarray(eps_list, dtype=float)))
    if np.any(eps < 0):
        raise InvalidParam("window half-widths must be nonnegative")
    energies = np.concatenate([energy - eps[::-1], energy + eps])  # ascending
    engine = StripEnsemble(model, L, M, bc="D", M_ref=M_ref, master_seed=master_seed)
    (counts,) = ensemble_counts([(engine, n_samples, energies)], workers=workers)
    k = len(eps)
    lo = counts[:, :k][:, ::-1]  # column j: count at energy - eps_j
    hi = counts[:, k:]
    events = hi > lo  # (n_samples, k)
    mono = np.diff(events.astype(int), axis=1)
    if np.any(mono < 0):
        raise InequalityViolated("window event not monotone in eps for some realization")
    probs, ses = hit_rate(events, n_samples)
    usable = (probs > 0) & (probs < 1) & (eps > 0)
    slope = math.nan
    if usable.sum() >= 2:
        slope = line_fit(np.log(eps[usable]), np.log(probs[usable]))[0]
    return WegnerReport(
        energy=float(energy),
        eps=eps,
        probs=probs,
        ses=ses,
        slope=slope,
        n_usable=int(usable.sum()),
    )


@dataclass(frozen=True)
class InitialScaleReport:
    L_values: np.ndarray
    energies: np.ndarray
    probs: np.ndarray  # (n_L, n_E): P{E0(H^D(V)) < E}
    ses: np.ndarray
    nondecreasing_in_L: bool


def initial_scale_probe(
    model: SurfaceModel,
    L_values: Sequence[int],
    energies,
    M: int,
    n_samples: int,
    master_seed: int,
    M_ref: Optional[int] = None,
    workers: int = 1,
) -> InitialScaleReport:
    """Ground-energy tail probabilities of the Dirichlet strip per (L, E).

    Reports raw probabilities.  At fixed E they are nondecreasing in L:
    enlarging a Dirichlet box can only lower its ground energy, so larger
    strips reach a fixed tail energy at least as often (checked here
    within three combined standard errors).  Counts through
    ``ensemble_counts``, so the energies obey the IDSS energy rule.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    L_values = np.asarray(sorted(int(L) for L in L_values))
    probs = np.empty((len(L_values), len(energies)))
    ses = np.empty_like(probs)
    jobs = [(StripEnsemble(model, int(L), M, bc="D", M_ref=M_ref, master_seed=master_seed),
             n_samples, energies) for L in L_values]
    for i, counts in enumerate(ensemble_counts(jobs, workers=workers)):
        probs[i], ses[i] = hit_rate(counts >= 1, n_samples)
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
        nondecreasing_in_L=ok,
    )


# -- window dynamics -------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsReport:
    times: np.ndarray
    moments: np.ndarray  # M_p(t) along the grid
    sup_moment: float
    projected_norm_sq: float
    norm_drift: float  # max |  ||psi_t||^2 - ||psi_0||^2 |
    n_window: int  # eigenvalues inside the interval; at 0 every moment and the drift are 0


def dynamics_moment(H, interval: tuple, p: float, times, sites: Sequence[int]) -> DynamicsReport:
    """Spectrally exact evolution of an interval-filtered local state.

    The initial state is uniform on ``sites``.  M_p(t) sums |x1 -
    x1_center(K)|^p against the evolved probability density; the spectral
    filter projects onto eigenvalues inside ``interval`` = [lo, hi].
    Unitarity of the filtered evolution is certified via the norm drift.

    The pairs come from ``count_below`` and ``lowest_k`` alone: k =
    ``count_below(H, hi)`` counts the eigenvalues <= hi + tie, tie = 1e-12
    (||H||_inf + |hi| + 1), and ``lowest_k(H, k)`` solves them (none at k =
    0, where every moment and the drift are 0); the window keeps those in
    [lo, hi].  Up to ``DENSE_CAP`` sites they are ``eigh_dense``'s first k,
    the bits of a whole-spectrum solve, whose eigenvalues differ from the
    count's banded ones by a few eps ||H||_inf, far inside the tie: no pair
    at or below hi is missed.  Above the cap Lanczos certifies residuals at
    tol = 1e-9, so each eigenvalue lies within tol of the operator's own and
    a pair within tol of an edge may fall on either side.  One above hi +
    tie + tol was never counted, so Lanczos missed a counted pair: that
    raises ``NoConvergence`` rather than drop it.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    sites = np.asarray(sites, dtype=int)
    u = np.zeros(H.n)
    u[sites] = 1.0 / math.sqrt(len(sites))

    lo, hi = interval
    k, tol = count_below(H, hi), 1e-9
    evals, evecs = np.empty(0), np.empty((H.n, 0))
    if k:
        pairs = lowest_k(H, k, tol)
        evals, evecs = pairs.eigenvalues, pairs.eigenvectors
        edge = hi + TIE_REL * (abs(H.matrix).sum(axis=1).max() + abs(hi) + 1.0) + tol
        if evals[-1] > edge:
            raise NoConvergence(f"eigenvalue {evals[-1]:.12g} of the {k} counted up to {hi} "
                                f"lies above {edge:.12g}: a counted pair was missed")
    keep = (evals >= lo) & (evals <= hi)
    coef = evecs[:, keep].conj().T @ u
    basis = evecs[:, keep]
    filtered_norm_sq = float(np.sum(np.abs(coef) ** 2))

    x1 = H.grid.x1_positions()
    weight = np.linalg.norm(x1 - x1[sites].mean(axis=0), axis=1) ** p

    moments = np.empty(len(times))
    drift = 0.0
    for i, t in enumerate(times):
        psi = basis @ (np.exp(-1j * evals[keep] * t) * coef)
        dens = np.abs(psi) ** 2
        moments[i] = float(weight @ dens)
        drift = max(drift, abs(float(dens.sum()) - filtered_norm_sq))
    if drift > 1e-9:
        raise InequalityViolated(f"filtered evolution norm drift {drift:.2e} exceeds 1e-9")
    return DynamicsReport(times=times, moments=moments, sup_moment=float(moments.max()),
                          projected_norm_sq=filtered_norm_sq, norm_drift=drift,
                          n_window=int(keep.sum()))
