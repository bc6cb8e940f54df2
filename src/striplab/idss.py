"""Monte Carlo estimation of the integrated density of surface states.

The per-surface-volume eigenvalue count N(E) = count(H, E) / L^d1 is
averaged over disorder realizations on truncated strips.  Ensembles share
their off-diagonal structure, so counting runs through the batched banded
inertia kernel; every sample's field is a pure function of
(parameters, master_seed, sample_index) and results are independent of
the counting blocks and the worker count.

An ensemble's faces are named by a boundary tag (``"D"``, ``"N"``, ``"chi"``
or ``"chi_x1"``); ``grid.BC_TAGS`` lists them and ``grid.bc_for_tag`` maps
each to its BoundarySpec.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GapTooSmall, InequalityViolated, InvalidParam, S4Violated
from .floquet import cached_reference
from .grid import Mezincescu, bc_all_dirichlet, bc_for_tag, central_layers
from .instances import SurfaceModel
from .operator import GroundStateRef, Hamiltonian, assemble
from .potential import (
    ZeroBulk,
    contract_couplings,
    estimate_bulk_bottom,
    f_weight_matrix,
    in_x2_box,
    periodic_bulk,
)
from .rng import mix64
from .spectral import (
    block_lanes,
    count_below,
    count_below_ensemble,
    lower_band,
    lowest_k,
    rayleigh_ritz_upper,
)

class StripEnsemble:
    """Shared-structure disorder ensemble on one strip geometry.

    The one way to build a disordered realization: sample ``i`` is
    ``U_b + V_b + V_s`` under the ensemble's boundary spec, with V_b and the
    couplings of V_s from ``model.draw(mix64(master_seed, i), ...)``.
    ``U_b`` and the boundary terms live in ``base_band``; the per-sample
    diagonal additions come from ``sample_diags``.

    ``base_band`` holds the assembled operator with its sites in
    ``order`` = ``grid.band_order()``, the longest axis outermost, so its
    band is n / (longest axis) wide; ``counts`` takes the sampled diagonals
    in that order too.  A permutation changes no eigenvalue and moves
    values without arithmetic, so the ensemble counts the operators
    ``hamiltonian`` assembles, which, like ``sample_diag(s)``, keeps the
    grid's own order.

    ``ref`` and ``e0`` come from ``cached_reference(model, M, M_ref)``
    (``M_ref`` defaults to M + 4).  The reference does not depend on L, so
    ensembles of one (model, M, M_ref) share one solve per process.

    ``weights`` is the alloy kernel of the cached ``f_weight_matrix``:
    one cell's weights, a row per relative cell at the cell-local sites
    some row reaches (``potential.AlloyKernel``), the same for every L.
    It, ``u_b``, ``order`` and ``base_band`` are the ensemble's arrays; a
    pool task that carries the ensemble pickles them with the model, grid
    and reference.
    """

    def __init__(
        self,
        model: SurfaceModel,
        L: int,
        M: int,
        bc: str = "chi",
        M_ref: Optional[int] = None,
        master_seed: int = 0,
    ):
        self.model = model
        self.L = int(L)
        self.M = int(M)
        self.master_seed = int(master_seed)
        self.grid = model.strip_grid(self.L, self.M)
        self.ref = cached_reference(model, self.M, M_ref)
        self.e0 = self.ref.e0
        self.bcs = bc_for_tag(bc, self.ref)
        self.u_b = periodic_bulk(self.grid, model.bulk_periodic)
        self.order = self.grid.band_order()
        self.base_band = lower_band(assemble(self.grid, self.u_b, self.bcs))
        self.weights = f_weight_matrix(self.grid, model.profile)

    def sample_diags(self, indices: Sequence[int]) -> np.ndarray:
        """Diagonal additions V_b + V_s of the given samples, shape (len(indices), n_sites).

        Every sample draws from its own seed, and one contraction covers
        all of them; its per-row accumulation order keeps each row
        bit-identical to a one-sample draw.
        """
        q = np.empty((len(indices), self.weights.n_cells(self.L)))
        v_b = np.empty((len(indices), self.grid.n_sites))
        for row, i in enumerate(indices):
            q[row], v_b[row] = self.model.draw(mix64(self.master_seed, i), self.grid)
        return v_b + contract_couplings(q, self.weights)

    def sample_diag(self, index: int) -> np.ndarray:
        """Per-sample diagonal addition V_b + V_s (U_b lives in the base band)."""
        return self.sample_diags([index])[0]

    def hamiltonian(self, index: int) -> Hamiltonian:
        """Operator of sample ``index``: U_b + V_b + V_s under the ensemble's boundary spec."""
        return assemble(self.grid, self.u_b + self.sample_diag(index), self.bcs)

    def counts(self, indices: Sequence[int], energies) -> np.ndarray:
        """Counts of one sample block, shape (len(indices), len(energies)), in one kernel call."""
        diags = self.sample_diags(indices)[:, self.order]
        return count_below_ensemble(self.base_band, diags, energies)


def _counts_block(args):
    engine, indices, energies = args
    return engine.counts(indices, energies)


def ensemble_counts(jobs, workers: int = 1) -> list:
    """Counts of several ensembles, one (n_samples, len(energies)) array per job.

    ``jobs`` is a list of ``(engine, n_samples, energies)``; each job counts
    its samples 0..n_samples-1.  A caller sends all the ensembles of one run
    in one call: a campaign its ensembles, ``striplab idss`` its curve's
    ensemble with the sandwich check's.

    Every count obeys the IDSS energy rule, checked for each job before any
    task or pool is built: the engine's periodic ground energy e0 is
    negative (the surface regime), else S4Violated, and every energy lies
    below the bulk bottom estimate of the engine's model at probe depth
    2M (``potential.estimate_bulk_bottom``; 0 for a zero periodic bulk),
    else InvalidParam; a NaN energy, which lies below nothing, is refused.  The estimate is made once per distinct (bulk, d1,
    d2, a, M) in the call.

    Only here are samples split: each job into max(ceil(workers /
    len(jobs)), ceil(n_samples / block_lanes)) contiguous blocks
    (``spectral.block_lanes``), each one ``_counts_block`` task.  The tasks
    run largest first (sites x samples), at one worker in this process,
    else in one pool of at most ``os.cpu_count()`` processes that lives for
    this call only; each task carries its built engine.  So
    a campaign's many ensembles travel whole and fill the workers between
    them, while a lone ensemble is still split across the workers.  On the
    benchmark's two-worker quantum tail (12 ensembles of 96 samples, 2-core
    VM) the median run took 1.10 s, against 1.45 s with a pool per ensemble
    and half-ensemble blocks.

    Neither the partition nor the task order affects a count: each sample's
    seed is derived from its index alone, and the counting kernel never
    reads the lane count.
    """
    jobs = [(engine, n, np.atleast_1d(np.asarray(energies, dtype=float)))
            for engine, n, energies in jobs]
    bottoms = {}
    for engine, _, energies in jobs:
        m = engine.model
        if engine.e0 >= 0:
            raise S4Violated(f"periodic ground energy {engine.e0:.6g} is not negative")
        key = (m.bulk_periodic, m.d1, m.d2, m.a, engine.M)
        if key not in bottoms:
            bottoms[key] = 0.0 if isinstance(m.bulk_periodic, ZeroBulk) else (
                estimate_bulk_bottom(m.bulk_periodic, m.d1, m.d2, m.a, M_probe=2 * engine.M))
        if not np.all(energies < bottoms[key]):  # a NaN energy fails too
            raise InvalidParam(
                f"energies must stay below the bulk bottom estimate {bottoms[key]:.6g}")
    tasks = []
    for j, (engine, n, _) in enumerate(jobs):
        split = max(1, -(-workers // len(jobs)), -(-n // block_lanes(engine.base_band)))
        tasks += [(j, block) for block in np.array_split(np.arange(n), split) if len(block)]
    tasks.sort(key=lambda t: jobs[t[0]][0].grid.n_sites * len(t[1]), reverse=True)
    args = [(jobs[j][0], block.tolist(), jobs[j][2]) for j, block in tasks]
    if workers <= 1:
        results = [_counts_block(a) for a in args]
    else:
        processes = min(workers, len(args), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=max(1, processes)) as ex:
            results = [fut.result() for fut in [ex.submit(_counts_block, a) for a in args]]
    out = [np.empty((n, len(energies)), dtype=np.int64) for _, n, energies in jobs]
    for (j, block), counts in zip(tasks, results):
        out[j][block[0] : block[-1] + 1] = counts
    return out


# -- the surface-state density N(E) ----------------------------------------------


def hit_rate(events: np.ndarray, n: int):
    """Binomial rate of boolean ``events`` (one row per sample) and its standard error."""
    p = events.mean(axis=0)
    return p, np.sqrt(p * (1 - p) / n)


@dataclass(frozen=True)
class DensityCurve:
    """Monte Carlo N(E) = E[count(H, E)] / L^d1, one point per energy.

    Point i averages ``n_samples`` realizations on a strip of length
    ``L_values[i]``: one length for an IDSS grid or a classical tail, one
    per offset for the quantum tail.
    """

    deltas: np.ndarray  # E - e0 per point
    energies: np.ndarray
    L_values: np.ndarray
    M: int
    means: np.ndarray  # count / L^d1, averaged over samples
    ses: np.ndarray
    p0_upper: np.ndarray  # one-sided 95% upper bound where the mean is 0
    n_samples: int
    e0: float


def _density(counts: np.ndarray, engine: StripEnsemble):
    """Mean count per surface volume L^d1 over the sample rows, and its standard error."""
    n = len(counts)
    vol = float(engine.L**engine.model.d1)
    means = counts.mean(axis=0) / vol
    ses = counts.std(axis=0, ddof=1) / math.sqrt(n) / vol if n > 1 else np.zeros_like(means)
    return means, ses


def _density_curve(jobs, deltas, counts) -> DensityCurve:
    """N(E) at the energies of every ``(engine, n_samples, energies)`` job, in job order.

    All jobs share one depth, boundary tag and sample count; ``counts`` holds
    their ``ensemble_counts`` arrays.
    """
    reduced = [_density(c, engine) for (engine, _, _), c in zip(jobs, counts)]
    means = np.concatenate([m for m, _ in reduced])
    engine, n_samples, _ = jobs[0]
    return DensityCurve(
        deltas=deltas,
        energies=np.concatenate([energies for _, _, energies in jobs]),
        L_values=np.array([eng.L for eng, _, energies in jobs for _ in energies]),
        M=engine.M,
        means=means,
        ses=np.concatenate([s for _, s in reduced]),
        p0_upper=np.where(means == 0, 1.0 - 0.05 ** (1.0 / n_samples), np.nan),
        n_samples=n_samples,
        e0=engine.e0,
    )


def _offsets(deltas) -> np.ndarray:
    deltas = np.sort(np.atleast_1d(np.asarray(deltas, dtype=float)))
    if np.any(deltas <= 0):
        raise InvalidParam("energy offsets must be positive")
    return deltas


def idss_estimate(
    model: SurfaceModel,
    L: int,
    M: int,
    energies,
    n_samples: int,
    master_seed: int,
    bc: str = "chi",
    M_ref: Optional[int] = None,
    workers: int = 1,
) -> DensityCurve:
    """Monte Carlo reduced-volume IDSS over a strictly ascending energy grid.

    Counts one ensemble through ``ensemble_counts``, which holds the grid
    to the IDSS energy rule, and reduces it with ``idss_from_counts``;
    ``striplab idss`` counts that ensemble together with the sandwich
    check's.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if np.any(np.diff(energies) <= 0):
        raise InvalidParam("energy grid must be strictly ascending")
    engine = StripEnsemble(model, L, M, bc=bc, M_ref=M_ref, master_seed=master_seed)
    (counts,) = ensemble_counts([(engine, n_samples, energies)], workers=workers)
    return idss_from_counts(engine, energies, counts)


def idss_from_counts(engine: StripEnsemble, energies: np.ndarray,
                     counts: np.ndarray) -> DensityCurve:
    """N(E) of ``engine``'s counts at ``energies``.

    A nonzero count below e0 where the floor holds raises InequalityViolated.
    """
    curve = _density_curve([(engine, len(counts), energies)], energies - engine.e0, [counts])
    guard = energies < engine.e0 - 1e-9
    # the floor holds under Mezincescu x1 faces (tags "chi" and "chi_x1") and at a = 1
    floor = isinstance(engine.bcs.x1, Mezincescu) or engine.model.a == 1
    if floor and np.any(curve.means[guard] != 0):
        raise InequalityViolated("nonzero counts below the periodic ground energy")
    return curve


# -- per-realization bracketing and truncation ------------------------------------


@dataclass(frozen=True)
class BracketingReport:
    counts_dd: dict  # M -> counts array over energies
    counts_nd: dict
    M_stab: Optional[int]  # smallest tested M with counts identical to 2M


def bracketing_check(
    model: SurfaceModel,
    L: int,
    M_values: Sequence[int],
    energies,
    seed: int,
) -> BracketingReport:
    """Dirichlet/Neumann count ordering and transverse stabilization.

    One disorder realization is shared across all depths: its diagonal
    ``(U_b + V_b) + V_s`` is built once on the deepest grid, and each
    depth's is the central layers of it.  Couplings are depth-independent
    and a site's window weights do not depend on the depth, so this is bit
    for bit the diagonal built on the shallower grid itself.  So the
    field is drawn here with ``model.draw(seed, ...)`` and not from a
    ``StripEnsemble``, which draws each sample on its own grid: every depth
    must share one realization.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    M_values = tuple(sorted(int(m) for m in M_values))
    grid_max = model.strip_grid(L, M_values[-1])
    weights = f_weight_matrix(grid_max, model.profile)
    q, v_b = model.draw(seed, grid_max)
    values_max = ((periodic_bulk(grid_max, model.bulk_periodic) + v_b)
                  + contract_couplings(q, weights)).reshape(grid_max.shape)

    counts_dd, counts_nd = {}, {}
    for M in M_values:
        grid = model.strip_grid(L, M)
        values = central_layers(values_max, grid.d2, M).ravel()
        for tag, store in (("D", counts_dd), ("N", counts_nd)):
            H = assemble(grid, values, bc_for_tag(tag, None))
            store[M] = count_below(H, energies)
        bad = counts_dd[M] > counts_nd[M]
        if np.any(bad):
            raise InequalityViolated(
                f"count(D,D) > count(N,D) at E={energies[bad.argmax()]:.6g} (M={M})"
            )

    for store, tag in ((counts_dd, "D"), (counts_nd, "N")):
        for prev, cur in zip(M_values, M_values[1:]):
            drop = store[cur] < store[prev]
            if np.any(drop):
                raise InequalityViolated(
                    f"{tag}-counts decreased from M={prev} to M={cur} at "
                    f"E={energies[drop.argmax()]:.6g}"
                )

    M_stab = None
    for M in M_values:
        if 2 * M in counts_dd:
            if np.array_equal(counts_dd[M], counts_dd[2 * M]) and np.array_equal(
                counts_nd[M], counts_nd[2 * M]
            ):
                M_stab = M
                break
    return BracketingReport(counts_dd=counts_dd, counts_nd=counts_nd, M_stab=M_stab)


# -- the three-term sandwich -------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    energies: np.ndarray
    lhs: np.ndarray  # P{E0(H^D(V)) < E} / L^d1
    mid: np.ndarray  # mean count(H^chi(V)) / L^d1
    rhs: np.ndarray  # count(H^chi_per) / L^d1 * P{E0(H^chi(V)) < E}
    lhs_se: np.ndarray
    mid_se: np.ndarray
    rhs_se: np.ndarray
    ok: bool  # lhs <= mid <= rhs within three combined standard errors at every energy
    detail: str  # the first energy where it fails, "" when it holds


def sandwich_check(
    model: SurfaceModel,
    L: int,
    M: int,
    energies,
    n_samples: int,
    master_seed: int,
    M_ref: Optional[int] = None,
    workers: int = 1,
) -> SandwichReport:
    """Empirical two-sided bound chain for the IDSS at every grid energy.

    Couplings are shared between the Dirichlet and the chi ensembles, so
    the comparison is paired.  ``ok`` says whether every energy holds within
    three combined standard errors, and ``detail`` names the first that does
    not.  Counts both ensembles and reduces them with ``sandwich_from_counts``.
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    eng_chi = StripEnsemble(model, L, M, bc="chi", M_ref=M_ref, master_seed=master_seed)
    eng_d = StripEnsemble(model, L, M, bc="D", M_ref=M_ref, master_seed=master_seed)
    counts_chi, counts_d = ensemble_counts(
        [(eng_chi, n_samples, energies), (eng_d, n_samples, energies)], workers=workers
    )
    return sandwich_from_counts(eng_chi, energies, counts_chi, counts_d)


def sandwich_from_counts(
    eng_chi: StripEnsemble, energies: np.ndarray, counts_chi: np.ndarray, counts_d: np.ndarray
) -> SandwichReport:
    """The sandwich of ``sandwich_check`` from the counts of samples 0..n-1 of its two ensembles.

    ``counts_d`` comes from the Dirichlet ensemble of ``eng_chi``'s model,
    strip and master seed; the periodic count is of ``eng_chi``'s geometry.
    """
    n_samples = len(counts_chi)
    u_per = periodic_bulk(eng_chi.grid, eng_chi.model.u_per())
    H_per = assemble(eng_chi.grid, u_per, eng_chi.bcs)
    n_per = count_below(H_per, energies).astype(float)

    vol = float(eng_chi.L**eng_chi.model.d1)
    p_d, se_pd = hit_rate(counts_d >= 1, n_samples)
    p_chi, se_pchi = hit_rate(counts_chi >= 1, n_samples)
    lhs = p_d / vol
    lhs_se = se_pd / vol
    mid, mid_se = _density(counts_chi, eng_chi)
    rhs = n_per / vol * p_chi
    rhs_se = n_per / vol * se_pchi

    detail = ""
    for i, E in enumerate(energies):
        slack_lo = 3.0 * math.hypot(lhs_se[i], mid_se[i])
        slack_hi = 3.0 * math.hypot(mid_se[i], rhs_se[i])
        if lhs[i] > mid[i] + slack_lo or mid[i] > rhs[i] + slack_hi:
            detail = (f"sandwich violated at E={E:.6g}: "
                      f"lhs={lhs[i]:.4g} mid={mid[i]:.4g} rhs={rhs[i]:.4g}")
            break
    return SandwichReport(
        energies=energies,
        lhs=lhs,
        mid=mid,
        rhs=rhs,
        lhs_se=lhs_se,
        mid_se=mid_se,
        rhs_se=rhs_se,
        ok=not detail,
        detail=detail,
    )


# -- certified tail bounds -----------------------------------------------------------


@dataclass(frozen=True)
class TempleTailReport:
    bound: float  # certified lower bound E0 + shift
    shift: float
    direct_e0: float  # eigensolve of the perturbed operator
    margin: float  # direct_e0 - bound, certified nonnegative
    gap: float
    sup_w: float


def temple_tail_bound(
    model: SurfaceModel,
    ref: GroundStateRef,
    L: int,
    w_x1: np.ndarray,
    M: int,
    gap: float,
) -> TempleTailReport:
    """Certified lower bound on the floor-pinned perturbed ground energy.

    ``w_x1`` is a nonnegative reducing profile over the x1 sites of the
    depth-``M`` strip, applied on the impurity profile's x2 box, with sup
    at most a third of the strip gap ``gap`` (from ``gap_certificate``);
    the certified bound is the periodic ground energy plus half the
    profile's ground-state weight.
    """
    grid = model.strip_grid(L, M)
    n_x1 = (grid.a * L) ** grid.d1
    w_x1 = np.asarray(w_x1, dtype=float).ravel()
    if w_x1.shape != (n_x1,):
        raise InvalidParam(f"reducing profile must have shape ({n_x1},)")
    if np.any(w_x1 < 0):
        raise InvalidParam("reducing profile must be nonnegative")

    sup_w = float(w_x1.max(initial=0.0))
    if sup_w > gap / 3.0:
        raise GapTooSmall(f"sup W = {sup_w:.4g} exceeds gap/3 = {gap / 3.0:.4g}")

    coords = grid.coords_of(np.arange(grid.n_sites))
    psi = ref.values_at(coords, grid)
    x1_flat = np.ravel_multi_index(
        tuple(coords[:, j] for j in range(grid.d1)), (grid.a * L,) * grid.d1
    )
    w_site = w_x1[x1_flat] * in_x2_box(grid.x2_positions(), model.profile.x2_box)

    psi_sq = psi * psi
    wbar = float(np.sum(w_site * psi_sq) / np.sum(psi_sq))
    bound = ref.e0 + 0.5 * wbar

    u_vals = periodic_bulk(grid, model.u_per())
    H = assemble(grid, u_vals + w_site, bc_for_tag("chi", ref))
    direct = float(lowest_k(H, 1, tol=1e-9, values_only=True).eigenvalues[0])
    return TempleTailReport(
        bound=bound,
        shift=0.5 * wbar,
        direct_e0=direct,
        margin=direct - bound,
        gap=gap,
        sup_w=sup_w,
    )


@dataclass(frozen=True)
class RayleighTailReport:
    bound: float  # trial Rayleigh quotient
    e0: float
    coupling_term: float
    bulk_term: float
    cutoff_penalty: float
    direct_e0: float
    margin: float  # bound - direct_e0; `striplab bounds` fails below -1e-10


def rayleigh_tail_bound(
    model: SurfaceModel,
    L: int,
    M: int,
    seed: int,
    M_ref: Optional[int] = None,
) -> RayleighTailReport:
    """Rayleigh-Ritz upper bound for one realization on the Dirichlet strip.

    The trial vector is the periodic ground state times a discrete sine
    cutoff vanishing on the boundary; the quotient decomposes into the
    periodic ground energy, the excess-coupling term, the random-bulk term
    and the cutoff penalty (which absorbs both the x1 localization cost and
    the transverse truncation).  A decomposition that does not sum to the
    quotient raises InequalityViolated; whether the bound lies above the
    direct ground energy is the verdict of ``striplab bounds``, as for
    Temple's bound.

    The field is drawn here with ``model.draw(seed, ...)`` and not from a
    ``StripEnsemble``: the decomposition needs the excess couplings
    q - q_min and V_b apart, where an ensemble yields only V_b + V_s, and
    ``seed`` is the realization's own seed, not ``mix64(master_seed, i)``,
    so an ensemble's draw would change the ``bounds`` CSV.
    """
    grid = model.strip_grid(L, M)
    ref = cached_reference(model, M, M_ref)

    weights = f_weight_matrix(grid, model.profile)
    q, v_b = model.draw(seed, grid)
    w_vals = contract_couplings(q - model.dist.q_min, weights)
    u_per_vals = periodic_bulk(grid, model.u_per())

    coords = grid.coords_of(np.arange(grid.n_sites))
    psi = ref.values_at(coords, grid)
    cut = np.ones(grid.n_sites)
    n_ax = grid.a * L
    for j in range(grid.d1):
        cut *= np.sin(np.pi * (coords[:, j] + 1) / (n_ax + 1))
    trial = psi * cut
    nrm2 = float(trial @ trial)

    H_per = assemble(grid, u_per_vals, bc_all_dirichlet())
    penalty = rayleigh_ritz_upper(H_per, trial) - ref.e0
    coupling = float(np.sum(w_vals * trial * trial)) / nrm2
    bulk = float(np.sum(v_b * trial * trial)) / nrm2
    bound = ref.e0 + coupling + bulk + penalty

    H_full = assemble(grid, u_per_vals + (w_vals + v_b), bc_all_dirichlet())
    quotient = rayleigh_ritz_upper(H_full, trial)
    if abs(quotient - bound) > 1e-9 * (1 + abs(quotient)):
        raise InequalityViolated(
            f"decomposition mismatch: quotient {quotient!r} vs terms {bound!r}"
        )
    direct = float(lowest_k(H_full, 1, tol=1e-9, values_only=True).eigenvalues[0])
    return RayleighTailReport(
        bound=bound,
        e0=ref.e0,
        coupling_term=coupling,
        bulk_term=bulk,
        cutoff_penalty=penalty,
        direct_e0=direct,
        margin=bound - direct,
    )


# -- Lifshits-tail campaigns and fits --------------------------------------------------


@dataclass(frozen=True)
class LifshitsFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line through (x, y): slope, intercept and R^2 (1 when y is constant)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def lifshits_fit(curve, e0: float, window: tuple) -> LifshitsFit:
    """Least squares through (ln(E - e0), ln|ln N(E)|) inside the window.

    ``curve`` has ``energies`` and ``means``, like a DensityCurve.  Only
    strictly positive means below one enter (the double log exists exactly
    there); with fewer than five usable points the slope, intercept and R^2
    are NaN, and ``n_points`` says how many there were.
    """
    energies = np.asarray(curve.energies, dtype=float)
    means = np.asarray(curve.means, dtype=float)
    lo, hi = window
    usable = (energies > lo) & (energies <= hi) & (means > 0) & (means < 1) & (energies > e0)
    if usable.sum() < 5:
        return LifshitsFit(slope=math.nan, intercept=math.nan, r_squared=math.nan,
                           n_points=int(usable.sum()))
    slope, intercept, r2 = line_fit(np.log(energies[usable] - e0),
                                    np.log(-np.log(means[usable])))
    return LifshitsFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        n_points=int(usable.sum()),
    )


def quantum_campaign(
    model: SurfaceModel,
    deltas,
    c_factor: float,
    M: int,
    n_samples: int,
    master_seed: int,
    L_bounds: tuple = (8, 48),
    M_ref: Optional[int] = None,
    workers: int = 1,
) -> DensityCurve:
    """Tail campaign with the strip length tied to the energy offset.

    L = round(c_factor / sqrt(delta)) clipped to ``L_bounds``; each point
    is an independent chi-boundary ensemble at the single energy E0 + delta.
    Both campaigns count through ``ensemble_counts``, so every energy obeys
    the IDSS energy rule.
    """
    deltas = _offsets(deltas)
    e0 = cached_reference(model, M, M_ref).e0
    L_values = np.clip(np.round(c_factor / np.sqrt(deltas)).astype(int), *L_bounds)
    jobs = [
        (StripEnsemble(model, int(L), M, M_ref=M_ref, master_seed=mix64(master_seed, 7000 + i)),
         n_samples, [e0 + d])
        for i, (d, L) in enumerate(zip(deltas, L_values))
    ]
    return _density_curve(jobs, deltas, ensemble_counts(jobs, workers=workers))


def classical_campaign(
    model: SurfaceModel,
    deltas,
    L: int,
    M: int,
    n_samples: int,
    master_seed: int,
    M_ref: Optional[int] = None,
    workers: int = 1,
) -> DensityCurve:
    """Chi-boundary tail campaign at fixed strip length for slowly decaying profiles."""
    deltas = _offsets(deltas)
    e0 = cached_reference(model, M, M_ref).e0
    jobs = [(StripEnsemble(model, L, M, M_ref=M_ref, master_seed=master_seed),
             n_samples, e0 + deltas)]
    return _density_curve(jobs, deltas, ensemble_counts(jobs, workers=workers))
