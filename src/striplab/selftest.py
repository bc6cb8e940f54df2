"""Exact-identity and oracle battery behind ``striplab selftest``.

``striplab selftest`` runs the band, gap and bounds subcommands' own
checks on ``default_model``, then this battery: identities that no
subcommand checks, each judged here and returned as (name, passed, detail).
The full statistical acceptance checks live in the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .floquet import averaged_reduction, cached_reference, gap_certificate
from .grid import bc_all_dirichlet, bc_all_neumann, bc_for_tag, build_grid
from .idss import bracketing_check
from .instances import default_model
from .operator import assemble
from .potential import contract_couplings, f_weight_matrix
from .spectral import count_below, count_below_ensemble, lower_band


def _free_eigs_1d(n: int, bc: str) -> np.ndarray:
    k = np.arange(n)
    if bc == "D":
        return 2.0 - 2.0 * np.cos((k + 1) * np.pi / (n + 1))
    return 2.0 - 2.0 * np.cos(k * np.pi / n)


def _closed_forms():
    g = build_grid(1, 1, L=2, a=1, M=2)
    z = np.zeros(g.n_sites)
    for bcs, tag in ((bc_all_dirichlet(), "D"), (bc_all_neumann(), "N")):
        got = np.linalg.eigvalsh(assemble(g, z, bcs).dense())
        want = np.sort(np.add.outer(_free_eigs_1d(2, tag), _free_eigs_1d(2, tag)).ravel())
        if np.max(np.abs(got - want)) > 1e-12:
            return False, f"{tag} spectrum off by {np.max(np.abs(got - want)):.2e}"
    return True, ""


def _averaged_identity():
    m = default_model()
    ref = cached_reference(m, 14, 18)
    avg = averaged_reduction(ref, m.u_per())
    ok = avg.identity_residual <= 1e-10 * (1 + abs(ref.e0))
    return ok, f"residual = {avg.identity_residual:.2e}"


def _gap():
    m = default_model()
    ref = cached_reference(m, 14, 18)
    rep = gap_certificate(m.u_per(), [8], ref, M=14)[0]
    want = 2.0 * (1.0 - np.cos(np.pi / 8))
    return abs(rep.gap - want) <= 1e-12, f"gap = {rep.gap:.12f}"


def _dense_counts(A, energies):
    tie = 1e-12 * (abs(A).sum(axis=1).max() + np.abs(energies) + 1)
    return np.searchsorted(np.linalg.eigvalsh(A.toarray()), energies + tie, side="right")


def _count_oracle():
    # ensembles are counted by LDL^T passes, one operator by its eigenvalues:
    # count_below on one energy and on a 12-point grid; a 3-lane ensemble at
    # one energy (the quantum tail's traffic, one round of passes) and on an
    # unsorted grid with one repeated energy (a bisection); bands up to 24
    # wide and up to 200 sites take full LDL^T panels and buffer reloads
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(10, 201))
        bw = int(rng.integers(1, 25))
        A = rng.standard_normal((n, n))
        A = sp.csr_matrix(np.triu(np.tril(A + A.T, bw), -bw))
        energies = np.append(rng.standard_normal() * 2, np.sort(rng.standard_normal(12) * 2))
        want = _dense_counts(A, energies)
        one, grid = count_below(A, energies[0]), count_below(A, energies[1:])
        if one != want[0] or not np.array_equal(grid, want[1:]):
            return False, f"counts {one}, {grid.tolist()} != dense {want.tolist()} (n={n})"
        diags = rng.uniform(-1.0, 1.0, (3, n))
        unsorted = rng.permutation(np.append(energies[1:], energies[5]))
        for probes in (energies[:1], unsorted):
            got = count_below_ensemble(lower_band(A), diags, probes)
            for s, diag in enumerate(diags):
                want = _dense_counts(A + sp.diags(diag), probes)
                if not np.array_equal(got[s], want):
                    return False, f"lane {s}: {got[s].tolist()} != dense {want.tolist()} (n={n})"
    return True, ("20 random instances (n <= 200, bw <= 24), one energy and a 12-point grid, "
                  "one operator and 3 lanes")


def _ordering():
    # the form ordering compares like faces: all-Neumann <= full-Mezincescu
    # <= all-Dirichlet (ghost ratios in [0, 1] for a decaying reference)
    m = default_model()
    ref = cached_reference(m, 10, 14)
    rng = np.random.default_rng(7)
    grid = m.strip_grid(6, 10)
    weights = f_weight_matrix(grid, m.profile)
    for trial in range(5):
        q, _ = m.draw(int(rng.integers(1 << 31)), grid)
        v_s = contract_couplings(q, weights)
        levels = {}
        for tag, bcs in (
            ("N", bc_all_neumann()),
            ("chi", bc_for_tag("chi", ref)),
            ("D", bc_all_dirichlet()),
        ):
            levels[tag] = np.sort(np.linalg.eigvalsh(assemble(grid, v_s, bcs).dense()))[:3]
        if not (np.all(levels["N"] <= levels["chi"] + 1e-11)
                and np.all(levels["chi"] <= levels["D"] + 1e-11)):
            return False, f"ordering broken on trial {trial}"
    return True, "5 realizations, k = 0..2"


def _bracketing():
    m = default_model()
    energies = np.linspace(-1.25, -0.1, 8)
    bracketing_check(m, 8, [8, 16], energies, seed=11)
    return True, "ordering + M-monotonicity"


def run_all():
    checks = [
        ("closed-form free spectra (2x2 grid)", _closed_forms),
        ("averaged transverse identity", _averaged_identity),
        ("separable gap closed form", _gap),
        ("inertia count vs dense oracle", _count_oracle),
        ("boundary-condition eigenvalue ordering", _ordering),
        ("per-realization bracketing", _bracketing),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a failed identity is a failed selftest, not a crash
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
