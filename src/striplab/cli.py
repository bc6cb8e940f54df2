"""Experiment orchestration: ``striplab <subcommand> --config cfg.json``.

Each subcommand validates its config block, runs the corresponding
operations, writes CSV data plus a JSON sidecar into the output directory,
prints one line per asserted invariant, and exits 0 only if every
assertion passed.  Re-running a subcommand with the same config and seed
produces byte-identical CSV files; worker count never changes results.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from .config import SUBCOMMANDS, build_model, energy_grid, load_config, validate_geometry
from .errors import ConfigInvalid, StripLabError
from .floquet import band_curve, cached_reference, default_theta_grid, gap_certificate
from .idss import (
    StripEnsemble,
    bracketing_check,
    classical_campaign,
    idss_estimate,
    lifshits_fit,
    quantum_campaign,
    rayleigh_tail_bound,
    sandwich_check,
    temple_tail_bound,
)
from .localization import (
    decay_profile,
    dynamics_moment,
    initial_scale_probe,
    transverse_bound_rate,
    wegner_probe,
)
from .reports import ensure_dir, write_csv, write_sidecar
from .spectral import lowest_k


def _check(ok: bool, name: str, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
    return ok


# -- subcommand implementations --------------------------------------------------


def run_band(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    pts = int(run.get("theta_points", 33))
    cell = model.cell_grid(geo["M"])
    curve = band_curve(cell, model.u_per(), default_theta_grid(model.d1, pts))
    rows = [
        list(curve.thetas[i])
        + [curve.values[i], curve.kdisc[i], curve.upper_margin_kdisc[i],
           curve.upper_margin_theta_sq[i], curve.lower_margin[i]]
        for i in range(len(curve.values))
    ]
    header = [f"theta_{j}" for j in range(model.d1)] + [
        "E0_h_theta", "k_disc", "upper_margin_kdisc", "upper_margin_theta_sq", "lower_margin",
    ]
    write_csv(os.path.join(out, "band.csv"), header, rows)
    tol = 1e-9 * (1 + abs(curve.e0))
    ok = _check(bool(np.all(curve.upper_margin_kdisc >= -tol)), "band upper parabolic bound")
    ok &= _check(bool(np.all(curve.lower_margin >= -tol)), "band lower parabolic bound")
    i0 = int(np.argmin(curve.values))
    ok &= _check(bool(np.all(np.abs(curve.thetas[i0]) < 1e-12)) or
                 abs(curve.values[i0] - curve.e0) <= tol, "band minimum at theta = 0")
    summary = {"e0": curve.e0, "c1": curve.c1, "c2": curve.c2,
               "min_lower_margin": float(curve.lower_margin.min()),
               "min_upper_margin": float(curve.upper_margin_kdisc.min())}
    write_sidecar(os.path.join(out, "band.json"), cfg, summary)
    return ok


def run_gap(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    L_values = geo["L_values"] or [4, 8, 16]
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    reports = gap_certificate(model.u_per(), L_values, ref, M=geo["M"])
    write_csv(
        os.path.join(out, "gap.csv"),
        ["L", "e0", "e1", "gap", "gbar", "harnack_ratio_sq", "margin", "e0_error"],
        [[r.L, r.e0, r.e1, r.gap, r.gbar, r.harnack_ratio_sq, r.margin, r.e0_error] for r in reports],
    )
    ok = True
    for r in reports:
        ok &= _check(r.margin >= -1e-9, f"gap comparison L={r.L}", f"margin={r.margin:.3e}")
        ok &= _check(r.e0_error <= 10 * ref.residual, f"ground-energy invariance L={r.L}",
                     f"err={r.e0_error:.3e}")
    write_sidecar(os.path.join(out, "gap.json"), cfg,
                  {"e0": ref.e0, "residual": ref.residual,
                   "reports": [r.__dict__ for r in reports]})
    return ok


def run_idss(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    energies = energy_grid(run, ref.e0)
    n_samples = int(run.get("n_samples", 200))
    seed = int(run.get("master_seed", 0))
    bc = run.get("bc", "chi")
    curve = idss_estimate(model, geo["L"], geo["M"], energies, n_samples, seed,
                          bc=bc, M_ref=geo["M_ref"], workers=workers)
    write_csv(
        os.path.join(out, "idss.csv"),
        ["E", "mean", "se", "p0_upper", "n_samples", "L", "M"],
        [[E, m, s, p0, curve.n_samples, curve.L, curve.M]
         for E, m, s, p0 in zip(curve.energies, curve.means, curve.ses, curve.p0_upper)],
    )
    ok = _check(bool(np.all(np.diff(curve.means) >= 0)), "IDSS means nondecreasing")
    if run.get("checks", True):
        try:
            br = bracketing_check(model, geo["L"], [geo["M"], 2 * geo["M"]],
                                  energies, seed=seed)
            ok &= _check(True, "bracketing count ordering", f"M_stab={br.M_stab}")
        except StripLabError as exc:
            ok &= _check(False, "bracketing count ordering", str(exc))
        try:
            sandwich_check(model, geo["L"], geo["M"], energies, min(n_samples, 200), seed,
                           M_ref=geo["M_ref"], workers=workers)
            ok &= _check(True, "IDSS sandwich within 3 SE")
        except StripLabError as exc:
            ok &= _check(False, "IDSS sandwich within 3 SE", str(exc))
    write_sidecar(os.path.join(out, "idss.json"), cfg,
                  {"e0": curve.e0, "energies": curve.energies, "means": curve.means,
                   "ses": curve.ses, "master_seed": seed})
    return ok


def run_lifshits(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    mode = run.get("mode", "quantum")
    n_samples = int(run.get("n_samples", 2000))
    seed = int(run.get("master_seed", 0))
    dspec = run.get("deltas", {})
    lo, hi = float(dspec.get("lo", 0.05)), float(dspec.get("hi", 0.7))
    points = int(dspec.get("points", 12))
    deltas = np.geomspace(lo, hi, points)
    if mode == "quantum":
        c = float(run.get("c_factor", 8 * np.sqrt(hi)))
        camp = quantum_campaign(model, deltas, c, geo["M"], n_samples, seed,
                                L_bounds=tuple(run.get("L_bounds", (8, 48))),
                                M_ref=geo["M_ref"], workers=workers)
    elif mode == "classical":
        camp = classical_campaign(model, deltas, geo["L"] or 16, geo["M"], n_samples, seed,
                                  M_ref=geo["M_ref"], workers=workers)
    else:
        raise ConfigInvalid(f"run.mode: unknown mode {mode!r}")
    write_csv(
        os.path.join(out, f"lifshits_{mode}.csv"),
        ["delta", "E", "L", "M", "mean", "se", "p0_upper", "n_samples"],
        [[d, E, L, camp.M, m, s, p0, camp.n_samples]
         for d, E, L, m, s, p0 in zip(camp.deltas, camp.energies, camp.L_values,
                                      camp.means, camp.ses, camp.p0_upper)],
    )
    fit = lifshits_fit(camp, camp.e0, (camp.e0, camp.e0 + hi * 1.01))
    ok = _check(fit.n_points >= 5, f"{mode} tail fit has >= 5 points",
                f"slope={fit.slope:.4f} R2={fit.r_squared:.4f}")
    write_sidecar(os.path.join(out, f"lifshits_{mode}.json"), cfg,
                  {"e0": camp.e0, "slope": fit.slope, "intercept": fit.intercept,
                   "r_squared": fit.r_squared, "n_points": fit.n_points,
                   "master_seed": seed})
    return ok


def run_decay(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    L = geo["L"] or 8
    seed = int(run.get("master_seed", 0))
    eng = StripEnsemble(model, L, geo["M"], bc=run.get("bc", "chi"),
                        M_ref=geo["M_ref"], master_seed=seed)
    res = lowest_k(eng.hamiltonian(0), 1, tol=1e-9)
    fit = decay_profile(eng.grid, float(res.eigenvalues[0]), res.eigenvectors[:, 0])
    write_csv(os.path.join(out, "decay.csv"), ["abs_x2", "sup_profile"],
              list(zip(fit.shells, fit.profile)))
    ok = _check(fit.gamma > 0, "transverse decay rate positive", f"gamma={fit.gamma:.4f}")
    ok &= _check(fit.r_squared >= 0.95, "decay fit quality", f"R2={fit.r_squared:.4f}")
    write_sidecar(os.path.join(out, "decay.json"), cfg,
                  {"eigenvalue": fit.eigenvalue, "gamma": fit.gamma,
                   "r_squared": fit.r_squared,
                   "oracle_rate": transverse_bound_rate(fit.eigenvalue, model.a)})
    return ok


def run_wegner(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    seed = int(run.get("master_seed", 0))
    n_samples = int(run.get("n_samples", 2000))
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    energy = float(run.get("energy", ref.e0 + 0.45 * abs(ref.e0)))
    espec = run.get("eps", {})
    eps = np.geomspace(float(espec.get("lo", 3e-4)), float(espec.get("hi", 1e-2)),
                       int(espec.get("points", 8)))
    rep = wegner_probe(model, energy, eps, geo["L"] or 16, geo["M"], n_samples, seed,
                       workers=workers)
    write_csv(os.path.join(out, "wegner.csv"), ["eps", "prob", "se"],
              list(zip(rep.eps, rep.probs, rep.ses)))
    ok = _check(bool(np.all(np.diff(rep.probs) >= 0)), "window probability monotone in eps")
    ok &= _check(rep.n_usable >= 2, "informative eps range", f"slope={rep.slope:.3f}")
    write_sidecar(os.path.join(out, "wegner.json"), cfg,
                  {"energy": rep.energy, "slope": rep.slope, "n_usable": rep.n_usable})
    return ok


def run_initial_scale(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    seed = int(run.get("master_seed", 0))
    n_samples = int(run.get("n_samples", 400))
    L_values = geo["L_values"] or [8, 16, 32]
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    offs = run.get("energy_offsets", [0.2, 0.3, 0.4])
    energies = [ref.e0 + o * abs(ref.e0) for o in offs]
    rep = initial_scale_probe(model, L_values, energies, geo["M"], n_samples, seed,
                              workers=workers)
    rows = []
    for i, L in enumerate(rep.L_values):
        for j, E in enumerate(rep.energies):
            rows.append([L, E, rep.probs[i, j], rep.ses[i, j]])
    write_csv(os.path.join(out, "initial_scale.csv"), ["L", "E", "prob", "se"], rows)
    ok = _check(rep.nondecreasing_in_L, "tail probability nondecreasing in L")
    write_sidecar(os.path.join(out, "initial_scale.json"), cfg,
                  {"e0": ref.e0, "probs": rep.probs, "L_values": rep.L_values})
    return ok


def run_dynamics(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    seed = int(run.get("master_seed", 0))
    L = geo["L"] or 64
    p = float(run.get("p", 2.0))
    t_max = float(run.get("t_max", 1000.0))
    times = np.linspace(0.0, t_max, int(run.get("t_points", 60)))
    eng = StripEnsemble(model, L, geo["M"], bc="D", M_ref=geo["M_ref"], master_seed=seed)
    H = eng.hamiltonian(0)
    grid = eng.grid
    coords = grid.coords_of(np.arange(grid.n_sites))
    center = grid.shape[0] // 2
    mid = [grid.M // 2 - 1, grid.M // 2]
    sites = [int(i) for i in np.nonzero(
        (coords[:, 0] == center) & np.isin(coords[:, grid.d1], mid))[0]]
    interval = (eng.e0, eng.e0 + float(run.get("window_frac", 0.1)) * abs(eng.e0))
    rep = dynamics_moment(H, interval, p, times, sites)
    write_csv(os.path.join(out, "dynamics.csv"), ["t", "moment"],
              list(zip(rep.times, rep.moments)))
    ok = _check(rep.norm_drift <= 1e-9, "filtered evolution unitary",
                f"drift={rep.norm_drift:.2e}")
    write_sidecar(os.path.join(out, "dynamics.json"), cfg,
                  {"sup_moment": rep.sup_moment, "projected_norm_sq": rep.projected_norm_sq})
    return ok


def run_bounds(cfg, out, workers):
    geo = validate_geometry(cfg)
    model = build_model(cfg)
    run = cfg.get("run", {})
    seed = int(run.get("master_seed", 0))
    L = geo["L"] or 8
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    gap = gap_certificate(model.u_per(), [L], ref, M=geo["M"])[0].gap
    n_x1 = (model.a * L) ** model.d1
    w = np.zeros(n_x1)
    w[n_x1 // 2] = gap / 4
    tb = temple_tail_bound(model, ref, L, w, M=geo["M"], gap=gap)
    rb = rayleigh_tail_bound(model, L, geo["M"], seed, M_ref=geo["M_ref"])
    write_csv(os.path.join(out, "bounds.csv"),
              ["kind", "bound", "direct_e0", "margin"],
              [["temple_lower", tb.bound, tb.direct_e0, tb.margin],
               ["rayleigh_upper", rb.bound, rb.direct_e0, rb.margin]])
    ok = _check(tb.margin >= -1e-10, "Temple tail bound below direct energy",
                f"margin={tb.margin:.3e}")
    ok &= _check(rb.margin >= -1e-10, "Rayleigh tail bound above direct energy",
                 f"margin={rb.margin:.3e}")
    write_sidecar(os.path.join(out, "bounds.json"), cfg,
                  {"temple": tb.__dict__, "rayleigh": rb.__dict__})
    return ok


def run_selftest(cfg, out, workers):
    """Exact-identity and oracle battery on the configured (or default) model."""
    from . import selftest as st

    results = st.run_all()
    ok = True
    for name, passed, detail in results:
        ok &= _check(passed, name, detail)
    write_sidecar(os.path.join(out, "selftest.json"), cfg,
                  {"results": [{"name": n, "passed": p, "detail": d} for n, p, d in results]})
    return ok


_RUNNERS = {
    "band": run_band,
    "gap": run_gap,
    "idss": run_idss,
    "lifshits": run_lifshits,
    "decay": run_decay,
    "wegner": run_wegner,
    "initial-scale": run_initial_scale,
    "dynamics": run_dynamics,
    "bounds": run_bounds,
    "selftest": run_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="striplab",
        description="Experiments on lattice Schrodinger operators with random surface disorder",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=False, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="output directory (default: output.directory or '.')")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else _default_config()
        if args.seed is not None:
            cfg.setdefault("run", {})["master_seed"] = args.seed
        out = args.out or cfg.get("output", {}).get("directory", ".")
        ensure_dir(out)
        ok = _RUNNERS[args.subcommand](cfg, out, max(1, args.workers))
    except ConfigInvalid as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return 2
    except StripLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0 if ok else 1


def _default_config() -> dict:
    return {
        "geometry": {"d1": 1, "d2": 1, "a": 1, "L": 16, "M": 16, "M_ref": 20},
        "potential": {
            "profile": {"kind": "compact", "x1_halfwidth": 0.25, "x2_box": [-1.0, 1.0], "amplitude": 1.0},
            "distribution": {"kind": "uniform", "q_min": -2.0, "q_max": -1.0},
        },
        "run": {},
        "output": {"directory": "."},
    }


if __name__ == "__main__":
    sys.exit(main())
