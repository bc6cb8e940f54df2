"""Experiment orchestration: ``striplab <subcommand> --config cfg.json``.

``main`` validates the config's geometry, builds the model and reads the
``run`` block and its master seed for every subcommand.  The subcommand's
runner computes and returns its checks with its rows and summary; ``main``
prints one line per check, writes the CSV data plus a JSON sidecar into
the output directory and exits 0 only if every check passed.
Re-running a subcommand with the same config and seed produces
byte-identical CSV files; worker count never changes results.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from .config import (_int_at_least, _is_number, _opt, _real, build_model, energy_grid, ladder,
                     load_config, validate_geometry)
from .errors import ConfigInvalid, StripLabError
from .floquet import band_curve, cached_reference, default_theta_grid, gap_certificate
from .grid import BC_TAGS
from .instances import default_model
from .idss import (
    StripEnsemble,
    bracketing_check,
    classical_campaign,
    ensemble_counts,
    idss_from_counts,
    lifshits_fit,
    quantum_campaign,
    rayleigh_tail_bound,
    sandwich_from_counts,
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


def _bc(run: dict) -> str:
    return _opt(run, "bc", "chi", "run", str, lambda v: v in BC_TAGS,
                f"must be one of {', '.join(BC_TAGS)}")


# -- subcommand implementations --------------------------------------------------
#
# Each runner takes (model, geo, run, seed, workers), prints nothing and
# returns (checks, stem, csv_header, csv_rows, sidecar_results), where
# checks is a list of (name, passed, detail); ``main`` prints the checks and
# writes <stem>.csv (none when the header is None) and <stem>.json.


def run_band(model, geo, run, seed, workers):
    pts = _int_at_least(run, "theta_points", 33, "run", 2)
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
    tol = 1e-9 * (1 + abs(curve.e0))
    i0 = int(np.argmin(curve.values))
    checks = [
        ("band upper parabolic bound", bool(np.all(curve.upper_margin_kdisc >= -tol)), ""),
        ("band lower parabolic bound", bool(np.all(curve.lower_margin >= -tol)), ""),
        ("band minimum at theta = 0", bool(np.all(np.abs(curve.thetas[i0]) < 1e-12)
                                           or abs(curve.values[i0] - curve.e0) <= tol), ""),
    ]
    summary = {"e0": curve.e0, "c1": curve.c1, "c2": curve.c2,
               "min_lower_margin": float(curve.lower_margin.min()),
               "min_upper_margin": float(curve.upper_margin_kdisc.min())}
    return checks, "band", header, rows, summary


def run_gap(model, geo, run, seed, workers):
    L_values = geo["L_values"] or [4, 8, 16]
    if min(L_values) < 2:
        raise ConfigInvalid("geometry.L_values: gap certificates need L >= 2")
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    reports = gap_certificate(model.u_per(), L_values, ref, M=geo["M"])
    checks = []
    for r in reports:
        checks += [(f"gap comparison L={r.L}", bool(r.margin >= -1e-9), f"margin={r.margin:.3e}"),
                   (f"ground-energy invariance L={r.L}", bool(r.e0_error <= 10 * ref.residual),
                    f"err={r.e0_error:.3e}")]
    return (checks, "gap",
            ["L", "e0", "e1", "gap", "gbar", "harnack_ratio_sq", "margin", "e0_error"],
            [[r.L, r.e0, r.e1, r.gap, r.gbar, r.harnack_ratio_sq, r.margin, r.e0_error]
             for r in reports],
            {"e0": ref.e0, "residual": ref.residual, "reports": [r.__dict__ for r in reports]})


def run_idss(model, geo, run, seed, workers):
    if geo["L"] is None:  # the one subcommand with no default strip length
        raise ConfigInvalid("geometry.L: missing required field")
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    energies = energy_grid(run, ref.e0)
    n_samples = _int_at_least(run, "n_samples", 200, "run", 1)
    bc = _bc(run)
    judge = _opt(run, "checks", True, "run", bool)
    engine = StripEnsemble(model, geo["L"], geo["M"], bc=bc, M_ref=geo["M_ref"], master_seed=seed)
    # one count per boundary tag: the sandwich check reads the first n_check
    # samples of its chi and Dirichlet ensembles, and a sample's seed depends
    # on its index only, so the curve's ensemble lends them when its tag matches
    n_check = min(n_samples, 200)
    ensembles = {bc: (engine, n_samples)}
    if judge:
        for tag in ("D", "chi"):
            ensembles.setdefault(tag, (StripEnsemble(model, geo["L"], geo["M"], bc=tag,
                                                     M_ref=geo["M_ref"], master_seed=seed),
                                       n_check))
    counts = dict(zip(ensembles, ensemble_counts(
        [(eng, n, energies) for eng, n in ensembles.values()], workers=workers)))
    curve = idss_from_counts(engine, energies, counts[bc])
    checks = [("IDSS means nondecreasing", bool(np.all(np.diff(curve.means) >= 0)), "")]
    if judge:
        try:
            br = bracketing_check(model, geo["L"], [geo["M"], 2 * geo["M"]],
                                  energies, seed=seed)
            checks.append(("bracketing count ordering", True, f"M_stab={br.M_stab}"))
        except StripLabError as exc:
            checks.append(("bracketing count ordering", False, str(exc)))
        try:
            sandwich_from_counts(ensembles["chi"][0], energies, counts["chi"][:n_check],
                                 counts["D"][:n_check])
            checks.append(("IDSS sandwich within 3 SE", True, ""))
        except StripLabError as exc:
            checks.append(("IDSS sandwich within 3 SE", False, str(exc)))
    return (checks, "idss",
            ["E", "mean", "se", "p0_upper", "n_samples", "L", "M"],
            [[E, m, s, p0, curve.n_samples, L, curve.M]
             for E, m, s, p0, L in zip(curve.energies, curve.means, curve.ses, curve.p0_upper,
                                       curve.L_values)],
            {"e0": curve.e0, "energies": curve.energies, "means": curve.means,
             "ses": curve.ses, "master_seed": seed})


def run_lifshits(model, geo, run, seed, workers):
    mode = _opt(run, "mode", "quantum", "run", str, lambda v: v in ("quantum", "classical"),
                "must be quantum or classical")
    n_samples = _int_at_least(run, "n_samples", 2000, "run", 1)
    deltas, hi = ladder(run, "deltas", 0.05, 0.7, 12)
    if mode == "quantum":
        c = _real(run, "c_factor", 8 * np.sqrt(hi), "run", closed=False)
        L_bounds = _opt(run, "L_bounds", [8, 48], "run", list,
                        lambda v: len(v) == 2 and all(type(x) is int and x >= 1 for x in v)
                        and v[0] <= v[1], "must be two ints >= 1 with lo <= hi")
        camp = quantum_campaign(model, deltas, c, geo["M"], n_samples, seed,
                                L_bounds=tuple(L_bounds), M_ref=geo["M_ref"], workers=workers)
    else:
        camp = classical_campaign(model, deltas, geo["L"] or 16, geo["M"], n_samples, seed,
                                  M_ref=geo["M_ref"], workers=workers)
    fit = lifshits_fit(camp, camp.e0, (camp.e0, camp.e0 + hi * 1.01))
    checks = [(f"{mode} tail fit has >= 5 points", fit.n_points >= 5,
               f"slope={fit.slope:.4f} R2={fit.r_squared:.4f}")]
    return (checks, f"lifshits_{mode}",
            ["delta", "E", "L", "M", "mean", "se", "p0_upper", "n_samples"],
            [[d, E, L, camp.M, m, s, p0, camp.n_samples]
             for d, E, L, m, s, p0 in zip(camp.deltas, camp.energies, camp.L_values,
                                          camp.means, camp.ses, camp.p0_upper)],
            {"e0": camp.e0, "slope": fit.slope, "intercept": fit.intercept,
             "r_squared": fit.r_squared, "n_points": fit.n_points, "master_seed": seed})


def run_decay(model, geo, run, seed, workers):
    eng = StripEnsemble(model, geo["L"] or 8, geo["M"], bc=_bc(run),
                        M_ref=geo["M_ref"], master_seed=seed)
    res = lowest_k(eng.hamiltonian(0), 1, tol=1e-9)
    fit = decay_profile(eng.grid, float(res.eigenvalues[0]), res.eigenvectors[:, 0])
    checks = [("transverse decay rate positive", bool(fit.gamma > 0), f"gamma={fit.gamma:.4f}"),
              ("decay fit quality", bool(fit.r_squared >= 0.95), f"R2={fit.r_squared:.4f}")]
    return (checks, "decay", ["abs_x2", "sup_profile"], list(zip(fit.shells, fit.profile)),
            {"eigenvalue": fit.eigenvalue, "gamma": fit.gamma, "r_squared": fit.r_squared,
             "oracle_rate": transverse_bound_rate(fit.eigenvalue, model.a)})


def run_wegner(model, geo, run, seed, workers):
    n_samples = _int_at_least(run, "n_samples", 2000, "run", 1)
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    energy = float(_opt(run, "energy", ref.e0 + 0.45 * abs(ref.e0), "run", (int, float)))
    eps, _ = ladder(run, "eps", 3e-4, 1e-2, 8)
    rep = wegner_probe(model, energy, eps, geo["L"] or 16, geo["M"], n_samples, seed,
                       M_ref=geo["M_ref"], workers=workers)
    checks = [("window probability monotone in eps", bool(np.all(np.diff(rep.probs) >= 0)), ""),
              ("informative eps range", rep.n_usable >= 2, f"slope={rep.slope:.3f}")]
    return (checks, "wegner", ["eps", "prob", "se"], list(zip(rep.eps, rep.probs, rep.ses)),
            {"energy": rep.energy, "slope": rep.slope, "n_usable": rep.n_usable})


def run_initial_scale(model, geo, run, seed, workers):
    n_samples = _int_at_least(run, "n_samples", 400, "run", 1)
    L_values = geo["L_values"] or [8, 16, 32]
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    offs = _opt(run, "energy_offsets", [0.2, 0.3, 0.4], "run", list,
                lambda v: len(v) > 0 and all(map(_is_number, v)),
                "must be a non-empty list of numbers")
    energies = [ref.e0 + o * abs(ref.e0) for o in offs]
    rep = initial_scale_probe(model, L_values, energies, geo["M"], n_samples, seed,
                              M_ref=geo["M_ref"], workers=workers)
    rows = [[L, E, rep.probs[i, j], rep.ses[i, j]]
            for i, L in enumerate(rep.L_values) for j, E in enumerate(rep.energies)]
    checks = [("tail probability nondecreasing in L", bool(rep.nondecreasing_in_L), "")]
    return (checks, "initial_scale", ["L", "E", "prob", "se"], rows,
            {"e0": ref.e0, "probs": rep.probs, "L_values": rep.L_values})


def run_dynamics(model, geo, run, seed, workers):
    p = _real(run, "p", 2.0, "run", closed=False)
    t_max = _real(run, "t_max", 1000.0, "run", closed=True)
    window_frac = _real(run, "window_frac", 0.1, "run", closed=False)
    times = np.linspace(0.0, t_max, _int_at_least(run, "t_points", 60, "run", 1))
    eng = StripEnsemble(model, geo["L"] or 64, geo["M"], bc="D", M_ref=geo["M_ref"],
                        master_seed=seed)
    interval = (eng.e0, eng.e0 + window_frac * abs(eng.e0))
    rep = dynamics_moment(eng.hamiltonian(0), interval, p, times, eng.grid.center_sites())
    checks = [("filtered evolution unitary", bool(rep.norm_drift <= 1e-9),
               f"drift={rep.norm_drift:.2e} n_window={rep.n_window}")]
    return (checks, "dynamics", ["t", "moment"], list(zip(rep.times, rep.moments)),
            {"sup_moment": rep.sup_moment, "projected_norm_sq": rep.projected_norm_sq,
             "n_window": rep.n_window})


def run_bounds(model, geo, run, seed, workers):
    L = geo["L"] or 8
    if L < 2:
        raise ConfigInvalid("geometry.L: gap certificates need L >= 2")
    ref = cached_reference(model, geo["M"], geo["M_ref"])
    gap = gap_certificate(model.u_per(), [L], ref, M=geo["M"])[0].gap
    grid = model.strip_grid(L, geo["M"])
    w = np.zeros((model.a * L,) * model.d1)  # a bump on the x1 sites at the strip's centre
    w[tuple(grid.coords_of(grid.center_sites()[0])[: model.d1])] = gap / 4
    tb = temple_tail_bound(model, ref, L, w, M=geo["M"], gap=gap)
    rb = rayleigh_tail_bound(model, L, geo["M"], seed, M_ref=geo["M_ref"])
    checks = [("Temple tail bound below direct energy", bool(tb.margin >= -1e-10),
               f"margin={tb.margin:.3e}"),
              ("Rayleigh tail bound above direct energy", bool(rb.margin >= -1e-10),
               f"margin={rb.margin:.3e}")]
    return (checks, "bounds", ["kind", "bound", "direct_e0", "margin"],
            [["temple_lower", tb.bound, tb.direct_e0, tb.margin],
             ["rayleigh_upper", rb.bound, rb.direct_e0, rb.margin]],
            {"temple": tb.__dict__, "rayleigh": rb.__dict__})


def run_selftest(model, geo, run, seed, workers):
    """The band, gap and bounds runners, then the oracle battery, on ``default_model``.

    The runners take fixed inputs, whatever the config; one that raises is
    one failed check.
    """
    from . import selftest as st

    checks = []
    for name, runner in (("band", run_band), ("gap", run_gap), ("bounds", run_bounds)):
        try:
            checks += runner(default_model(), {"L": 8, "L_values": [4, 8], "M": 14, "M_ref": 18},
                             {"theta_points": 33}, 3, 1)[0]
        except Exception as exc:  # a runner that raises fails the selftest, it does not crash it
            checks.append((f"{name} runner", False, f"{type(exc).__name__}: {exc}"))
    checks += st.run_all()
    return (checks, "selftest", None, None,
            {"results": [{"name": n, "passed": p, "detail": d} for n, p, d in checks]})


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
    parser.add_argument("subcommand", choices=list(_RUNNERS))
    parser.add_argument("--config", required=False, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override run.master_seed")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="output directory (default: output.directory or '.')")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else _default_config()
        # the outer blocks are checked before --seed writes into run and
        # before the output directory is made
        run = _opt(cfg, "run", {}, "(root)", dict)
        output = _opt(cfg, "output", {}, "(root)", dict)
        directory = _opt(output, "directory", ".", "output", str)
        if args.seed is not None:
            cfg["run"] = run
            run["master_seed"] = args.seed
        out = args.out or directory
        ensure_dir(out)
        geo = validate_geometry(cfg)
        model = build_model(cfg)
        seed = int(_opt(run, "master_seed", 0, "run", int))
        checks, stem, header, rows, results = _RUNNERS[args.subcommand](
            model, geo, run, seed, max(1, args.workers))
        for name, passed, detail in checks:
            print(f"{'PASS' if passed else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
        if header is not None:
            write_csv(os.path.join(out, f"{stem}.csv"), header, rows)
        write_sidecar(os.path.join(out, f"{stem}.json"), cfg, results)
    except ConfigInvalid as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return 2
    except StripLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0 if all(passed for _, passed, _ in checks) else 1


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
