import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from striplab.cli import main
from striplab.config import build_model, energy_grid, validate_geometry
from striplab.errors import ConfigInvalid, InequalityViolated

SMALL_CONFIG = Path(__file__).with_name("small_config.json")


def base_config(out):
    # the small config, shared with scripts/csv_digests.py
    cfg = json.loads(SMALL_CONFIG.read_text())
    cfg["output"] = {"directory": str(out)}
    return cfg


def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_band_free_closed_form(tmp_path):
    cfg = base_config(tmp_path)
    cfg["potential"]["distribution"]["q_min"] = -1e-9  # negligible floor
    cfg["potential"]["distribution"]["q_max"] = -5e-10
    path = write_cfg(tmp_path, cfg)
    assert main(["band", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "band.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i_th, i_e = header.index("theta_0"), header.index("E0_h_theta")
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    th, e = data[:, i_th], data[:, i_e]
    const = e[np.argmin(np.abs(th))]
    assert np.max(np.abs(e - (2 * (1 - np.cos(th)) + const))) <= 1e-8


def quantum_config(out):
    # a small quantum tail: eight ensembles at L = 8..16
    cfg = base_config(out)
    cfg["run"].update(mode="quantum", n_samples=48, L_bounds=[6, 16],
                      deltas={"lo": 0.1, "hi": 0.7, "points": 8})
    return cfg


def wegner_config(out):
    cfg = base_config(out)
    cfg["run"]["n_samples"] = 300
    return cfg


def classical_config(out):
    cfg = base_config(out)
    cfg["run"]["mode"] = "classical"
    return cfg


def test_csv_reruns_byte_identical(tmp_path):
    # the rerun fans out to two worker processes; neither rerun nor worker
    # count may change a byte
    for sub, csv, make_cfg in (("idss", "idss.csv", base_config),
                               ("initial-scale", "initial_scale.csv", base_config),
                               ("lifshits", "lifshits_quantum.csv", quantum_config),
                               ("wegner", "wegner.csv", wegner_config),
                               ("lifshits", "lifshits_classical.csv", classical_config)):
        out1, out2 = tmp_path / csv / "a", tmp_path / csv / "b"
        out1.mkdir(parents=True), out2.mkdir()
        cfg_path = write_cfg(tmp_path, make_cfg(out1))
        assert main([sub, "--config", cfg_path, "--out", str(out1)]) == 0
        assert main([sub, "--config", cfg_path, "--workers", "2", "--out", str(out2)]) == 0
        assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()


def test_quantum_tail_starts_one_pool(tmp_path, monkeypatch):
    # all ensembles of a quantum campaign go out in one ensemble_counts call,
    # so one pool, and no worker outlives the run
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import striplab.idss as idss

    calls, pools = [], []
    counts = idss.ensemble_counts

    def counting(jobs, workers=1):
        calls.append(len(jobs))
        return counts(jobs, workers=workers)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(idss, "ensemble_counts", counting)
    monkeypatch.setattr(idss, "ProcessPoolExecutor", CountingPool)
    path = write_cfg(tmp_path, quantum_config(tmp_path))
    assert main(["lifshits", "--config", path, "--workers", "2", "--out", str(tmp_path)]) == 0
    assert calls == [8] and len(pools) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bc,n,checks,workers,lanes", [
    ("chi", 40, True, 1, [40, 40]),
    ("chi", 40, True, 2, [40, 40]),
    ("chi", 240, True, 1, [240, 200]),
    ("chi", 240, True, 2, [240, 200]),
    ("D", 40, True, 2, [40, 40]),
    ("chi", 40, False, 2, [40]),
])
def test_idss_counts_each_ensemble_once(tmp_path, monkeypatch, bc, n, checks, workers, lanes):
    # the curve and the sandwich check go out in one ensemble_counts call, so
    # one pool, with one ensemble per boundary tag: the curve's, then the
    # Dirichlet and chi ones it is not; the curve's first min(n, 200) rows are
    # the sandwich's ensemble of its tag, and the report is sandwich_check's
    # bit for bit
    from concurrent.futures import ProcessPoolExecutor
    from dataclasses import fields

    import striplab.cli as cli
    import striplab.idss as idss

    calls, pools, reports = [], [], []
    counts, sandwich = cli.ensemble_counts, cli.sandwich_from_counts

    def counting(jobs, workers=1):
        calls.append([n for _, n, _ in jobs])
        return counts(jobs, workers=workers)

    def recording(*args):
        reports.append(sandwich(*args))
        return reports[-1]

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ensemble_counts", counting)
    monkeypatch.setattr(cli, "sandwich_from_counts", recording)
    monkeypatch.setattr(idss, "ProcessPoolExecutor", CountingPool)
    cfg = base_config(tmp_path)
    cfg["run"].update(bc=bc, n_samples=n, checks=checks)
    path = write_cfg(tmp_path, cfg)
    assert main(["idss", "--config", path, "--workers", str(workers), "--out", str(tmp_path)]) == 0
    assert calls == [lanes] and len(pools) == (workers > 1)
    if not checks:
        assert reports == []
        return
    geo, model = validate_geometry(cfg), build_model(cfg)
    energies = energy_grid(cfg["run"], idss.cached_reference(model, geo["M"], geo["M_ref"]).e0)
    want = idss.sandwich_check(model, geo["L"], geo["M"], energies, min(n, 200),
                               cfg["run"]["master_seed"], M_ref=geo["M_ref"], workers=workers)
    (got,) = reports
    for field in fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def test_idss_sandwich_violation_fails_the_run(tmp_path, monkeypatch, capsys):
    # Dirichlet hits in every sample where the chi ensemble counts nothing put
    # the lower end of the sandwich above its middle
    import striplab.cli as cli
    import striplab.idss as idss

    cfg = base_config(tmp_path)
    geo, model = validate_geometry(cfg), build_model(cfg)
    eng = idss.StripEnsemble(model, geo["L"], geo["M"], M_ref=geo["M_ref"])
    energies = energy_grid(cfg["run"], eng.e0)
    shape = (cfg["run"]["n_samples"], len(energies))
    with pytest.raises(InequalityViolated, match="sandwich violated"):
        idss.sandwich_from_counts(eng, energies, np.zeros(shape, int), np.ones(shape, int))

    sandwich = cli.sandwich_from_counts
    monkeypatch.setattr(cli, "sandwich_from_counts", lambda eng, energies, chi, d: sandwich(
        eng, energies, np.zeros_like(chi), np.ones_like(d)))
    path = write_cfg(tmp_path, cfg)
    assert main(["idss", "--config", path, "--out", str(tmp_path)]) == 1
    assert "FAIL IDSS sandwich within 3 SE" in capsys.readouterr().out
    assert (tmp_path / "idss.csv").exists() and (tmp_path / "idss.json").exists()


def count_reference_solves(monkeypatch):
    """Clear the reference memo and record every ground-state solve from here on."""
    import striplab.floquet

    striplab.floquet._reference.cache_clear()
    calls = []
    solve = striplab.floquet.ground_state_cell

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(striplab.floquet, "ground_state_cell", counting)
    return calls


def test_idss_solves_one_reference(tmp_path, monkeypatch):
    # every subcommand's reference lookups and ensembles share one solve, at
    # the default depth M + 4 and at a configured M_ref = M + 8
    import striplab.floquet

    calls = count_reference_solves(monkeypatch)
    for M_ref in (16, 20):
        for sub, mode in (("gap", None), ("idss", None), ("lifshits", "quantum"),
                          ("lifshits", "classical"), ("decay", None), ("wegner", None),
                          ("initial-scale", None), ("dynamics", None), ("bounds", None)):
            cfg = base_config(tmp_path)
            cfg["geometry"]["M_ref"] = M_ref
            if mode:
                cfg["run"]["mode"] = mode
            path = write_cfg(tmp_path, cfg)
            striplab.floquet._reference.cache_clear()
            calls.clear()
            assert main([sub, "--config", path, "--out", str(tmp_path)]) == 0, sub
            assert len(calls) == 1, (sub, mode, M_ref, len(calls))


def test_malformed_config_names_field(tmp_path, capsys, monkeypatch):
    cfg = base_config(tmp_path)
    cfg["geometry"]["M"] = 13  # odd
    path = write_cfg(tmp_path, cfg)
    assert main(["band", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "geometry.M" in err
    # a strip ladder holds whole cell counts >= 1, and at least one, in every
    # subcommand that reads one
    for L_values in ([4.5, 8], ["a"], [0, 4], [True, 8], []):
        cfg = base_config(tmp_path)
        cfg["geometry"]["L_values"] = L_values
        path = write_cfg(tmp_path, cfg)
        for sub in ("gap", "initial-scale"):
            assert main([sub, "--config", path, "--out", str(tmp_path)]) == 2, (sub, L_values)
            assert "geometry.L_values" in capsys.readouterr().err
    # JSON true is no number; a potential class's own value rules report its
    # block; idss has no default strip length; the run block is validated
    # like the others, and its master seed in every subcommand
    cases = ((("potential", "profile", "amplitude"), True, ("idss", "band")),
             (("potential", "profile"), {"kind": "compact", "amplitude": -1}, ("band",)),
             (("potential", "distribution"), {"kind": "uniform", "q_min": -1, "q_max": -2},
              ("band",)),
             (("potential", "bulk_random"), {"kind": "iid_uniform", "v_max": -1}, ("band",)),
             (("potential", "profile", "x2_box"), [1], ("band",)),
             (("potential", "profile", "x2_box"), ["a", "b"], ("band",)),
             (("potential", "profile"), {"kind": "compact", "x2_box": [1, -1]}, ("band",)),
             (("geometry", "L"), True, ("idss",)),
             (("geometry", "L"), None, ("idss",)),
             (("geometry", "L"), 1, ("bounds",)),  # a gap certificate needs L >= 2
             (("run", "n_samples"), "abc", ("wegner",)),
             (("run", "deltas"), 5, ("lifshits",)),
             (("run", "L_bounds"), 7, ("lifshits",)),
             (("run", "L_bounds"), [16, 8], ("lifshits",)),
             (("run", "L_bounds"), [0, 8], ("lifshits",)),
             (("run", "energy_offsets"), ["a"], ("initial-scale",)),
             (("run", "checks"), "no", ("idss",)),
             (("run", "energies"), {"kind": "explicit", "values": ["a"]}, ("idss",),
              "run.energies.values"),
             (("run", "energies"), {"kind": "explicit", "values": []}, ("idss",),
              "run.energies.values"),
             (("run", "bc"), "X", ("idss", "decay")),
             (("run", "mode"), 5, ("lifshits",)),
             (("run", "master_seed"), "abc", ("band",)),
             # counts are at least 1, and a twist grid holds 0 and both ends
             (("run", "n_samples"), 0, ("idss", "lifshits", "wegner", "initial-scale")),
             (("run", "theta_points"), -3, ("band",)),
             (("run", "theta_points"), 1, ("band",)),
             (("run", "t_points"), 0, ("dynamics",)),
             (("run", "deltas"), {"points": 0}, ("lifshits",), "run.deltas.points"),
             (("run", "eps"), {"points": 0}, ("wegner",), "run.eps.points"),
             (("run", "energies", "points_per_decade"), 0, ("idss",)),
             # the geometric window, defaults filled in, is 0 < offset_lo < offset_hi
             (("run", "energies", "offset_lo"), -0.1, ("idss",)),
             (("run", "energies", "offset_lo"), 2.0, ("idss",)),
             (("run", "energies", "offset_hi"), -1.0, ("idss",)),
             (("run", "energies"), {"kind": "geometric", "decades": 0}, ("idss",),
              "run.energies.decades"),
             (("run", "energies"), {"kind": "geometric", "decades": -1}, ("idss",),
              "run.energies.decades"),
             # power-law rules hold at build time, not when the floor is first used
             (("potential", "profile"), {"kind": "power_law", "alpha": 0.5}, ("band",)),
             (("potential", "profile"), {"kind": "power_law", "alpha": 3.5}, ("band",)),
             (("potential", "profile"), {"kind": "power_law", "alpha": 1.5}, ("band",),
              "potential.tail_tol"),
             (("potential", "tail_tol"), -1, ("band",)),
             (("potential", "tail_tol"), 0, ("band",)),
             # a run ladder needs 0 < lo <= hi < inf, defaults filled in
             (("run", "deltas"), {"lo": -0.1}, ("lifshits",), "run.deltas.lo"),
             (("run", "deltas"), {"lo": 0.8, "hi": 0.7}, ("lifshits",), "run.deltas.hi"),
             (("run", "deltas"), {"lo": 0.8}, ("lifshits",), "run.deltas.lo"),
             (("run", "deltas"), {"hi": float("inf")}, ("lifshits",), "run.deltas.hi"),
             (("run", "eps"), {"lo": -1e-3}, ("wegner",), "run.eps.lo"),
             (("run", "eps"), {"lo": 0}, ("wegner",), "run.eps.lo"),
             (("run", "eps"), {"lo": 0.1, "hi": 0.01}, ("wegner",), "run.eps.hi"),
             # finite reals with a sign rule
             (("run", "c_factor"), -1, ("lifshits",)),
             (("run", "t_max"), -5, ("dynamics",)),
             (("run", "window_frac"), -0.1, ("dynamics",)),
             (("run", "p"), -1, ("dynamics",)),
             (("run", "p"), float("inf"), ("dynamics",)),
             # lists that would fall back or fail late
             (("geometry", "L_values"), [1, 4], ("gap",)),
             (("run", "energies"), {"kind": "explicit", "values": [-1, -1, -0.9]}, ("idss",),
              "run.energies.values"),
             (("run", "energy_offsets"), [], ("initial-scale",)),
             # JSON has no NaN or Infinity: json.dumps writes the bare tokens,
             # and the config refuses them when it is loaded
             (("run", "energy"), float("nan"), ("wegner",)),
             (("run", "energy"), -float("inf"), ("wegner",)),
             (("run", "energies"), {"kind": "explicit", "values": [float("nan"), -1]}, ("idss",),
              "run.energies.values[0]"),
             (("run", "energy_offsets"), [float("inf")], ("initial-scale",),
              "run.energy_offsets[0]"),
             (("potential", "profile", "amplitude"), float("inf"), ("band",)))
    for keys, value, subs, *named in cases:  # named: the path the error names, if not keys
        cfg = base_config(tmp_path)
        block = cfg
        for key in keys[:-1]:
            block = block[key]
        if value is None:
            del block[keys[-1]]
        else:
            block[keys[-1]] = value
        path = write_cfg(tmp_path, cfg)
        for sub in subs:
            assert main([sub, "--config", path, "--out", str(tmp_path)]) == 2, (sub, keys, value)
            err = capsys.readouterr().err
            assert (named[0] if named else ".".join(keys)) in err, (sub, keys, value, err)
    # the outer blocks: the root, output and run are objects and the directory a
    # string, checked before --seed writes into run or the directory is made
    monkeypatch.chdir(tmp_path)
    for block, value, named, extra in (("output", "out", "output", []),
                                       ("output", {"directory": 5}, "output.directory", []),
                                       ("run", "x", "run", ["--seed", "3"])):
        cfg = base_config(tmp_path)
        cfg[block] = value
        path = write_cfg(tmp_path, cfg)
        assert main(["band", "--config", path] + extra) == 2, (block, value)
        assert f"{named}: " in capsys.readouterr().err, (block, value)
        assert not (tmp_path / "out").exists()
    (tmp_path / "cfg.json").write_text("[1, 2]")
    assert main(["band", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "(root): " in capsys.readouterr().err


def test_float_overflow_exits_2(tmp_path, capsys):
    # Python's parser reads 1e400 as inf; the config refuses it with its path
    cfg = base_config(tmp_path)
    cfg["run"]["energy"] = "@energy@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"@energy@"', "1e400"))
    assert main(["wegner", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "run.energy: must be a finite number, got inf" in capsys.readouterr().err


def test_lifshits_past_bulk_bottom_exits_1(tmp_path, capsys):
    # the tail campaigns obey the idss energy rule: e0 + 2.5 lies above the
    # zero bulk bottom, so neither mode counts there
    for mode in ("quantum", "classical"):
        cfg = base_config(tmp_path)
        cfg["run"].update(mode=mode, deltas={"lo": 0.5, "hi": 2.5, "points": 6})
        path = write_cfg(tmp_path, cfg)
        assert main(["lifshits", "--config", path, "--out", str(tmp_path)]) == 1, mode
        assert "InvalidParam: energies must stay below the bulk bottom" in capsys.readouterr().err


def test_probes_past_bulk_bottom_exit_1(tmp_path, capsys):
    # wegner and initial-scale obey the idss energy rule too: e0 is about
    # -1.33, so a window around 0.5, or E = e0 + 3 |e0|, reaches past the
    # zero bulk bottom
    for sub, run in (("wegner", {"energy": 0.5}), ("initial-scale", {"energy_offsets": [0.2, 3.0]})):
        cfg = base_config(tmp_path)
        cfg["run"].update(run)
        path = write_cfg(tmp_path, cfg)
        assert main([sub, "--config", path, "--out", str(tmp_path)]) == 1, sub
        assert "InvalidParam: energies must stay below the bulk bottom" in capsys.readouterr().err


def small_strip_config(out, d1, d2):
    cfg = base_config(out)
    cfg["geometry"].update(d1=d1, d2=d2, L=4, M=4, M_ref=8)
    return cfg


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_dynamics_starts_from_center_sites(tmp_path, monkeypatch, d1, d2):
    # the local state covers the 2^d2 sites at x1 = (aL)//2 on every x1 axis
    # that straddle the surface, whatever the dimensions
    from striplab import cli

    seen, dynamics_moment = [], cli.dynamics_moment

    def recording(H, interval, p, times, sites):
        rep = dynamics_moment(H, interval, p, times, sites)
        seen.append((H.grid, np.asarray(sites), rep.n_window))
        return rep

    monkeypatch.setattr(cli, "dynamics_moment", recording)
    path = write_cfg(tmp_path, small_strip_config(tmp_path, d1, d2))
    main(["dynamics", "--config", path, "--out", str(tmp_path)])
    ((grid, sites, n_window),) = seen
    # the sidecar says how many eigenvalues the window held
    assert json.loads((tmp_path / "dynamics.json").read_text())["results"]["n_window"] == n_window
    assert len(sites) == 2**d2
    coords = grid.coords_of(sites)
    assert np.all(coords[:, :d1] == 2)
    assert {tuple(c - 1) for c in coords[:, d1:]} == set(np.ndindex((2,) * d2))


def test_import_sets_openblas_thread_timeout():
    # `import striplab` gives OpenBLAS a short idle-spin timeout before numpy
    # loads it; a value the caller set stays
    spy = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import striplab\n"
        "print(seen[0], os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for given, expected in ((None, "20"), ("7", "7")):
        if given is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = given
        proc = subprocess.run([sys.executable, "-c", spy], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected, expected]


def test_bounds_bump_at_x1_center(tmp_path, monkeypatch):
    # at d1 = 2 the Temple bump sits on the x1 site (aL/2, aL/2), not on an edge
    from striplab import cli

    seen, temple_tail_bound = [], cli.temple_tail_bound

    def recording(model, ref, L, w_x1, M, gap):
        seen.append(np.asarray(w_x1))
        return temple_tail_bound(model, ref, L, w_x1, M=M, gap=gap)

    monkeypatch.setattr(cli, "temple_tail_bound", recording)
    path = write_cfg(tmp_path, small_strip_config(tmp_path, 2, 1))
    main(["bounds", "--config", path, "--out", str(tmp_path)])
    (w,) = seen
    w = w.reshape(4, 4)
    assert np.count_nonzero(w) == 1 and w[2, 2] > 0


def test_bounds_writes_both_files_when_rayleigh_fails(tmp_path, monkeypatch, capsys):
    # direct energies lifted by 1 put the Rayleigh quotient below them: the
    # run prints its FAIL line, exits 1 and still writes its rows and sidecar
    from dataclasses import replace

    import striplab.idss as idss

    lowest_k = idss.lowest_k

    def lifted(H, k, tol, **kwargs):
        res = lowest_k(H, k, tol=tol, **kwargs)
        return replace(res, eigenvalues=res.eigenvalues + 1.0)

    monkeypatch.setattr(idss, "lowest_k", lifted)
    path = write_cfg(tmp_path, base_config(tmp_path))
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "PASS Temple tail bound below direct energy" in out
    assert "FAIL Rayleigh tail bound above direct energy  [margin=" in out
    rows = (tmp_path / "bounds.csv").read_text().strip().splitlines()
    assert rows[0] == "kind,bound,direct_e0,margin" and rows[2].startswith("rayleigh_upper,")
    results = json.loads((tmp_path / "bounds.json").read_text())["results"]
    assert results["rayleigh"]["margin"] < -1e-10


def test_wegner_writes_csv_when_uninformative(tmp_path, capsys):
    # 40 samples at seed 1 saturate every window: the probabilities are still
    # written, and the informative-range check fails the run
    path = write_cfg(tmp_path, base_config(tmp_path))
    assert main(["wegner", "--config", path, "--seed", "1", "--out", str(tmp_path)]) == 1
    assert "FAIL informative eps range  [slope=nan]" in capsys.readouterr().out
    rows = (tmp_path / "wegner.csv").read_text().strip().splitlines()
    assert rows[0] == "eps,prob,se" and len(rows) == 9
    assert json.loads((tmp_path / "wegner.json").read_text())["results"]["n_usable"] < 2


def test_lifshits_writes_both_files_when_fit_fails(tmp_path, capsys):
    # an i.i.d. random bulk at seed 0 leaves fewer than five usable tail
    # points: the run still writes its rows and a sidecar with a null slope
    cfg = base_config(tmp_path)
    cfg["potential"]["bulk_random"] = {"kind": "iid_uniform", "v_max": 0.4}
    cfg["run"]["mode"] = "quantum"
    path = write_cfg(tmp_path, cfg)
    assert main(["lifshits", "--config", path, "--seed", "0", "--out", str(tmp_path)]) == 1
    assert ("FAIL quantum tail fit has >= 5 points  [slope=nan R2=nan]"
            in capsys.readouterr().out)
    rows = (tmp_path / "lifshits_quantum.csv").read_text().strip().splitlines()
    assert rows[0] == "delta,E,L,M,mean,se,p0_upper,n_samples"
    assert len(rows) == 1 + 12  # the default twelve offsets

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads((tmp_path / "lifshits_quantum.json").read_text(), parse_constant=refuse)
    assert doc["results"]["slope"] is None and doc["results"]["n_points"] < 5
    assert doc["results"]["master_seed"] == 0


def test_sidecars_are_strict_json(tmp_path):
    # every subcommand's sidecar parses without the NaN and Infinity tokens;
    # wegner at seed 1 has a NaN slope, written as null
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for sub, name, fields, seed in (
            ("band", "band", {}, 6), ("gap", "gap", {}, 6), ("idss", "idss", {}, 6),
            ("lifshits", "lifshits_quantum", {"mode": "quantum"}, 6),
            ("lifshits", "lifshits_classical", {"mode": "classical"}, 6),
            ("decay", "decay", {}, 6), ("wegner", "wegner", {}, 1),
            ("initial-scale", "initial_scale", {}, 6), ("dynamics", "dynamics", {}, 6),
            ("bounds", "bounds", {}, 6), ("selftest", "selftest", {}, 6)):
        cfg = base_config(tmp_path)
        cfg["run"].update(fields)
        path = write_cfg(tmp_path, cfg)
        main([sub, "--config", path, "--seed", str(seed), "--out", str(tmp_path)])
        doc = json.loads((tmp_path / f"{name}.json").read_text(), parse_constant=refuse)
        assert doc["tool"] == "striplab", sub
    assert doc["results"]["results"]  # the selftest battery
    wegner = json.loads((tmp_path / "wegner.json").read_text())
    assert wegner["results"]["slope"] is None


def test_runners_return_checks_and_print_nothing(capsys):
    # a runner computes and judges; main alone prints the checks
    import striplab.cli as cli

    cfg = json.loads(SMALL_CONFIG.read_text())
    geo, model = validate_geometry(cfg), build_model(cfg)
    for sub, runner in cli._RUNNERS.items():
        checks = runner(model, geo, dict(cfg["run"]), cfg["run"]["master_seed"], 1)[0]
        assert checks and all(type(name) is str and type(passed) is bool and type(detail) is str
                              for name, passed, detail in checks), sub
        assert capsys.readouterr() == ("", ""), sub


def test_value_only_solves_keep_every_byte(monkeypatch):
    # band, gap, bounds and the bulk-bottom bracket read eigenvalues alone and
    # pass values_only=True to lowest_k; with the flag dropped every solve takes
    # the full ?syevd/?heevd, whose eigenvalue bits the flag keeps.  The a = 4
    # variant's strips (384 and 768 sites) take the divide-and-conquer merges.
    import striplab.cli as cli
    import striplab.floquet as floquet
    import striplab.idss as idss
    import striplab.spectral as spectral
    from striplab.potential import estimate_bulk_bottom

    small, large, cosine = (json.loads(SMALL_CONFIG.read_text()) for _ in range(3))
    large["geometry"].update(a=4, L=8, M=24, M_ref=28, L_values=[4, 8])
    large["run"]["theta_points"] = 17
    cosine["potential"]["bulk_periodic"] = {"kind": "cosine", "amplitude": 0.3}

    def outputs():
        out = []
        for cfg in (small, large):
            geo, model = validate_geometry(cfg), build_model(cfg)
            for runner in (cli.run_band, cli.run_gap, cli.run_bounds):
                out.append(runner(model, geo, dict(cfg["run"]), cfg["run"]["master_seed"], 1))
        m = build_model(cosine)
        out.append(estimate_bulk_bottom(m.bulk_periodic, m.d1, m.d2, m.a, M_probe=24))
        return out

    lowest_k, flags = spectral.lowest_k, []

    def solving(drop):
        def solve(H, k, tol=1e-9, dense_cap=spectral.DENSE_CAP, *, values_only=False):
            flags.append(values_only)
            return lowest_k(H, k, tol, dense_cap, values_only=values_only and not drop)

        for module in (floquet, idss, spectral):  # potential imports lowest_k at each call
            monkeypatch.setattr(module, "lowest_k", solve)

    solving(drop=False)
    fast = outputs()
    # 9 + 17 band cells, 3 + 2 gap strips, 3 + 3 bounds solves, 2 bulk probes
    assert flags.count(True) == 39
    solving(drop=True)
    assert outputs() == fast


def test_selftest_subcommand(tmp_path, monkeypatch):
    # the runners and the battery share the memoized references: one solve
    # per (M, M_ref) key, (14, 18) and (10, 14)
    calls = count_reference_solves(monkeypatch)
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    doc = json.loads((tmp_path / "selftest.json").read_text())
    assert all(r["passed"] for r in doc["results"]["results"])
    # the band, gap and bounds checks come from their runners, by their names
    names = {r["name"] for r in doc["results"]["results"]}
    assert names >= {"band upper parabolic bound", "band lower parabolic bound",
                     "band minimum at theta = 0", "gap comparison L=4", "gap comparison L=8",
                     "ground-energy invariance L=4", "ground-energy invariance L=8",
                     "Temple tail bound below direct energy",
                     "Rayleigh tail bound above direct energy"}


def test_selftest_fails_with_its_runners(tmp_path, monkeypatch):
    # a failing runner check fails the selftest; a runner that raises is one FAIL entry
    import striplab.cli as cli

    monkeypatch.setattr(cli, "run_bounds", lambda *args: (
        [("Temple tail bound below direct energy", False, "margin=-1")], "bounds", None, None, {}))
    assert main(["selftest", "--out", str(tmp_path)]) == 1

    def raising(*args):
        raise RuntimeError("no bound")

    monkeypatch.setattr(cli, "run_bounds", raising)
    assert main(["selftest", "--out", str(tmp_path)]) == 1
    results = json.loads((tmp_path / "selftest.json").read_text())["results"]["results"]
    assert [r for r in results if not r["passed"]] == [
        {"name": "bounds runner", "passed": False, "detail": "RuntimeError: no bound"}]


def test_sidecar_reproduces_config(tmp_path):
    cfg = base_config(tmp_path)
    path = write_cfg(tmp_path, cfg)
    assert main(["idss", "--config", path, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "idss.json").read_text())
    assert doc["config"]["geometry"] == cfg["geometry"]
    assert doc["tool"] == "striplab"
    assert "version" in doc and "timestamp" in doc


def test_seed_override(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    cfg_path = write_cfg(tmp_path, base_config(out1))
    assert main(["idss", "--config", cfg_path, "--seed", "7", "--out", str(out1)]) == 0
    assert main(["idss", "--config", cfg_path, "--seed", "8", "--out", str(out2)]) == 0
    assert (out1 / "idss.csv").read_bytes() != (out2 / "idss.csv").read_bytes()


def test_full_precision_formatting(tmp_path):
    cfg_path = write_cfg(tmp_path, base_config(tmp_path))
    assert main(["idss", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "idss.csv").read_text().strip().splitlines()
    val = rows[1].split(",")[0]
    assert float(val) == float(f"{float(val):.17g}")  # round-trips exactly


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid, match="geometry.d1"):
        validate_geometry({"geometry": {"d1": 3, "d2": 1, "M": 8}})
    with pytest.raises(ConfigInvalid, match="potential.profile.kind"):
        build_model({
            "geometry": {"d1": 1, "d2": 1, "M": 8},
            "potential": {"profile": {"kind": "gaussian"},
                          "distribution": {"kind": "uniform", "q_min": -2, "q_max": -1}},
        })


def test_config_schema_documents_every_potential_field():
    from dataclasses import fields

    from striplab.config import _KINDS

    doc = (Path(__file__).parents[1] / "docs" / "config_schema.md").read_text()
    for kinds in _KINDS.values():
        for kind, cls in kinds.items():
            assert f'"{kind}"' in doc, kind
            for field in fields(cls):
                assert f'"{field.name}"' in doc, (kind, field.name)


def test_energy_grid_kinds():
    grid = energy_grid({"energies": {"kind": "explicit", "values": [-0.5, -1.0]}}, -1.3)
    assert np.array_equal(grid, [-1.0, -0.5])
    geo = energy_grid({"energies": {"kind": "geometric", "offset_lo": 0.1,
                                    "offset_hi": 1.0, "points_per_decade": 10}}, -1.3)
    assert len(geo) == 10
    assert geo.min() > -1.3 and geo.max() <= -0.3 + 1e-12
