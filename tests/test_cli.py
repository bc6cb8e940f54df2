import json
import numpy as np
import pytest

from striplab.cli import main
from striplab.config import build_model, energy_grid, validate_geometry
from striplab.errors import ConfigInvalid


def base_config(out):
    return {
        "geometry": {"d1": 1, "d2": 1, "a": 1, "L": 10, "M": 12, "M_ref": 16},
        "potential": {
            "profile": {"kind": "compact", "x1_halfwidth": 0.25, "x2_box": [-1.0, 1.0], "amplitude": 1.0},
            "distribution": {"kind": "uniform", "q_min": -2.0, "q_max": -1.0},
        },
        "run": {"n_samples": 40, "master_seed": 6, "theta_points": 9,
                "energies": {"kind": "geometric", "offset_lo": 0.15, "offset_hi": 1.1,
                             "points_per_decade": 8}},
        "output": {"directory": str(out)},
    }


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


def test_csv_reruns_byte_identical(tmp_path):
    # the rerun fans out to two worker processes; neither rerun nor worker
    # count may change a byte
    for sub, csv, make_cfg in (("idss", "idss.csv", base_config),
                               ("initial-scale", "initial_scale.csv", base_config),
                               ("lifshits", "lifshits_quantum.csv", quantum_config)):
        out1, out2 = tmp_path / sub / "a", tmp_path / sub / "b"
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


def test_idss_solves_one_reference(tmp_path, monkeypatch):
    # every subcommand's reference lookups and ensembles share one solve
    import striplab.floquet

    monkeypatch.delenv("STRIPLAB_CACHE_DIR", raising=False)
    calls = []
    solve = striplab.floquet.ground_state_cell

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(striplab.floquet, "ground_state_cell", counting)
    for sub, mode in (("gap", None), ("idss", None), ("lifshits", "quantum"),
                      ("lifshits", "classical"), ("decay", None), ("wegner", None),
                      ("initial-scale", None), ("dynamics", None), ("bounds", None)):
        cfg = base_config(tmp_path)
        if mode:
            cfg["run"]["mode"] = mode
        path = write_cfg(tmp_path, cfg)
        striplab.floquet._reference.cache_clear()
        calls.clear()
        assert main([sub, "--config", path, "--out", str(tmp_path)]) == 0, sub
        assert len(calls) == 1, (sub, mode, len(calls))


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["geometry"]["M"] = 13  # odd
    path = write_cfg(tmp_path, cfg)
    assert main(["band", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "geometry.M" in err


def test_selftest_subcommand(tmp_path):
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "selftest.json").read_text())
    assert all(r["passed"] for r in doc["results"]["results"])


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


def test_reference_cache(tmp_path, monkeypatch):
    import striplab.floquet

    cache = tmp_path / "cache"
    monkeypatch.setenv("STRIPLAB_CACHE_DIR", str(cache))
    cfg = base_config(tmp_path)
    cfg["geometry"]["L_values"] = [4]
    path = write_cfg(tmp_path, cfg)
    striplab.floquet._reference.cache_clear()
    assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 0
    cached = list(cache.glob("ref_*.npz"))
    assert len(cached) == 1
    assert [p.name for p in cache.iterdir()] == [cached[0].name]  # no temporary file left
    first = (tmp_path / "gap.csv").read_bytes()

    def no_solve(*args):
        raise AssertionError("reference solved despite the cache file")

    # a fresh process holds no memo: the second run loads the file
    striplab.floquet._reference.cache_clear()
    monkeypatch.setattr(striplab.floquet, "ground_state_cell", no_solve)
    assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gap.csv").read_bytes() == first


def test_reference_cache_write_is_atomic(tmp_path, monkeypatch, model):
    # a write that dies partway leaves no file at the key path, and the next
    # call solves and caches
    import striplab.floquet as floquet

    cache = tmp_path / "cache"
    monkeypatch.setenv("STRIPLAB_CACHE_DIR", str(cache))
    real_savez = np.savez

    def dying_savez(file, **arrays):
        if isinstance(file, str):  # np.savez takes a path or an open file
            file = open(file, "wb")
        file.write(b"PK\x03\x04")  # the start of an archive, then the crash
        file.flush()
        raise OSError("disk full")

    floquet._reference.cache_clear()
    monkeypatch.setattr(np, "savez", dying_savez)
    with pytest.raises(OSError, match="disk full"):
        floquet.cached_reference(model, 12, 16)
    assert list(cache.iterdir()) == []

    monkeypatch.setattr(np, "savez", real_savez)
    calls = []
    solve = floquet.ground_state_cell

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(floquet, "ground_state_cell", counting)
    ref = floquet.cached_reference(model, 12, 16)
    assert len(calls) == 1
    (cached,) = cache.iterdir()
    floquet._reference.cache_clear()
    again = floquet.cached_reference(model, 12, 16)
    assert len(calls) == 1 and cached.name.startswith("ref_")
    assert np.array_equal(again.psi0, ref.psi0) and again.e0 == ref.e0


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


def test_energy_grid_kinds():
    grid = energy_grid({"energies": {"kind": "explicit", "values": [-0.5, -1.0]}}, -1.3)
    assert np.array_equal(grid, [-1.0, -0.5])
    geo = energy_grid({"energies": {"kind": "geometric", "offset_lo": 0.1,
                                    "offset_hi": 1.0, "points_per_decade": 10}}, -1.3)
    assert len(geo) == 10
    assert geo.min() > -1.3 and geo.max() <= -0.3 + 1e-12
