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


def test_csv_reruns_byte_identical(tmp_path):
    # the rerun fans out to two worker processes; neither rerun nor worker
    # count may change a byte
    for sub, csv in (("idss", "idss.csv"), ("initial-scale", "initial_scale.csv")):
        out1, out2 = tmp_path / sub / "a", tmp_path / sub / "b"
        out1.mkdir(parents=True), out2.mkdir()
        cfg_path = write_cfg(tmp_path, base_config(out1))
        assert main([sub, "--config", cfg_path, "--out", str(out1)]) == 0
        assert main([sub, "--config", cfg_path, "--workers", "2", "--out", str(out2)]) == 0
        assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()


def test_idss_solves_one_reference(tmp_path, monkeypatch):
    # the cached reference serves the curve's and the sandwich's ensembles
    import striplab.cli
    import striplab.idss

    monkeypatch.delenv("STRIPLAB_CACHE_DIR", raising=False)
    calls = []
    solve = striplab.idss.ground_state_cell

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(striplab.cli, "ground_state_cell", counting)
    monkeypatch.setattr(striplab.idss, "ground_state_cell", counting)
    path = write_cfg(tmp_path, base_config(tmp_path))
    assert main(["idss", "--config", path, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


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
    cache = tmp_path / "cache"
    monkeypatch.setenv("STRIPLAB_CACHE_DIR", str(cache))
    cfg = base_config(tmp_path)
    cfg["geometry"]["L_values"] = [4]
    path = write_cfg(tmp_path, cfg)
    assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 0
    cached = list(cache.glob("ref_*.npz"))
    assert len(cached) == 1
    first = (tmp_path / "gap.csv").read_bytes()
    assert main(["gap", "--config", path, "--out", str(tmp_path)]) == 0  # cache hit
    assert (tmp_path / "gap.csv").read_bytes() == first


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
