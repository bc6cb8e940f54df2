"""Smoke runs of the scripts in ``scripts/``.

Each study script runs in a subprocess, with ``src`` on ``PYTHONPATH`` and
its output directory in ``tmp_path``, at a size that takes about a second.
It must exit 0 and write its CSVs (header and row count as the script
defines them, every value a number) and its JSON sidecar.  The two tooling
scripts, ``kernel_timing.py`` and ``csv_digests.py``, are imported as
modules and make small calls, so a renamed helper they read fails
here.
"""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]

IDSS_HEADER = ["E", "mean", "se", "p0_upper", "n_samples", "L", "M"]
TAIL_HEADER = ["delta", "E", "L", "M", "mean", "se", "p0_upper", "n_samples"]
BAND_HEADER = ["theta", "E0_h_theta", "k_disc", "upper_margin", "lower_margin"]

# script, arguments, {csv name: (header, rows)}, sidecar name
SCRIPTS = [
    ("idss_convergence_study.py", ["--samples", "8", "--lengths", "4", "8"],
     {"idss_L4.csv": (IDSS_HEADER, 14), "idss_L8.csv": (IDSS_HEADER, 14)}, "convergence.json"),
    ("lifshits_campaigns.py", ["--samples", "8"],
     {"quantum.csv": (TAIL_HEADER, 12), "classical.csv": (TAIL_HEADER, 10)}, "fits.json"),
    ("band_and_gap_report.py", ["--cells", "1"],
     {"band_default.csv": (BAND_HEADER, 33), "band_random0.csv": (BAND_HEADER, 33),
      "gap.csv": (["L", "gap", "gbar", "margin", "gap_L_sq", "e0_error"], 5)}, "summary.json"),
]


@pytest.mark.parametrize("script, args, csvs, sidecar", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_study_script_writes_its_csvs(tmp_path, script, args, csvs, sidecar):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path), *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name, (header, n_rows) in csvs.items():
        with open(tmp_path / name, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == header, name
        # every value parses as a number, and every row is whole
        assert np.array(table[1:], dtype=float).shape == (n_rows, len(header)), name
    with open(tmp_path / sidecar) as fh:
        assert "results" in json.load(fh)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[: -len(".py")], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_timing_eigenvalue_kernel_counts_like_the_ensemble_kernel():
    from striplab import spectral
    from striplab.idss import StripEnsemble
    from striplab.instances import default_model

    kernel_timing = load_script("kernel_timing.py")
    eng = StripEnsemble(default_model(), L=4, M=8, master_seed=0)
    diags = kernel_timing.band_diags(eng, 3)
    energies = eng.e0 + np.linspace(0.1, 2.0, 6)  # counts 0 to 4 in each lane
    want = spectral.count_below_ensemble(eng.base_band, diags, energies)
    assert np.array_equal(kernel_timing.eigenvalue_counts(eng.base_band, diags, energies), want)


def test_csv_digests_digests_a_band_run(tmp_path, capsys):
    csv_digests = load_script("csv_digests.py")
    line = csv_digests.digest(csv_digests.SMALL, "band", "band.csv", 1, str(tmp_path))
    csv_sha, rc, checks_sha, results_sha = line.split()
    assert rc == "0"
    assert all(len(sha) == 64 for sha in (csv_sha, checks_sha, results_sha))
    assert capsys.readouterr().out == ""  # the PASS/FAIL lines go into their digest


def test_kernel_timing_sampling_table_times_the_alloy_weights(monkeypatch, capsys):
    kernel_timing = load_script("kernel_timing.py")
    strip = ("d1 = 2", {"d1": 2, "L": 3, "M": 4}, kernel_timing.SAMPLING[-1][2])
    monkeypatch.setattr(kernel_timing, "SAMPLING", [strip])
    kernel_timing.sampling_table()
    # 9 cells (radius 0): one relative cell reaching the cell's 2 sites on
    # the transverse layers in the box: 2 weights, 2 indices and one offset
    # held, 48 bytes
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[3:8] == ["2", "36", "9", "1", "2"]
    assert row[9] == "48"
