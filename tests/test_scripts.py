"""Smoke runs of the study scripts in ``scripts/``.

Each script runs in a subprocess, with ``src`` on ``PYTHONPATH`` and its
output directory in ``tmp_path``, at a size that takes about a second.  It
must exit 0 and write its CSVs (header and row count as the script defines
them, every value a number) and its JSON sidecar.
"""

import csv
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
