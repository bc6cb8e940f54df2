#!/usr/bin/env python3
"""sha256 of every CSV and sidecar result the striplab subcommands write, at one and two workers.

Runs each CSV-writing subcommand through ``striplab.cli.main`` on the test
suite's small config (``tests/small_config.json``), on a variant with a
cosine periodic bulk, on one with an i.i.d. uniform random bulk and on one
with a power-law impurity profile, for seeds 0-3, at ``--workers 1`` and
``2``.  Two geometry variants, one with a = 2 and one with d2 = 2 (M = 8,
M_ref = 12), run band, gap, bounds, decay (chi and D), dynamics and one
idss curve at the same seeds and worker counts.  A certificates-scale
variant (a = 4, L = 8, M = 24, M_ref = 28, L_values [4, 8], 17 theta
points: strips of up to 768 sites, where the dense eigensolves take
LAPACK's divide-and-conquer merges) runs band, gap, bounds, decay (chi and
D) and dynamics at seeds 0-1.  It prints one line per CSV:

    sha256 exit_code checks_sha256 results_sha256 config seed workers csv [run overrides]

``checks_sha256`` digests the PASS/FAIL lines the run prints, which carry the
outcome of checks that write no CSV (the idss sandwich).  ``results_sha256``
digests the sidecar's ``results`` block as canonical JSON (sorted keys, no
whitespace), which holds the fit values no CSV carries; the sidecar's
timestamp sits outside that block.  A subcommand that writes no CSV or no
sidecar prints ``missing`` in place of that digest.  After the loop
``striplab selftest`` runs once per worker count on the small config: it
ignores config, seed and workers, writes no CSV, and its PASS/FAIL lines and
sidecar results are digested like the others'.  Exits 1 if any line
but the worker count differs between one and two workers.  Run it in two
trees and diff the outputs to show that a change keeps every byte:

    PYTHONPATH=src python scripts/csv_digests.py > digests.txt
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile

from striplab.cli import main as striplab_main

# the test suite's small config, which tests/test_cli.py also loads
with open(os.path.join(os.path.dirname(__file__), "..", "tests", "small_config.json")) as fh:
    SMALL = json.load(fh)
COSINE = copy.deepcopy(SMALL)
COSINE["potential"]["bulk_periodic"] = {"kind": "cosine", "amplitude": 0.3}
IID = copy.deepcopy(SMALL)
IID["potential"]["bulk_random"] = {"kind": "iid_uniform", "v_max": 0.4}
# a power-law tail truncated at 16 cells needs a loose tolerance; both lifshits
# modes fail their fit there (too few usable points), which still digests
POWER = copy.deepcopy(SMALL)
POWER["potential"]["profile"] = {"kind": "power_law", "alpha": 1.5, "truncation_radius": 16}
POWER["potential"]["tail_tol"] = 0.6
# two geometry variants, for the cell and transverse operators past a = d2 = 1;
# the small config's offset_hi of 1.1 passes the bulk bottom there
A2 = copy.deepcopy(SMALL)
A2["geometry"]["a"] = 2
D2 = copy.deepcopy(SMALL)
D2["geometry"].update(d2=2, M=8, M_ref=12)
for cfg in (A2, D2):
    cfg["run"]["energies"] = {"kind": "geometric", "points_per_decade": 8, "decades": 0.8}
# certificates scale: an a = 4 cell of 96 sites and strips of 384 and 768,
# where the dense eigensolves take LAPACK's divide-and-conquer merges
CERT = copy.deepcopy(SMALL)
CERT["geometry"].update(a=4, L=8, M=24, M_ref=28, L_values=[4, 8])
CERT["run"]["theta_points"] = 17

# (subcommand, run fields set over the config's, CSV it writes); the "D" and
# 240-sample idss variants count the sandwich's chi ensemble apart from a
# Dirichlet curve, and take it from the first 200 rows of a 240-sample chi
# curve; with the "N" and "chi_x1" variants every boundary tag is run; the
# 300-sample curve is more than one block of spectral.BLOCK_LANES, so two
# trees that cut it into different blocks must still print the same digests
RUNS = [
    ("band", {}, "band.csv"),
    ("gap", {}, "gap.csv"),
    ("idss", {}, "idss.csv"),
    ("idss", {"bc": "D"}, "idss.csv"),
    ("idss", {"bc": "N"}, "idss.csv"),
    ("idss", {"bc": "chi_x1"}, "idss.csv"),
    ("idss", {"n_samples": 240}, "idss.csv"),
    ("idss", {"n_samples": 300}, "idss.csv"),
    ("lifshits", {"mode": "quantum"}, "lifshits_quantum.csv"),
    ("lifshits", {"mode": "classical"}, "lifshits_classical.csv"),
    ("decay", {}, "decay.csv"),
    ("decay", {"bc": "D"}, "decay.csv"),
    ("wegner", {}, "wegner.csv"),
    ("initial-scale", {}, "initial_scale.csv"),
    ("dynamics", {}, "dynamics.csv"),
    ("bounds", {}, "bounds.csv"),
]
# the variants run one idss curve and the subcommands without counting: all
# of RUNS would take them about 9 minutes
VARIANT_RUNS = [run for run in RUNS if run[0] in ("band", "gap", "bounds", "decay", "dynamics")
                or run == ("idss", {}, "idss.csv")]
CERT_RUNS = [run for run in VARIANT_RUNS if run[0] != "idss"]
SEEDS = range(4)
# name: (config, its runs, its seeds)
PLAN = {"small": (SMALL, RUNS, SEEDS), "cosine": (COSINE, RUNS, SEEDS),
        "iid": (IID, RUNS, SEEDS), "power": (POWER, RUNS, SEEDS),
        "a2": (A2, VARIANT_RUNS, SEEDS), "d2": (D2, VARIANT_RUNS, SEEDS),
        "cert": (CERT, CERT_RUNS, range(2))}
WORKERS = (1, 2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(cfg: dict, sub: str, csv: str, workers: int, tmp: str) -> str:
    """The CSV's sha256, the exit code, the PASS/FAIL lines' and the sidecar results' sha256."""
    out = tempfile.mkdtemp(dir=tmp)
    cfg_path = os.path.join(out, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    checks = io.StringIO()
    with contextlib.redirect_stdout(checks):  # the PASS/FAIL lines
        rc = striplab_main([sub, "--config", cfg_path, "--workers", str(workers), "--out", out])
    path = os.path.join(out, csv)
    csv_sha = results_sha = "missing"
    if os.path.exists(path):
        with open(path, "rb") as fh:
            csv_sha = sha256(fh.read())
    sidecar = path[: -len(".csv")] + ".json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            results = json.load(fh)["results"]
        results_sha = sha256(json.dumps(results, sort_keys=True, separators=(",", ":")).encode())
    return f"{csv_sha} {rc} {sha256(checks.getvalue().encode())} {results_sha}"


def main() -> int:
    runs = [(name, base, seed, run) for name, (base, name_runs, seeds) in PLAN.items()
            for seed in seeds for run in name_runs]
    runs.append(("small", SMALL, SMALL["run"]["master_seed"], ("selftest", {}, "selftest.csv")))
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, base, seed, (sub, fields, csv) in runs:
            cfg = copy.deepcopy(base)
            cfg["run"]["master_seed"] = seed
            cfg["run"].update(fields)
            label = " ".join([csv] + [f"{k}={v}" for k, v in fields.items()])
            shas = [digest(cfg, sub, csv, w, tmp) for w in WORKERS]
            for w, sha in zip(WORKERS, shas):
                print(f"{sha} {name} {seed} {w} {label}", flush=True)
            differ += len(set(shas)) > 1
    if differ:
        print(f"{differ} runs differ between workers {WORKERS}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
