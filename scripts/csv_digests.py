#!/usr/bin/env python3
"""sha256 of every CSV the striplab subcommands write, at one and two workers.

Runs each CSV-writing subcommand through ``striplab.cli.main`` on the test
suite's small config (``tests/small_config.json``), on a variant with a
cosine periodic bulk and on one with an i.i.d. uniform random bulk, for seeds
0-3, at ``--workers 1`` and ``2``, and prints one line per CSV:

    sha256 config seed workers csv

A subcommand that writes no CSV prints ``missing`` in place of the digest.
Exits 1 if any CSV differs between one and two workers.  Run it in two
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
CONFIGS = {"small": SMALL, "cosine": COSINE, "iid": IID}

# (subcommand, lifshits mode, CSV it writes)
RUNS = [
    ("band", None, "band.csv"),
    ("gap", None, "gap.csv"),
    ("idss", None, "idss.csv"),
    ("lifshits", "quantum", "lifshits_quantum.csv"),
    ("lifshits", "classical", "lifshits_classical.csv"),
    ("decay", None, "decay.csv"),
    ("wegner", None, "wegner.csv"),
    ("initial-scale", None, "initial_scale.csv"),
    ("dynamics", None, "dynamics.csv"),
    ("bounds", None, "bounds.csv"),
]
SEEDS = range(4)
WORKERS = (1, 2)


def digest(cfg: dict, sub: str, csv: str, workers: int, tmp: str) -> str:
    out = tempfile.mkdtemp(dir=tmp)
    cfg_path = os.path.join(out, "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    with contextlib.redirect_stdout(io.StringIO()):  # the PASS/FAIL lines
        striplab_main([sub, "--config", cfg_path, "--workers", str(workers), "--out", out])
    path = os.path.join(out, csv)
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, base in CONFIGS.items():
            for seed in SEEDS:
                for sub, mode, csv in RUNS:
                    cfg = copy.deepcopy(base)
                    cfg["run"]["master_seed"] = seed
                    if mode:
                        cfg["run"]["mode"] = mode
                    shas = [digest(cfg, sub, csv, w, tmp) for w in WORKERS]
                    for w, sha in zip(WORKERS, shas):
                        print(f"{sha} {name} {seed} {w} {csv}", flush=True)
                    differ += len(set(shas)) > 1
    if differ:
        print(f"{differ} CSVs differ between workers {WORKERS}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
