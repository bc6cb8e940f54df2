"""Record the sha256 of every workload's CSVs, per seed, into digests.json.

Every invocation runs with one worker, so the benchmark's pool runs are
checked against single-worker output.  Re-record only when a change is meant
to alter CSV bytes or a workload config.  From the root of a checkout:

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def record(name: str, seed: int, workdir: str) -> dict:
    cfg = workloads.config(name, seed)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    gate = run.Gate(name, seed, None)
    gate.recorded = {}  # what is being recorded is not checked against the old table
    for sub, _ in workloads.WORKLOADS[name]["invocations"]:
        run.invoke(cfg_path, cfg, workdir, sub, 1, seed, gate, sub)
    if gate.failed:
        raise SystemExit(f"{name} seed {seed}: " + " | ".join(gate.problems))
    return gate.seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="range lo-hi, inclusive")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    platform = run.platform_key(run.machine())
    try:
        with open(run.DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {"platform": platform, "digests": {}}
    if table["platform"] != platform:  # digests of another platform are not kept
        table = {"platform": platform, "digests": {}}
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="digests-", dir=run.OUT)
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            for seed in range(lo, hi + 1):
                table["digests"].setdefault(name, {})[str(seed)] = record(name, seed, workdir)
                print(name, seed, flush=True)
                with open(run.DIGESTS, "w") as fh:
                    json.dump(table, fh, indent=1, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
