"""striplab benchmark: time the public CLI on four campaign-shaped workloads.

Usage (from the root of a striplab checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI invocation runs in a fresh process (``python3 -m striplab.cli``
with ``src`` on ``PYTHONPATH`` and ``STRIPLAB_CACHE_DIR`` removed).  One pass
runs every invocation of the workload once; passes repeat while the next one
is expected to end inside ``--seconds``, and at least one pass runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Every
invocation is checked: exit code 0, no FAIL line, and a CSV whose sha256
equals the one recorded in digests.json for (workload, seed) and the one of
every other pass in the run.  An invocation with workers > 1 is also run once
with one worker, and both CSVs must be equal.

The last line of standard output is the result object; the line before it
holds the machine block.  README.md documents both and the full report that
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPS = 7
INVOCATION_TIMEOUT_S = 150
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """This environment with the checkout's src first on PYTHONPATH and no cache dir."""
    env = dict(os.environ)
    env.pop("STRIPLAB_CACHE_DIR", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _await_group_end(pgid: int, limit_s: float = 5.0) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_process(argv, log_path, timeout=INVOCATION_TIMEOUT_S) -> dict:
    """Run argv in a new session; wall, CPU and peak RSS from os.wait4 on it.

    CPU and peak RSS include the pool workers the child reaps itself.  On a
    timeout the whole process group is killed.
    """
    with open(log_path, "wb") as log:
        t_spawn = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=ENV, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child, reap it, re-raise
            _kill_group(proc.pid)
            proc.wait()
            _await_group_end(proc.pid)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _await_group_end(proc.pid)
    with open(log_path, errors="replace") as fh:
        output = fh.read()
    return {"rc": proc.returncode, "wall_s": wall, "t_spawn": t_spawn,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "output": output}


def sha256_file(path) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Gate:
    """Correctness of every invocation; a failed one counts toward fail_frac.

    Floating-point CSV bytes are only promised on one platform, so recorded
    digests apply when ``platform`` equals the one they were recorded on.
    """

    def __init__(self, workload: str, seed: int, platform: dict):
        try:
            with open(DIGESTS) as fh:
                table = json.load(fh)
        except FileNotFoundError:
            table = {"platform": None, "digests": {}}
        self.platform_match = table["platform"] == platform
        self.recorded = (table["digests"].get(workload, {}).get(str(seed), {})
                         if self.platform_match else {})
        self.seen = {}  # csv name -> digest of the first pass in this run
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, tag: str, proc: dict, csv: str, digest: str | None) -> bool:
        problems = []
        if proc["rc"] != 0:
            problems.append(f"exit code {proc['rc']}")
        fails = [ln for ln in proc["output"].splitlines() if ln.startswith("FAIL")]
        if fails:
            problems.append(f"{len(fails)} FAIL lines: {fails[0]}")
        if digest is None:
            problems.append(f"{csv} missing")
        else:
            if csv in self.recorded and digest != self.recorded[csv]:
                problems.append(f"{csv} sha256 {digest[:12]} != recorded {self.recorded[csv][:12]}")
            first = self.seen.setdefault(csv, digest)
            if digest != first:
                problems.append(f"{csv} sha256 {digest[:12]} differs from this run's {first[:12]}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{tag}: " + "; ".join(problems))
        return not problems


def invoke(cfg_path, cfg, workdir, subcommand, workers, seed, gate, tag, traced=False) -> dict:
    out_dir = os.path.join(workdir, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cli_args = [subcommand, "--config", cfg_path, "--seed", str(seed),
                "--workers", str(workers), "--out", out_dir]
    if traced:
        spool = os.path.join(out_dir, "spool")
        os.makedirs(spool)
        argv = [sys.executable, os.path.join(HERE, "spans.py"),
                os.path.join(out_dir, "spans.json"), spool, "--"] + cli_args
    else:
        argv = [sys.executable, "-m", "striplab.cli"] + cli_args
    proc = run_process(argv, os.path.join(out_dir, "stdout.txt"))
    csv = workloads.csv_name(cfg, subcommand)
    proc["csv"] = csv
    proc["sha256"] = sha256_file(os.path.join(out_dir, csv))
    proc["ok"] = gate.check(tag, proc, csv, proc["sha256"])
    proc["out_dir"] = out_dir
    return proc


def run_pass(name, cfg_path, cfg, workdir, seed, gate, label, traced=False) -> dict:
    procs = [invoke(cfg_path, cfg, workdir, sub, workers, seed, gate, f"{label}-{sub}", traced)
             for sub, workers in workloads.WORKLOADS[name]["invocations"]]
    return {
        "wall_s": sum(p["wall_s"] for p in procs),
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "rss_mb": max(p["rss_mb"] for p in procs),
        "procs": procs,
    }


def measure_setup(name, cfg_path, workdir) -> tuple[list, bool]:
    """Fresh-process set-up times; the first probe warms file and bytecode caches."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, cfg_path]
    times, ok = [], True
    for rep in range(SETUP_REPS + 1):
        proc = run_process(argv, os.path.join(workdir, f"setup-{rep}.txt"))
        ok &= proc["rc"] == 0
        if rep:
            times.append(proc["wall_s"])
    return times, ok


def worker_check(name, cfg_path, cfg, workdir, seed, gate) -> list:
    """Run each invocation that uses a pool once with one worker."""
    return [invoke(cfg_path, cfg, workdir, sub, 1, seed, gate, f"workers1-{sub}")
            for sub, workers in workloads.WORKLOADS[name]["invocations"] if workers > 1]


def timed_passes(seconds, one_pass, min_passes=1) -> list:
    """Passes while the next is expected to end inside the window."""
    start = time.perf_counter()
    passes, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass(len(passes)))
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) >= min_passes and time.perf_counter() - start + longest > seconds:
            return passes


SIMD_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "avx512_bf16",
              "avx512_fp16", "amx_tile")


def machine() -> dict:
    cpu_model, flags = None, set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and cpu_model is None:
                    cpu_model = val.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    git_commit = None
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        git_commit = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join("src", "striplab"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                src_hash.update(path.encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "simd_flags": [f for f in SIMD_FLAGS if f in flags],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": git_commit,
        "source_sha256": src_hash.hexdigest(),
        "STRIPLAB_CACHE_DIR_set_in_parent": "STRIPLAB_CACHE_DIR" in os.environ,
        "STRIPLAB_CACHE_DIR_unset_for_children": "STRIPLAB_CACHE_DIR" not in ENV,
        "start_method": multiprocessing.get_start_method(),
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def platform_key(mach: dict) -> dict:
    """What CSV bytes may depend on: library versions, BLAS threads and SIMD."""
    return {k: mach[k] for k in ("python", "numpy", "scipy", "nproc", "blas_env", "simd_flags")}


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".distinct", ".pairs")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ms_per_pair"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def bench(args, workdir) -> tuple[dict, dict]:
    name, seed = args.workload, args.seed
    cfg = workloads.config(name, seed)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    mach = machine()
    gate = Gate(name, seed, platform_key(mach))
    report = {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
              "machine": mach, "config": cfg}
    setup_ok = True
    if args.trace == 0:
        setup_times, setup_ok = measure_setup(name, cfg_path, workdir)
        checks = worker_check(name, cfg_path, cfg, workdir, seed, gate)
        passes = timed_passes(args.seconds, lambda i: run_pass(
            name, cfg_path, cfg, workdir, seed, gate, f"pass{i}"))
        # each invocation's median over the passes, summed over the invocations
        per_invocation = list(zip(*(p["procs"] for p in passes)))
        metrics = {
            "wall_s": sum(statistics.median(q["wall_s"] for q in inv) for inv in per_invocation),
            "setup_s": statistics.median(setup_times),
            "cpu_s": sum(statistics.median(q["cpu_s"] for q in inv) for inv in per_invocation),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        units = END_TO_END_UNITS
        report["setup_s_samples"] = setup_times
    else:
        checks = worker_check(name, cfg_path, cfg, workdir, seed, gate)
        # even passes untraced, odd passes traced
        passes = timed_passes(args.seconds, lambda i: run_pass(
            name, cfg_path, cfg, workdir, seed, gate, f"pass{i}", traced=i % 2 == 1),
            min_passes=2)
        plain, traced = passes[0::2], passes[1::2]
        out_paths, spools, startup = [], [], 0.0
        for p in traced:
            for proc in p["procs"]:
                path = os.path.join(proc["out_dir"], "spans.json")
                if not os.path.exists(path):  # the traced run failed; the gate counted it
                    continue
                out_paths.append(path)
                spools.append(os.path.join(proc["out_dir"], "spool"))
                with open(path) as fh:
                    doc = json.load(fh)
                startup += (doc["t_ready"] - proc["t_spawn"]) + \
                    (proc["t_spawn"] + proc["wall_s"] - doc["t_done"])
        metrics, report["kernel_table"] = spans.summarize(spans.load(out_paths, spools), len(traced))
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace_overhead_frac"] = traced_wall / statistics.median(
            p["wall_s"] for p in plain) - 1.0
        metrics["trace.wall_s"] = sum(p["wall_s"] for p in traced) / len(traced)
        metrics["trace.startup_s"] = startup / len(traced)
        metrics["trace.accounted_frac"] = (
            metrics["layer.main_self_sum_s"] + metrics["trace.startup_s"]) / metrics["trace.wall_s"]
        units = {k: unit_of(k) for k in metrics}
    result = {
        "correct": gate.failed == 0 and setup_ok,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update({
        "result": result,
        "fail_frac": gate.failed / gate.attempted,
        "problems": gate.problems + ([] if setup_ok else ["a set-up probe exited nonzero"]),
        "digests_platform_match": gate.platform_match,
        "digests_recorded": bool(gate.recorded),
        "digests": gate.seen,
        "worker_check": [_brief(p) for p in checks],
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "rss_mb": p["rss_mb"],
                    "procs": [_brief(q) for q in p["procs"]]} for p in passes],
    })
    return result, report


def _brief(proc: dict) -> dict:
    return {k: proc[k] for k in ("rc", "wall_s", "cpu_s", "rss_mb", "csv", "sha256", "ok")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "striplab", "cli.py")):
        print("perfbench: src/striplab/cli.py not found; run from the root of a striplab "
              "checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result, report = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for problem in report["problems"]:
        print(f"problem: {problem}")
    for row in report.get("kernel_table", []):
        print("kernel " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in row.items()))
    print(json.dumps({"machine": report["machine"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
