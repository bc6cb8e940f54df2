"""Traced striplab CLI run and the per-layer summary of its spans.

As a script, this runs one striplab subcommand in-process with a span
recorder wrapped around the public functions of each layer (module).  The
wrappers replace the functions at every import site, because ``idss`` and
``cli`` import names directly.  Pool workers are forked after the wrappers
are in place, so they record spans too; each worker writes its spans to the
spool directory when a block of counts is done.

Usage: python3 perfbench/spans.py OUT_JSON SPOOL_DIR -- <striplab arguments>

``summarize`` turns the span files of one or more traced passes into the
per-layer metrics and the counting-kernel table.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict

# layer module -> public names wrapped in it ("Class.method" wraps a method;
# a bare class name wraps its constructor).  grid, rng, config and instances
# take well under 1 ms per run and are not wrapped.
WRAPPED = {
    "spectral": ["count_below_ensemble", "count_below", "lowest_k", "lower_band"],
    "potential": ["contract_couplings", "f_weight_matrix"],
    "idss": ["StripEnsemble", "StripEnsemble.sample_diag", "ensemble_counts", "_counts_block",
             "bracketing_check", "sandwich_check"],
    "floquet": ["ground_state_cell", "band_curve", "gap_certificate"],
    "operator": ["assemble"],
    "localization": ["dynamics_moment", "decay_profile"],
    "reports": ["write_csv"],
    "cli": ["cached_reference", "main"],
}
# the function a process pool runs in a worker; its spans are flushed when it returns
WORKER_ENTRY = "idss._counts_block"

# the shapes of the counting kernel reported one by one: the ROADMAP cases
# (n=256/bw16, n=384/bw24, n=720/bw24, n=1152/bw24) and every other strip
# length of the quantum_tail campaign at M=24
KERNEL_SHAPES = [(256, 16)] + [(24 * L, 24) for L in (8, 9, 11, 13, 16, 18, 22, 26, 30, 36, 42, 48)]


class Recorder:
    """Spans of one process, kept in memory: [label, id, parent, t0, t1, attrs]."""

    def __init__(self, spool: str):
        self.spool = spool
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.flushes = 0

    def check_fork(self):
        if os.getpid() != self.pid:  # first call in a forked pool worker
            self.pid = os.getpid()
            self.spans, self.stack, self.flushes = [], [], 0

    def flush(self):
        path = os.path.join(self.spool, f"{self.pid}-{self.flushes}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans}, fh)
        self.flushes += 1
        self.spans = []


def _attrs_count_below_ensemble(args, kwargs, result):
    base_band, diag = args[0], args[1]
    energies = kwargs["energies"] if "energies" in kwargs else args[2]
    try:
        n_e = len(energies)
    except TypeError:
        n_e = 1
    return {"n": int(diag.shape[1]), "bw": int(base_band.shape[0]) - 1,
            "lanes": int(diag.shape[0]), "energies": n_e}


def _attrs_lowest_k(args, kwargs, result):
    from striplab import spectral

    H = args[0]
    n = int(getattr(H, "matrix", H).shape[0])
    cap = kwargs.get("dense_cap", args[3] if len(args) > 3 else spectral.DENSE_CAP)
    return {"n": n, "path": "dense" if n <= cap else "iterative"}


def _attrs_ensemble_counts(args, kwargs, result):
    workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
    return {"workers": max(1, int(workers))}


def _attrs_ground_state_cell(args, kwargs, result):
    cell_grid = args[0]
    M_ref = kwargs.get("M_ref", args[2] if len(args) > 2 else None)
    return {"key": f"{cell_grid!r}|{M_ref}"}


def _attrs_write_csv(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "spectral.count_below_ensemble": _attrs_count_below_ensemble,
    "spectral.lowest_k": _attrs_lowest_k,
    "idss.ensemble_counts": _attrs_ensemble_counts,
    "floquet.ground_state_cell": _attrs_ground_state_cell,
    "reports.write_csv": _attrs_write_csv,
}


def _wrap(rec: Recorder, label: str, fn):
    attrs = ATTRS.get(label)
    perf_counter = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.check_fork()
        sid = rec.next_id
        rec.next_id += 1
        parent = rec.stack[-1] if rec.stack else None
        rec.stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            rec.stack.pop()
        rec.spans.append([label, sid, parent, t0, t1, attrs(args, kwargs, result) if attrs else None])
        if label == WORKER_ENTRY and rec.pid != rec.main_pid:
            rec.flush()
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every name in WRAPPED, in its module and at each site that imported it."""
    import importlib

    import striplab.cli  # noqa: F401  (imports every layer)

    modules = [m for name, m in sys.modules.items() if name.startswith("striplab") and m]
    for layer, names in WRAPPED.items():
        mod = importlib.import_module(f"striplab.{layer}")
        for name in names:
            label = f"{layer}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, _wrap(rec, label, getattr(cls, meth)))
                continue
            orig = getattr(mod, name)
            if isinstance(orig, type):
                orig.__init__ = _wrap(rec, label, orig.__init__)
                continue
            wrapped = _wrap(rec, label, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)


def main(argv) -> int:
    out_path, spool = argv[0], argv[1]
    cli_args = argv[3:] if argv[2] == "--" else argv[2:]
    rec = Recorder(spool)
    install(rec)
    from striplab import cli

    t_ready = time.time()
    rc = cli.main(cli_args)
    t_done = time.time()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"pid": rec.pid, "t_ready": t_ready, "t_done": t_done, "rc": rc,
                   "spans": rec.spans}, fh)
    return rc


# -- summary -----------------------------------------------------------------------


def load(out_paths, spool_dirs):
    """All spans of the given passes as dicts, with self time filled in."""
    procs = []
    for path in out_paths:
        with open(path) as fh:
            doc = json.load(fh)
        procs.append((True, doc["spans"]))
    for spool in spool_dirs:
        for path in sorted(glob.glob(os.path.join(spool, "*.json"))):
            with open(path) as fh:
                procs.append((False, json.load(fh)["spans"]))
    spans = []
    for main_proc, raw in procs:
        child_time = defaultdict(float)
        for label, sid, parent, t0, t1, attrs in raw:
            if parent is not None:
                child_time[parent] += t1 - t0
        for label, sid, parent, t0, t1, attrs in raw:
            dur = t1 - t0
            spans.append({"label": label, "main": main_proc, "dur": dur,
                          "self": dur - child_time[sid], "attrs": attrs or {}})
    return spans


def madds_per_pair(n: int, bw: int) -> int:
    """Multiply-adds of one banded LDL^T pass, computed from the loop bounds."""
    return sum(m * (m + 1) // 2 for m in (min(bw, n - 1 - j) for j in range(n)))


def summarize(spans, passes: int):
    """Per-layer metrics (per traced pass) and the counting-kernel table."""
    per = 1.0 / passes
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for s in spans:
        calls[s["label"]] += 1
        self_s[s["label"]] += s["self"]
        total_s[s["label"]] += s["dur"]

    m = {}
    for label in ("spectral.count_below_ensemble", "spectral.count_below", "spectral.lower_band",
                  "potential.contract_couplings", "potential.f_weight_matrix", "idss.StripEnsemble",
                  "idss.StripEnsemble.sample_diag", "floquet.ground_state_cell",
                  "operator.assemble", "cli.cached_reference"):
        m[f"{label}.calls"] = calls[label] * per
        m[f"{label}.self_s"] = self_s[label] * per
    for path in ("iterative", "dense"):
        sel = [s for s in spans if s["label"] == "spectral.lowest_k" and s["attrs"]["path"] == path]
        m[f"spectral.lowest_k.{path}.calls"] = len(sel) * per
        m[f"spectral.lowest_k.{path}.self_s"] = sum(s["self"] for s in sel) * per

    # counting kernel: pairs are lanes x energies
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "pairs": 0})
    for s in spans:
        if s["label"] == "spectral.count_below_ensemble":
            a = s["attrs"]
            row = table[(a["n"], a["bw"], a["lanes"], a["energies"])]
            row["calls"] += 1
            row["self_s"] += s["self"]
            row["pairs"] += a["lanes"] * a["energies"]
    pairs = sum(r["pairs"] for r in table.values())
    cbe_self = self_s["spectral.count_below_ensemble"]
    m["spectral.count_below_ensemble.pairs"] = pairs * per
    m["spectral.count_below_ensemble.pairs_per_s"] = pairs / cbe_self if cbe_self else 0.0
    madds = sum(r["pairs"] * madds_per_pair(k[0], k[1]) for k, r in table.items())
    m["spectral.count_below_ensemble.computed_madds_per_s"] = madds / cbe_self if cbe_self else 0.0
    for n, bw in KERNEL_SHAPES:
        rows = [r for k, r in table.items() if k[:2] == (n, bw)]
        p = sum(r["pairs"] for r in rows)
        m[f"spectral.count_below_ensemble.n{n}_bw{bw}.ms_per_pair"] = (
            1e3 * sum(r["self_s"] for r in rows) / p if p else 0.0)
    kernel_table = [
        {"n": k[0], "bw": k[1], "lanes": k[2], "energies": k[3], "calls": r["calls"] * per,
         "self_s": r["self_s"] * per, "pairs": r["pairs"] * per,
         "ms_per_pair": 1e3 * r["self_s"] / r["pairs"],
         "madds_per_pair_computed": madds_per_pair(k[0], k[1]),
         "gmadds_per_s_computed": madds_per_pair(k[0], k[1]) * r["pairs"] / r["self_s"] / 1e9}
        for k, r in sorted(table.items())
    ]

    # ensemble fan-out: the main process waits in ensemble_counts while workers count
    main_ec = [s for s in spans if s["label"] == "idss.ensemble_counts" and s["main"]]
    ec_wall = sum(s["dur"] for s in main_ec)
    capacity = sum(s["dur"] * s["attrs"].get("workers", 1) for s in main_ec)
    pool_wait = sum(s["self"] for s in main_ec if s["attrs"].get("workers", 1) > 1)
    busy = sum(s["dur"] for s in main_ec if s["attrs"].get("workers", 1) == 1)
    busy += sum(s["dur"] for s in spans if s["label"] == WORKER_ENTRY and not s["main"])
    m["idss.ensemble_counts.wall_s"] = ec_wall * per
    m["idss.ensemble_counts.worker_busy_s"] = busy * per
    m["idss.ensemble_counts.parallel_eff"] = busy / capacity if capacity else 0.0
    for label in ("idss.bracketing_check", "idss.sandwich_check", "floquet.band_curve",
                  "floquet.gap_certificate"):
        m[f"{label}.total_s"] = total_s[label] * per
    m["floquet.ground_state_cell.distinct"] = float(len(
        {s["attrs"]["key"] for s in spans if s["label"] == "floquet.ground_state_cell"}))
    m["localization.dynamics_moment.self_s"] = self_s["localization.dynamics_moment"] * per
    m["localization.decay_profile.self_s"] = self_s["localization.decay_profile"] * per
    m["reports.write_csv.self_s"] = self_s["reports.write_csv"] * per
    m["reports.csv_bytes"] = sum(s["attrs"].get("bytes", 0) for s in spans
                                 if s["label"] == "reports.write_csv") * per

    # shares of busy self time over all processes (the pool wait is not work)
    busy_self = sum(s["self"] for s in spans) - pool_wait
    counting = self_s["spectral.count_below_ensemble"] + self_s["spectral.count_below"]
    m["share.counting"] = counting / busy_self if busy_self else 0.0
    m["share.lowest_k"] = self_s["spectral.lowest_k"] / busy_self if busy_self else 0.0
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s["label"].split(".")[0]] += s["self"]
    layer_self["idss"] -= pool_wait
    for layer in WRAPPED:
        m[f"layer.{layer}.self_s"] = layer_self[layer] * per
    m["layer.main_self_sum_s"] = sum(s["self"] for s in spans if s["main"]) * per
    return m, kernel_table


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
