"""One workload's child process: set up, then run requests in a closed loop.

Started by run.py with the checkout root as working directory and `src` on
PYTHONPATH. It imports the package, writes the seeded config, prints READY
(the parent times set-up up to that line) and, unless --setup-only, calls
`scatter_swarm.cli.main` once per request, one after another, each into a
fresh directory, until --seconds have passed. It writes its request log,
peak memory, environment and (with --trace 1) spans to the run directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy
import scipy
import scipy.linalg
import scipy.sparse.linalg

from scatter_swarm import cli

import tracing
import workloads


def environment():
    """Versions, thread settings and machine size recorded with each run."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
        "threadpoolctl_installed": importlib.util.find_spec("threadpoolctl") is not None,
        "nproc": workloads.usable_cores(),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "machine": platform.machine(),
    }


def run_request(argv, scope):
    """Run one CLI request; returns (wall seconds, exit code, error text)."""
    captured = io.StringIO()
    with scope:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(argv)
            error = None
        except Exception:
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    if code != 0 and error is None:
        error = captured.getvalue()
    return wall, code, error


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"scatter_swarm was imported from {cli.__file__}, not from {src}")
    config_text = workloads.config_text(args.workload, args.seed)
    os.makedirs(args.run_dir, exist_ok=True)
    with open(os.path.join(args.run_dir, "config.json"), "w") as fh:
        fh.write(config_text)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    command = workloads.WORKLOADS[args.workload].command
    tracer = tracing.Tracer() if args.trace else None
    requests = []
    start = time.perf_counter()
    while True:
        rid = len(requests)
        traced = tracer is not None and rid % 2 == 1
        req_dir = os.path.join(args.run_dir, f"req-{rid:03d}")
        os.makedirs(req_dir)
        cfg_path = os.path.join(req_dir, "config.json")
        with open(cfg_path, "w") as fh:
            fh.write(config_text)
        gc.collect()
        scope = tracer.request_scope(rid) if traced else contextlib.nullcontext()
        wall, code, error = run_request([command, cfg_path], scope)
        requests.append({"id": rid, "dir": req_dir, "traced": traced, "wall_s": wall,
                         "exit": code, "error": error})
        enough = len(requests) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    result = {
        "requests": requests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        traced_walls = {r["id"]: r["wall_s"] for r in requests if r["traced"]}
        untraced = [r["wall_s"] for r in requests if not r["traced"]]
        result["layers"], result["idle_layers"] = tracing.layer_metrics(
            tracer, traced_walls, untraced)
        result["span_names"] = sorted({s["name"] for s in tracer.spans})
        spans = [dict(s, start=s["start"] - start, end=s["end"] - start) for s in tracer.spans]
        with open(os.path.join(args.run_dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)
    with open(os.path.join(args.run_dir, "child.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
