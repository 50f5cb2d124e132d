"""Solver benchmark for scatter-swarm.

Usage (from the root of a checkout):

    python3 solverbench/run.py                      # every workload, seed 0
    python3 solverbench/run.py --workload las-gmres --seed 3 --seconds 30 --trace 0

Each workload runs in its own child process (child.py), one workload at a
time, with BLAS threads pinned to the usable core count. The child is a
closed loop with one client: it calls `scatter_swarm.cli.main` on the seeded
config, one request after another, each into a fresh output directory, for
--seconds. Set-up is timed from child start to its READY line, over several
child starts. After the child exits, the outputs are checked (checks.py) and
compared byte for byte across requests.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the child
alternates untraced and traced requests and the per-layer metrics from the
spans are printed instead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run records (seed, generated
config, environment, request log, spans) go to .solverbench_runs/.

A workload whose child crashes, is killed or misses its deadline counts as
one failed request; the JSON line is still printed and the command exits 1.

The checkout's own `src/` is benchmarked; without it the command exits 2.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".solverbench_runs")
SETUP_SAMPLES = 5        # child starts per untraced run; setup_s is their median
GRACE_S = 120.0          # a run's time limit past --seconds: set-ups, last request, write-out

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def child_env():
    env = dict(os.environ)
    for var in workloads.THREAD_VARS:
        env[var] = str(workloads.usable_cores())
    env["PYTHONPATH"] = SRC
    # the CLI's SCATTER_THREADS cap needs threadpoolctl; the benchmark does not rely on it
    env.pop("SCATTER_THREADS", None)
    return env


def start_child(args, deadline):
    """Start child.py; returns (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"child did not become ready: {line!r}")
    except BaseException:
        proc.kill()
        finish(proc, deadline)
        raise
    return proc, setup_s


def finish(proc, deadline):
    """Wait for the child until the deadline, then kill it; returns its exit code."""
    try:
        return proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("child still running at the run's deadline; killed") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_workload(name, seed, seconds, trace):
    """One run of one workload; returns the record written to its run dir."""
    run_dir = os.path.join(RUNS, f"{name}-seed{seed}-trace{trace}-{time.time_ns()}")
    deadline = time.perf_counter() + seconds + GRACE_S
    base = ["--workload", name, "--seed", str(seed)]
    setup = []
    for i in range(SETUP_SAMPLES - 1 if not trace else 0):
        proc, setup_s = start_child([*base, "--run-dir", os.path.join(run_dir, f"setup-{i}"),
                                     "--setup-only"], deadline)
        if finish(proc, deadline) != 0:
            raise RuntimeError("setup-only child failed")
        setup.append(setup_s)
    proc, setup_s = start_child([*base, "--run-dir", run_dir, "--seconds", str(seconds),
                                 "--trace", str(trace)], deadline)
    setup.append(setup_s)
    if finish(proc, deadline) != 0:
        raise RuntimeError("benchmark child failed")
    with open(os.path.join(run_dir, "child.json")) as fh:
        child = json.load(fh)
    with open(os.path.join(run_dir, "config.json")) as fh:
        cfg = json.load(fh)

    requests = child["requests"]
    check_requests(name, cfg, requests)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workloads.WORKLOADS[name].why, "config": cfg, "env": child["env"],
        "setup_s_samples": setup, "requests": requests,
        "attempted": len(requests), "failed": sum(1 for r in requests if r["problems"]),
    }
    if trace:
        record["metrics"] = child["layers"]
        record["idle_layers"] = child["idle_layers"]
        record["span_names"] = child["span_names"]
    else:
        walls = [r["wall_s"] for r in requests]
        record["metrics"] = {
            "request_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
        }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def check_requests(name, cfg, requests):
    """Set each request's list of problems (empty when its output is correct).

    The first request that exited cleanly is checked in full; every other
    request must have produced byte-identical outputs.
    """
    import checks  # needs src on sys.path and the thread variables, both set in main()

    for r in requests:
        r["problems"] = [] if r["exit"] == 0 else [f"exit {r['exit']}: {r['error']}"]
    clean = [r for r in requests if not r["problems"]]
    if not clean:
        return
    ref = clean[0]
    ref_out = os.path.join(ref["dir"], "out")
    try:
        problems = checks.CHECKS[name](ref_out, cfg)
    except checks.CHECK_ERRORS as exc:
        problems = [f"check raised {exc!r}"]
    for r in clean:
        if problems:
            r["problems"] = list(problems)
        elif r is not ref and not checks.same_outputs(ref_out, os.path.join(r["dir"], "out")):
            r["problems"] = ["outputs differ from the first request's"]
        if r is not ref:
            shutil.rmtree(r["dir"])


def crashed_record(name, seed, trace, exc):
    """Record of a workload whose child crashed, was killed or missed its deadline.

    Its request log is lost with the child, so the workload counts as one
    attempted request that failed.
    """
    return {"workload": name, "seed": seed, "trace": trace, "error": str(exc),
            "requests": [], "attempted": 1, "failed": 1, "metrics": {}}


def print_record(record):
    n, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{n} requests, {failed} failed")
    if "error" in record:
        print(f"  child failed: {record['error']}")
        return
    idle = record.get("idle_layers", [])
    for name, m in record["metrics"].items():
        value = "idle (layer did no work)" if name in idle else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:32s} {value}")
    if record["trace"]:
        print(f"  spans recorded: {', '.join(record['span_names'])}")
    else:
        print(f"  {'request_s samples':32s} {n}")
        print(f"  {'failed_frac':32s} {failed / n:.6g} ratio")
    problems = collections.Counter(p for r in record["requests"] for p in r["problems"])
    for problem, count in problems.items():
        print(f"  problem in {count} request(s): {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scatter_swarm", "cli.py")):
        print(f"no scatter_swarm sources under {SRC}", file=sys.stderr)
        return 2
    for var in workloads.THREAD_VARS:   # the output checks run in this process
        os.environ[var] = str(workloads.usable_cores())
    sys.path.insert(0, SRC)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, ValueError) as exc:
            record = crashed_record(name, args.seed, args.trace, exc)
        print_record(record)
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if any("error" in r for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
