#!/usr/bin/env python3
"""Limit-passage study: shrink the sphere radius at the count-law rate and
watch the many-sphere field converge to the limiting-medium field.

A front-end of `scatter-swarm study` on the unit cube with constant h and N,
the wave along z polarized along x, and 5x5x5 probes just past the downstream
face. The study runs in a temporary directory; the table is its report's rows.

Example:
    python scripts/limit_passage_study.py --a 0.04 0.02 0.01 --h 0.05 --cells 12
"""

import argparse
import json
import os
import tempfile
import time

from scatter_swarm import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, nargs="+", default=[0.04, 0.02, 0.01])
    ap.add_argument("--h", type=float, default=0.05, help="impedance function value")
    ap.add_argument("--N", type=float, default=1.0, help="particle density")
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--cells", type=int, default=12, help="limit-solver cells per axis")
    args = ap.parse_args()

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "study.json")
        cli.write_json(path, {
            "medium": {"omega": args.omega},
            "domain": {"box": [[0, 0, 0], [1, 1, 1]]},
            "materials": {"h": {"preset": "constant", "value": args.h},
                          "N": {"preset": "constant", "value": args.N}},
            "wave": {"alpha": [0, 0, 1], "polarization": [1, 0, 0]},
            "solver": {"a_sequence": args.a, "kappa": args.kappa, "cells_per_axis": args.cells},
            "output": {"dir": "out",
                       "probes": {"box": [[0.1, 0.1, 1.01], [0.9, 0.9, 1.05]], "shape": [5, 5, 5]}},
        })
        if code := cli.main(["study", path]):
            raise SystemExit(code)
        with open(os.path.join(tmp, "out", "study_report.json")) as fh:
            rows = json.load(fh)["rows"]
    print(f"study with {args.cells}^3 limit cells: {time.perf_counter() - t0:.1f}s")
    print(f"{'a':>8} {'M':>6} {'d_min':>8} {'ka':>8} {'a/d':>8} {'ratio':>8} {'D(a)':>10}")
    for prev, r in zip([None] + rows, rows):
        arrow = "" if prev is None else ("  v" if r["D"] < prev["D"] else "  ^ NOT DECREASING")
        print(f"{r['a']:8.4f} {r['M']:6d} {r['d_min']:8.4f} {r['ka']:8.4f} "
              f"{r['a_over_d']:8.4f} {r['ratio_bound']:8.4f} {r['D']:10.6f}{arrow}")


if __name__ == "__main__":
    main()
