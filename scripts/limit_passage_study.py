#!/usr/bin/env python3
"""Limit-passage study: shrink the sphere radius at the count-law rate and
watch the many-sphere field converge to the limiting-medium field.

Example:
    python scripts/limit_passage_study.py --a 0.04 0.02 0.01 --h 0.05 --cells 12
"""

import argparse
import time

import numpy as np

from scatter_swarm import (ConstantField, MaterialFields, MediumParams,
                           PlaneWave, SimDomain, diagnose, eval_field,
                           eval_limit_field, neglect_estimates, place_particles,
                           solve_las, solve_limit)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, nargs="+", default=[0.04, 0.02, 0.01])
    ap.add_argument("--h", type=float, default=0.05, help="impedance function value")
    ap.add_argument("--N", type=float, default=1.0, help="particle density")
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--cells", type=int, default=12, help="limit-solver cells per axis")
    args = ap.parse_args()

    medium = MediumParams(omega=args.omega)
    domain = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
    fields = MaterialFields(domain=domain, h=ConstantField(args.h), N=ConstantField(args.N))
    wave = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])

    axes = (np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 5), np.linspace(1.01, 1.05, 5))
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    t0 = time.perf_counter()
    lim = solve_limit(domain, fields, medium, wave, args.cells)
    lf = eval_limit_field(lim, medium, wave, probes, with_h=False)
    ref = np.linalg.norm(lf.E)
    print(f"limit solve at {args.cells}^3 cells: {time.perf_counter() - t0:.1f}s")
    print(f"{'a':>8} {'M':>6} {'d_min':>8} {'ka':>8} {'a/d':>8} {'ratio':>8} {'D(a)':>10}")
    prev = None
    for a in args.a:
        cloud = place_particles(domain, fields, a, args.kappa)
        sol = solve_las(cloud, medium, wave)
        fs = eval_field(sol, cloud, medium, wave, probes, with_h=False)
        diag = diagnose(cloud, medium.k, fields)
        rep = neglect_estimates(cloud, medium, sol)
        D = float(np.linalg.norm(fs.E - lf.E) / ref)
        arrow = "" if prev is None else ("  v" if D < prev else "  ^ NOT DECREASING")
        print(f"{a:8.4f} {cloud.M:6d} {diag.d_min:8.4f} {diag.ka:8.4f} "
              f"{diag.a_over_d:8.4f} {rep.ratio_bound:8.4f} {D:10.6f}{arrow}")
        prev = D


if __name__ == "__main__":
    main()
