#!/usr/bin/env python3
"""Single-sphere oracle versus the closed-form moment along a radius sequence.

Solves the surface integral equation at each radius and compares the
integrated moment Q against -(8 pi i / (3 omega mu0)) zeta a^2 (curl E)(0).
The relative error must decrease; its floor quantifies the correction terms
the closed form drops.

Example:
    python scripts/oracle_asymptotics.py --a 0.05 0.025 0.0125 --n-theta 24 --out report.json
"""

import argparse
import time

import numpy as np

from scatter_swarm import MediumParams, PlaneWave, verify_asymptotics
from scatter_swarm.cli import write_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, nargs="+", default=[0.05, 0.025, 0.0125])
    ap.add_argument("--h", type=float, default=0.1)
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--n-theta", type=int, default=16)
    ap.add_argument("--out", default=None, help="write the JSON report here")
    args = ap.parse_args()

    medium = MediumParams(omega=args.omega)
    wave = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    t0 = time.perf_counter()
    report = verify_asymptotics(args.a, args.kappa, args.h, medium, wave,
                                n_theta=args.n_theta)
    print(f"mesh 2x{args.n_theta}^2 nodes, {time.perf_counter() - t0:.1f}s")
    print(f"{'a':>9} {'zeta':>9} {'|Q_oracle|':>12} {'|Q_asym|':>12} {'rel err':>9}")
    for a, e, qo, qa in zip(report.a, report.rel_error, report.Q_oracle, report.Q_asym):
        print(f"{a:9.4f} {args.h / a ** args.kappa:9.4f} "
              f"{np.linalg.norm(qo):12.4e} {np.linalg.norm(qa):12.4e} {e:9.4f}")
    print("monotone decrease:", report.monotone)
    if args.out:
        write_json(args.out, report.to_json_dict())
        print("report written to", args.out)


if __name__ == "__main__":
    main()
