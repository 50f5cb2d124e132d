#!/usr/bin/env python3
"""Design the impedance function h(x) realizing a target permeability profile.

Builds a smooth target mu(x) (a Gaussian dip toward mu0/2 at the domain
center), inverts the medium relation for h(x), checks feasibility (Re h >= 0),
and verifies the round trip back to mu(x). Writes the designed grid and the
achieved-medium table.

Example:
    python scripts/design_demo.py --grid 16 --depth 0.5 --out-dir design_out
"""

import argparse
import os

import numpy as np

from scatter_swarm import (ConstantField, MaterialFields, MediumParams,
                           SimDomain, VoxelGrid, design_materials,
                           effective_medium)
from scatter_swarm.cli import write_field_csv, write_json
from scatter_swarm.core import box_nodes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--depth", type=float, default=0.5,
                    help="mu at the dip center, as a fraction of mu0")
    ap.add_argument("--width", type=float, default=0.2)
    ap.add_argument("--density", type=float, default=1.0)
    ap.add_argument("--out-dir", default="design_out")
    args = ap.parse_args()

    medium = MediumParams()
    domain = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
    n = args.grid
    spacing = domain.extent / (n - 1)
    pts = box_nodes(domain.lo, domain.hi, (n, n, n))
    r2 = np.sum((pts - 0.5) ** 2, axis=-1)
    bump = np.exp(-r2 / (2 * args.width ** 2))
    # mu0 -> depth*mu0 dip; realizable with a lossless (purely reactive) h
    mu_target = medium.mu0 / (1.0 + (1.0 / args.depth - 1.0) * bump)
    target = VoxelGrid(domain.lo, spacing, mu_target.astype(complex))

    h_grid, report = design_materials(target, medium, args.density)
    print(f"designed h on {n}^3 grid: feasible {report.feasible}/{report.total}, "
          f"lossless {report.lossless}, infeasible {len(report.infeasible_voxels)}")

    fields = MaterialFields(domain=domain, h=h_grid, N=ConstantField(args.density))
    achieved = effective_medium(fields, medium, n)
    err = np.abs(achieved.mu - target.values).max() / np.abs(target.values).max()
    print(f"round-trip max relative error: {err:.3e}")

    os.makedirs(args.out_dir, exist_ok=True)
    write_json(os.path.join(args.out_dir, "h_design.json"), h_grid.to_json_dict())
    write_field_csv(os.path.join(args.out_dir, "achieved_medium.csv"), achieved.node_points(),
                    ("Psi", "mu", "K2"),
                    np.stack([achieved.Psi, achieved.mu, achieved.K2], axis=-1).reshape(-1, 3))
    print("wrote", os.path.join(args.out_dir, "h_design.json"),
          "and", os.path.join(args.out_dir, "achieved_medium.csv"))


if __name__ == "__main__":
    main()
