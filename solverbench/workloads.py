"""Workload definitions: each turns a seed into one scatter-swarm config.

The seed only draws the incident wave; every other setting is fixed, so the
work a request does is the same for every seed. All workloads use the unit
cube, eps0 = mu0 = omega = 1 (k = 1), N = 1 and kappa = 0.5.

Sizes are chosen so that one request takes a few seconds and a few hundred
MiB on a 2-core box, which lets one timed run hold several requests. The
shares in each `why` are of traced request time (`--trace 1`, seed 0, on a
2-vCPU Intel Xeon); nested layers overlap, so they need not add to 100%.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Callable, NamedTuple

# BLAS/OpenMP thread variables, each set to the usable core count in the
# child processes and in the process that runs the output checks
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores():
    return len(os.sched_getaffinity(0))


_BASE = {
    "medium": {"eps0": 1.0, "mu0": 1.0, "sigma0": 0.0, "omega": 1.0},
    "domain": {"box": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]},
    "materials": {
        "h": {"preset": "constant", "value": [0.05, 0.0]},
        "N": {"preset": "constant", "value": 1.0},
    },
}


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _random_wave(rng):
    """Uniform random direction and a random polarization orthogonal to it."""
    alpha = _unit([rng.gauss(0.0, 1.0) for _ in range(3)])
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    along = sum(a * b for a, b in zip(alpha, v))
    pol = _unit([b - along * a for a, b in zip(alpha, v)])
    return {"alpha": alpha, "polarization": pol}


def _study(rng):
    # AC-2 radii; the limit grid is 8 cells per axis (1536 unknowns).
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "wave": {"alpha": [0.0, 0.0, 1.0],
                 "polarization": [math.cos(theta), math.sin(theta), 0.0]},
        "solver": {"mode": "las", "kappa": 0.5, "cells_per_axis": 8,
                   "a_sequence": [0.04, 0.02, 0.01], "seed": 0},
        "output": {"dir": "out",
                   "probes": {"box": [[0.1, 0.1, 1.01], [0.9, 0.9, 1.05]], "shape": [5, 5, 5]},
                   "formats": ["csv", "json"]},
    }


def _las_gmres(rng):
    # M = 1000 spheres (3000 unknowns) on the GMRES path; the probe grid
    # reaches into the cloud, so the 2a exclusion rule is active.
    return {
        "wave": _random_wave(rng),
        "solver": {"mode": "las", "a": 0.01, "kappa": 0.5, "method": "iterative",
                   "tolerance": 1e-8, "seed": 0},
        "output": {"dir": "out",
                   "probes": {"box": [[-0.2, -0.2, -0.2], [1.2, 1.2, 1.2]], "shape": [12, 12, 12]},
                   "formats": ["csv", "json"]},
    }


def _oracle(rng):
    return {
        "wave": _random_wave(rng),
        "solver": {"mode": "oracle", "kappa": 0.5, "n_theta": 16,
                   "a_sequence": [0.05, 0.025, 0.0125], "oracle_h": [0.1, 0.0]},
        "output": {"dir": "out", "formats": ["json"]},
    }


class Workload(NamedTuple):
    command: str                  # scatter-swarm subcommand
    build: Callable[[random.Random], dict]
    why: str                      # why the workload is in the benchmark


WORKLOADS = {
    "study": Workload(
        "study", _study,
        "limit-passage study: the direct solves take the time (LU 35%, residual "
        "and condition estimate 33%, dense assembly 27%); the limit solve takes "
        "15%; GMRES and the oracle stay idle"),
    "las-gmres": Workload(
        "run", _las_gmres,
        "many-sphere GMRES solve, M = 1000: probe-field evaluation 38%, "
        "post-solve residual and condition estimate 29%, dense assembly 23%, "
        "GMRES itself 3%; LU, limit and the oracle stay idle"),
    "oracle": Workload(
        "run", _oracle,
        "Nystrom single-sphere oracle only (operator build 47%, dense solve 48%): "
        "the control on which greens, las and limit changes predict no change"),
}


def config_text(name, seed):
    """Config JSON for workload `name` drawn from `seed`."""
    cfg = dict(_BASE, **WORKLOADS[name].build(random.Random(f"{name}:{seed}")))
    return json.dumps(cfg, indent=1, sort_keys=True) + "\n"
