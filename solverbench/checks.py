"""Output checks, run after the timed requests by a route independent of the
solve that produced the outputs.

Each check takes one request's output directory and the workload config and
returns a list of problems (empty when the output is correct). Requests are
also compared byte for byte with the checked one: identical configs must
reproduce identical reports.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from scatter_swarm.core import MediumParams, moment_coupling
from scatter_swarm.errors import ScatterError
from scatter_swarm.greens import dipole_curl_sum
from scatter_swarm.incident import PlaneWave, curl_E0
from scatter_swarm.sphere_oracle import (SphereMesh, apply_A, asymptotic_moment, build_rhs,
                                         solve_sphere)


# what a check raises on missing, malformed or unsolvable output
CHECK_ERRORS = (OSError, KeyError, IndexError, ValueError, TypeError, ScatterError)


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _complex(pairs):
    """Array of complex values from nested [re, im] pairs."""
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _medium_and_wave(cfg):
    medium = MediumParams(**cfg["medium"])
    wave = PlaneWave(direction=cfg["wave"]["alpha"], polarization=cfg["wave"]["polarization"])
    return medium, wave


def check_study(out_dir, cfg):
    report = _load(out_dir, "study_report.json")
    D = [row["D"] for row in report["rows"]]
    problems = []
    if report["status"] != "PASSED":
        problems.append(f"study status {report['status']}")
    if len(D) != len(cfg["solver"]["a_sequence"]):
        problems.append(f"{len(D)} rows for {len(cfg['solver']['a_sequence'])} radii")
    if not all(d2 < d1 for d1, d2 in zip(D, D[1:])):
        problems.append(f"D(a) not strictly decreasing: {D}")
    if not D[-1] <= 0.05:
        problems.append(f"D[-1] = {D[-1]} exceeds 0.05 (AC-2)")
    return problems


def check_las(out_dir, cfg, rows_per_chunk=128):
    """Relative residual of the written P in the written cloud, recomputed with
    the dipole curl sum (self pairs masked) against curl E0 at the centers."""
    medium, wave = _medium_and_wave(cfg)
    solution = _load(out_dir, "solution.json")
    cloud = _load(out_dir, "cloud.json")
    diagnostics = _load(out_dir, "diagnostics.json")
    P, Q = _complex(solution["P"]), _complex(solution["Q"])
    centers = np.asarray(cloud["centers"], dtype=float)
    zeta = _complex(cloud["zeta"])
    # Q_m = -c a^(2-kappa) h_m P_m with h_m = zeta_m a^kappa
    moments = -moment_coupling(medium) * cloud["a"] ** 2 * zeta[:, None] * P
    k = medium.k
    rhs = curl_E0(wave, k, centers)
    interaction = np.zeros_like(rhs)
    m = len(centers)
    for r0 in range(0, m, rows_per_chunk):
        r1 = min(r0 + rows_per_chunk, m)
        keep = np.ones((r1 - r0, m), dtype=bool)
        keep[np.arange(r1 - r0), np.arange(r0, r1)] = False
        interaction[r0:r1] = dipole_curl_sum(centers[r0:r1], centers, moments, k, keep=keep)
    residual = np.linalg.norm(P - interaction - rhs) / np.linalg.norm(rhs)
    tol = cfg["solver"]["tolerance"]
    problems = []
    if not residual <= tol:
        problems.append(f"recomputed residual {residual:.3e} exceeds {tol:.1e}")
    if not np.linalg.norm(moments - Q) <= 1e-12 * np.linalg.norm(Q):
        problems.append("written Q does not match -c a^2 zeta P")
    used = diagnostics["solver"]["solver_used"]
    if used != cfg["solver"]["method"]:
        problems.append(f"solver used {used!r}, expected {cfg['solver']['method']!r}")
    with open(os.path.join(out_dir, "fields.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    n_probes = math.prod(cfg["output"]["probes"]["shape"])
    if len(rows) != n_probes:
        problems.append(f"fields.csv has {len(rows)} rows for {n_probes} probes")
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        problems.append("fields.csv holds non-finite values")
    return problems


def check_oracle(out_dir, cfg):
    """Monotone error sequence; the smallest radius is re-solved and its
    residual checked through the matrix-free operator apply_A."""
    medium, wave = _medium_and_wave(cfg)
    report = _load(out_dir, "oracle_report.json")
    problems = []
    if report["monotone"] is not True:
        problems.append(f"rel_error not monotone: {report['rel_error']}")
    s = cfg["solver"]
    a = s["a_sequence"][-1]
    h = complex(*s["oracle_h"])
    zeta = h / a ** s["kappa"]
    mesh = SphereMesh.build(s["n_theta"], a)
    sol = solve_sphere(mesh, medium, zeta, wave)
    f = build_rhs(mesh, medium, zeta, wave)
    residual = (np.linalg.norm(sol.sigma - apply_A(mesh, sol.sigma, medium, zeta) - f)
                / np.linalg.norm(f))
    if not residual <= 1e-10:
        problems.append(f"apply_A residual {residual:.3e} exceeds 1e-10")
    q_report = _complex(report["Q_oracle"])[-1]
    if not np.linalg.norm(sol.Q - q_report) <= 1e-10 * np.linalg.norm(q_report):
        problems.append("re-solved Q differs from the report")
    q_asym = asymptotic_moment(medium, zeta, a, wave.curl(medium.k, np.zeros(3)))
    rel = np.linalg.norm(q_report - q_asym) / np.linalg.norm(q_asym)
    if not abs(rel - report["rel_error"][-1]) <= 1e-12:
        problems.append("reported rel_error does not match Q_oracle and Q_asym")
    return problems


CHECKS = {"study": check_study, "las-gmres": check_las, "oracle": check_oracle}


def same_outputs(dir_a, dir_b):
    """True when both output directories hold the same files, byte for byte."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True
