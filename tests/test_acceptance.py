"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The heavyweight sweeps (radius sequence, limit solves,
boundary-integral solves at 2x32^2 nodes) are shared via module fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from scatter_swarm import fd
from scatter_swarm.core import (ConstantField, MaterialFields, MediumParams,
                                SimDomain, VoxelGrid, moment_coupling)
from scatter_swarm.greens import eval_g, hessian_g, interaction_matrix
from scatter_swarm.incident import PlaneWave, curl_E0, eval_E0
from scatter_swarm.las import (assemble_system, eval_field, neglect_estimates, solve_las,
                               system_coefficients)
from scatter_swarm.limit import (design_materials, effective_medium,
                                 eval_limit_field, pde_residual, solve_limit)
from scatter_swarm.particles import place_particles
from scatter_swarm.sphere_oracle import (SphereMesh, asymptotic_moment,
                                         normal_second_moment, solve_sphere,
                                         verify_asymptotics)

A_SWEEP = (0.04, 0.02, 0.01)
LIMIT_CELLS = 12


def report(line, t0):
    print(f"\n{line} PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def medium():
    return MediumParams()  # eps0 = mu0 = omega = 1, so k = 1


@pytest.fixture(scope="module")
def wave():
    return PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


@pytest.fixture(scope="module")
def cube_setup(medium):
    domain = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
    fields = MaterialFields(domain=domain, h=ConstantField(0.05), N=ConstantField(1.0))
    return domain, fields


@pytest.fixture(scope="module")
def probe_grid():
    # tight exterior plane just past the downstream face, where the lattice
    # granularity (the quantity that must vanish in the limit) dominates
    axes = (np.linspace(0.1, 0.9, 5), np.linspace(0.1, 0.9, 5), np.linspace(1.01, 1.05, 5))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


@pytest.fixture(scope="module")
def las_sweep(medium, wave, cube_setup, probe_grid):
    domain, fields = cube_setup
    out = {}
    for a in A_SWEEP:
        cloud = place_particles(domain, fields, a, 0.5)
        sol = solve_las(cloud, medium, wave)
        out[a] = {
            "cloud": cloud,
            "solution": sol,
            "E": eval_field(sol, cloud, medium, wave, probe_grid).E,
            "neglect": neglect_estimates(cloud, medium, sol),
        }
    return out


@pytest.fixture(scope="module")
def limit_solutions(medium, wave, cube_setup):
    domain, fields = cube_setup
    return {cells: solve_limit(domain, fields, medium, wave, cells)
            for cells in (4, 8, LIMIT_CELLS)}


def test_ac1_kernel_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_helmholtz = 0.0
    worst_trace = 0.0
    for _ in range(100):
        y = rng.uniform(-1, 1, 3)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        x = y + rng.uniform(0.5, 1.5) * direction
        k = rng.uniform(0.5, 2.0)
        g = eval_g(x, y, k)
        step = 0.02 * min(np.linalg.norm(x - y), 1.0 / k)
        res = fd.laplacian6(lambda p: eval_g(p, y, k), x, step) + k * k * g
        worst_helmholtz = max(worst_helmholtz, abs(res) / abs(k * k * g))
        H = hessian_g(x, y, k)
        worst_trace = max(worst_trace, abs(np.trace(H) + k * k * g) / abs(k * k * g))
    assert worst_helmholtz <= 1e-6
    assert worst_trace <= 1e-12
    report(f"AC-1 kernel identities (helmholtz {worst_helmholtz:.2e}, "
           f"trace {worst_trace:.2e}):", t0)


def test_ac2_limit_passage(medium, wave, las_sweep, limit_solutions, probe_grid):
    t0 = time.perf_counter()
    lf = eval_limit_field(limit_solutions[LIMIT_CELLS], medium, wave, probe_grid)
    ref = np.linalg.norm(lf.E)
    D = [float(np.linalg.norm(las_sweep[a]["E"] - lf.E) / ref) for a in A_SWEEP]
    assert all(d2 < d1 for d1, d2 in zip(D, D[1:])), f"D(a) not decreasing: {D}"
    assert D[-1] <= 0.05
    report(f"AC-2 limit passage D(a) = {['%.5f' % d for d in D]}:", t0)


def test_auto_takes_the_lattice_path_and_matches_direct_on_the_ac2_sweep(
        medium, wave, las_sweep, limit_solutions, probe_grid):
    # the AC-2 clouds and limit grids are lattices, so "auto" solves them
    # matrix-free; numpy's dense direct solves give the same D(a) to 1e-8
    t0 = time.perf_counter()
    assert all(sol.path.operator == "lattice-fft" for sol in limit_solutions.values())
    lim = limit_solutions[8]
    grid = lim.grid
    assert np.all(np.abs(grid.weights) > 0)
    A = interaction_matrix(grid.centers, moment_coupling(medium) * grid.weights, medium.k)
    A += np.eye(3 * grid.P)
    W = np.linalg.solve(A, curl_E0(wave, medium.k, grid.centers).reshape(-1)).reshape(-1, 3)
    refs = {
        "auto": eval_limit_field(lim, medium, wave, probe_grid).E,
        "direct": eval_limit_field(dataclasses.replace(lim, W=W), medium, wave, probe_grid).E,
    }
    worst = 0.0
    for a in A_SWEEP:
        row = las_sweep[a]
        cloud, sol = row["cloud"], row["solution"]
        assert sol.path.operator == "lattice-fft"
        A, rhs = assemble_system(cloud, medium, wave)
        P = np.linalg.solve(A, rhs).reshape(-1, 3)
        direct = dataclasses.replace(sol, P=P, Q=-system_coefficients(cloud, medium)[:, None] * P)
        E = {"auto": row["E"], "direct": eval_field(direct, cloud, medium, wave, probe_grid).E}
        D = {m: np.linalg.norm(E[m] - refs[m]) / np.linalg.norm(refs[m]) for m in E}
        worst = max(worst, abs(D["auto"] - D["direct"]) / D["direct"])
    assert worst <= 1e-8
    report(f"auto (lattice-fft) against direct D(a), 8 cells (rel {worst:.1e}):", t0)


def test_ac3_asymptotic_moment(medium, wave):
    t0 = time.perf_counter()
    rep = verify_asymptotics([0.05, 0.025, 0.0125], 0.5, 0.1, medium, wave,
                             n_theta=32)
    assert all(e2 < e1 for e1, e2 in zip(rep.rel_error, rep.rel_error[1:])), \
        f"oracle error not decreasing: {rep.rel_error}"
    assert rep.monotone
    # the error floor at the smallest radius falls as the mesh is refined
    a = rep.a[-1]
    zeta = 0.1 / a ** 0.5
    q_asym = asymptotic_moment(medium, zeta, a, wave.curl(medium.k, np.zeros(3)))
    floor = {32: rep.rel_error[-1]}
    for n_theta in (16, 64):
        q = solve_sphere(SphereMesh.build(n_theta, a), medium, zeta, wave).Q
        floor[n_theta] = np.linalg.norm(q - q_asym) / np.linalg.norm(q_asym)
    assert floor[16] > floor[32] > floor[64], f"error floor not falling: {floor}"
    report(f"AC-3 moment asymptotics e(a) = {['%.4f' % e for e in rep.rel_error]}, "
           f"floor at a={a} for n_theta 16/32/64 = "
           f"{['%.5f' % floor[n] for n in (16, 32, 64)]}:", t0)


def test_ac4_mesh_constant():
    t0 = time.perf_counter()
    a = 0.0125
    mesh = SphereMesh.build(32, a)
    target = (4 * math.pi * a * a / 3) * np.eye(3)
    err = np.abs(normal_second_moment(mesh) - target).max() / np.abs(target).max()
    assert err <= 1e-8
    report(f"AC-4 mesh normal moment (err {err:.2e}):", t0)


def test_ac5_effective_medium_algebra(medium, cube_setup):
    t0 = time.perf_counter()
    domain, _ = cube_setup
    fields = MaterialFields(domain=domain, h=ConstantField(0.2 + 0.3j),
                            N=ConstantField(1.5))
    em = effective_medium(fields, medium, 16)
    k2 = medium.k ** 2
    err_mu = np.abs(em.mu * em.Psi - medium.mu0).max() / medium.mu0
    err_k2 = np.abs(em.K2 * em.Psi - k2).max() / abs(k2)
    assert err_mu <= 1e-14 and err_k2 <= 1e-14

    rng = np.random.default_rng(1605)
    shape = (16, 16, 16)
    psi = (1.0 + 0.5 * _smooth(rng, shape) + 1j * (0.3 + 0.4 * _smooth(rng, shape)))
    target = VoxelGrid(domain.lo, domain.extent / 15, medium.mu0 / psi)
    h_grid, rep = design_materials(target, medium, 1.0)
    assert rep.all_feasible
    em2 = effective_medium(MaterialFields(domain=domain, h=h_grid, N=ConstantField(1.0)),
                           medium, 16)
    err_rt = np.abs(em2.mu - target.values).max() / np.abs(target.values).max()
    assert err_rt <= 1e-12
    report(f"AC-5 medium algebra (mu*Psi {err_mu:.1e}, K2*Psi {err_k2:.1e}, "
           f"round-trip {err_rt:.1e}):", t0)


def _smooth(rng, shape):
    x, y, z = np.meshgrid(*[np.linspace(0, 1, n) for n in shape], indexing="ij")
    out = np.zeros(shape)
    for _ in range(4):
        fx, fy, fz = rng.uniform(0.5, 2.0, 3)
        px, py, pz = rng.uniform(0, 2 * np.pi, 3)
        out += rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * fx * x + px) \
            * np.sin(2 * np.pi * fy * y + py) * np.sin(2 * np.pi * fz * z + pz)
    return 0.5 + 0.5 * (out - out.min()) / (out.max() - out.min())


def test_ac6_transparency_and_linearity(medium, wave, cube_setup):
    t0 = time.perf_counter()
    domain, _ = cube_setup
    inert = MaterialFields(domain=domain, h=ConstantField(0.0), N=ConstantField(1.0))
    cloud = place_particles(domain, inert, 0.04, 0.5)
    sol = solve_las(cloud, medium, wave)
    probes = np.array([[1.3, 0.5, 0.5], [0.5, 0.5, -0.7], [2.0, 2.0, 2.0]])
    fs = eval_field(sol, cloud, medium, wave, probes)
    E0 = eval_E0(wave, medium.k, probes)
    assert np.array_equal(fs.E, E0)  # bitwise identical incident path
    from scatter_swarm.incident import curl_E0
    assert np.array_equal(sol.P, curl_E0(wave, medium.k, cloud.centers))

    lossy = MaterialFields(domain=domain, h=ConstantField(0.05), N=ConstantField(1.0))
    cloud2 = place_particles(domain, lossy, 0.04, 0.5)
    w2 = PlaneWave(direction=[0, 0, 1], polarization=[2, 0, 0])
    s1 = solve_las(cloud2, medium, wave)
    s2 = solve_las(cloud2, medium, w2)
    err = np.abs(s2.P - 2 * s1.P).max() / np.abs(s1.P).max()
    assert err <= 1e-12
    report(f"AC-6 transparency bitwise, amplitude linearity (err {err:.1e}):", t0)


def test_ac7_maxwell_consistency(medium, wave, las_sweep):
    t0 = time.perf_counter()
    a = 0.02
    cloud = las_sweep[a]["cloud"]
    sol = las_sweep[a]["solution"]
    center = np.array([0.5, 0.5, 0.5])
    golden = math.pi * (3 - math.sqrt(5))
    probes = []
    for i in range(20):
        z = 1 - 2 * (i + 0.5) / 20
        r = math.sqrt(1 - z * z)
        phi = golden * i
        probes.append(center + 1.1 * np.array([r * math.cos(phi), r * math.sin(phi), z]))
    probes = np.asarray(probes)
    dist = np.linalg.norm(probes[:, None, :] - cloud.centers[None, :, :], axis=-1).min(axis=1)
    assert np.all(dist >= 10 * a)

    k = medium.k
    worst_curl = 0.0
    worst_div = 0.0
    for probe in probes:
        fs = eval_field(sol, cloud, medium, wave, probe)
        curl_num = fd.curl(lambda p: eval_field(sol, cloud, medium, wave, p).E,
                           probe, step=1e-3)
        rhs = 1j * medium.omega * medium.mu0 * fs.H
        worst_curl = max(worst_curl,
                         float(np.linalg.norm(curl_num - rhs) / np.linalg.norm(rhs)))

        def scattered(p):
            return eval_field(sol, cloud, medium, wave, p).E - eval_E0(wave, k, p)

        div = fd.div(scattered, probe, step=1e-3)
        scale = abs(k) * np.linalg.norm(scattered(probe))
        worst_div = max(worst_div, float(abs(div) / scale))
    assert worst_curl <= 1e-4
    assert worst_div <= 1e-4
    report(f"AC-7 Maxwell consistency (curl {worst_curl:.1e}, div {worst_div:.1e}):", t0)


def test_ac8_neglect_ratio_regime(las_sweep):
    t0 = time.perf_counter()
    ratios = [las_sweep[a]["neglect"].ratio_bound for a in A_SWEEP]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] <= 0.15
    report(f"AC-8 neglect ratio bound = {['%.4f' % r for r in ratios]}:", t0)


def test_ac9_pde_residual_refinement(medium, wave, cube_setup, limit_solutions):
    t0 = time.perf_counter()
    domain, fields = cube_setup
    em = effective_medium(fields, medium, 7)
    pts = em.node_points().reshape(-1, 3)
    medians = []
    for cells in (4, 8, LIMIT_CELLS):
        fs = eval_limit_field(limit_solutions[cells], medium, wave, pts)
        E = fs.E.reshape(em.dims + (3,))
        res = pde_residual(E, em, medium)
        scale = abs(medium.k ** 2) * float(np.linalg.norm(fs.E, axis=-1).mean())
        medians.append(float(np.median(res)) / scale)
    assert all(m2 < m1 for m1, m2 in zip(medians, medians[1:])), medians
    report(f"AC-9 PDE residual medians = {['%.4f' % m for m in medians]}:", t0)
