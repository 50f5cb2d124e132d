import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial

from scatter_swarm import fd
from scatter_swarm.cli import write_json
from scatter_swarm.core import (ConstantField, MaterialFields, MediumParams,
                                SimDomain, cross, moment_coupling)
from scatter_swarm.errors import ConvergenceError, IllConditionedWarning, ParameterError
from scatter_swarm.greens import dipole_sums
from scatter_swarm.incident import PlaneWave, curl_E0, eval_E0
from scatter_swarm.las import (DEFAULT_TOL, CurlSolution, SolverPath, assemble_system,
                               condition_estimate, eval_field, neglect_estimates, probe_field,
                               solve, solve_las, system_coefficients, system_operator)
from scatter_swarm.particles import ParticleCloud, diagnose, place_particles


@pytest.fixture
def medium():
    return MediumParams()


@pytest.fixture
def wave():
    return PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


def make_cloud(centers, a=0.01, kappa=0.5, h=1.0):
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    h_vals = np.full(centers.shape[0], complex(h))
    return ParticleCloud(centers=centers, radius=a, kappa=kappa,
                         zeta=h_vals / a ** kappa, h_at_centers=h_vals)


def lattice_cloud(m_per_axis, spacing, a=0.005, kappa=0.5, h=0.1):
    axes = [spacing * (np.arange(m_per_axis) + 0.5)] * 3
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return make_cloud(centers, a=a, kappa=kappa, h=h)


def test_single_particle_system_is_identity(medium, wave):
    cloud = make_cloud([[0.2, 0.3, 0.4]])
    A, rhs = assemble_system(cloud, medium, wave)
    assert np.array_equal(A, np.eye(3, dtype=complex))
    assert np.array_equal(rhs, curl_E0(wave, medium.k, cloud.centers[0]))


@pytest.mark.parametrize("route", ["auto", "direct", "iterative"])
def test_empty_cloud_is_a_parameter_error(medium, wave, route):
    # each way into a solve: the one-call solve, the assembled dense matrix
    # and the system operator GMRES runs on
    cloud = make_cloud(np.zeros((0, 3)))
    entry = {
        "auto": lambda: solve_las(cloud, medium, wave),
        "direct": lambda: solve(*assemble_system(cloud, medium, wave), cloud, medium),
        "iterative": lambda: system_operator(cloud.centers,
                                             system_coefficients(cloud, medium), medium.k),
    }[route]
    with pytest.raises(ParameterError):
        entry()


def test_zero_impedance_system_is_identity(medium, wave):
    cloud = lattice_cloud(3, 0.1, h=0.0)
    A, rhs = assemble_system(cloud, medium, wave)
    assert np.array_equal(A, np.eye(3 * cloud.M, dtype=complex))
    sol = solve(A, rhs, cloud, medium)
    assert np.array_equal(sol.P.reshape(-1), rhs)
    assert np.all(sol.Q == 0)


def test_zero_impedance_field_is_incident_bitwise(medium, wave):
    cloud = lattice_cloud(3, 0.1, h=0.0)
    sol = solve_las(cloud, medium, wave)
    probes = np.array([[0.5, 0.2, 0.9], [2.0, 1.0, -1.0]])
    fs = eval_field(sol, cloud, medium, wave, probes)
    E0 = eval_E0(wave, medium.k, probes)
    assert np.array_equal(fs.E, E0)


def test_iterative_inert_lattice_keeps_incident_curl_bitwise(medium, wave):
    # T annihilates the right-hand side, so GMRES is skipped and P = curl E0
    # exactly rather than (b/||b||)*||b||
    cloud = lattice_cloud(3, 0.1, h=0.0)
    sol = solve_las(cloud, medium, wave)
    assert np.array_equal(sol.P, curl_E0(wave, medium.k, cloud.centers))
    assert (sol.path.operator, sol.path.iterations) == ("lattice-fft", 0)
    assert sol.residual_norm == 0.0


def test_condition_estimate_of_inert_and_lone_systems_is_one(medium):
    inert = lattice_cloud(3, 0.1, h=0.0)
    lone = make_cloud([[0.2, 0.3, 0.4]])
    for cloud in (inert, lone):
        system = system_operator(cloud.centers, system_coefficients(cloud, medium), medium.k)
        assert abs(condition_estimate(system) - 1.0) <= 1e-12


def test_near_singular_system_raises_ill_conditioned_warning():
    # cond_2 = 1e14, about 1/eps: the estimate reads it to rounding only
    A = np.eye(30, dtype=complex)
    A[7, 7] = 1e-14
    with pytest.warns(IllConditionedWarning):
        assert condition_estimate(A) > 1e12


def test_default_tolerance_holds_on_the_gmres_path(medium, wave):
    cloud = lattice_cloud(4, 0.08, a=0.005, h=0.2)
    sol = solve_las(cloud, medium, wave)
    assert (sol.path.solver_used, sol.path.operator) == ("iterative", "lattice-fft")
    assert sol.residual_norm <= DEFAULT_TOL == 1e-10


def test_two_particle_offdiagonal_block_against_finite_differences(medium, wave):
    # independent oracle: rebuild the interaction kernel from finite
    # differences of a locally defined point source
    a, kappa = 1e-2, 0.5
    y = np.array([0.0, 0.0, 0.2])
    cloud = make_cloud([[0, 0, 0], y.tolist()], a=a, kappa=kappa, h=1.0)
    A, _ = assemble_system(cloud, medium, wave)
    block = A[0:3, 3:6]
    k = medium.k

    def g_local(x):
        r = np.linalg.norm(x - y)
        return np.exp(1j * k * r) / (4 * math.pi * r)

    x0 = np.zeros(3)
    kernel = k * k * g_local(x0) * np.eye(3) + fd.hessian(g_local, x0, step=1e-4)
    expected = moment_coupling(medium) * a ** (2 - kappa) * kernel
    assert np.abs(block - expected).max() <= 1e-6 * np.abs(expected).max()


def test_solve_self_consistency(medium, wave):
    cloud = lattice_cloud(3, 0.08, a=0.005, h=0.2)
    A, rhs = assemble_system(cloud, medium, wave)
    sol = solve(A, rhs, cloud, medium)
    residual = np.linalg.norm(A @ sol.P.reshape(-1) - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-10
    assert sol.residual_norm <= 1e-10
    assert (sol.path.solver_used, sol.path.operator) == ("iterative", "dense")
    assert condition_estimate(A) > 0
    # moments satisfy their defining relation exactly
    coeff = moment_coupling(medium) * cloud.radius ** 1.5 * cloud.h_at_centers
    assert np.array_equal(sol.Q, -coeff[:, None] * sol.P)


def test_direct_and_iterative_agree(medium, wave):
    full = lattice_cloud(4, 0.08, a=0.005, h=0.2)
    cloud = make_cloud(full.centers[:50], a=0.005, h=0.2)
    A, rhs = assemble_system(cloud, medium, wave)
    direct = np.linalg.solve(A, rhs).reshape(-1, 3)
    iterative = solve(A, rhs, cloud, medium)
    assert iterative.path.solver_used == "iterative"
    rel = np.abs(direct - iterative.P).max() / np.abs(direct).max()
    assert rel <= 1e-6


def test_iterative_nonconvergence_reports_history(medium, wave):
    cloud = lattice_cloud(3, 0.05, a=0.008, h=1.0)
    A, rhs = assemble_system(cloud, medium, wave)
    with pytest.raises(ConvergenceError) as err:
        solve(A, rhs, cloud, medium, tol=1e-14, max_iter=1)
    assert len(err.value.residual_history) >= 1


def test_amplitude_linearity(medium):
    cloud = lattice_cloud(3, 0.1, a=0.008, h=0.3)
    w1 = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    w2 = PlaneWave(direction=[0, 0, 1], polarization=[2, 0, 0])
    s1 = solve_las(cloud, medium, w1)
    s2 = solve_las(cloud, medium, w2)
    assert np.abs(s2.P - 2 * s1.P).max() <= 1e-12 * np.abs(s1.P).max()
    probe = np.array([1.0, 0.7, 1.3])
    e1 = eval_field(s1, cloud, medium, w1, probe).E
    e2 = eval_field(s2, cloud, medium, w2, probe).E
    assert np.abs(e2 - 2 * e1).max() <= 1e-12 * np.abs(e1).max()


def test_far_field_decay(medium, wave):
    cloud = lattice_cloud(2, 0.1, a=0.01, h=0.5)
    sol = solve_las(cloud, medium, wave)
    ray = np.array([0.3, 0.2, 0.93])
    ray /= np.linalg.norm(ray)

    def scattered(r):
        x = cloud.centers.mean(axis=0) + r * ray
        return np.linalg.norm(eval_field(sol, cloud, medium, wave, x).E
                              - eval_E0(wave, medium.k, x))

    ratio = scattered(200.0) / scattered(100.0)
    assert abs(ratio - 0.5) <= 0.025


def test_field_maxwell_consistency(medium, wave):
    cloud = lattice_cloud(3, 0.1, a=0.008, h=0.3)
    sol = solve_las(cloud, medium, wave)
    probe = np.array([0.9, 0.8, 1.1])
    fs = eval_field(sol, cloud, medium, wave, probe)
    curl_num = fd.curl(lambda p: eval_field(sol, cloud, medium, wave, p).E, probe, step=1e-3)
    rhs = 1j * medium.omega * medium.mu0 * fs.H
    assert np.abs(curl_num - rhs).max() <= 1e-5 * np.abs(rhs).max()


def test_scattered_field_divergence_free(medium, wave):
    cloud = lattice_cloud(3, 0.1, a=0.008, h=0.3)
    sol = solve_las(cloud, medium, wave)
    k = medium.k

    def scattered(p):
        return eval_field(sol, cloud, medium, wave, p).E - eval_E0(wave, k, p)

    for probe in ([0.9, 0.8, 1.1], [-0.4, 0.2, 0.1]):
        probe = np.asarray(probe, dtype=float)
        d = fd.div(scattered, probe, step=1e-3)
        assert abs(d) <= 1e-5 * abs(k) * np.linalg.norm(scattered(probe))


def test_probe_at_center_drops_term(medium, wave):
    cloud = lattice_cloud(2, 0.2, a=0.01, h=0.5)
    fs = eval_field(solve_las(cloud, medium, wave), cloud, medium, wave, cloud.centers[0])
    assert np.all(np.isfinite(fs.E)) and np.all(np.isfinite(fs.H))


def test_exclusion_radius_is_inclusive(medium, wave):
    # a = 0.25 and a center at 0.5 make the distance 2a exact in binary
    cloud = make_cloud([[0.5, 0.5, 0.5]], a=0.25)
    sol = solve_las(cloud, medium, wave)
    probes = np.array([[1.0, 0.5, 0.5], [0.5 + 0.5 * (1 + 1e-9), 0.5, 0.5]])
    fs = eval_field(sol, cloud, medium, wave, probes)
    E0 = eval_E0(wave, medium.k, probes)
    assert np.array_equal(fs.E[0], E0[0])
    assert np.abs(fs.E[1] - E0[1]).max() > 1e-6


def test_exclusion_matches_dense_distance_rule(medium, wave):
    cloud = lattice_cloud(4, 0.1, a=0.02, h=0.3)
    sol = solve_las(cloud, medium, wave)
    rng = np.random.default_rng(11)
    probes = np.concatenate([rng.uniform(0.0, 0.4, (40, 3)), cloud.centers[:3]])
    radius = 2.0 * cloud.radius
    dist = np.linalg.norm(probes[:, None, :] - cloud.centers[None, :, :], axis=-1)
    assert np.any((dist > 0) & (dist <= radius))
    dense = probe_field(medium, wave, probes, cloud.centers, sol.Q,
                        [np.flatnonzero(row <= radius) for row in dist])
    fs = eval_field(sol, cloud, medium, wave, probes)
    assert np.array_equal(fs.E, dense.E) and np.array_equal(fs.H, dense.H)


def test_e_only_evaluation_is_bitwise_the_same(medium, wave):
    cloud = lattice_cloud(4, 0.1, a=0.02, h=0.3)
    sol = solve_las(cloud, medium, wave)
    rng = np.random.default_rng(13)
    probes = np.concatenate([rng.uniform(-0.1, 0.5, (30, 3)), cloud.centers[:2]])
    for x in (probes, probes[0], cloud.centers[5]):
        full = eval_field(sol, cloud, medium, wave, x)
        e_only = eval_field(sol, cloud, medium, wave, x, with_h=False)
        assert e_only.E.shape == x.shape and np.array_equal(e_only.E, full.E)
        assert e_only.H is None and full.H.shape == x.shape


def test_zero_moment_sources_leave_the_exclusion_lists_intact(medium, wave):
    # probe_field drops zero-moment sources and renumbers each probe's list;
    # a probe may sit on a zero-moment source
    rng = np.random.default_rng(12)
    centers = lattice_cloud(3, 0.1).centers
    Q = rng.standard_normal((27, 6)).view(complex)
    Q[::4] = 0.0
    probes = np.concatenate([rng.uniform(0.0, 0.3, (10, 3)), centers[[4, 8]]])
    excluded = [rng.choice(27, 3, replace=False) for _ in probes]
    fs = probe_field(medium, wave, probes, centers, Q, excluded)
    dead = np.flatnonzero(~np.any(Q != 0, axis=1))
    field, curl = dipole_sums(probes, centers, Q, medium.k,
                              [np.union1d(cols, dead) for cols in excluded])
    E = eval_E0(wave, medium.k, probes) + field
    H = (curl_E0(wave, medium.k, probes) + curl) / (1j * medium.omega * medium.mu0)
    for out, ref in ((fs.E, E), (fs.H, H)):
        assert np.all(np.linalg.norm(out - ref, axis=1) <= 1e-14 * np.linalg.norm(ref, axis=1))


def _eval_field_peak(medium, wave, with_h):
    """tracemalloc peak of evaluating 1728 probes around 1000 spheres."""
    cloud = lattice_cloud(10, 0.1, a=0.01)
    Q = np.random.default_rng(4).standard_normal((cloud.M, 6)).view(complex)
    sol = CurlSolution(P=Q, Q=Q, residual_norm=0.0, path=SolverPath("iterative", "lattice-fft"))
    axes = [np.linspace(-0.2, 1.2, 12)] * 3
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    tracemalloc.start()
    try:
        fs = eval_field(sol, cloud, medium, wave, probes, with_h=with_h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cloud.M, len(probes)) == (1000, 1728)
    assert np.all(np.isfinite(fs.E))
    return peak


def test_eval_field_memory_is_bounded(medium, wave):
    peak = _eval_field_peak(medium, wave, with_h=True)
    assert peak < 3 * 2 ** 20  # the probe kernel's work arrays take about 2 MiB


def test_e_only_evaluation_allocates_three_complex_work_arrays(medium, wave):
    # the field alone needs three of the five complex (16, 1000) work arrays
    # (250 KiB each) of the full path: 1.94 MiB peak, against 2.70 MiB with H
    peak = _eval_field_peak(medium, wave, with_h=False)
    assert peak < 2.3 * 2 ** 20


def test_one_neighbour_index_per_cloud(monkeypatch, medium, wave):
    # the overlap check, both probe sets, the diagnostics and the neglect
    # estimates all query the one tree the cloud keeps
    built = []

    class CountingTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(len(args[0]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    domain = SimDomain(lo=[0, 0, 0], hi=[0.5, 0.5, 0.5])
    fields = MaterialFields(domain=domain, h=ConstantField(0.05), N=ConstantField(8.0))
    cloud = place_particles(domain, fields, a=0.02, kappa=0.5)
    sol = solve_las(cloud, medium, wave)
    eval_field(sol, cloud, medium, wave, cloud.centers[:20] + 0.01)
    eval_field(sol, cloud, medium, wave, np.array([0.6, 0.6, 0.6]))
    diag = diagnose(cloud, medium.k, fields)
    rep = neglect_estimates(cloud, medium, sol)
    assert built == [cloud.M] == [343]
    assert diag.a_over_d == rep.a_over_d

    moved = cloud.centers + np.random.default_rng(2).uniform(-0.005, 0.005, cloud.centers.shape)
    jittered = dataclasses.replace(cloud, centers=moved)
    dist = np.linalg.norm(moved[:, np.newaxis] - moved[np.newaxis], axis=-1)
    np.fill_diagonal(dist, np.inf)
    assert np.array_equal(jittered.nearest[0], dist.min(axis=1))
    assert built == [343, 343]


def test_kernel_reciprocity(medium, wave):
    cloud = lattice_cloud(3, 0.09, a=0.005, h=0.25)
    A, _ = assemble_system(cloud, medium, wave)
    view = A.reshape(cloud.M, 3, cloud.M, 3)
    j, m = 1, 20
    bjm = view[j, :, m, :] / cloud.h_at_centers[m]
    bmj = view[m, :, j, :] / cloud.h_at_centers[j]
    assert np.abs(bjm - bmj.T).max() <= 1e-14 * np.abs(bjm).max()


def test_neglect_estimate_values(medium):
    # two spheres at separation 0.1 with radius 1e-3 and k = 1
    cloud = make_cloud([[0, 0, 0], [0, 0, 0.1]], a=1e-3, h=0.1)
    sol = solve_las(cloud, medium, PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0]))
    rep = neglect_estimates(cloud, medium, sol)
    assert abs(rep.ratio_bound - 0.01) < 1e-12
    assert abs(rep.a_over_d - 0.01) < 1e-12
    assert abs(rep.ka - 1e-3) < 1e-15
    assert rep.j1_max > 0 and rep.j2_bound_max > 0


def test_single_particle_neglect_estimates(medium, wave):
    cloud = make_cloud([[0.2, 0.3, 0.4]], a=1e-3)
    rep = neglect_estimates(cloud, medium, solve_las(cloud, medium, wave))
    assert (rep.j1_max, rep.j2_bound_max, rep.a_over_d) == (0.0, 0.0, 0.0)
    assert rep.ratio_bound == rep.ka == abs(medium.k) * 1e-3


def test_neglect_ratio_small_k_branch():
    medium = MediumParams(omega=1e-9)
    cloud = make_cloud([[0, 0, 0], [0, 0, 0.1]], a=1e-3, h=0.1)
    sol = solve_las(cloud, medium, PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0]))
    rep = neglect_estimates(cloud, medium, sol)
    assert rep.ratio_bound == rep.a_over_d


def test_neglect_ratio_decreases_under_refinement(medium, wave):
    dom = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
    fields = MaterialFields(domain=dom, h=ConstantField(0.1), N=ConstantField(1.0))
    ratios = []
    for a in (0.02, 0.01):
        cloud = place_particles(dom, fields, a, 0.5)
        sol = solve_las(cloud, medium, wave)
        ratios.append(neglect_estimates(cloud, medium, sol).ratio_bound)
    assert ratios[1] < ratios[0]


def test_solution_json_round_trip(medium, wave, tmp_path):
    cloud = lattice_cloud(2, 0.1, a=0.01, h=0.4)
    sol = solve_las(cloud, medium, wave)
    path = tmp_path / "solution.json"
    write_json(path, sol.to_json_dict())
    import json
    back = CurlSolution.from_json_dict(json.loads(path.read_text()))
    assert np.array_equal(back.P, sol.P)
    assert np.array_equal(back.Q, sol.Q)
    assert back.residual_norm == sol.residual_norm
