"""The matrix-free FFT lattice operator against the dense interaction matrix."""

import weakref

import numpy as np
import pytest

from scatter_swarm import greens, las
from scatter_swarm.core import (ConstantField, GaussianBump, MaterialFields, MediumParams,
                                SimDomain, moment_coupling)
from scatter_swarm.errors import MemoryBudgetError, ScatterError
from scatter_swarm.greens import LatticeOperator, interaction_matrix
from scatter_swarm.incident import PlaneWave, curl_E0
from scatter_swarm.las import (DIRECT_LIMIT, assemble_system, linear_solve, solve, solve_las,
                               system_coefficients, system_operator)
from scatter_swarm.limit import CollocationGrid
from scatter_swarm.particles import ParticleCloud, place_particles

UNIT_CUBE = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
MEDIUM = MediumParams()
WAVE = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


def assert_operator_matches_dense(points, coeffs, k, seed=0):
    op = LatticeOperator.from_points(points, coeffs, k)
    assert op is not None
    A = interaction_matrix(points, coeffs, k)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    for got, want in ((op.apply(v), A @ v), (op.apply_h(v), A.conj().T @ v)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_constant_density_cube():
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    assert cloud.M == 343
    assert_operator_matches_dense(cloud.centers, system_coefficients(cloud, MEDIUM), MEDIUM.k)


def test_thinned_varying_density_cloud():
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1 + 0.02j),
                            N=GaussianBump(amplitude=2.0, center=(0.5, 0.5, 0.5), width=0.3))
    cloud = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5, seed=3)
    assert 0 < cloud.M < 512  # a thinned 8^3 lattice
    assert_operator_matches_dense(cloud.centers, system_coefficients(cloud, MEDIUM), 1.3 + 0.2j)


def test_limit_grid_with_inactive_cells_on_anisotropic_box():
    box = SimDomain(lo=[-0.2, 0.0, 0.1], hi=[0.8, 0.6, 0.9])
    h = GaussianBump(amplitude=0.3, center=(0.3, 0.3, 0.5), width=0.2)
    fields = MaterialFields(domain=box, h=h, N=ConstantField(2.0))
    grid = CollocationGrid.build(box, fields, (7, 5, 4))
    rng = np.random.default_rng(5)
    active = rng.random(grid.P) < 0.7
    coeffs = moment_coupling(MEDIUM) * grid.weights[active]
    assert_operator_matches_dense(grid.centers[active], coeffs, MEDIUM.k, seed=1)


def test_fft_solve_matches_dense_direct_solve():
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    direct = solve_las(cloud, MEDIUM, WAVE, method="direct")
    fft = solve_las(cloud, MEDIUM, WAVE, method="iterative", tol=1e-12)
    assert (direct.path.operator, fft.path.operator) == ("dense", "lattice-fft")
    assert fft.solver_used == "iterative" and fft.path.iterations > 0
    assert np.abs(fft.P - direct.P).max() <= 1e-10 * np.abs(direct.P).max()
    # GMRES and the Neumann bound on the dense matrix agree with the FFT path
    A, rhs = assemble_system(cloud, MEDIUM, WAVE)
    dense = solve(A, rhs, cloud, MEDIUM, method="iterative", tol=1e-12)
    assert dense.path.operator == "dense"
    assert np.abs(fft.P - dense.P).max() <= 1e-12 * np.abs(dense.P).max()
    assert np.isfinite(dense.condition_estimate)
    assert abs(fft.condition_estimate - dense.condition_estimate) <= 1e-12


def test_jittered_cloud_falls_back_to_dense():
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    lattice = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    rng = np.random.default_rng(11)
    centers = lattice.centers + 1e-4 * rng.standard_normal(lattice.centers.shape)
    cloud = ParticleCloud(centers=centers, radius=lattice.radius, kappa=lattice.kappa,
                          zeta=lattice.zeta, h_at_centers=lattice.h_at_centers)
    coeffs = system_coefficients(cloud, MEDIUM)
    assert LatticeOperator.from_points(cloud.centers, coeffs, MEDIUM.k) is None
    sol = solve_las(cloud, MEDIUM, WAVE, method="iterative")
    assert sol.path.operator == "dense" and sol.solver_used == "iterative"
    # off a lattice and below DIRECT_LIMIT unknowns, "auto" still factorizes
    assert 3 * cloud.M <= DIRECT_LIMIT
    sol = solve_las(cloud, MEDIUM, WAVE)
    assert (sol.solver_used, sol.path.operator, sol.path.iterations) == ("direct", "dense", 0)


def count_calls(monkeypatch, name):
    """Replace las.<name> by a wrapper that counts its calls; returns the count list."""
    calls = []
    fn = getattr(las, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(las, name, counted)
    return calls


def test_lattice_solve_defers_the_neumann_bound(monkeypatch):
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    op = system_operator(cloud.centers, system_coefficients(cloud, MEDIUM), MEDIUM.k, "auto")
    rhs = curl_E0(WAVE, MEDIUM.k, cloud.centers).reshape(-1)
    n = op.shape[0]
    s = las._norm_estimate(np.random.default_rng(7), n, op.apply, op.apply_h)
    assert s < 1.0
    calls = count_calls(monkeypatch, "_norm_estimate")
    _, _, condition, path = linear_solve(op, rhs)
    assert path.operator == "lattice-fft" and calls == []
    operator = weakref.ref(op)
    del op
    assert operator() is not None  # the pending estimate holds the operator
    assert condition() == (1.0 + s) / (1.0 - s)
    assert operator() is None  # and lets go of it once computed
    assert condition() == (1.0 + s) / (1.0 - s) and len(calls) == 1
    sol = solve_las(cloud, MEDIUM, WAVE)
    assert len(calls) == 1
    assert sol.condition_estimate == (1.0 + s) / (1.0 - s)
    assert sol.condition_estimate == (1.0 + s) / (1.0 - s) and len(calls) == 2


@pytest.mark.parametrize("method, estimate", [("direct", "_condition_estimate"),
                                              ("iterative", "_neumann_bound")])
def test_dense_solve_computes_its_estimate_during_the_solve(monkeypatch, method, estimate):
    # a dense solution must not keep the matrix or its LU factors for later
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    lattice = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    rng = np.random.default_rng(11)
    centers = lattice.centers + 1e-4 * rng.standard_normal(lattice.centers.shape)
    cloud = ParticleCloud(centers=centers, radius=lattice.radius, kappa=lattice.kappa,
                          zeta=lattice.zeta, h_at_centers=lattice.h_at_centers)
    calls = count_calls(monkeypatch, estimate)
    sol = solve_las(cloud, MEDIUM, WAVE, method=method)
    assert (sol.path.operator, sol.solver_used) == ("dense", method)
    assert len(calls) == 1
    assert 1.0 <= sol.condition_estimate < 10.0
    assert len(calls) == 1


def test_padded_grid_larger_than_dense_matrix_falls_back():
    # two far-apart points on a fine lattice: 1 node by 1 by 101
    points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.01]])
    assert LatticeOperator.from_points(points, np.ones(3), 1.0) is None


def test_large_cloud_auto_runs_matrix_free(monkeypatch):
    # a = 0.0025 gives M = 8000 spheres; the dense matrix would need 9.2 GB
    monkeypatch.setattr(greens, "available_memory", lambda: 0)
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.05), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=0.0025, kappa=0.5)
    assert cloud.M == 8000
    sol = solve_las(cloud, MEDIUM, WAVE)
    assert sol.path.operator == "lattice-fft" and sol.solver_used == "iterative"
    assert sol.residual_norm <= 1e-8


def test_memory_preflight_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(greens, "available_memory", lambda: 1000)
    points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    with pytest.raises(MemoryBudgetError) as err:
        interaction_matrix(points, np.ones(3), 1.0)
    assert isinstance(err.value, ScatterError)
    assert "1296 bytes" in str(err.value) and "method: iterative" in str(err.value)
