"""The matrix-free FFT lattice operator against the dense interaction matrix."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft

from scatter_swarm import greens, las
from scatter_swarm.core import (ConstantField, GaussianBump, MaterialFields, MediumParams,
                                SimDomain, moment_coupling)
from scatter_swarm.errors import MemoryBudgetError, ScatterError
from scatter_swarm.greens import LatticeOperator, interaction_matrix
from scatter_swarm.incident import PlaneWave, curl_E0
from scatter_swarm.las import (assemble_system, condition_estimate, linear_solve, solve,
                               solve_las, system_coefficients, system_operator)
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
    want = A @ v
    assert np.linalg.norm(op.apply(v) - want) <= 1e-13 * np.linalg.norm(want)


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
    A, rhs = assemble_system(cloud, MEDIUM, WAVE)
    direct = np.linalg.solve(A, rhs).reshape(-1, 3)
    fft = solve_las(cloud, MEDIUM, WAVE, tol=1e-12)
    assert fft.path.operator == "lattice-fft"
    assert fft.path.solver_used == "iterative" and fft.path.iterations > 0
    assert np.abs(fft.P - direct).max() <= 1e-10 * np.abs(direct).max()
    # GMRES and the Arnoldi condition estimate on the dense matrix agree with
    # the FFT path
    dense = solve(A, rhs, cloud, MEDIUM, tol=1e-12)
    assert dense.path.operator == "dense"
    assert np.abs(fft.P - dense.P).max() <= 1e-12 * np.abs(dense.P).max()
    op = system_operator(cloud.centers, system_coefficients(cloud, MEDIUM), MEDIUM.k)
    assert np.isfinite(condition_estimate(A))
    assert abs(condition_estimate(op) - condition_estimate(A)) <= 1e-12


def jittered(lattice):
    """The cloud with every center moved off the lattice by about 1e-4."""
    rng = np.random.default_rng(11)
    centers = lattice.centers + 1e-4 * rng.standard_normal(lattice.centers.shape)
    return ParticleCloud(centers=centers, radius=lattice.radius, kappa=lattice.kappa,
                         zeta=lattice.zeta, h_at_centers=lattice.h_at_centers)


def test_jittered_cloud_falls_back_to_dense():
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    lattice = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    cloud = jittered(lattice)
    coeffs = system_coefficients(cloud, MEDIUM)
    assert LatticeOperator.from_points(cloud.centers, coeffs, MEDIUM.k) is None
    # off a lattice, GMRES runs on the dense matrix
    sol = solve_las(cloud, MEDIUM, WAVE)
    assert (sol.path.solver_used, sol.path.operator) == ("iterative", "dense")
    assert sol.path.iterations > 0


def count_calls(monkeypatch, name):
    """Replace las.<name> by a wrapper that counts its calls; returns the count list."""
    calls = []
    fn = getattr(las, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)

    monkeypatch.setattr(las, name, counted)
    return calls


def test_a_solution_keeps_no_reference_to_its_system():
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    lattice = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    for cloud, operator in ((lattice, "lattice-fft"), (jittered(lattice), "dense")):
        system = system_operator(cloud.centers, system_coefficients(cloud, MEDIUM), MEDIUM.k)
        rhs = curl_E0(WAVE, MEDIUM.k, cloud.centers).reshape(-1)
        sol = solve(system, rhs, cloud, MEDIUM)
        assert sol.path.operator == operator
        ref = weakref.ref(system)
        del system
        assert ref() is None
        assert sol.residual_norm <= las.DEFAULT_TOL


def test_no_solve_computes_the_condition_estimate(monkeypatch):
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    lattice = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    calls = count_calls(monkeypatch, "_arnoldi")
    for cloud, operator in ((lattice, "lattice-fft"), (jittered(lattice), "dense")):
        assert solve_las(cloud, MEDIUM, WAVE).path.operator == operator
    assert calls == []


def cube_system(h, a):
    """The dense matrix and the lattice operator of the unit cube with N = 1."""
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(h), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=a, kappa=0.5)
    A, _ = assemble_system(cloud, MEDIUM, WAVE)
    op = system_operator(cloud.centers, system_coefficients(cloud, MEDIUM), MEDIUM.k)
    assert isinstance(op, LatticeOperator)
    return A, op


# a on the unit cube with N = 1 -> M = 125 and 343 spheres
@pytest.mark.parametrize("a", [0.04, 0.02])
def test_condition_estimate_bounds_the_exact_condition_number(a):
    # cond_2(I + T) is 1.059-1.063 at h = 0.05 and 1.59-1.64 at h = 0.2; ten
    # Arnoldi steps read 0.98 and 0.93-0.94 of it, and never more. The dense
    # matrix and the lattice operator take the same steps, so their estimates
    # agree to rounding (1e-12).
    for h in (0.05, 0.2):
        A, op = cube_system(h, a)
        cond = np.linalg.cond(A)
        estimate = condition_estimate(A)
        assert 0.9 * cond <= estimate <= cond * (1 + 1e-12)
        assert abs(condition_estimate(op) - estimate) <= 1e-12


def test_arnoldi_estimate_stays_below_cond_past_saturation():
    # GMRES converges in 10 steps on this system; 40 steps still give a
    # Hessenberg matrix whose singular values lie within those of A. With one
    # modified Gram-Schmidt pass per step the ratio reads 1.2e16, not 1.04.
    A, _ = cube_system(0.05, 0.04)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    s = np.linalg.svd(las._arnoldi(lambda u: A @ u, v, 40), compute_uv=False)
    assert s[0] / s[-1] <= np.linalg.cond(A) * (1 + 1e-12)


def test_condition_estimate_makes_one_product_per_arnoldi_step(monkeypatch):
    _, op = cube_system(0.05, 0.04)
    calls = []
    convolve = LatticeOperator._convolve
    monkeypatch.setattr(LatticeOperator, "_convolve", lambda self, u: calls.append(1) or convolve(self, u))
    condition_estimate(op)
    assert len(calls) == las.CONDITION_STEPS == 10


# (h, GMRES iterations on the lattice, restart cycles) on the cube with
# N = 1 and a = 0.04, M = 125
@pytest.mark.parametrize("h, iterations, cycles", [(0.05, 10, 1), (1.0, 92, 5)])
def test_a_solve_makes_no_product_outside_the_krylov_steps(monkeypatch, h, iterations, cycles):
    # one product per GMRES iteration and one at the end of each restart
    # cycle, whose product at the returned x gives the reported residual
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(h), N=ConstantField(1.0))
    lattice = place_particles(UNIT_CUBE, fields, a=0.04, kappa=0.5)
    calls = []
    apply = LatticeOperator.apply
    monkeypatch.setattr(LatticeOperator, "apply", lambda op, v: calls.append(1) or apply(op, v))
    products = las._products

    def counted(system):  # the dense matrix has no method to wrap
        name, apply_a = products(system)
        if name == "dense":
            return name, lambda v: calls.append(1) or apply_a(v)
        return name, apply_a

    monkeypatch.setattr(las, "_products", counted)
    for cloud, operator in ((lattice, "lattice-fft"), (jittered(lattice), "dense")):
        system = system_operator(cloud.centers, system_coefficients(cloud, MEDIUM), MEDIUM.k)
        rhs = curl_E0(WAVE, MEDIUM.k, cloud.centers).reshape(-1)
        calls.clear()
        x, residual, path = linear_solve(system, rhs)
        assert path.operator == operator
        if operator == "lattice-fft":
            assert path.iterations == iterations
        assert len(calls) == path.iterations + cycles
        assert residual == las._relative_residual(products(system)[1](x), rhs)


def test_padded_grid_larger_than_dense_matrix_falls_back():
    # two far-apart points on a fine lattice: 1 node by 1 by 101
    points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.01]])
    assert LatticeOperator.from_points(points, np.ones(3), 1.0) is None


def test_large_cloud_auto_runs_matrix_free(monkeypatch):
    # a = 0.0025 gives M = 8000 spheres; the dense matrix would need 9.2 GB,
    # the FFT operator and the GMRES basis 22 MB
    monkeypatch.setattr(greens, "available_memory", lambda: 2 ** 30)
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.05), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=0.0025, kappa=0.5)
    assert cloud.M == 8000
    sol = solve_las(cloud, MEDIUM, WAVE)
    assert sol.path.operator == "lattice-fft" and sol.path.solver_used == "iterative"
    assert sol.residual_norm <= 1e-8


def test_memory_preflight_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(greens, "available_memory", lambda: 1000)
    points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    with pytest.raises(MemoryBudgetError) as err:
        interaction_matrix(points, np.ones(3), 1.0)
    assert isinstance(err.value, ScatterError)
    assert "1296 bytes" in str(err.value) and "off a lattice" in str(err.value)


def test_memory_preflight_counts_the_assembly_work_arrays(monkeypatch):
    points = np.random.default_rng(4).random((5, 3))
    matrix = 16 * 15 ** 2
    work = greens.ASSEMBLY_ARRAYS * 16 * 5 * 5
    monkeypatch.setattr(greens, "available_memory", lambda: matrix)
    with pytest.raises(MemoryBudgetError) as err:
        interaction_matrix(points, np.ones(5), 1.0)
    assert f"needs {matrix} bytes and its assembly {work} more" in str(err.value)
    monkeypatch.setattr(greens, "available_memory", lambda: matrix + work)
    assert interaction_matrix(points, np.ones(5), 1.0).shape == (15, 15)


def reference_matrix(points, coeffs, k):
    """The dense matrix from one (n, n, 3, 3) curl_blocks array."""
    n = len(points)
    d = points[:, None, :] - points[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=-1))
    np.fill_diagonal(r, 1.0)
    blocks = curl_blocks(d, r, k) * coeffs[None, :, None, None]
    blocks[np.arange(n), np.arange(n)] = 0.0
    return np.moveaxis(blocks, 1, 2).reshape(3 * n, 3 * n)


@pytest.mark.parametrize("k", [1.0, 0.9 + 0.1j])
def test_dense_matrix_equals_the_block_array_build_bitwise(monkeypatch, k):
    # 11 points in row chunks of 4, 4 and 3; coefficients of every sign
    # pattern, so a -0.0 in a diagonal block would show in the bytes
    monkeypatch.setattr(greens, "PAIR_BUDGET", 44)
    rng = np.random.default_rng(6)
    points = rng.random((11, 3))
    coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    A = interaction_matrix(points, coeffs, k)
    want = reference_matrix(points, coeffs, k)
    assert np.array_equal(A, want) and A.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1.0, 0.9 + 0.1j])
def test_dense_matrix_does_not_depend_on_its_row_chunks(monkeypatch, k):
    # 11 points in one chunk against chunks of 3, 3, 3 and 2 rows
    rng = np.random.default_rng(7)
    points = rng.random((11, 3))
    coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    built = []
    for budget in (10 ** 9, 33):
        monkeypatch.setattr(greens, "PAIR_BUDGET", budget)
        built.append(interaction_matrix(points, coeffs, k))
    assert built[0].tobytes() == built[1].tobytes()


def test_lattice_memory_preflight_names_the_bytes(monkeypatch):
    # 7^3 points pad to a 14^3 grid; GMRES keeps 21 vectors of 1029 unknowns
    fields = MaterialFields(domain=UNIT_CUBE, h=ConstantField(0.1), N=ConstantField(1.0))
    cloud = place_particles(UNIT_CUBE, fields, a=0.02, kappa=0.5)
    coeffs = system_coefficients(cloud, MEDIUM)
    grids = greens.OPERATOR_GRIDS * 16 * 14 ** 3
    basis = 16 * 21 * 3 * 343
    monkeypatch.setattr(greens, "available_memory", lambda: grids + basis - 1)
    with pytest.raises(MemoryBudgetError) as err:
        solve_las(cloud, MEDIUM, WAVE)
    assert f"needs {grids} bytes and the GMRES basis {basis} more" in str(err.value)
    assert f"only {grids + basis - 1} are available" in str(err.value)
    monkeypatch.setattr(greens, "available_memory", lambda: grids + basis)
    assert isinstance(system_operator(cloud.centers, coeffs, MEDIUM.k), LatticeOperator)


def anisotropic_lattice_with_voids():
    # 17 x 13 x 10 nodes pad to 33 x 25 x 20 = 16500 cells, so each spectrum
    # holds just over 256 KiB
    rng = np.random.default_rng(8)
    axes = [np.arange(c) * h for c, h in zip((17, 13, 10), (0.05, 0.07, 0.04))]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    points = points[rng.random(len(points)) < 0.7] + [0.1, -0.3, 0.2]
    coeffs = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
    return points, coeffs


def curl_blocks(d, r, k):
    """Curl-kernel blocks k^2 g I + H at separations d of length r, shape (..., 3, 3),
    formed as whole block arrays: the reference for both builders."""
    g, gp_r = greens._radial(r, k)
    e = d / r[..., np.newaxis]
    ee = e[..., :, np.newaxis] * e[..., np.newaxis, :]
    return greens._second(r, k, g)[..., None, None] * ee \
        + gp_r[..., None, None] * (np.eye(3) - ee) \
        + (k * k * g)[..., None, None] * np.eye(3)


def reference_spectra(points, k):
    """fftn of the curl_blocks components, built as one (*grid, 3, 3) array."""
    _, counts, spacing = zip(*(greens._lattice_axis(points[:, i]) for i in range(3)))
    shape = tuple(scipy.fft.next_fast_len(2 * c - 1) for c in counts)
    offsets = [np.where(np.arange(L) < c, np.arange(L), np.arange(L) - L) * h
               for L, c, h in zip(shape, counts, spacing)]
    d = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    r = np.sqrt(np.sum(d * d, axis=-1))
    r[0, 0, 0] = 1.0
    blocks = curl_blocks(d, r, k)
    blocks[0, 0, 0] = 0.0
    return scipy.fft.fftn(np.stack([blocks[..., a, b] for a, b in greens._PAIRS]),
                          axes=(1, 2, 3))


def reference_convolve(op, u):
    """K u with a fresh spectrum, product and sum array for every step."""
    grid = np.zeros((3, math.prod(op._grid)), dtype=complex)
    grid[:, op._sites] = u.T
    spec = scipy.fft.fftn(grid.reshape((3,) + op._grid), axes=(1, 2, 3))
    out = np.empty_like(spec)
    for a in range(3):
        k0, k1, k2 = (op._spectra[c] for c in greens._SYM[a])
        out[a] = k0 * spec[0] + k1 * spec[1] + k2 * spec[2]
    out = scipy.fft.ifftn(out, axes=(1, 2, 3), overwrite_x=True)
    return out.reshape(3, -1)[:, op._sites].T


@pytest.mark.parametrize("k", [1.0, 0.9 + 0.1j])
def test_operator_equals_the_block_array_build_bitwise(k):
    points, coeffs = anisotropic_lattice_with_voids()
    op = LatticeOperator.from_points(points, coeffs, k)
    assert op._grid == (33, 25, 20)
    assert np.array_equal(op._spectra, reference_spectra(points, k))
    rng = np.random.default_rng(2)
    v = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    u = coeffs[:, np.newaxis] * v.reshape(-1, 3)
    assert np.array_equal(op.apply(v), reference_convolve(op, u).reshape(-1))


def test_operator_build_memory_is_bounded_in_padded_grids():
    # 31^3 points pad to 63^3 cells, one complex grid of 3.9 MiB: the build
    # holds the six spectra plus about six grids of radial factors, unit
    # separations and work arrays (a (*grid, 3, 3) block array alone is nine)
    axis = np.arange(31) * 0.03
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    coeffs = np.full(len(points), 0.01 + 0.002j)
    tracemalloc.start()
    try:
        op = LatticeOperator.from_points(points, coeffs, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op._grid == (63, 63, 63)
    assert peak < 14 * 16 * 63 ** 3
