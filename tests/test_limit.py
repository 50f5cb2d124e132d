import math
import warnings

import numpy as np
import pytest

from scatter_swarm import las, limit
from scatter_swarm.cli import write_field_csv
from scatter_swarm.core import (ConstantField, MaterialFields, MediumParams,
                                SimDomain, VoxelGrid, moment_coupling)
from scatter_swarm.errors import (IllConditionedWarning, ParameterError, PoleError,
                                  StencilError)
from scatter_swarm.greens import LatticeOperator, dipole_sums, interaction_matrix
from scatter_swarm.incident import PlaneWave, curl_E0, eval_E0
from scatter_swarm.las import (assemble_system, condition_estimate, linear_solve, solve_las,
                               system_operator)
from scatter_swarm.limit import (CollocationGrid, EffectiveMedium,
                                 design_materials, effective_medium,
                                 eval_limit_field, pde_residual, solve_limit)
from scatter_swarm.particles import place_particles


@pytest.fixture
def medium():
    return MediumParams()


@pytest.fixture
def wave():
    return PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


@pytest.fixture
def unit_cube():
    return SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])


def constant_fields(domain, h=0.05, N=1.0):
    return MaterialFields(domain=domain, h=ConstantField(h), N=ConstantField(N))


class IndicatorBox:
    """Sampler equal to `value` inside an axis box, else 0 (test helper)."""

    def __init__(self, lo, hi, value=1.0):
        self.lo, self.hi, self.value = np.asarray(lo), np.asarray(hi), value

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        inside = np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)
        return np.where(inside, complex(self.value), 0.0).reshape(np.asarray(pts).shape[:-1])


def test_inert_medium_returns_incident_curl(medium, wave, unit_cube):
    fields = constant_fields(unit_cube, h=0.0)
    sol = solve_limit(unit_cube, fields, medium, wave, 4)
    assert np.array_equal(sol.W, curl_E0(wave, medium.k, sol.grid.centers))
    probe = np.array([1.4, 0.3, 0.3])
    fs = eval_limit_field(sol, medium, wave, probe)
    assert np.array_equal(fs.E, eval_E0(wave, medium.k, probe))


def test_single_weighted_cell_keeps_incident_curl(medium, wave, unit_cube):
    # only the cell around (0.25, 0.25, 0.25) of a 2x2x2 partition is active
    fields = MaterialFields(domain=unit_cube,
                            h=IndicatorBox([0, 0, 0], [0.5, 0.5, 0.5], 0.2),
                            N=ConstantField(1.0))
    sol = solve_limit(unit_cube, fields, medium, wave, 2)
    active = np.abs(sol.grid.weights) > 0
    assert int(active.sum()) == 1
    p = int(np.flatnonzero(active)[0])
    assert np.array_equal(sol.W[p], curl_E0(wave, medium.k, sol.grid.centers[p]))


def test_single_weighted_cell_keeps_incident_curl_on_the_gmres_path(medium, wave, unit_cube):
    # a lone active cell has T = 0, so GMRES is skipped and W = curl E0 exactly
    fields = MaterialFields(domain=unit_cube,
                            h=IndicatorBox([0, 0, 0], [0.5, 0.5, 0.5], 0.2),
                            N=ConstantField(1.0))
    sol = solve_limit(unit_cube, fields, medium, wave, 2)
    p = int(np.flatnonzero(np.abs(sol.grid.weights) > 0)[0])
    assert np.array_equal(sol.W[p], curl_E0(wave, medium.k, sol.grid.centers[p]))
    assert (sol.path.operator, sol.path.iterations) == ("lattice-fft", 0)


def test_collocation_weights(medium, unit_cube):
    fields = constant_fields(unit_cube, h=0.3 + 0.1j, N=2.0)
    grid = CollocationGrid.build(unit_cube, fields, 4)
    assert grid.P == 64
    assert abs(grid.cell_volume - (0.25) ** 3) < 1e-15
    assert np.abs(grid.weights - (0.3 + 0.1j) * 2.0 * 0.25 ** 3).max() < 1e-15
    with pytest.raises(ParameterError):
        CollocationGrid.build(unit_cube, fields, 1)
    with pytest.raises(ParameterError, match="need at least 2 nodes per axis"):
        effective_medium(fields, medium, 1)


def test_matrix_matches_particle_system_when_aligned(medium, wave, unit_cube):
    # lattice of spheres at a = 0.04 has spacing 0.2 = exactly a 5-cell
    # partition; one sphere per cell makes the two systems identical
    h = 0.07
    fields = constant_fields(unit_cube, h=h, N=1.0)
    cloud = place_particles(unit_cube, fields, a=0.04, kappa=0.5)
    assert cloud.M == 125
    A_cloud, rhs_cloud = assemble_system(cloud, medium, wave)
    grid = CollocationGrid.build(unit_cube, fields, 5)
    assert np.abs(grid.centers - cloud.centers).max() < 1e-12
    A_grid = interaction_matrix(grid.centers, moment_coupling(medium) * grid.weights, medium.k)
    idx = np.arange(3 * grid.P)
    A_grid[idx, idx] += 1.0
    assert np.abs(A_grid - A_cloud).max() <= 1e-15 * np.abs(A_cloud).max()


def dense_limit_solve(grid, medium, wave, active):
    """Reference W at the active cells: numpy's LU solve of I + T."""
    coeffs = moment_coupling(medium) * grid.weights[active]
    A = interaction_matrix(grid.centers[active], coeffs, medium.k) + np.eye(3 * active.sum())
    rhs = curl_E0(wave, medium.k, grid.centers[active]).reshape(-1)
    return np.linalg.solve(A, rhs).reshape(-1, 3)


@pytest.mark.parametrize("method, operator", [("direct", "dense"), ("iterative", "lattice-fft")])
def test_aligned_solves_agree_through_the_shared_builder(medium, wave, unit_cube, method,
                                                         operator):
    # the aligned setup above: las and limit build one system, so the curl
    # values P and W agree, both from dense direct solves and from GMRES on
    # the FFT operator that las.system_operator builds for either
    fields = constant_fields(unit_cube, h=0.07, N=1.0)
    cloud = place_particles(unit_cube, fields, a=0.04, kappa=0.5)
    if method == "direct":
        A, rhs = assemble_system(cloud, medium, wave)
        grid = CollocationGrid.build(unit_cube, fields, 5)
        P = np.linalg.solve(A, rhs).reshape(-1, 3)
        W = dense_limit_solve(grid, medium, wave, np.ones(grid.P, dtype=bool))
    else:
        las = solve_las(cloud, medium, wave, tol=1e-12)
        lim = solve_limit(unit_cube, fields, medium, wave, 5, tol=1e-12)
        assert (las.path.operator, lim.path.operator) == (operator, operator)
        P, W = las.P, lim.W
    assert np.abs(P - W).max() <= 1e-14 * np.abs(W).max()


def test_fft_solve_matches_dense_on_anisotropic_grid_with_inactive_cells(medium, wave):
    box = SimDomain(lo=[-0.2, 0.0, 0.1], hi=[0.8, 0.6, 0.9])
    fields = MaterialFields(domain=box, h=IndicatorBox([-0.2, 0.0, 0.1], [0.5, 0.45, 0.9], 0.02),
                            N=ConstantField(2.0))
    fft = solve_limit(box, fields, medium, wave, (7, 5, 4), tol=1e-12)
    active = np.abs(fft.grid.weights) > 0
    assert 0 < active.sum() < fft.grid.P
    assert fft.path.operator == "lattice-fft"
    # the active rows; test_passive_rows_are_the_field_of_the_active_moments checks the others
    direct = dense_limit_solve(fft.grid, medium, wave, active)
    assert np.abs(fft.W[active] - direct).max() <= 1e-10 * np.abs(direct).max()


def ball_h(pts):
    # h = 0.05 inside the ball of radius 0.5 about the origin, else 0
    return np.where(np.linalg.norm(pts, axis=-1) <= 0.5, 0.05 + 0j, 0.0)


@pytest.mark.parametrize("box, h, N, cells", [
    (SimDomain(lo=[-0.2, 0.0, 0.1], hi=[0.8, 0.6, 0.9]),
     IndicatorBox([-0.2, 0.0, 0.1], [0.5, 0.45, 0.9], 0.02), 2.0, (7, 5, 4)),
    (SimDomain(lo=[-0.5] * 3, hi=[0.5] * 3), ball_h, 1.0, 12),
], ids=["anisotropic-box", "ball"])
def test_passive_rows_are_the_field_of_the_active_moments(medium, wave, box, h, N, cells):
    # the active rows are the active-only solve, bitwise, and each passive row
    # is curl E0 plus the curl dipole sum of the active moments -c w W
    sol = solve_limit(box, MaterialFields(domain=box, h=h, N=ConstantField(N)), medium, wave,
                      cells)
    grid = sol.grid
    active = np.abs(grid.weights) > 0
    assert 0 < active.sum() < grid.P
    coeffs = moment_coupling(medium) * grid.weights[active]
    rhs = curl_E0(wave, medium.k, grid.centers[active])
    x, _, _ = linear_solve(system_operator(grid.centers[active], coeffs, medium.k), rhs)
    assert np.array_equal(sol.W[active], x.reshape(-1, 3))
    moments = -coeffs[:, np.newaxis] * sol.W[active]
    passive = grid.centers[~active]
    ref = curl_E0(wave, medium.k, passive) + dipole_sums(passive, grid.centers[active], moments,
                                                         medium.k)[1]
    assert np.abs(sol.W[~active] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_passive_rows_take_one_whole_grid_product(medium, wave, unit_cube, monkeypatch):
    # the one operator product outside the solve is over all P cells, and an
    # all-active grid, such as the benchmark's, makes none
    products = []  # (rows of the operator, whether GMRES asked for it)
    solving = [False]
    apply, solve = LatticeOperator.apply, limit.linear_solve

    def counted_apply(self, v):
        products.append((self.shape[0], solving[0]))
        return apply(self, v)

    def flagged_solve(*args, **kwargs):
        solving[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            solving[0] = False

    monkeypatch.setattr(LatticeOperator, "apply", counted_apply)
    monkeypatch.setattr(limit, "linear_solve", flagged_solve)
    for h, whole_grid_products in ((IndicatorBox([0, 0, 0], [0.5, 1, 1], 0.2), 1),
                                   (ConstantField(0.2), 0)):
        products.clear()
        fields = MaterialFields(domain=unit_cube, h=h, N=ConstantField(1.0))
        sol = solve_limit(unit_cube, fields, medium, wave, 2)
        assert sol.grid.P == 8 and sol.path.operator == "lattice-fft"
        outside = [rows for rows, in_solve in products if not in_solve]
        assert outside == [3 * sol.grid.P] * whole_grid_products


def test_iterative_solve_without_neumann_bound(medium, wave):
    # well posed, with ||T|| >= 1, so no Neumann series bounds cond_2 here;
    # the Arnoldi estimate is finite, stays below cond_2 and raises no warning
    box = SimDomain(lo=[0, 0, 0], hi=[0.5, 0.5, 0.5])
    fields = constant_fields(box, h=0.05, N=8.0)
    grid = CollocationGrid.build(box, fields, 4)
    coeffs = moment_coupling(medium) * grid.weights
    A = interaction_matrix(grid.centers, coeffs, medium.k) + np.eye(3 * grid.P)
    cond = np.linalg.cond(A)
    assert cond < 3.0
    rhs = curl_E0(wave, medium.k, grid.centers).reshape(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        solve_limit(box, fields, medium, wave, 4)
        for system in (A, system_operator(grid.centers, coeffs, medium.k)):
            linear_solve(system, rhs)
            estimate = condition_estimate(system)
            assert np.isfinite(estimate) and estimate <= cond * (1 + 1e-12)


def test_limit_solve_computes_no_condition_estimate(medium, wave, unit_cube, monkeypatch):
    calls = []
    arnoldi = las._arnoldi
    monkeypatch.setattr(las, "_arnoldi", lambda *args: calls.append(args) or arnoldi(*args))
    sol = solve_limit(unit_cube, constant_fields(unit_cube), medium, wave, 4)
    assert sol.path.operator == "lattice-fft" and sol.path.iterations > 0
    assert calls == []


def test_refinement_self_convergence(medium, wave, unit_cube):
    fields = constant_fields(unit_cube)
    probes = np.array([[1.3, 0.4, 0.7], [0.5, -0.4, 0.5], [0.2, 0.3, 1.6]])
    E = {}
    for cells in (4, 8, 12):
        sol = solve_limit(unit_cube, fields, medium, wave, cells)
        E[cells] = eval_limit_field(sol, medium, wave, probes).E
    d1 = np.linalg.norm(E[8] - E[4])
    d2 = np.linalg.norm(E[12] - E[8])
    assert d2 < d1


def test_eval_inside_medium_warns_and_returns(medium, wave, unit_cube):
    fields = constant_fields(unit_cube)
    sol = solve_limit(unit_cube, fields, medium, wave, 4)
    fs = eval_limit_field(sol, medium, wave, np.array([0.5, 0.5, 0.5]))
    assert fs.warnings
    assert np.all(np.isfinite(fs.E)) and np.all(np.isfinite(fs.H))


def per_point_cell(grid, x):
    # the scalar rule: whole cells from lo along each axis, -1 off the partition
    t = np.floor((np.asarray(x, dtype=float) - grid.lo) / grid.spacing).astype(int)
    if np.any(t < 0) or np.any(t >= np.asarray(grid.dims)):
        return -1
    return int(np.ravel_multi_index(tuple(t), grid.dims))


def test_cell_of_matches_the_per_point_rule(unit_cube):
    grid = CollocationGrid.build(unit_cube, constant_fields(unit_cube), (4, 3, 5))
    interior = np.random.default_rng(6).uniform(0.0, 1.0, (40, 3))
    faces = np.array([[0.25, 0.5, 0.4], [0.5, 0.1, 0.2], [0.75, 0.9, 0.6], [0.0, 0.0, 0.0]])
    below = np.array([[-1e-12, 0.5, 0.5], [0.5, -0.3, 0.5], [0.5, 0.5, -2.0]])
    at_hi = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0], [1.0, 1.0, 1.0]])
    above = np.array([[1.5, 0.5, 0.5], [0.5, 1.0 + 1e-12, 0.5], [0.5, 0.5, 7.0]])
    points = np.concatenate([interior, faces, below, at_hi, above])
    expected = [per_point_cell(grid, p) for p in points]
    cells = grid.cell_of(points)
    assert cells.shape == (len(points),) and cells.tolist() == expected
    # a face point goes to the cell above it, unless its offset rounds below
    # the face: 0.6 / 0.2 is 2.9999999999999996, so (0.75, 0.9, 0.6) is in z-cell 2
    assert expected[40:44] == [15 + 5 + 2, 30 + 0 + 1, 45 + 10 + 2, 0]
    assert expected[44:] == [-1] * 10
    for p, cell in zip(points, expected):
        one = grid.cell_of(p)
        assert type(one) is int and one == cell


def test_probe_in_weighted_cell_drops_only_its_own_cell(medium, wave, unit_cube):
    # cells with x < 0.5 carry weight on a 4^3 partition; the probes sit in a
    # weighted cell, in a passive cell, outside the partition and exactly at a
    # passive cell's midpoint, on its zero-moment source
    fields = MaterialFields(domain=unit_cube, h=IndicatorBox([0, 0, 0], [0.5, 1, 1], 0.2),
                            N=ConstantField(1.0))
    sol = solve_limit(unit_cube, fields, medium, wave, 4)
    grid = sol.grid
    active = np.abs(grid.weights) > 0
    probes = np.array([[0.3, 0.6, 0.1], [0.8, 0.6, 0.1], [1.3, 0.6, 0.1], grid.centers[-1]])
    cell = grid.cell_of(probes[0])
    assert active[cell] and not active[grid.cell_of(probes[1])] and grid.cell_of(probes[2]) == -1
    assert not active[grid.cell_of(probes[3])]
    fs = eval_limit_field(sol, medium, wave, probes)
    assert fs.warnings == (f"probe 0 lies inside weighted cell {cell}; self-cell dropped",)
    slot = int(np.count_nonzero(active[:cell]))
    moments = -moment_coupling(medium) * grid.weights[active, np.newaxis] * sol.W[active]
    ref = las.probe_field(medium, wave, probes, grid.centers[active], moments,
                          [[slot], [], [], []])
    assert np.array_equal(fs.E, ref.E) and np.array_equal(fs.H, ref.H)


def test_e_only_limit_evaluation_is_bitwise_the_same(medium, wave, unit_cube):
    # inactive cells, and probes inside a weighted cell, in a passive one and outside
    fields = MaterialFields(domain=unit_cube, h=IndicatorBox([0, 0, 0], [0.5, 1, 1], 0.2),
                            N=ConstantField(1.0))
    sol = solve_limit(unit_cube, fields, medium, wave, 4)
    probes = np.array([[0.3, 0.6, 0.1], [0.8, 0.6, 0.1], [1.3, 0.6, 0.1], [0.1, 0.2, 0.9]])
    for x in (probes, probes[0]):
        full = eval_limit_field(sol, medium, wave, x)
        e_only = eval_limit_field(sol, medium, wave, x, with_h=False)
        assert e_only.E.shape == x.shape and np.array_equal(e_only.E, full.E)
        assert e_only.H is None and full.H.shape == x.shape
        assert e_only.warnings == full.warnings != ()


def test_limit_field_linearity(medium, unit_cube):
    fields = constant_fields(unit_cube)
    w1 = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    w2 = PlaneWave(direction=[0, 0, 1], polarization=[3, 0, 0])
    probe = np.array([1.2, 0.5, 0.5])
    e1 = eval_limit_field(solve_limit(unit_cube, fields, medium, w1, 4), medium, w1, probe).E
    e2 = eval_limit_field(solve_limit(unit_cube, fields, medium, w2, 4), medium, w2, probe).E
    assert np.abs(e2 - 3 * e1).max() <= 1e-12 * np.abs(e1).max()


# ---------------------------------------------------------------------------
# effective medium and design
# ---------------------------------------------------------------------------

def test_effective_medium_inert(medium, unit_cube):
    em = effective_medium(constant_fields(unit_cube, h=0.0), medium, 4)
    assert np.array_equal(em.mu, np.full((4, 4, 4), medium.mu0, dtype=complex))
    assert np.array_equal(em.Psi, np.ones((4, 4, 4), dtype=complex))


def test_effective_medium_halving_permeability(medium, unit_cube):
    # c h N = (8 pi i / 3)(-3i/(8 pi)) = 1, so Psi = 2 (lossless boundary case)
    h = -3j / (8 * math.pi)
    em = effective_medium(constant_fields(unit_cube, h=h, N=1.0), medium, 3)
    assert np.abs(em.Psi - 2.0).max() < 1e-14
    assert np.abs(em.mu - 0.5).max() < 1e-14
    assert np.abs(em.K2 - medium.k ** 2 / 2).max() < 1e-14


def test_effective_medium_lossy_case(medium, unit_cube):
    em = effective_medium(constant_fields(unit_cube, h=3 / (8 * math.pi), N=1.0), medium, 3)
    assert np.abs(em.Psi - (1 + 1j)).max() < 1e-14
    assert np.abs(em.mu - (1 - 1j) / 2).max() < 1e-14


def test_effective_medium_algebra(medium, unit_cube):
    em = effective_medium(constant_fields(unit_cube, h=0.2 + 0.3j, N=1.7), medium, 5)
    k2 = medium.k ** 2
    assert np.abs(em.mu * em.Psi - medium.mu0).max() <= 1e-14 * medium.mu0
    assert np.abs(em.K2 * em.Psi - k2).max() <= 1e-14 * abs(k2)


@pytest.mark.parametrize("lo, hi, nodes", [
    ([0.3] * 3, [0.9] * 3, 6),
    ([0.3] * 3, [0.9] * 3, 7),
    ([0.1, 0.1, 0.1], [0.7, 0.3, 0.9], 4),
])
def test_effective_medium_carries_the_medium_on_the_top_faces(medium, lo, hi, nodes):
    # on these boxes lo + (hi - lo) / (n - 1) * (n - 1) rounds one ulp past hi
    domain = SimDomain(lo=lo, hi=hi)
    em = effective_medium(constant_fields(domain, h=0.05, N=8.0), medium, nodes)
    assert np.array_equal(em.Psi, np.full((nodes,) * 3, 1 + moment_coupling(medium) * 0.05 * 8.0))


@pytest.mark.parametrize("nodes", range(3, 20))
def test_effective_medium_nodes_are_the_sampled_ones(medium, nodes):
    # on [0.3, 0.9]^3 lo + spacing * (n - 1) rounds to 0.9000000000000001 at
    # every node count here; the nodes written beside Psi are the ones it was
    # sampled at, ending on hi, so they lie in the box and give Psi back
    domain = SimDomain(lo=[0.3] * 3, hi=[0.9] * 3)
    fields = constant_fields(domain, h=0.05, N=8.0)
    em = effective_medium(fields, medium, nodes)
    pts = em.node_points().reshape(-1, 3)
    assert np.all(domain.contains(pts))
    assert pts.max() == 0.9
    h, N = fields.sample(pts)
    resampled = 1.0 + moment_coupling(medium) * np.asarray(h) * np.asarray(N)
    assert np.array_equal(resampled.reshape(em.dims), em.Psi)


def test_effective_medium_top_nodes_sit_on_the_box(medium, unit_cube):
    # at 50 nodes on the unit cube 49 * (1 / 49) rounds below 1; the top nodes
    # are the box's own faces all the same
    pts = effective_medium(constant_fields(unit_cube, h=0.05, N=8.0), medium, 50).node_points()
    assert np.array_equal(pts[-1, -1, -1], [1.0, 1.0, 1.0])
    assert pts.max() == 1.0 and pts.min() == 0.0


def test_effective_medium_pole(medium, unit_cube):
    # c h N = -1 makes Psi vanish
    h = 3j / (8 * math.pi)
    with pytest.raises(PoleError) as err:
        effective_medium(constant_fields(unit_cube, h=h, N=1.0), medium, 3)
    assert err.value.voxel is not None


def test_design_identity_target(medium, unit_cube):
    target = VoxelGrid(unit_cube.lo, unit_cube.extent / 3, np.full((4, 4, 4), medium.mu0, complex))
    h_grid, report = design_materials(target, medium, 1.0)
    assert np.array_equal(h_grid.values, np.zeros((4, 4, 4), complex))
    assert report.all_feasible and report.lossless == 0


def test_design_half_mu_target(medium, unit_cube):
    target = VoxelGrid(unit_cube.lo, unit_cube.extent / 2, np.full((3, 3, 3), 0.5, complex))
    h_grid, report = design_materials(target, medium, 1.0)
    assert np.abs(h_grid.values - (-3j / (8 * math.pi))).max() < 1e-15
    assert report.all_feasible
    assert report.lossless == 27  # Re h = 0 reported distinctly


def test_design_round_trip(medium, unit_cube):
    rng = np.random.default_rng(99)
    psi = 1.0 + 0.5 * rng.random((5, 5, 5)) + 1j * 0.6 * rng.random((5, 5, 5))
    target = VoxelGrid(unit_cube.lo, unit_cube.extent / 4, medium.mu0 / psi)
    h_grid, report = design_materials(target, medium, 2.0)
    assert report.all_feasible
    fields = MaterialFields(domain=unit_cube, h=h_grid, N=ConstantField(2.0))
    em = effective_medium(fields, medium, 5)
    assert np.abs(em.mu - target.values).max() <= 1e-12 * np.abs(target.values).max()


def test_design_errors_and_flags(medium, unit_cube):
    vals = np.full((3, 3, 3), 0.5, complex)
    vals[1, 1, 1] = 0.0
    with pytest.raises(PoleError, match=r"zero at voxel \(1, 1, 1\)") as err:
        design_materials(VoxelGrid(unit_cube.lo, unit_cube.extent / 2, vals), medium, 1.0)
    assert err.value.voxel == (1, 1, 1)
    # N = 0 where a response is needed
    target = VoxelGrid(unit_cube.lo, unit_cube.extent / 2, np.full((3, 3, 3), 0.5, complex))
    n_zero = VoxelGrid(unit_cube.lo, unit_cube.extent / 2, np.zeros((3, 3, 3)))
    _, report = design_materials(target, medium, n_zero)
    assert len(report.zero_density_conflicts) == 27
    assert not report.all_feasible
    # infeasible target: Im Psi < 0 forces Re h < 0
    bad = VoxelGrid(unit_cube.lo, unit_cube.extent / 2,
                    np.full((3, 3, 3), medium.mu0 / (1 - 0.4j), complex))
    _, report = design_materials(bad, medium, 1.0)
    assert len(report.infeasible_voxels) == 27


def test_design_refuses_a_complex_density_grid(medium, unit_cube):
    target = VoxelGrid(unit_cube.lo, unit_cube.extent / 2, np.full((3, 3, 3), 0.5, complex))
    n_grid = VoxelGrid(unit_cube.lo, unit_cube.extent / 2, np.full((3, 3, 3), 1 + 5j))
    with pytest.raises(ParameterError, match="density N must be real-valued"):
        design_materials(target, medium, n_grid)


# ---------------------------------------------------------------------------
# PDE residual
# ---------------------------------------------------------------------------

def test_pde_residual_plane_wave(medium, wave, unit_cube):
    em = effective_medium(constant_fields(unit_cube, h=0.0), medium, 9)
    pts = em.node_points()
    E = eval_E0(wave, medium.k, pts.reshape(-1, 3)).reshape(em.dims + (3,))
    res = pde_residual(E, em, medium)
    spacing = float(em.spacing[0])
    bound = spacing ** 2 * abs(medium.k) ** 2 * abs(medium.k ** 2) * 1.0
    assert res.max() <= bound


def test_pde_residual_constant_psi_bracket_is_inert(medium, wave, unit_cube):
    em = effective_medium(constant_fields(unit_cube, h=0.1), medium, 7)
    pts = em.node_points()
    rng = np.random.default_rng(1)
    E = (rng.standard_normal(em.dims + (3,)) + 1j * rng.standard_normal(em.dims + (3,)))
    res1 = pde_residual(E, em, medium)
    # doubling a constant Psi leaves grad Psi / Psi = 0 untouched: identical
    em2 = EffectiveMedium(origin=em.origin, spacing=em.spacing,
                          Psi=2.0 * em.Psi, mu=em.mu, K2=em.K2, hi=em.hi)
    res2 = pde_residual(E, em2, medium)
    assert np.array_equal(res1, res2)


def test_pde_residual_grid_guard(medium, unit_cube):
    em = effective_medium(constant_fields(unit_cube, h=0.1), medium, 4)
    E = np.zeros(em.dims + (3,), complex)
    with pytest.raises(StencilError):
        pde_residual(E, em, medium)


def test_effective_medium_csv(medium, unit_cube, tmp_path):
    em = effective_medium(constant_fields(unit_cube, h=0.1, N=2.0), medium, 3)
    path = tmp_path / "em.csv"
    write_field_csv(path, em.node_points(), ("Psi", "mu", "K2"),
                    np.stack([em.Psi, em.mu, em.K2], axis=-1).reshape(-1, 3))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,Re(Psi),Im(Psi),Re(mu),Im(mu),Re(K2),Im(K2)"
    assert len(lines) == 1 + 27
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 9
