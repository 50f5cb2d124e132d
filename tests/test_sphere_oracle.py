import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from scatter_swarm import greens, sphere_oracle
from scatter_swarm.core import MediumParams, cross, dot, tangential
from scatter_swarm.errors import MemoryBudgetError, ParameterError
from scatter_swarm.incident import PlaneWave
from scatter_swarm.sphere_oracle import (SphereMesh, _mode_weights, _ring_blocks,
                                         _ring_bytes, _row_blocks,
                                         apply_A, asymptotic_moment, build_rhs,
                                         integrate_surface, normal_second_moment,
                                         operator_matrix, solve_sphere, sphere_moment,
                                         tangential_defect, verify_asymptotics)


@pytest.fixture
def medium():
    return MediumParams()


@pytest.fixture
def wave():
    return PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


class ConstantE:
    """Field object with a constant value and vanishing curl (test helper)."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=complex)

    def eval(self, k, x):
        x = np.atleast_2d(x)
        return np.broadcast_to(self.value, x.shape[:-1] + (3,)).copy()

    def curl(self, k, x):
        x = np.atleast_2d(x)
        return np.zeros(x.shape[:-1] + (3,), dtype=complex)


class StandingWave:
    """Superposition of counter-propagating waves: curl vanishes at z = 0."""

    def eval(self, k, x):
        x = np.atleast_2d(x)
        ph = np.exp(1j * k * x[..., 2]) + np.exp(-1j * k * x[..., 2])
        zero = np.zeros_like(ph)
        return np.stack([ph, zero, zero], axis=-1)

    def curl(self, k, x):
        x = np.atleast_2d(x)
        d = 1j * k * (np.exp(1j * k * x[..., 2]) - np.exp(-1j * k * x[..., 2]))
        zero = np.zeros_like(d)
        return np.stack([zero, d, zero], axis=-1)


def test_mesh_quadrature_exactness():
    for n_theta, a in ((4, 0.5), (8, 0.05), (16, 0.003)):
        mesh = SphereMesh.build(n_theta, a)
        assert mesh.n == 2 * n_theta ** 2
        assert mesh.n_theta == n_theta
        area = 4 * math.pi * a ** 2
        assert abs(mesh.weights.sum() - area) <= 1e-12 * area
        assert np.abs(np.linalg.norm(mesh.normals, axis=1) - 1).max() <= 1e-14
        target = (area / 3) * np.eye(3)
        assert np.abs(normal_second_moment(mesh) - target).max() <= 1e-8 * area / 3


def test_build_rhs_constant_field(medium):
    mesh = SphereMesh.build(8, 0.05)
    Ee = ConstantE([0.3, -0.7, 1.1])
    f = build_rhs(mesh, medium, 0.0, Ee)
    expected = 2.0 * cross(np.broadcast_to(Ee.value, (mesh.n, 3)), mesh.normals)
    assert np.abs(f - expected).max() <= 1e-14
    assert tangential_defect(mesh, f) <= 1e-12 * np.abs(f).max()


def test_build_rhs_linear_in_impedance(medium, wave):
    mesh = SphereMesh.build(8, 0.05)
    f0 = build_rhs(mesh, medium, 0.0, wave)
    f1 = build_rhs(mesh, medium, 0.5, wave)
    f2 = build_rhs(mesh, medium, 1.0, wave)
    assert np.abs((f2 - f0) - 2.0 * (f1 - f0)).max() <= 1e-13 * np.abs(f1).max()


def test_apply_A_zero_and_tangential(medium):
    mesh = SphereMesh.build(8, 0.04)
    zero = np.zeros((mesh.n, 3), dtype=complex)
    assert np.abs(apply_A(mesh, zero, medium, 0.3)).max() == 0.0
    rng = np.random.default_rng(2)
    sigma = tangential(rng.standard_normal((mesh.n, 3))
                       + 1j * rng.standard_normal((mesh.n, 3)), mesh.normals)
    out = apply_A(mesh, sigma, medium, 0.3)
    assert tangential_defect(mesh, out) <= 1e-10 * np.abs(out).max()


def test_apply_A_rejects_non_tangential(medium):
    mesh = SphereMesh.build(6, 0.04)
    with pytest.raises(ParameterError):
        apply_A(mesh, np.broadcast_to(1.0 + 0j, (mesh.n, 3)), medium, 0.1)


def test_operator_matrix_matches_apply(medium):
    mesh = SphereMesh.build(6, 0.05)
    zeta = 0.4
    A = operator_matrix(mesh, medium, zeta)
    rng = np.random.default_rng(3)
    sigma = tangential(rng.standard_normal((mesh.n, 3))
                       + 1j * rng.standard_normal((mesh.n, 3)), mesh.normals)
    out_matrix = (A @ sigma.reshape(-1)).reshape(-1, 3)
    out_apply = apply_A(mesh, sigma, medium, zeta)
    assert np.abs(out_matrix - out_apply).max() <= 1e-13 * np.abs(out_apply).max()


def test_operator_norm_stays_bounded(medium):
    zeta = 0.1 / 0.05 ** 0.5
    norms = []
    for n_theta in (8, 16):
        A = operator_matrix(SphereMesh.build(n_theta, 0.05), medium, zeta)
        norms.append(_power_norm(A))
    ratio = norms[1] / norms[0]
    assert 0.5 <= ratio <= 2.0


def _power_norm(A, iters=40, seed=1):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(iters):
        w = A.conj().T @ (A @ v)
        s = np.linalg.norm(w)
        v = w / s
    return math.sqrt(s)


def test_solve_residual_and_linearity(medium, wave):
    mesh = SphereMesh.build(10, 0.03)
    zeta = 0.1 / 0.03 ** 0.5
    sol = solve_sphere(mesh, medium, zeta, wave)
    assert sol.residual_norm <= 1e-10
    assert tangential_defect(mesh, sol.sigma) <= 1e-10 * np.abs(sol.sigma).max()
    big = PlaneWave(direction=[0, 0, 1], polarization=[2.5, 0, 0])
    sol2 = solve_sphere(mesh, medium, zeta, big)
    assert np.abs(sol2.sigma - 2.5 * sol.sigma).max() <= 1e-10 * np.abs(sol.sigma).max()
    assert np.abs(sol2.Q - 2.5 * sol.Q).max() <= 1e-12 * np.abs(sol.Q).max()


@pytest.mark.parametrize("n_theta", [2, 3, 4, 5, 6, 7, 10])
@pytest.mark.parametrize("h", [0.1, 0.3 + 0.7j])
def test_mode_solve_matches_dense_reference(medium, n_theta, h):
    # an oblique wave with an oblique polarization excites every azimuthal mode
    wave = PlaneWave(direction=[0.48, 0.36, 0.8], polarization=[0.6, -0.8, 0.0])
    a = 0.03
    zeta = h / a ** 0.5
    mesh = SphereMesh.build(n_theta, a)
    sol = solve_sphere(mesh, medium, zeta, wave)
    f = build_rhs(mesh, medium, zeta, wave)
    dense = np.eye(3 * mesh.n) - operator_matrix(mesh, medium, zeta)
    sigma_ref = scipy.linalg.solve(dense, f.reshape(-1)).reshape(-1, 3)
    q_ref = integrate_surface(mesh, sigma_ref)
    assert np.abs(sol.sigma - sigma_ref).max() <= 1e-12 * np.abs(sigma_ref).max()
    assert np.linalg.norm(sol.Q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)
    residual = np.linalg.norm(sol.sigma - apply_A(mesh, sol.sigma, medium, zeta) - f)
    assert residual <= 1e-12 * np.linalg.norm(f)
    assert sol.residual_norm <= 1e-12
    assert tangential_defect(mesh, sol.sigma) <= 1e-12 * np.abs(sol.sigma).max()


@pytest.mark.parametrize("n_theta", [4, 6, 10])
@pytest.mark.parametrize("h", [0.1, 0.3 + 0.7j])
def test_ring_blocks_match_projected_row_blocks(medium, n_theta, h):
    # the solve's 2x2 frame blocks of the first ring against the dense
    # reference's 3x3 blocks projected onto the tangent frames, to 1e-14 of
    # each pair's largest entry; the self pairs are exactly zero
    a = 0.03
    zeta = h / a ** 0.5
    mesh = SphereMesh.build(n_theta, a)
    frames = mesh.frames
    rows = np.arange(n_theta) * 2 * n_theta
    ring = _ring_blocks(mesh, medium, zeta, rows)
    ref = np.einsum("tba,tjbc,jcd->tadj", frames[rows],
                    _row_blocks(mesh, medium, zeta, rows), frames)
    assert ring.shape == ref.shape == (n_theta, 2, 2, mesh.n)
    self_pairs = (np.arange(n_theta), slice(None), slice(None), rows)
    assert np.all(ring[self_pairs] == 0.0)
    scale = np.abs(ref).max(axis=(1, 2))
    scale[self_pairs[0], rows] = 1.0
    assert np.all(np.abs(ring - ref).max(axis=(1, 2)) <= 1e-14 * scale)


def _reference_mesh(n_theta, radius):
    # the product rule as SphereMesh.build computed it before the radius-free
    # part was cached, every array freshly built
    ct, glw = np.polynomial.legendre.leggauss(n_theta)
    n_phi = 2 * n_theta
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    st = np.sqrt(1.0 - ct ** 2)
    normals = np.stack([
        np.outer(st, np.cos(phi)).reshape(-1),
        np.outer(st, np.sin(phi)).reshape(-1),
        np.outer(ct, np.ones(n_phi)).reshape(-1),
    ], axis=-1)
    weights = np.repeat(glw, n_phi) * (2.0 * math.pi / n_phi) * radius ** 2
    return radius * normals, weights, normals


@pytest.mark.parametrize("n_theta", [2, 5, 16])
@pytest.mark.parametrize("radius", [1.0, 0.03])
def test_mesh_matches_the_uncached_rule_bitwise(n_theta, radius):
    mesh = SphereMesh.build(n_theta, radius)
    for name, ref in zip(("nodes", "weights", "normals"), _reference_mesh(n_theta, radius)):
        arr = getattr(mesh, name)
        assert arr.dtype == ref.dtype and arr.shape == ref.shape
        assert arr.tobytes() == ref.tobytes(), name
        assert not arr.flags.writeable, name
    assert mesh.radius == radius


@pytest.mark.parametrize("make", [SphereMesh, SphereMesh.build])
@pytest.mark.parametrize("n_theta, radius", [(1, 0.1), (4.5, 0.1), (4.0, 0.1),
                                             (4, 0.0), (4, -1.0), (4, math.nan)])
def test_mesh_rejects_invalid_parameters(make, n_theta, radius):
    with pytest.raises(ParameterError):
        make(n_theta, radius)


def test_mesh_shares_its_radius_free_arrays(medium, wave):
    small, large = SphereMesh(6, 0.03), SphereMesh.build(6, 0.5)
    assert small.normals is large.normals and small.frames is large.frames
    for arr in (small.nodes, small.weights, small.normals, small.frames):
        assert not arr.flags.writeable
    assert small.nodes is small.nodes and small.weights is small.weights
    # the frames the solve reads are orthonormal tangent frames, and the
    # solved density lies in their span
    frames = small.frames
    assert frames is sphere_oracle._unit_rule(6)[2]
    assert np.abs(np.einsum("nia,nib->nab", frames, frames) - np.eye(2)).max() <= 1e-14
    assert np.abs(np.einsum("ni,nia->na", small.normals, frames)).max() <= 1e-14
    sigma = solve_sphere(small, medium, 1.0, wave).sigma
    local = np.einsum("nia,ni->na", frames, sigma)
    assert np.abs(np.einsum("nia,na->ni", frames, local) - sigma).max() \
        <= 1e-14 * np.abs(sigma).max()


def test_radius_sweep_computes_the_rule_once(medium, wave, monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    sphere_oracle._unit_rule.cache_clear()
    verify_asymptotics([0.05, 0.025, 0.0125], 0.5, 0.1, medium, wave, n_theta=7)
    assert calls == [7]


@pytest.mark.parametrize("n_theta", [2, 3, 4, 7, 10, 17])
@pytest.mark.parametrize("h", [0.1, 0.3 + 0.7j])
def test_ring_rows_are_mirror_images(medium, n_theta, h):
    # z -> -z maps node (i, p) onto (n_theta - 1 - i, p) and flips e_theta
    # alone: ring row n_theta - 1 - t equals row t with its node rows reversed
    # and its (e_theta, e_phi) cross blocks negated, exactly
    a = 0.03
    n_phi = 2 * n_theta
    mesh = SphereMesh.build(n_theta, a)
    mirror_j = np.arange(mesh.n).reshape(n_theta, n_phi)[::-1].reshape(-1)
    flip_z = np.array([1.0, 1.0, -1.0])
    assert np.array_equal(mesh.nodes[mirror_j] * flip_z, mesh.nodes)
    assert np.array_equal(mesh.normals[mirror_j] * flip_z, mesh.normals)
    assert np.array_equal(mesh.weights[mirror_j], mesh.weights)
    rows = np.arange(n_theta) * n_phi
    ring = _ring_blocks(mesh, medium, h / a ** 0.5, rows)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None]
    assert np.array_equal(ring[::-1][..., mirror_j] * signs, ring)


@pytest.mark.parametrize("n_theta", [2, 3, 7, 16])
@pytest.mark.parametrize("h", [0.1, 0.3 + 0.7j])
def test_ring_blocks_are_reflection_symmetric(medium, n_theta, h):
    # the reflection through the meridian of ring node p = 0 maps node (i, p)
    # onto (i, -p) and flips e_phi alone: K[-p] = R K[p] R with R = diag(1, -1),
    # to 1e-13 of each pair's largest entry; the solve builds p = 0..n_theta
    # only, as columns of the full ring
    a = 0.03
    n_phi = 2 * n_theta
    zeta = h / a ** 0.5
    mesh = SphereMesh.build(n_theta, a)
    rows = np.arange(n_theta) * n_phi
    ring = _ring_blocks(mesh, medium, zeta, rows)
    blocks = ring.reshape(n_theta, 2, 2, n_theta, n_phi)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None, None]
    reflected = blocks[..., -np.arange(n_phi) % n_phi] * signs
    scale = np.abs(blocks).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(reflected - blocks) <= 1e-13 * scale)
    cols = (np.arange(n_theta)[:, None] * n_phi + np.arange(n_theta + 1)).reshape(-1)
    part = _ring_blocks(mesh, medium, zeta, rows, cols)
    assert np.abs(part - ring[..., cols]).max() <= 1e-14 * np.abs(ring).max()


@pytest.mark.parametrize("n_theta", [16, 24, 32])
def test_solve_memory_matches_its_estimate(medium, wave, n_theta):
    # the preflight estimate bounds the traced peak without overstating it
    # twice, for every mode of the full solve and the moment's three, with
    # the product rule and the mode and moment weights built inside the
    # traced call; at n_theta 32 the full solve's mode sums outgrow the ring
    # build's other buffers
    mesh = SphereMesh.build(n_theta, 0.03)
    for solve, modes in ((solve_sphere, 2 * n_theta), (sphere_moment, 3)):
        for cached in (sphere_oracle._unit_rule, sphere_oracle._mode_weights,
                       sphere_oracle._moment_weights):
            cached.cache_clear()
        tracemalloc.start()
        try:
            solve(mesh, medium, 1.0, wave)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * _ring_bytes(n_theta, modes) < peak <= _ring_bytes(n_theta, modes), solve


def test_solve_checks_memory_before_allocating(medium, wave, monkeypatch):
    monkeypatch.setattr(greens, "available_memory", lambda: 1000)
    nbytes = _ring_bytes(6, 12)
    with pytest.raises(MemoryBudgetError, match=f"n_theta=6 needs about {nbytes} bytes, but "
                       "only 1000 are available"):
        solve_sphere(SphereMesh.build(6, 0.03), medium, 1.0, wave)
    with pytest.raises(MemoryBudgetError):
        sphere_moment(SphereMesh.build(6, 0.03), medium, 1.0, wave)
    with pytest.raises(MemoryBudgetError):
        verify_asymptotics([0.05, 0.025], 0.5, 0.1, medium, wave, n_theta=6)


@pytest.mark.parametrize("solve", [
    lambda medium, wave: solve_sphere(SphereMesh.build(6, 0.03), medium, 1.0, wave),
    lambda medium, wave: sphere_moment(SphereMesh.build(6, 0.03), medium, 1.0, wave),
    lambda medium, wave: verify_asymptotics([0.05, 0.025], 0.5, 0.1, medium, wave, n_theta=6),
], ids=["solve_sphere", "sphere_moment", "verify_asymptotics"])
def test_memory_refusal_builds_no_product_rule(medium, wave, monkeypatch, solve):
    # the preflight comes before the rule and the moment weights read from it
    monkeypatch.setattr(greens, "available_memory", lambda: 1000)
    sphere_oracle._unit_rule.cache_clear()
    sphere_oracle._moment_weights.cache_clear()
    with pytest.raises(MemoryBudgetError):
        solve(medium, wave)
    assert sphere_oracle._unit_rule.cache_info().currsize == 0


def test_radius_sweep_checks_memory_once(medium, wave, monkeypatch):
    # one preflight covers the pass over every radius, sized for all their mode systems
    calls = []
    available = greens.available_memory
    monkeypatch.setattr(greens, "available_memory", lambda: calls.append(1) or available())
    verify_asymptotics([0.05, 0.025, 0.0125], 0.5, 0.1, medium, wave, n_theta=8)
    assert len(calls) == 1
    monkeypatch.setattr(greens, "available_memory", lambda: _ring_bytes(8, 3, 3) - 1)
    sphere_moment(SphereMesh.build(8, 0.05), medium, 1.0, wave)
    with pytest.raises(MemoryBudgetError, match=f"needs about {_ring_bytes(8, 3, 3)} bytes"):
        verify_asymptotics([0.05, 0.025, 0.0125], 0.5, 0.1, medium, wave, n_theta=8)


@pytest.mark.parametrize("n_theta", [2, 5, 16])
def test_radius_sweep_equals_each_moment_bitwise(medium, n_theta):
    # the sweep's shared ring geometry gives every radius the same numbers as
    # its own one-radius pass
    wave = PlaneWave(direction=[0.48, 0.36, 0.8], polarization=[0.6, -0.8, 0.0])
    a_values, kappa, h = [0.05, 0.025, 0.0125], 0.5, 0.3 + 0.7j
    report = verify_asymptotics(a_values, kappa, h, medium, wave, n_theta=n_theta)
    for a, q in zip(a_values, report.Q_oracle):
        alone = sphere_moment(SphereMesh.build(n_theta, a), medium, h / a ** kappa, wave)
        assert q.tobytes() == alone.tobytes()


@pytest.mark.parametrize("n_theta", [5, 15, 16, 32])
def test_radius_sweep_matches_the_full_solves(medium, n_theta):
    # Q read from modes 0, 1 and -1 of the sweep against Q integrated from the
    # nodal density of every mode, one full solve per radius
    wave = PlaneWave(direction=[0.48, 0.36, 0.8], polarization=[0.6, -0.8, 0.0])
    a_values, kappa, h = [0.05, 0.025, 0.0125], 0.5, 0.1
    report = verify_asymptotics(a_values, kappa, h, medium, wave, n_theta=n_theta)
    for a, q in zip(a_values, report.Q_oracle):
        q_full = solve_sphere(SphereMesh.build(n_theta, a), medium, h / a ** kappa, wave).Q
        assert np.linalg.norm(q - q_full) <= 1e-13 * np.linalg.norm(q_full)


@pytest.mark.parametrize("zeta", [0.0, 0.3 + 0.7j])
def test_frame_load_matches_the_cartesian_load(medium, zeta):
    # the load built in the tangent frames against 2 [f_e, N] formed in
    # Cartesian components, with a field whose curl is nonzero
    wave = PlaneWave(direction=[0.48, 0.36, 0.8], polarization=[0.6, -0.8, 0.0])
    mesh = SphereMesh.build(7, 0.05)
    E = wave.eval(medium.k, mesh.nodes)
    C = wave.curl(medium.k, mesh.nodes)
    fe = tangential(E, mesh.normals) \
        - (zeta / (1j * medium.omega * medium.mu0)) * cross(C, mesh.normals)
    ref = 2.0 * cross(fe, mesh.normals)
    f = build_rhs(mesh, medium, zeta, wave)
    assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n_theta", [4, 8, 12])
def test_dense_reference_memory_bounds_its_peak(medium, wave, n_theta):
    # the stated byte counts of apply_A and operator_matrix bound their traced peaks
    mesh = SphereMesh.build(n_theta, 0.03)
    sigma = solve_sphere(mesh, medium, 1.0, wave).sigma
    n, rows = mesh.n, greens.chunk_rows(mesh.n, mesh.n)
    for build, nbytes in (
            (lambda: apply_A(mesh, sigma, medium, 1.0),
             sphere_oracle.APPLY_PAIR_BYTES * rows * n + 2 ** 18),
            (lambda: operator_matrix(mesh, medium, 1.0),
             16 * (3 * n) ** 2 + sphere_oracle.OPERATOR_PAIR_BYTES * rows * n + 2 ** 18)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= nbytes


def test_dense_references_do_not_depend_on_their_row_chunks(medium, wave, monkeypatch):
    # n_theta 6 has 72 nodes: one chunk of 72 rows against 14 chunks of 5 rows and one of 2
    mesh, zeta = SphereMesh.build(6, 0.03), 0.3 + 0.7j
    sigma = solve_sphere(mesh, medium, zeta, wave).sigma
    built = []
    for budget, rows in ((10 ** 9, 72), (5 * 72, 5)):
        monkeypatch.setattr(greens, "PAIR_BUDGET", budget)
        assert greens.chunk_rows(mesh.n, mesh.n) == rows
        built.append((operator_matrix(mesh, medium, zeta), apply_A(mesh, sigma, medium, zeta)))
    for whole, chunked in zip(*built):
        assert whole.tobytes() == chunked.tobytes()


def test_matrix_free_reference_holds_one_row_chunk(medium, wave):
    # at n_theta 24 apply_A forms its kernels 14 of 1152 rows at a time, so its
    # traced peak stays a few MiB; all 1152^2 node pairs at once took 243 MiB
    mesh = SphereMesh.build(24, 0.03)
    sigma = solve_sphere(mesh, medium, 1.0, wave).sigma
    tracemalloc.start()
    try:
        apply_A(mesh, sigma, medium, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_dense_references_check_memory_before_allocating(medium, wave, monkeypatch):
    mesh = SphereMesh.build(6, 0.03)
    sigma = solve_sphere(mesh, medium, 1.0, wave).sigma
    monkeypatch.setattr(greens, "available_memory", lambda: 1000)
    nbytes = sphere_oracle.APPLY_PAIR_BYTES * mesh.n ** 2 + 2 ** 18
    with pytest.raises(MemoryBudgetError, match=f"n_theta=6 needs about {nbytes} bytes, but "
                       "only 1000 are available"):
        apply_A(mesh, sigma, medium, 1.0)
    nbytes = 16 * (3 * mesh.n) ** 2 + sphere_oracle.OPERATOR_PAIR_BYTES * mesh.n ** 2 + 2 ** 18
    with pytest.raises(MemoryBudgetError, match=f"n_theta=6 needs about {nbytes} bytes, but "
                       "only 1000 are available"):
        operator_matrix(mesh, medium, 1.0)


@pytest.mark.parametrize("n_theta", [5, 8, 15, 16, 32])
@pytest.mark.parametrize("h", [0.1, 0.3 + 0.7j])
@pytest.mark.parametrize("a", [0.05, 0.0125])
def test_moment_from_its_modes_matches_the_full_solve(medium, n_theta, h, a):
    # Q from modes 0, 1 and -1 against Q integrated from the density of every
    # mode; the standing wave's Q is zero up to rounding, so every field is
    # held to the scale of the axial wave's moment
    zeta = h / a ** 0.5
    mesh = SphereMesh.build(n_theta, a)
    axial = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    oblique = PlaneWave(direction=[0.48, 0.36, 0.8], polarization=[0.6, -0.8, 0.0])
    scale = np.linalg.norm(solve_sphere(mesh, medium, zeta, axial).Q)
    for field in (axial, oblique, StandingWave()):
        q_full = solve_sphere(mesh, medium, zeta, field).Q
        q = sphere_moment(mesh, medium, zeta, field)
        assert np.linalg.norm(q - q_full) <= 1e-13 * max(np.linalg.norm(q_full), scale)


@pytest.mark.parametrize("n_theta", [5, 16, 64])
def test_mode_weights_match_the_fft_of_the_mirrored_lines(n_theta):
    # the weighted sum over the built offsets p = 0..n_theta against the FFT
    # of the lines extended to n_phi offsets by K[-p] = R K[p] R, for every
    # mode of n_phi; random blocks keep K[n_theta] off the diagonal nonzero,
    # so offsets 0 and n_theta, their own images, are counted once. Mode -k
    # is mode n_phi - k.
    n_phi, offsets = 2 * n_theta, n_theta + 1
    rng = np.random.default_rng(n_theta)
    shape = (3, 2, 2, n_theta, offsets)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    lines = np.empty((3, 2, 2, n_theta, n_phi), dtype=complex)
    lines[..., :offsets] = blocks
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])[..., None, None]
    lines[..., offsets:] = blocks[..., n_theta - 1:0:-1] * signs
    ref = np.fft.ifft(lines, norm="forward")
    hat = blocks @ _mode_weights(n_theta, tuple(range(n_phi)))
    assert np.abs(hat - ref).max() <= 1e-14 * np.abs(ref).max()
    negative = tuple(range(-n_phi + 1, 1))
    assert np.array_equal(_mode_weights(n_theta, negative),
                          _mode_weights(n_theta, tuple(k + n_phi for k in negative)))


@pytest.mark.parametrize("n_theta", [6, 7])
def test_moment_factorizes_only_the_modes_it_reads(medium, wave, monkeypatch, n_theta):
    # verify_asymptotics solves one batch of modes 0, 1 and -1 per radius,
    # each in its even and odd class; solve_sphere solves all n_phi modes
    shapes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or solve(a, b))
    size = 2 * ((n_theta + 1) // 2)
    verify_asymptotics([0.05, 0.025, 0.0125], 0.5, 0.1, medium, wave, n_theta=n_theta)
    assert shapes == [(2, 3, size, size)] * 3
    shapes.clear()
    solve_sphere(SphereMesh.build(n_theta, 0.05), medium, 1.0, wave)
    assert shapes == [(2, 2 * n_theta, size, size)]


def test_zero_impedance_moment_is_subleading(medium, wave):
    # without the impedance drive the moment drops to the a^3 volume scale
    ratios = []
    for a in (0.04, 0.02, 0.01):
        mesh = SphereMesh.build(12, a)
        q0 = solve_sphere(mesh, medium, 0.0, wave).Q
        qz = solve_sphere(mesh, medium, 0.1 / a ** 0.5, wave).Q
        ratios.append(np.linalg.norm(q0) / np.linalg.norm(qz))
    assert all(r < 0.05 for r in ratios)
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_moment_tracks_half_load_integral(medium, wave):
    # |Q - 0.5 * integral(f)| / |0.5 * integral(f)| shrinks as a -> 0; the
    # oracle quantifies the residual gap instead of assuming it vanishes
    gaps = []
    for a in (0.05, 0.025, 0.0125):
        mesh = SphereMesh.build(12, a)
        zeta = 0.1 / a ** 0.5
        sol = solve_sphere(mesh, medium, zeta, wave)
        half_load = 0.5 * integrate_surface(mesh, build_rhs(mesh, medium, zeta, wave))
        gaps.append(np.linalg.norm(sol.Q - half_load) / np.linalg.norm(half_load))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_asymptotic_moment_scaling(medium, wave):
    curl0 = wave.curl(medium.k, np.zeros(3))
    kappa = 0.5
    a = 0.02
    q1 = asymptotic_moment(medium, 0.1 / a ** kappa, a, curl0)
    q2 = asymptotic_moment(medium, 0.1 / (a / 2) ** kappa, a / 2, curl0)
    assert np.abs(q2 - 2 ** -(2 - kappa) * q1).max() <= 1e-15 * np.abs(q1).max()


def test_standing_wave_node_suppresses_moment(medium):
    a = 0.02
    mesh = SphereMesh.build(12, a)
    zeta = 0.1 / a ** 0.5
    q = solve_sphere(mesh, medium, zeta, StandingWave()).Q
    travel = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    leading = asymptotic_moment(medium, zeta, a, travel.curl(medium.k, np.zeros(3)))
    assert np.linalg.norm(q) <= 1e-10 * np.linalg.norm(leading)


def test_verify_asymptotics_decreasing(medium, wave):
    report = verify_asymptotics([0.05, 0.025, 0.0125], 0.5, 0.1, medium, wave, n_theta=12)
    assert report.monotone
    assert all(e2 < e1 for e1, e2 in zip(report.rel_error, report.rel_error[1:]))
    doc = report.to_json_dict()
    assert set(doc) == {"a", "rel_error", "Q_oracle", "Q_asym", "monotone"}
    assert len(doc["Q_oracle"]) == 3 and len(doc["Q_oracle"][0]) == 3


def test_verify_asymptotics_requires_decreasing_radii(medium, wave):
    with pytest.raises(ParameterError):
        verify_asymptotics([0.01, 0.02], 0.5, 0.1, medium, wave, n_theta=6)
    with pytest.raises(ParameterError):
        verify_asymptotics([0.02, 0.01], 1.5, 0.1, medium, wave, n_theta=6)


def test_verify_asymptotics_refuses_a_zero_moment_before_solving(medium, wave, monkeypatch):
    # h = 0 makes the closed-form moment zero, so its relative error is undefined
    def no_solve(*args, **kwargs):
        raise AssertionError("solved although the closed-form moment is zero")

    monkeypatch.setattr(sphere_oracle, "_moments", no_solve)
    for h in (0.0, 0j):
        with pytest.raises(ParameterError, match="closed-form moment is zero"):
            verify_asymptotics([0.05, 0.025], 0.5, h, medium, wave, n_theta=6)
