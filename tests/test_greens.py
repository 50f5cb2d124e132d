import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatter_swarm import fd, greens
from scatter_swarm.core import cross
from scatter_swarm.errors import SingularityError
from scatter_swarm.greens import (curl_dipole_kernel, dipole_curl_sum,
                                  dipole_field_sum, dipole_sums, eval_g, grad_g,
                                  hessian_g, interaction_matrix)

coord = st.floats(min_value=-3, max_value=3, allow_nan=False)
point = st.tuples(coord, coord, coord).map(np.array)
wavek = st.floats(min_value=0.1, max_value=3.0)


def separated(x, y, min_dist=0.3):
    return np.linalg.norm(x - y) >= min_dist


def test_eval_g_closed_forms():
    assert abs(eval_g(np.array([1.0, 0, 0]), np.zeros(3), 0.0) - 1 / (4 * math.pi)) < 1e-16
    val = eval_g(np.array([0, 0, math.pi]), np.zeros(3), 1.0)
    assert abs(val + 1 / (4 * math.pi ** 2)) < 1e-15


@settings(max_examples=100)
@given(point, point, wavek)
def test_eval_g_symmetry(x, y, k):
    if not separated(x, y):
        return
    assert eval_g(x, y, k) == eval_g(y, x, k)


def test_singularity_is_hard_error():
    x = np.array([0.3, -0.1, 0.2])
    for fn in (lambda: eval_g(x, x, 1.0), lambda: grad_g(x, x, 1.0),
               lambda: hessian_g(x, x, 1.0),
               lambda: curl_dipole_kernel(x, x, 1.0, np.ones(3))):
        with pytest.raises(SingularityError):
            fn()


def test_grad_g_static_closed_form():
    out = grad_g(np.array([1.0, 0, 0]), np.zeros(3), 0.0)
    assert np.abs(out - np.array([-1 / (4 * math.pi), 0, 0])).max() < 1e-16


@settings(max_examples=50)
@given(point, point, wavek)
def test_grad_g_swap_antisymmetry(x, y, k):
    if not separated(x, y):
        return
    assert np.abs(grad_g(x, y, k) + grad_g(y, x, k)).max() <= 1e-14


def test_grad_g_matches_finite_differences():
    rng = np.random.default_rng(11)
    cases = [(np.array([0.0, 0.0, 0.5]), np.zeros(3), 2.0)]
    for _ in range(5):
        y = rng.uniform(-1, 1, 3)
        x = y + rng.uniform(0.4, 1.5) * _unit(rng)
        cases.append((x, y, rng.uniform(0.3, 2.5)))
    for x, y, k in cases:
        ana = grad_g(x, y, k)
        num = fd.grad(lambda p: eval_g(p, y, k), x, step=1e-5)
        assert np.abs(ana - num).max() <= 1e-8 * np.abs(ana).max()


def test_hessian_trace_identity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        y = rng.uniform(-1, 1, 3)
        x = y + rng.uniform(0.2, 2.0) * _unit(rng)
        k = rng.uniform(0.2, 3.0) + 1j * rng.uniform(0, 0.5)
        H = hessian_g(x, y, k)
        g = eval_g(x, y, k)
        assert np.abs(H - H.T).max() <= 1e-14 * np.abs(H).max()
        assert abs(np.trace(H) + k * k * g) <= 1e-12 * abs(k * k * g)


def test_hessian_static_diagonal():
    # two derivatives of 1/(4 pi r) at offset (1,0,0): diag (2,-1,-1)/(4 pi)
    H = hessian_g(np.array([1.0, 0, 0]), np.zeros(3), 0.0)
    expected = np.diag([2.0, -1.0, -1.0]) / (4 * math.pi)
    assert np.abs(H - expected).max() < 1e-15


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(5):
        y = rng.uniform(-1, 1, 3)
        x = y + rng.uniform(0.5, 1.5) * _unit(rng)
        k = rng.uniform(0.3, 2.0)
        ana = hessian_g(x, y, k)
        num = fd.hessian(lambda p: eval_g(p, y, k), x, step=1e-4)
        assert np.abs(ana - num).max() <= 1e-6 * np.abs(ana).max()


def test_curl_kernel_zero_moment():
    out = curl_dipole_kernel(np.array([0.5, 0.2, 0.1]), np.zeros(3), 1.0, np.zeros(3))
    assert np.abs(out).max() == 0.0


def test_curl_kernel_matches_finite_difference_curl():
    rng = np.random.default_rng(17)
    for _ in range(5):
        y = rng.uniform(-1, 1, 3)
        x = y + rng.uniform(0.5, 1.5) * _unit(rng)
        k = rng.uniform(0.3, 2.0)
        V = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ana = curl_dipole_kernel(x, y, k, V)
        num = fd.curl(lambda p: cross(grad_g(p, y, k), V), x, step=1e-5)
        assert np.abs(ana - num).max() <= 1e-6 * np.abs(ana).max()


def test_curl_kernel_linearity():
    x, y = np.array([0.4, 0.1, -0.3]), np.array([-0.2, 0.5, 0.6])
    k = 1.7
    rng = np.random.default_rng(23)
    v1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a, b = 1.3 - 0.4j, -0.8 + 2.1j
    lhs = curl_dipole_kernel(x, y, k, a * v1 + b * v2)
    rhs = a * curl_dipole_kernel(x, y, k, v1) + b * curl_dipole_kernel(x, y, k, v2)
    assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()


def test_helmholtz_residual_sixth_order():
    rng = np.random.default_rng(29)
    for _ in range(20):
        y = rng.uniform(-1, 1, 3)
        x = y + rng.uniform(0.5, 1.5) * _unit(rng)
        k = rng.uniform(0.5, 2.0)
        g = eval_g(x, y, k)
        step = 0.02 * min(np.linalg.norm(x - y), 1.0 / k)
        res = fd.laplacian6(lambda p: eval_g(p, y, k), x, step) + k * k * g
        assert abs(res) <= 1e-6 * abs(k * k * g)


def test_radiation_decay():
    k = 1.3
    y = np.zeros(3)
    direction = _unit(np.random.default_rng(31))

    def radiation_quantity(r):
        x = r * direction
        dg_dr = np.dot(grad_g(x, y, k), direction)
        return abs(r * (dg_dr - 1j * k * eval_g(x, y, k)))

    ratio = radiation_quantity(1e3) / radiation_quantity(10.0)
    assert ratio <= 1e-2 * (1 + 1e-9)


def test_smoothness_in_k():
    x, y = np.array([0.8, -0.3, 0.4]), np.zeros(3)
    r = np.linalg.norm(x - y)
    delta = 1e-6
    for k in (0.5, 1.0, 2.5):
        g = eval_g(x, y, k)
        assert abs(eval_g(x, y, k + delta) - g) <= 2.0 * r * abs(g) * delta


def test_interaction_matrix_blocks():
    rng = np.random.default_rng(37)
    pts = rng.uniform(0, 1, (6, 3))
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    k = 1.4
    A = interaction_matrix(pts, coeffs, k)
    view = A.reshape(6, 3, 6, 3)
    eye = np.eye(3)
    for j in range(6):
        assert np.abs(view[j, :, j, :]).max() == 0.0
        for m in range(6):
            if m == j:
                continue
            g = eval_g(pts[j], pts[m], k)
            block = coeffs[m] * (k * k * g * eye + hessian_g(pts[j], pts[m], k))
            assert np.abs(view[j, :, m, :] - block).max() <= 1e-14 * np.abs(block).max()


def test_interaction_matrix_duplicate_points():
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0, 0], [0.0, 0.0, 0.0]])
    with pytest.raises(SingularityError):
        interaction_matrix(pts, np.ones(3, dtype=complex), 1.0)


def test_dipole_sums_match_pointwise_kernels():
    # lattice sources of radius a = 0.01, some with zero moment; probes at
    # random, at 2a and at 1e-3 from a source, and one on a source whose
    # coincident pair is dropped, each with its own exclusion list
    rng = np.random.default_rng(41)
    axis = np.arange(4) * 0.1
    sources = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    moments = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    moments[::7] = 0.0
    units = rng.standard_normal((10, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    near = rng.choice(64, 10, replace=False)
    probes = np.concatenate([rng.uniform(-0.1, 0.4, (12, 3)),
                             sources[near[:5]] + 0.02 * units[:5],
                             sources[near[5:]] + 1e-3 * units[5:],
                             sources[[21]]])
    excluded = [rng.choice(64, rng.integers(0, 4), replace=False) for _ in probes]
    excluded[-1] = np.array([3, 21])
    k = 0.9 + 0.1j
    ref_f = np.zeros((len(probes), 3), complex)
    ref_c = np.zeros((len(probes), 3), complex)
    for i, p in enumerate(probes):
        for j, s in enumerate(sources):
            if j not in excluded[i]:
                ref_f[i] += cross(grad_g(p, s, k), moments[j])
                ref_c[i] += curl_dipole_kernel(p, s, k, moments[j])
    field, curl = dipole_sums(probes, sources, moments, k, excluded)
    for out, ref in ((field, ref_f), (curl, ref_c)):
        err = np.linalg.norm(out - ref, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(ref, axis=1))
    keep = np.ones((len(probes), 64), dtype=bool)
    for i, cols in enumerate(excluded):
        keep[i, cols] = False
    assert np.array_equal(dipole_curl_sum(probes, sources, moments, k, keep=keep), curl)
    assert np.array_equal(dipole_field_sum(probes, sources, moments, k, keep=keep), field)


def reference_dipole_sums(probes, sources, moments, k, excluded):
    """dipole_sums with every probe in one chunk: the separations come from
    C-contiguous probe and source arrays, and every product is an explicit
    np.multiply in the kernel's operand order (g * X rounds differently from
    X * g), so equality with the chunked kernel shows that no probe's sums
    depend on its chunk."""
    n, m = len(probes), len(sources)
    starts, cols = greens._excluded_pairs(excluded, n)
    drop = (np.repeat(np.arange(n), np.diff(starts)), cols)
    xs, ys = np.ascontiguousarray(probes.T), np.ascontiguousarray(sources.T)
    d = np.subtract(xs[:, :, np.newaxis], ys[:, np.newaxis, :])
    r = np.sqrt(np.multiply(d[0], d[0]) + np.multiply(d[1], d[1]) + np.multiply(d[2], d[2]))
    r[drop] = 1.0
    inv = np.divide(1.0, r)
    ikinv = np.multiply(1j * k, inv)
    inv2 = np.multiply(inv, inv)
    g = np.multiply(np.multiply(np.exp(np.multiply(1j * k, r)), inv), 0.25 / math.pi)
    g[drop] = 0.0
    alpha = np.multiply(g, np.subtract(ikinv, inv2))
    gamma = np.add(alpha, np.multiply(k * k, g))
    beta = np.subtract(np.multiply(3.0, inv2), np.multiply(3.0, ikinv)) - k * k
    beta = np.multiply(np.multiply(g, beta), inv2)
    F = np.matmul(np.multiply(alpha, d), moments)
    field = np.stack([F[1, :, 2] - F[2, :, 1], F[2, :, 0] - F[0, :, 2],
                      F[0, :, 1] - F[1, :, 0]], axis=-1)
    dq = np.multiply(d[0], moments[:, 0]) + np.multiply(d[1], moments[:, 1])
    bdq = np.multiply(beta, dq + np.multiply(d[2], moments[:, 2]))
    curl = np.multiply(bdq, d).sum(axis=-1).T + np.matmul(gamma, moments)
    return field, curl


# (probes, sources, pair budget): chunks with a one-probe remainder, chunk
# arrays of exactly 256 KiB (512 sources) and just under (1000), and
# one-probe chunks of 20000 sources, each against all probes in one chunk
@pytest.mark.parametrize("n, m, budget", [(29, 64, 256), (70, 512, greens.PAIR_BUDGET),
                                          (40, 1000, greens.PAIR_BUDGET),
                                          (3, 20000, greens.PAIR_BUDGET)])
@pytest.mark.parametrize("k", [1.0, 0.9 + 0.1j])
def test_dipole_sums_equal_the_per_chunk_kernel(monkeypatch, n, m, budget, k):
    rng = np.random.default_rng(m)
    sources = rng.uniform(0.0, 1.0, (m, 3))
    moments = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    moments[::7] = 0.0
    probes = rng.uniform(-0.2, 1.2, (n, 3))
    probes[0] = sources[5]  # on a source, whose pair it drops
    excluded = [rng.choice(m, rng.integers(0, 9), replace=False) for _ in range(n)]
    excluded[0] = np.array([5, 1])
    monkeypatch.setattr(greens, "PAIR_BUDGET", budget)
    field, curl = dipole_sums(probes, sources, moments, k, excluded)
    ref_field, ref_curl = reference_dipole_sums(probes, sources, moments, k, excluded)
    assert np.array_equal(field, ref_field) and np.array_equal(curl, ref_curl)
    # the field alone skips the curl sums and is bitwise the same
    field_only, no_curl = dipole_sums(probes, sources, moments, k, excluded, curl=False)
    assert np.array_equal(field_only, ref_field) and no_curl is None


def test_dipole_sums_allow_masked_coincidence():
    sources = np.array([[0.0, 0.0, 0.0], [0.3, 0, 0]])
    moments = np.ones((2, 3), dtype=complex)
    probes = np.array([[0.0, 0.0, 0.0]])
    keep = np.array([[False, True]])
    out = dipole_field_sum(probes, sources, moments, 1.0, keep=keep)
    assert np.all(np.isfinite(out))
    with pytest.raises(SingularityError):
        dipole_field_sum(probes, sources, moments, 1.0)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)
