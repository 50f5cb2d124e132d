"""Independent single-sphere truth source.

Solves the surface integral equation sigma = A sigma + f for the tangential
density on one impedance sphere by Nystrom discretization (product
Gauss-Legendre x uniform azimuthal rule, self-node excluded), integrates the
induced moment Q, and checks it against the small-radius closed form

    Q_asym = -(8 pi i / (3 omega mu0)) * zeta * a^2 * (curl E_e)(center),

which is the constant the whole many-sphere solver rests on. The weakly
singular 1/|s-t| kernels are integrable on the sphere, so plain node
exclusion converges (slowly); higher-order singularity subtraction is an
upgrade path, not needed for monotone-error acceptance.

The mesh is invariant under rotation by 2 pi / n_phi about the z axis, so
solve_sphere uses the bodies-of-revolution technique (Mautz & Harrington,
1969): it builds only the kernel rows of one azimuthal ring (1/n_phi of the
matrix), directly as 2x2 blocks in the local tangent frames (_ring_blocks),
and solves n_phi independent (2 n_theta)^2 mode systems after an FFT along
the azimuthal offset. The mesh is also exactly symmetric under the mirror
z -> -z (leggauss returns symmetrized nodes and weights), which maps ring
row t onto row n_theta - 1 - t and flips e_theta alone, so only the upper
half of the ring is built and the lower half of each mode system is a signed
copy. That costs O(n_theta^4) time and O(n_theta^3) memory against
O(n_theta^6) and O(n_theta^4) for the dense (3n)^2 system, which
operator_matrix still builds from the 3x3 Cartesian blocks of _row_blocks as
a test reference; apply_A is the independent matrix-free reference. The
radius-free part of the product rule (normals, unit weights, tangent frames)
is computed once per n_theta and shared by every radius.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import greens
from .core import MediumParams, as_cvec, cross, dot, moment_coupling, tangential
from .errors import MemoryBudgetError, ParameterError, SolveSingularError

_DIAG3 = np.arange(3)
OPERATOR_ROWS = 128  # node rows per kernel-row chunk of operator_matrix
RING_PAIRS = 2 ** 14  # (ring row, node) pairs per chunk of the ring build


@dataclass(frozen=True)
class SphereMesh:
    """Quadrature nodes, weights and outward normals on a sphere at the origin."""

    nodes: np.ndarray     # (n, 3)
    weights: np.ndarray   # (n,), sum = 4 pi a^2
    normals: np.ndarray   # (n, 3) unit outward
    radius: float

    @classmethod
    def build(cls, n_theta: int, radius: float):
        """Product rule: n_theta Gauss-Legendre nodes in cos(theta) times
        2 n_theta uniform azimuthal nodes (2 n_theta^2 nodes total)."""
        if n_theta < 2:
            raise ParameterError(f"need n_theta >= 2, got {n_theta}")
        if not (radius > 0):
            raise ParameterError(f"radius must be positive, got {radius}")
        normals, unit_weights, _ = _unit_rule(n_theta)
        weights = unit_weights * radius ** 2
        weights.setflags(write=False)
        nodes = radius * normals
        nodes.setflags(write=False)
        return cls(nodes=nodes, weights=weights, normals=normals, radius=float(radius))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_theta(self) -> int:
        """Polar node count of the product rule, from n = 2 n_theta^2
        (rounded down when n is not of that form)."""
        return math.isqrt(self.n // 2)


def normal_second_moment(mesh: SphereMesh) -> np.ndarray:
    """Quadrature value of the surface integral of N (x) N, exactly
    (4 pi a^2 / 3) I on an adequate mesh; this is where the 8 pi / 3 constant
    in the moment formula comes from."""
    return np.einsum("i,ij,ik->jk", mesh.weights, mesh.normals, mesh.normals)


def integrate_surface(mesh: SphereMesh, values) -> np.ndarray:
    """Quadrature of a nodal vector field over the sphere surface."""
    return np.einsum("i,i...->...", mesh.weights, np.asarray(values, dtype=complex))


def tangential_defect(mesh: SphereMesh, sigma) -> float:
    """Largest |(N, sigma)| over nodes; zero for a tangential density."""
    return float(np.abs(dot(mesh.normals, as_cvec(sigma))).max())


def build_rhs(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> np.ndarray:
    """Load vector f(s) = 2 [f_e(s), N_s] with
    f_e = [N, [E_e, N]] - (zeta / (i omega mu0)) [curl E_e, N] at the nodes."""
    k = medium.k
    Ee = as_cvec(e_field.eval(k, mesh.nodes))
    curlEe = as_cvec(e_field.curl(k, mesh.nodes))
    fe = tangential(Ee, mesh.normals) \
        - (zeta / (1j * medium.omega * medium.mu0)) * cross(curlEe, mesh.normals)
    return 2.0 * cross(fe, mesh.normals)


def apply_A(mesh: SphereMesh, sigma, medium: MediumParams, zeta,
            tangential_tol=1e-8) -> np.ndarray:
    """Apply the discretized integral operator to a tangential nodal density.

    A sigma(s_i) = -2 sum_{j != i} w_j [N_i, [grad_s g(s_i, t_j), sigma_j]]
                   + 2 zeta i omega eps [N_i, [N_i, sum_{j != i} w_j g(s_i, t_j) sigma_j]].
    """
    sigma = as_cvec(sigma)
    if sigma.shape != (mesh.n, 3):
        raise ParameterError(f"sigma must have shape ({mesh.n}, 3), got {sigma.shape}")
    scale = max(1.0, float(np.abs(sigma).max()))
    if tangential_defect(mesh, sigma) > tangential_tol * scale:
        raise ParameterError("input density is not tangential to the sphere")
    k = medium.k
    g, grad = _pair_kernels(mesh, k)
    I1 = cross(mesh.normals[:, None, :],
               cross(grad, sigma[None, :, :]))
    I1 = np.einsum("j,ij...->i...", mesh.weights, I1)
    I2 = np.einsum("j,ij,j...->i...", mesh.weights, g, sigma)
    return -2.0 * I1 + 2j * zeta * medium.omega * medium.eps_eff \
        * cross(mesh.normals, cross(mesh.normals, I2))


def _pair_kernels(mesh: SphereMesh, k):
    """Pairwise g and grad g over all node pairs with the diagonal zeroed."""
    d = mesh.nodes[:, None, :] - mesh.nodes[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=-1))
    np.fill_diagonal(r, 1.0)
    g = np.exp(1j * k * r) / (4.0 * math.pi * r)
    grad = (g * (1j * k - 1.0 / r) / r)[..., None] * d
    np.fill_diagonal(g, 0.0)
    grad[np.arange(mesh.n), np.arange(mesh.n)] = 0.0
    return g, grad


def _row_blocks(mesh: SphereMesh, medium: MediumParams, zeta, rows) -> np.ndarray:
    """Weighted 3x3 blocks of A between the node rows `rows` and every node,
    shape (len(rows), n, 3, 3), with the self pair zeroed.

    With G = grad g(s_i - t_j), the block acting on sigma_j is
    w_j (-2 [N_i, [G, .]] + c g [N_i, [N_i, .]]), c = 2 i zeta omega eps,
    which expands to w_j (u N_i^T + s I) with u = -2 G + c g N_i and
    s = 2 (N_i, G) - c g.
    """
    normals = mesh.normals[rows]
    d = mesh.nodes[rows, None, :] - mesh.nodes[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=-1))
    self_pair = (np.arange(len(rows)), rows)
    r[self_pair] = 1.0  # placeholder, zeroed below
    g, gp, _ = greens._radial(r, medium.k)
    grad = (gp / r)[..., None] * d
    cg = 2j * zeta * medium.omega * medium.eps_eff * g
    u = -2.0 * grad + cg[..., None] * normals[:, None, :]
    s = 2.0 * np.einsum("ijk,ik->ij", grad, normals) - cg
    blocks = u[..., :, None] * normals[:, None, None, :]
    blocks[..., _DIAG3, _DIAG3] += s[..., None]
    blocks *= mesh.weights[None, :, None, None]
    blocks[self_pair] = 0.0
    return blocks


def operator_matrix(mesh: SphereMesh, medium: MediumParams, zeta) -> np.ndarray:
    """Dense (3n, 3n) matrix of the discretized operator A (a test reference;
    solve_sphere builds only one azimuthal ring of these rows)."""
    n = mesh.n
    A = np.zeros((3 * n, 3 * n), dtype=complex)
    view = A.reshape(n, 3, n, 3)
    for i0 in range(0, n, OPERATOR_ROWS):
        i1 = min(i0 + OPERATOR_ROWS, n)
        view[i0:i1] = np.moveaxis(_row_blocks(mesh, medium, zeta, np.arange(i0, i1)), 1, 2)
    return A


def _tangent_frames(mesh: SphereMesh) -> np.ndarray:
    """Orthonormal tangent frames (e_theta, e_phi) at the nodes, shape (n, 3, 2).

    Both vectors are defined by the geometry alone, so a rotation about the z
    axis that maps one node onto another maps its frame onto the other's."""
    nx, ny, _ = mesh.normals.T
    e_phi = np.stack([-ny, nx, np.zeros_like(nx)], axis=-1) / np.hypot(nx, ny)[:, None]
    e_theta = np.cross(e_phi, mesh.normals)
    return np.stack([e_theta, e_phi], axis=-1)


@functools.cache
def _unit_rule(n_theta: int):
    """Radius-free part of the product rule, computed once per n_theta and
    read-only: the normals, the weights on the unit sphere and the tangent
    frames (n_theta Gauss-Legendre nodes in cos(theta) times 2 n_theta
    uniform azimuthal nodes, theta-major)."""
    ct, glw = np.polynomial.legendre.leggauss(n_theta)
    n_phi = 2 * n_theta
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    st = np.sqrt(1.0 - ct ** 2)
    normals = np.stack([
        np.outer(st, np.cos(phi)).reshape(-1),
        np.outer(st, np.sin(phi)).reshape(-1),
        np.outer(ct, np.ones(n_phi)).reshape(-1),
    ], axis=-1)
    weights = np.repeat(glw, n_phi) * (2.0 * math.pi / n_phi)
    frames = _tangent_frames(SphereMesh(nodes=normals, weights=weights, normals=normals,
                                        radius=1.0))
    for arr in (normals, weights, frames):
        arr.setflags(write=False)
    return normals, weights, frames


def _ring_blocks(mesh: SphereMesh, medium: MediumParams, zeta, frames, rows) -> np.ndarray:
    """2x2 blocks F_t^T B_tj F_j of A in the tangent frames F between the node
    rows `rows` and every node, shape (len(rows), 2, 2, n) with the node
    index last, zero at the self pair.

    B_tj = w_j (u N_t^T + s I) is the 3x3 block of _row_blocks, with
    u = -2 A d + c g N_t, s = 2 A (N_t, d) - c g, A = g'/r,
    c = 2 i zeta omega eps and d = s_t - t_j. Since F_t^T N_t = 0 the c g N_t
    part of u drops out:

        F_t^T B_tj F_j = w_j [-2 A (F_t^T d)(N_t^T F_j) + s F_t^T F_j],

    whose geometric factors are products of [F_t N_t]^T with d and with F_j.
    """
    m = len(rows)
    d = mesh.nodes[rows, :, None] - mesh.nodes.T
    # the component sum np.sum(d * d, axis=1) makes, without its (m, 3, n) temporary
    r = d[:, 0] * d[:, 0]
    r += d[:, 1] * d[:, 1]
    r += d[:, 2] * d[:, 2]
    np.sqrt(r, out=r)
    self_pair = (np.arange(m), rows)
    r[self_pair] = 1.0  # placeholder, zeroed below
    g, a = greens._radial(r, medium.k)[:2]
    a /= r
    # [F_t N_t]^T at the ring nodes times d (F_t^T d and N_t.d) and times F_j
    local = np.concatenate([frames[rows], mesh.normals[rows, :, None]], axis=-1).transpose(0, 2, 1)
    ld = local @ d
    del d, r
    lf = (local.reshape(3 * m, 3) @ frames.transpose(1, 2, 0).reshape(3, -1)).reshape(m, 3, 2, -1)
    s = a * ld[:, 2]
    s *= 2.0
    s -= 2j * zeta * medium.omega * medium.eps_eff * g
    del g
    s *= mesh.weights
    a *= -2.0 * mesh.weights
    a[self_pair] = 0.0
    s[self_pair] = 0.0
    blocks = (a[:, None] * ld[:, :2])[:, :, None] * lf[:, 2, None]
    blocks += s[:, None, None] * lf[:, :2]
    return blocks


def _check_product_layout(mesh: SphereMesh) -> int:
    """n_theta of a mesh in the product layout SphereMesh.build emits, else a
    ParameterError: the azimuthal-mode solve relies on that node order."""
    n_theta = mesh.n_theta
    if n_theta >= 2 and 2 * n_theta ** 2 == mesh.n and mesh.radius > 0:
        normals, unit_weights, _ = _unit_rule(n_theta)
        if (np.array_equal(mesh.normals, normals)
                and np.array_equal(mesh.weights, unit_weights * mesh.radius ** 2)
                and np.array_equal(mesh.nodes, mesh.radius * normals)):
            return n_theta
    raise ParameterError(
        "solve_sphere needs the theta-major, phi-minor product mesh of "
        "SphereMesh.build; this mesh is not in that layout"
    )


def _ring_rows(n_theta: int) -> int:
    """Ring rows per chunk of the half-ring build: at most RING_PAIRS pairs."""
    return max(1, min((n_theta + 1) // 2, RING_PAIRS // (2 * n_theta ** 2)))


def _ring_bytes(n_theta: int) -> int:
    """Bytes the azimuthal-mode solve holds at its peak, counted in complex
    words: 4 n_theta per node for the (n_phi, 2 n_theta, 2 n_theta) mode
    systems, 10 per node for the load, the cached frames and other per-node
    arrays, and 16 per (ring row, node) pair of one chunk of the half-ring
    build, which holds at most ceil(n_theta / 2) rows (its blocks and a
    temporary of their size, 8; A and s, 2; the real F_t^T d, N_t.d and
    [F_t N_t]^T F_j, 4.5; and slack), plus 256 KiB for the buffers numpy casts
    real factors through. The mirrored rows are copied after the last chunk
    is freed, through a temporary of one row (4 per node), so they add
    nothing to the peak."""
    n = 2 * n_theta ** 2
    return 16 * n * (4 * n_theta + 10 + 16 * _ring_rows(n_theta)) + 2 ** 18


@dataclass(frozen=True)
class SphereSolution:
    """Solved tangential density and its integrated moment."""

    sigma: np.ndarray     # (n, 3) complex
    Q: np.ndarray         # (3,) complex
    residual_norm: float


def solve_sphere(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> SphereSolution:
    """Solve (I - A) sigma = f one azimuthal mode at a time and integrate
    Q = sum_i w_i sigma_i.

    The mesh is invariant under rotation by 2 pi / n_phi about z, so in the
    local (e_theta, e_phi) frames the operator is block-circulant in the
    azimuthal index and the normal unknown vanishes. Only the 2x2 frame
    blocks of the upper half of the first ring's rows (azimuthal index 0,
    t < ceil(n_theta / 2)) are built, a chunk of rows at a time; an FFT along
    the azimuthal offset, contiguous in each chunk, writes them into n_phi
    independent (2 n_theta)^2 mode systems, whose lower half is their mirror
    image under z -> -z. The systems are solved in one batch. The relative
    residual is taken in the mode domain, where by Parseval it equals the
    Cartesian one.
    """
    n_theta = _check_product_layout(mesh)
    n_phi, n = 2 * n_theta, mesh.n
    nbytes, available = _ring_bytes(n_theta), greens.available_memory()
    if nbytes > available:
        raise MemoryBudgetError(
            f"the azimuthal-mode oracle solve at n_theta={n_theta} needs about "
            f"{nbytes} bytes but only {available} are available"
        )
    f = build_rhs(mesh, medium, zeta, e_field)
    frames = _unit_rule(n_theta)[2]
    system = np.empty((n_phi, n_theta, 2, n_theta, 2), dtype=complex)
    half, step = (n_theta + 1) // 2, _ring_rows(n_theta)
    for t0 in range(0, half, step):
        t1 = min(t0 + step, half)
        blocks = _ring_blocks(mesh, medium, zeta, frames, np.arange(t0, t1) * n_phi)
        # mode k of the circulant sum_p' K[p' - p] u[p'] is sum_m K[m] exp(2 pi i k m / n_phi),
        # the unscaled inverse FFT along each contiguous azimuthal line
        np.fft.ifft(blocks.reshape(t1 - t0, 2, 2, n_theta, n_phi), norm="forward",
                    out=system[:, t0:t1].transpose(1, 2, 4, 3, 0))
        del blocks
    # z -> -z maps node (i, p) onto (n_theta - 1 - i, p) and flips e_theta
    # alone, so row n_theta - 1 - t is row t with its node rows reversed and
    # its (e_theta, e_phi) cross blocks negated; one row at a time keeps the
    # copy's temporary small
    for t in range(n_theta // 2):
        row = system[:, n_theta - 1 - t]
        row[...] = system[:, t, :, ::-1]
        np.negative(row[:, 0, :, 1], out=row[:, 0, :, 1])
        np.negative(row[:, 1, :, 0], out=row[:, 1, :, 0])
    system = system.reshape(n_phi, 2 * n_theta, 2 * n_theta)
    np.negative(system, out=system)
    idx = np.arange(2 * n_theta)
    system[:, idx, idx] += 1.0
    f_local = np.einsum("ica,ic->ia", frames, f).reshape(n_theta, n_phi, 2)
    f_hat = np.fft.fft(f_local, axis=1).transpose(1, 0, 2).reshape(n_phi, 2 * n_theta)
    try:
        u_hat = np.linalg.solve(system, f_hat[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolveSingularError(
            "an azimuthal mode of the discrete surface operator is singular; the "
            "continuous impedance problem is uniquely solvable, so this indicates "
            "a bad mesh or parameters"
        ) from exc
    f_norm = np.linalg.norm(f_hat)
    residual = float(np.linalg.norm(np.einsum("kij,kj->ki", system, u_hat) - f_hat)
                     / f_norm) if f_norm > 0 else 0.0
    if not np.isfinite(residual) or residual > 1e-6:
        raise SolveSingularError(
            f"surface solve residual {residual:.3e} is far above roundoff; the "
            "discrete system is effectively singular (bad mesh or parameters)"
        )
    u = np.fft.ifft(u_hat.reshape(n_phi, n_theta, 2), axis=0).transpose(1, 0, 2)
    sigma = np.einsum("ica,ia->ic", frames, u.reshape(n, 2))
    return SphereSolution(sigma=sigma, Q=integrate_surface(mesh, sigma),
                          residual_norm=residual)


def asymptotic_moment(medium: MediumParams, zeta, a, curl_at_center) -> np.ndarray:
    """Small-radius closed form -(8 pi i / (3 omega mu0)) zeta a^2 (curl E_e)(0)."""
    return -moment_coupling(medium) * zeta * a * a * as_cvec(curl_at_center)


@dataclass(frozen=True)
class AsymptoticsReport:
    """Oracle-vs-closed-form comparison along a radius sequence."""

    a: tuple
    rel_error: tuple
    Q_oracle: np.ndarray    # (len(a), 3) complex
    Q_asym: np.ndarray
    monotone: bool

    def to_json_dict(self):
        return dataclasses.asdict(self)


def verify_asymptotics(a_values, kappa, h, medium: MediumParams, wave,
                       n_theta=24) -> AsymptoticsReport:
    """Compare the solved moment against the closed form along decreasing radii.

    The isolated sphere sees the incident wave itself as its effective field.
    A non-decreasing error sequence (monotone False) flags a sign or
    constant error in the moment formula or the interaction kernel.
    """
    a_values = [float(a) for a in a_values]
    if len(a_values) < 2 or any(a2 >= a1 for a1, a2 in zip(a_values, a_values[1:])):
        raise ParameterError("a_values must be a strictly decreasing sequence of radii")
    if not (0.0 < kappa < 1.0):
        raise ParameterError(f"kappa must lie in (0, 1), got {kappa}")
    k = medium.k
    curl0 = wave.curl(k, np.zeros(3))
    q_oracle, q_asym, rel = [], [], []
    for a in a_values:
        mesh = SphereMesh.build(n_theta, a)
        zeta = h / a ** kappa
        sol = solve_sphere(mesh, medium, zeta, wave)
        qa = asymptotic_moment(medium, zeta, a, curl0)
        q_oracle.append(sol.Q)
        q_asym.append(qa)
        rel.append(float(np.linalg.norm(sol.Q - qa) / np.linalg.norm(qa)))
    monotone = all(e2 < e1 for e1, e2 in zip(rel, rel[1:]))
    return AsymptoticsReport(
        a=tuple(a_values),
        rel_error=tuple(rel),
        Q_oracle=np.asarray(q_oracle),
        Q_asym=np.asarray(q_asym),
        monotone=monotone,
    )
