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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import MediumParams, as_cvec, cross, dot, moment_coupling, tangential
from .errors import ParameterError, SolveSingularError

_EYE3 = np.eye(3)
OPERATOR_ROWS = 128  # node rows per assembly chunk of operator_matrix


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
        for arr in (normals, weights):
            arr.setflags(write=False)
        nodes = radius * normals
        nodes.setflags(write=False)
        return cls(nodes=nodes, weights=weights, normals=normals, radius=float(radius))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


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


def _skew(v):
    """Skew matrices S with S @ w = v x w, shape v.shape[:-1] + (3, 3)."""
    v = np.asarray(v)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def operator_matrix(mesh: SphereMesh, medium: MediumParams, zeta) -> np.ndarray:
    """Dense (3n, 3n) matrix of the discretized operator A."""
    n = mesh.n
    k = medium.k
    ns = _skew(mesh.normals)                      # (n, 3, 3)
    nn = ns @ ns                                  # [N, [N, .]] composition
    coef2 = 2j * zeta * medium.omega * medium.eps_eff
    A = np.zeros((3 * n, 3 * n), dtype=complex)
    view = A.reshape(n, 3, n, 3)
    for i0 in range(0, n, OPERATOR_ROWS):
        i1 = min(i0 + OPERATOR_ROWS, n)
        d = mesh.nodes[i0:i1, None, :] - mesh.nodes[None, :, :]
        r = np.sqrt(np.sum(d * d, axis=-1))
        rows = np.arange(i0, i1)
        diag = np.zeros(r.shape, dtype=bool)
        diag[rows - i0, rows] = True
        r[diag] = 1.0
        g = np.exp(1j * k * r) / (4.0 * math.pi * r)
        grad = (g * (1j * k - 1.0 / r) / r)[..., None] * d
        blocks = -2.0 * np.einsum("iab,ijbc->ijac", ns[i0:i1].astype(complex), _skew(grad))
        blocks += coef2 * g[..., None, None] * nn[i0:i1, None, :, :]
        blocks *= mesh.weights[None, :, None, None]
        blocks[diag] = 0.0
        view[i0:i1] = np.moveaxis(blocks, 1, 2)
    return A


@dataclass(frozen=True)
class SphereSolution:
    """Solved tangential density and its integrated moment."""

    sigma: np.ndarray     # (n, 3) complex
    Q: np.ndarray         # (3,) complex
    residual_norm: float


def solve_sphere(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> SphereSolution:
    """Solve (I - A) sigma = f by a dense solve over the node unknowns and
    integrate Q = sum_i w_i sigma_i."""
    f = build_rhs(mesh, medium, zeta, e_field)
    A = operator_matrix(mesh, medium, zeta)
    M = -A
    idx = np.arange(3 * mesh.n)
    M[idx, idx] += 1.0
    try:
        x = scipy.linalg.solve(M, f.reshape(-1))
    except scipy.linalg.LinAlgError as exc:
        raise SolveSingularError(
            "discrete surface operator is singular; the continuous impedance "
            "problem is uniquely solvable, so this indicates a bad mesh or parameters"
        ) from exc
    f_norm = np.linalg.norm(f)
    residual = float(np.linalg.norm(M @ x - f.reshape(-1)) / f_norm) if f_norm > 0 else 0.0
    if not np.isfinite(residual) or residual > 1e-6:
        raise SolveSingularError(
            f"surface solve residual {residual:.3e} is far above roundoff; the "
            "discrete system is effectively singular (bad mesh or parameters)"
        )
    sigma = x.reshape(-1, 3)
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
