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
the solve uses the bodies-of-revolution technique (Mautz & Harrington,
1969): it builds only kernel rows of one azimuthal ring, directly as 2x2
blocks in the local tangent frames (_ring_blocks), and solves independent
azimuthal mode systems, each formed by one weighted sum over the azimuthal
offsets (_mode_weights) for exactly the modes a solve asks for, and
factorized on its own. Two exact reflections of the mesh reduce the work
(Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29, 1992): the one
through the meridian of a ring node halves the azimuthal offsets that are
built, and z -> -z (leggauss returns symmetrized nodes and weights) halves
the ring rows and splits every mode into an even and an odd system of about
n_theta unknowns. solve_sphere forms all n_phi modes and returns the
density, in O(n_theta^4) time and O(n_theta^3) memory against O(n_theta^6)
and O(n_theta^4) for the dense (3n)^2 system, which operator_matrix still
builds from the 3x3 Cartesian blocks of _row_blocks as a test reference;
apply_A is the independent matrix-free reference. Both check their memory
before allocating. Every kernel row takes g and g'/r from greens._radial, in
row chunks of greens.chunk_rows.

One pass (_solve_pass) solves the spheres of every radius at one n_theta:
each ring chunk's radius-free geometry (_ring_geometry: the unit-sphere
separations and their products with the tangent frames) is formed once and
scaled to each radius (_radius_blocks), one memory check covers the pass
before any of the rule is read, and the load is built directly in the
frames (_frame_load). The moment Q reads only the modes 0, 1 and -1, through
weights cached per n_theta (_moment_weights), so sphere_moment forms and
factorizes those three modes alone, in O(n_theta^3) time, and
verify_asymptotics is one pass over its radii; only solve_sphere transforms
the density back to the nodes. A SphereMesh holds only n_theta and the
radius, so every mesh is the product rule these solves rely on; the
radius-free part of that rule (normals, unit weights, tangent frames, mode
and moment weights) is computed once per n_theta and shared by every radius.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import greens
from .core import MediumParams, as_cvec, cross, dot, moment_coupling
from .errors import ParameterError, SolveSingularError

_DIAG3 = np.arange(3)
# bytes per pair of one row chunk at the peak of apply_A (tracemalloc: 160-210,
# and 256 in the one-row chunks past n_theta 64) and of operator_matrix beside
# its matrix (368-385); both dense references add 256 KiB of small buffers
APPLY_PAIR_BYTES = 280
OPERATOR_PAIR_BYTES = 400


@dataclass(frozen=True)
class SphereMesh:
    """The product rule on a sphere of the given radius at the origin:
    n_theta Gauss-Legendre nodes in cos(theta) times 2 n_theta uniform
    azimuthal nodes (2 n_theta^2 nodes, theta-major). Its arrays are
    read-only; the radius-free normals and tangent frames are shared by every
    radius at one n_theta."""

    n_theta: int
    radius: float

    def __post_init__(self):
        if not isinstance(self.n_theta, numbers.Integral) or self.n_theta < 2:
            raise ParameterError(f"need an integer n_theta >= 2, got {self.n_theta!r}")
        if not (self.radius > 0):
            raise ParameterError(f"radius must be positive, got {self.radius}")

    @classmethod
    def build(cls, n_theta: int, radius: float):
        """The same mesh as SphereMesh(n_theta, radius)."""
        return cls(n_theta, radius)

    @property
    def n(self) -> int:
        return 2 * self.n_theta ** 2

    @property
    def normals(self) -> np.ndarray:
        """(n, 3) unit outward normals."""
        return _unit_rule(self.n_theta)[0]

    @property
    def frames(self) -> np.ndarray:
        """(n, 3, 2) orthonormal tangent frames (e_theta, e_phi)."""
        return _unit_rule(self.n_theta)[2]

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """(n, 3) quadrature nodes."""
        nodes = self.radius * self.normals
        nodes.setflags(write=False)
        return nodes

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """(n,) quadrature weights, sum = 4 pi a^2."""
        weights = _unit_rule(self.n_theta)[1] * self.radius ** 2
        weights.setflags(write=False)
        return weights


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


def _frame_components(values, frames) -> np.ndarray:
    """F^T v, shape (n, 2), of nodal vectors v (n, 3) in the frames F."""
    out = values[:, 0, None] * frames[:, 0]
    out += values[:, 1, None] * frames[:, 1]
    out += values[:, 2, None] * frames[:, 2]
    return out


def _frame_load(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> np.ndarray:
    """The load of build_rhs in the tangent frames, F^T f, shape (n, 2).

    With f_e = [N, [E_e, N]] - c [C, N], C = curl E_e and
    c = zeta / (i omega mu0), and the right-handed triple (e_theta, e_phi, N),
    f = 2 [f_e, N] has the frame components
    F^T f = 2 [E_e.e_phi + c C.e_theta, c C.e_phi - E_e.e_theta]."""
    k, frames = medium.k, mesh.frames
    e = _frame_components(as_cvec(e_field.eval(k, mesh.nodes)), frames)
    c = _frame_components(as_cvec(e_field.curl(k, mesh.nodes)), frames)
    c *= zeta / (1j * medium.omega * medium.mu0)
    load = np.empty_like(e)
    np.add(e[:, 1], c[:, 0], out=load[:, 0])
    np.subtract(c[:, 1], e[:, 0], out=load[:, 1])
    load *= 2.0
    return load


def build_rhs(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> np.ndarray:
    """Load vector f(s) = 2 [f_e(s), N_s] with
    f_e = [N, [E_e, N]] - (zeta / (i omega mu0)) [curl E_e, N] at the nodes,
    the frames times its frame components (_frame_load)."""
    return np.einsum("nia,na->ni", mesh.frames, _frame_load(mesh, medium, zeta, e_field))


def apply_A(mesh: SphereMesh, sigma, medium: MediumParams, zeta) -> np.ndarray:
    """Apply the discretized integral operator to a tangential nodal density.

    A sigma(s_i) = -2 sum_{j != i} w_j [N_i, [grad_s g(s_i, t_j), sigma_j]]
                   + 2 zeta i omega eps [N_i, [N_i, sum_{j != i} w_j g(s_i, t_j) sigma_j]].

    Raises MemoryBudgetError, before allocating, when its APPLY_PAIR_BYTES
    per pair of a row chunk exceed the available memory.
    """
    sigma = as_cvec(sigma)
    if sigma.shape != (mesh.n, 3):
        raise ParameterError(f"sigma must have shape ({mesh.n}, 3), got {sigma.shape}")
    scale = max(1.0, float(np.abs(sigma).max()))
    if tangential_defect(mesh, sigma) > 1e-8 * scale:
        raise ParameterError("input density is not tangential to the sphere")
    n, nodes, weights = mesh.n, mesh.nodes, mesh.weights
    step = greens.chunk_rows(n, n)
    nbytes = APPLY_PAIR_BYTES * step * n + 2 ** 18
    greens.require_memory(
        nbytes, f"the matrix-free oracle reference at n_theta={mesh.n_theta} needs about "
        f"{nbytes} bytes")
    I1, I2 = np.empty((n, 3), dtype=complex), np.empty((n, 3), dtype=complex)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        self_pair = (np.arange(i1 - i0), np.arange(i0, i1))
        d = nodes[i0:i1, None, :] - nodes[None, :, :]
        r = np.sqrt(np.sum(d * d, axis=-1))
        r[self_pair] = 1.0  # placeholder, zeroed below
        g, gp_r = greens._radial(r, medium.k)
        g[self_pair] = 0.0
        I2[i0:i1] = np.einsum("j,ij,j...->i...", weights, g, sigma)
        pair = gp_r[..., None] * d  # grad g, then [grad g, sigma_j]
        del d, r, g, gp_r  # released before the cross products
        pair[self_pair] = 0.0
        pair = cross(pair, sigma[None, :, :])
        I1[i0:i1] = np.einsum("j,ij...->i...", weights, cross(mesh.normals[i0:i1, None, :], pair))
    # -2 I1 + c [N, [N, I2]] in place, each product in its operand order
    I2 = np.multiply(2j * zeta * medium.omega * medium.eps_eff,
                     cross(mesh.normals, cross(mesh.normals, I2)), out=I2)
    return np.add(np.multiply(-2.0, I1, out=I1), I2, out=I1)


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
    g, gp_r = greens._radial(r, medium.k)
    grad = gp_r[..., None] * d
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
    solve_sphere builds only one azimuthal ring of these rows). Raises
    MemoryBudgetError, before allocating, when the 16 (3n)^2 bytes and the
    OPERATOR_PAIR_BYTES per pair of a row chunk exceed the available memory."""
    n = mesh.n
    step = greens.chunk_rows(n, n)
    nbytes = 16 * (3 * n) ** 2 + OPERATOR_PAIR_BYTES * step * n + 2 ** 18
    greens.require_memory(
        nbytes, f"the dense oracle operator at n_theta={mesh.n_theta} needs about {nbytes} bytes")
    A = np.zeros((3 * n, 3 * n), dtype=complex)
    view = A.reshape(n, 3, n, 3)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        view[i0:i1] = np.moveaxis(_row_blocks(mesh, medium, zeta, np.arange(i0, i1)), 1, 2)
    return A


@functools.cache
def _unit_rule(n_theta: int):
    """Radius-free part of the product rule, computed once per n_theta and
    read-only: the normals, the weights on the unit sphere and the tangent
    frames (n_theta Gauss-Legendre nodes in cos(theta) times 2 n_theta
    uniform azimuthal nodes, theta-major).

    Both frame vectors are defined by the geometry alone, so a rotation about
    the z axis that maps one node onto another maps its frame onto the
    other's."""
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
    nx, ny, _ = normals.T
    e_phi = np.stack([-ny, nx, np.zeros_like(nx)], axis=-1) / np.hypot(nx, ny)[:, None]
    frames = np.stack([np.cross(e_phi, normals), e_phi], axis=-1)
    for arr in (normals, weights, frames):
        arr.setflags(write=False)
    return normals, weights, frames


def _ring_geometry(n_theta: int, rows, cols):
    """The radius-free factors of the ring blocks between the node rows `rows`
    and the node columns `cols` on the unit sphere, as a tuple: the
    separations r^ = |d^| of d^ = N_t - N_j (1 at the self pair), the real
    products [F_t N_t]^T d^, shape (m, 3, c), and [F_t N_t]^T F_j, shape
    (m, 3, 2, c), the unit weights w^ of the columns and the self-pair index.
    On the sphere of radius a the ring blocks read them as d = a d^,
    r = a r^ and w = a^2 w^ (_radius_blocks)."""
    normals, weights, frames = _unit_rule(n_theta)
    m = len(rows)
    d = normals[rows, :, None] - normals.T[:, cols]
    # the component sum np.sum(d * d, axis=1) makes, without its (m, 3, c) temporary
    r = d[:, 0] * d[:, 0]
    r += d[:, 1] * d[:, 1]
    r += d[:, 2] * d[:, 2]
    np.sqrt(r, out=r)
    self_pair = np.nonzero(rows[:, None] == cols)
    r[self_pair] = 1.0  # placeholder, zeroed in _radius_blocks
    # [F_t N_t]^T at the ring nodes times d^ (F_t^T d^ and N_t.d^) and times F_j
    local = np.concatenate([frames[rows], normals[rows, :, None]], axis=-1).transpose(0, 2, 1)
    ld = local @ d
    lf = (local.reshape(3 * m, 3) @ frames[cols].transpose(1, 2, 0).reshape(3, -1)).reshape(m, 3, 2, -1)
    return r, ld, lf, weights[cols], self_pair


def _radius_blocks(geometry, radius: float, medium: MediumParams, zeta) -> np.ndarray:
    """2x2 blocks F_t^T B_tj F_j of A in the tangent frames on the sphere of
    the given radius, from the radius-free factors of _ring_geometry, shape
    (m, 2, 2, c) with the column index last, zero at the self pair.

    B_tj = w_j (u N_t^T + s I) is the 3x3 block of _row_blocks, with
    u = -2 A d + c g N_t, s = 2 A (N_t, d) - c g, A = g'/r,
    c = 2 i zeta omega eps and d = s_t - t_j. Since F_t^T N_t = 0 the c g N_t
    part of u drops out:

        F_t^T B_tj F_j = w_j [-2 A (F_t^T d)(N_t^T F_j) + s F_t^T F_j],

    whose geometric factors are products of [F_t N_t]^T with d and with F_j;
    the radius enters through d = a d^ as the factor a on A.
    """
    r, ld, lf, weights, self_pair = geometry
    g, a = greens._radial(radius * r, medium.k)
    weights = radius ** 2 * weights
    s = a * ld[:, 2]
    s *= 2.0 * radius
    s -= 2j * zeta * medium.omega * medium.eps_eff * g
    del g
    s *= weights
    a *= -2.0 * radius * weights
    a[self_pair] = 0.0
    s[self_pair] = 0.0
    blocks = (a[:, None] * ld[:, :2])[:, :, None] * lf[:, 2, None]
    blocks += s[:, None, None] * lf[:, :2]
    return blocks


def _ring_blocks(mesh: SphereMesh, medium: MediumParams, zeta, rows, cols=None) -> np.ndarray:
    """2x2 blocks F_t^T B_tj F_j of A in the tangent frames F = mesh.frames
    between the node rows `rows` and the node columns `cols` (default: every
    node), shape (len(rows), 2, 2, len(cols)) with the column index last,
    zero at the self pair (_radius_blocks)."""
    cols = np.arange(mesh.n) if cols is None else np.asarray(cols)
    geometry = _ring_geometry(mesh.n_theta, np.asarray(rows), cols)
    return _radius_blocks(geometry, mesh.radius, medium, zeta)


# z -> -z flips e_theta alone, so it maps a frame vector onto diag(-1, 1) times it
_Z_SIGNS = np.array([-1.0, 1.0])


@functools.cache
def _mode_weights(n_theta: int, modes: tuple) -> np.ndarray:
    """Weights W, shape (2, 2, n_theta + 1, len(modes)) and read-only, with
    sum_p K[p] W[:, :, p, j] = S(k) = sum_m K[m] exp(i theta k m) over all
    n_phi offsets m, theta = pi / n_theta, for each mode k = modes[j] (any
    integer; k and k + n_phi are the same mode), from the ring blocks K[p] at
    the built offsets p = 0..n_theta alone.

    The reflection through the meridian of a ring node flips e_phi alone, so
    K[-p] = R K[p] R with R = diag(1, -1) keeps the diagonal components of K
    and negates the off-diagonal ones: offsets p and -p pair up for
    0 < p < n_theta into exp(i theta k p) + exp(-i theta k p) on the diagonal
    and exp(i theta k p) - exp(-i theta k p) off it; p = 0 and p = n_theta
    are their own images and weigh exp(i theta k p) alone."""
    n_phi, p = 2 * n_theta, np.arange(n_theta + 1)
    # the exponent reduced modulo n_phi keeps the angles in [0, 2 pi)
    plus = np.exp(2j * math.pi * (np.outer(p, modes) % n_phi) / n_phi)
    weights = np.empty((2, 2, n_theta + 1, len(modes)), dtype=complex)
    weights[0, 0] = weights[1, 1] = plus + plus.conj()
    weights[0, 1] = weights[1, 0] = plus - plus.conj()
    weights[..., [0, n_theta], :] = plus[[0, n_theta]]
    weights.setflags(write=False)
    return weights


def _ring_bytes(n_theta: int, modes: int, radii: int = 1) -> int:
    """Bytes the symmetry-reduced solve of `modes` <= n_phi azimuthal modes
    at `radii` radii of one n_theta holds at its peak, counted in complex
    words: 2 modes (2 ceil(n_theta / 2))^2 per radius for the even and odd
    mode systems; for one chunk of the ring build 5 per (ring row, column)
    pair for the real radius-free factors of _ring_geometry, then either 10
    per pair in _radius_blocks (the blocks and a temporary of their size, 8,
    A and s, 2) or 4 per pair for the blocks beside their mode sums, with
    the mode weights (_mode_weights); 16 per node for the load, its mode
    transform, the right-hand sides, solutions, residuals and the density of
    one radius's solve, 5 per node for the product rule's 10 floats
    (_unit_rule), plus 256 KiB for the buffers numpy casts real factors
    through. The ring build and the solves do not peak together, so the sum
    bounds the peak."""
    n, size, cols = 2 * n_theta ** 2, 2 * ((n_theta + 1) // 2), n_theta * (n_theta + 1)
    rows = greens.chunk_rows((n_theta + 1) // 2, cols)
    sums = 4 * modes * (rows * n_theta + n_theta + 1)
    ring = 5 * rows * cols + max(10 * rows * cols, 4 * rows * cols + sums)
    return 16 * (2 * modes * radii * size ** 2 + ring + 21 * n) + 2 ** 18


def _unfold(x, n_theta: int) -> np.ndarray:
    """Mode-domain vector (modes, n_theta, 2), the modes in the order they
    were formed, from the even and odd solutions x of their reduced systems,
    shape (2, modes, 2 ceil(n_theta / 2), 1). On the upper rows t the vector
    is x_even + x_odd, on their mirror rows T(t) = n_theta - 1 - t it is
    sigma (x_even - x_odd)."""
    upper, half = (n_theta + 1) // 2, n_theta // 2
    x = x.reshape(2, -1, upper, 2)
    u_hat = np.empty((x.shape[1], n_theta, 2), dtype=complex)
    np.add(x[0], x[1], out=u_hat[:, :upper])
    u_hat[:, ::-1][:, :half] = (x[0, :, :half] - x[1, :, :half]) * _Z_SIGNS
    return u_hat


@dataclass(frozen=True)
class SphereSolution:
    """Solved tangential density and its integrated moment."""

    sigma: np.ndarray     # (n, 3) complex
    Q: np.ndarray         # (3,) complex
    residual_norm: float


def _solve_pass(cases, medium: MediumParams, e_field, modes: tuple):
    """Solve (I - A) sigma = f on the sphere of each (mesh, zeta) in `cases`,
    all meshes of one n_theta, by symmetry class in the azimuthal modes
    `modes` (integers; -k is mode n_phi - k), and return per case the
    solutions v of its reduced systems (see _unfold) with their relative
    residual.

    The mesh is invariant under rotation by 2 pi / n_phi about z, so in the
    local (e_theta, e_phi) frames the operator is block-circulant in the
    azimuthal index, the normal unknown vanishes, and azimuthal mode k is an
    independent system S(k) = sum_p K[p] exp(2 pi i k p / n_phi) over the
    ring blocks K[p] of the first ring's rows. Only the offsets
    p = 0..n_theta are built, and one weighted sum over them forms S(k) for
    each mode asked for (_mode_weights); each mode is factorized on its own.
    z -> -z maps theta row t onto T(t) = n_theta - 1 - t and flips e_theta
    alone (sign sigma = (-1, 1) on (e_theta, e_phi)), so each mode splits
    into an even and an odd system on the upper rows t < ceil(n_theta / 2),
    with columns S[t, j] +- sigma S[t, T(j)] and loads
    (f[t] +- sigma f[T(t)]) / 2. For odd n_theta the equator row is its own
    image: its e_theta unknown is zero in the even class and its e_phi
    unknown in the odd one, which an identity row and column impose.

    Only the upper ring rows are built, a chunk at a time; each chunk's
    radius-free factors (_ring_geometry) are formed once and scaled to every
    radius, and one memory check covers the pass. Each case's modes x 2
    classes, each of about n_theta unknowns, are solved in one batch, from
    the load built in the frames (_frame_load). The relative residual is
    that of the mode vector against the load of the same modes, which by
    Parseval equals the Cartesian one when all n_phi modes are formed.
    """
    n_theta = cases[0][0].n_theta
    n_phi = 2 * n_theta
    nbytes = _ring_bytes(n_theta, len(modes), len(cases))
    greens.require_memory(
        nbytes, f"the azimuthal-mode oracle solve at n_theta={n_theta} needs about {nbytes} bytes")
    weights = _mode_weights(n_theta, modes)
    upper, half = (n_theta + 1) // 2, n_theta // 2
    cols = (np.arange(n_theta)[:, None] * n_phi + np.arange(n_theta + 1)).reshape(-1)
    systems = np.empty((len(cases), 2, len(modes), upper, 2, upper, 2), dtype=complex)
    step = greens.chunk_rows(upper, cols.size)
    for t0 in range(0, upper, step):
        t1 = min(t0 + step, upper)
        geometry = _ring_geometry(n_theta, np.arange(t0, t1) * n_phi, cols)
        for (mesh, zeta), system in zip(cases, systems):
            blocks = _radius_blocks(geometry, mesh.radius, medium, zeta)
            hat = blocks.reshape(t1 - t0, 2, 2, n_theta, n_theta + 1) @ weights
            del blocks
            np.negative(hat, out=hat)  # the mode sums of -K, for I - S
            # column j of the even (odd) class adds (subtracts) sigma_beta times column T(j)
            mirror = hat[:, :, :, ::-1][:, :, :, :half] * _Z_SIGNS[:, None, None]
            rows = system[:, :, t0:t1].transpose(0, 2, 3, 5, 4, 1)
            np.add(hat[:, :, :, :half], mirror, out=rows[0, ..., :half, :])
            np.subtract(hat[:, :, :, :half], mirror, out=rows[1, ..., :half, :])
            rows[..., half:, :] = hat[:, :, :, half:upper]  # the equator column (odd n_theta only)
            del hat, mirror
        del geometry
    systems = systems.reshape(len(cases), 2, len(modes), 2 * upper, 2 * upper)
    systems.reshape(len(cases), 2, len(modes), -1)[..., ::2 * upper + 1] += 1.0
    if n_theta % 2:
        # the equator's e_theta unknown is zero in the even class, its e_phi one in the odd
        for parity in (0, 1):
            i = 2 * half + parity
            systems[:, parity, :, i] = 0.0
            systems[:, parity, :, :, i] = 0.0
            systems[:, parity, :, i, i] = 1.0
    solved = []
    for (mesh, zeta), system in zip(cases, systems):
        f_local = _frame_load(mesh, medium, zeta, e_field).reshape(n_theta, n_phi, 2)
        load = np.fft.fft(f_local, axis=1)[:, list(modes)].transpose(1, 0, 2)  # (mode, t, component)
        mirror = load[:, ::-1][:, :upper] * _Z_SIGNS
        rhs = np.stack([load[:, :upper] + mirror, load[:, :upper] - mirror])
        rhs *= 0.5
        rhs = rhs.reshape(2, len(modes), 2 * upper, 1)
        try:
            v = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolveSingularError(
                "an azimuthal mode of the discrete surface operator is singular; the "
                "continuous impedance problem is uniquely solvable, so this indicates "
                "a bad mesh or parameters"
            ) from exc
        f_norm = np.linalg.norm(load)
        residual = float(np.linalg.norm(_unfold(system @ v - rhs, n_theta)) / f_norm) \
            if f_norm > 0 else 0.0
        if not np.isfinite(residual) or residual > 1e-6:
            raise SolveSingularError(
                f"surface solve residual {residual:.3e} is far above roundoff; the "
                "discrete system is effectively singular (bad mesh or parameters)"
            )
        solved.append((v, residual))
    return solved


# the azimuthal modes a ring sum of the frames reads
_MOMENT_MODES = (0, 1, -1)


@functools.cache
def _moment_weights(n_theta: int) -> np.ndarray:
    """Weights M, shape (3, n_theta, 2, 3) and read-only, with
    Q = a^2 sum_{j, t, alpha} u_hat[j, t, alpha] M[j, t, alpha] over the
    modes _MOMENT_MODES of the mode-domain density u_hat (_unfold).

    The density at node (t, p) is F u with u[t, p] = ifft_k(u_hat[:, t])[p],
    so Q = sum w F u = sum_k u_hat[k] . M[k] with M[k] = ifft_p(w^ F)[k] on
    the unit sphere. The x and y components of e_theta and e_phi vary with
    phi as cos phi and sin phi and their z components not at all, so M is
    zero but for the modes 0 and +-1."""
    _, weights, frames = _unit_rule(n_theta)
    weighted = (weights[:, None, None] * frames).reshape(n_theta, 2 * n_theta, 3, 2)
    moment = np.fft.ifft(weighted, axis=1)[:, _MOMENT_MODES].transpose(1, 0, 3, 2).copy()
    moment.setflags(write=False)
    return moment


def _moments(cases, medium: MediumParams, e_field) -> list:
    """The moment Q = sum_i w_i sigma_i on each (mesh, zeta) in `cases`, all
    of one n_theta, from the modes _MOMENT_MODES of one pass (_solve_pass)
    alone: three modes instead of n_phi, in O(n_theta^3) time against
    O(n_theta^4), read through _moment_weights after the pass."""
    solved = _solve_pass(cases, medium, e_field, _MOMENT_MODES)
    moment = _moment_weights(cases[0][0].n_theta)
    return [mesh.radius ** 2 * np.einsum("jta,jtax->x", _unfold(v, mesh.n_theta), moment)
            for (mesh, _), (v, _) in zip(cases, solved)]


def solve_sphere(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> SphereSolution:
    """Solve (I - A) sigma = f in every azimuthal mode (_solve_pass), transform
    the density back to the nodes and integrate Q = sum_i w_i sigma_i."""
    n_theta = mesh.n_theta
    (v, residual), = _solve_pass([(mesh, zeta)], medium, e_field, tuple(range(2 * n_theta)))
    u = np.fft.ifft(_unfold(v, n_theta), axis=0).transpose(1, 0, 2).reshape(mesh.n, 2)
    frames = mesh.frames
    sigma = frames[..., 0] * u[:, 0, None]
    sigma += frames[..., 1] * u[:, 1, None]
    return SphereSolution(sigma=sigma, Q=integrate_surface(mesh, sigma),
                          residual_norm=residual)


def sphere_moment(mesh: SphereMesh, medium: MediumParams, zeta, e_field) -> np.ndarray:
    """The moment Q = sum_i w_i sigma_i of solve_sphere, from the azimuthal
    modes it reads alone (_moments)."""
    return _moments([(mesh, zeta)], medium, e_field)[0]


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


def verify_asymptotics(a_values, kappa, h, medium: MediumParams, wave, *,
                       n_theta: int) -> AsymptoticsReport:
    """Compare the solved moment against the closed form along decreasing radii.

    The isolated sphere sees the incident wave itself as its effective field.
    A non-decreasing error sequence (monotone False) flags a sign or
    constant error in the moment formula or the interaction kernel. A zero
    closed-form moment (h = 0) has no relative error and raises
    ParameterError before any solve.
    """
    a_values = [float(a) for a in a_values]
    if len(a_values) < 2 or any(a2 >= a1 for a1, a2 in zip(a_values, a_values[1:])):
        raise ParameterError("a_values must be a strictly decreasing sequence of radii")
    if not (0.0 < kappa < 1.0):
        raise ParameterError(f"kappa must lie in (0, 1), got {kappa}")
    k = medium.k
    curl0 = wave.curl(k, np.zeros(3))
    zetas = [h / a ** kappa for a in a_values]
    q_asym = [asymptotic_moment(medium, zeta, a, curl0) for a, zeta in zip(a_values, zetas)]
    if not all(np.any(q) for q in q_asym):
        raise ParameterError(f"the closed-form moment is zero at h = {h}, so its relative "
                             "error is undefined")
    q_oracle = _moments([(SphereMesh.build(n_theta, a), zeta) for a, zeta in zip(a_values, zetas)],
                        medium, wave)
    rel = [float(np.linalg.norm(q - qa) / np.linalg.norm(qa)) for q, qa in zip(q_oracle, q_asym)]
    monotone = all(e2 < e1 for e1, e2 in zip(rel, rel[1:]))
    return AsymptoticsReport(
        a=tuple(a_values),
        rel_error=tuple(rel),
        Q_oracle=np.asarray(q_oracle),
        Q_asym=np.asarray(q_asym),
        monotone=monotone,
    )
