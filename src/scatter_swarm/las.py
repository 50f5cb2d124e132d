"""Assemble and solve the coupled system for P_m = (curl E)(x_m) over a
particle cloud, then evaluate E and H anywhere via the dipole representation.

Row block j of the system reads
    P_j + c a^(2-kappa) sum_{m != j} h(x_m) {k^2 g(x_j, x_m) P_m + H(x_j, x_m) P_m} = (curl E0)(x_j),
with c = 8 pi i / (3 omega mu0); the induced moments are
    Q_m = -c a^(2-kappa) h(x_m) P_m,
and the field is E(x) = E0(x) + sum_m [grad g(x, x_m), Q_m], with terms whose
center lies within the exclusion radius of x dropped (effective-field
convention). The system, and the limit collocation that shares it, is solved
by GMRES: matrix-free when the points form a lattice, else on the dense matrix.
A solve makes one operator product per Krylov iteration and one per restart
cycle, and no other: the reported residual reuses GMRES's last product.
`condition_estimate` runs apart from every solve, from ten Arnoldi steps on A.
Callers that read E alone pass with_h=False to the probe evaluators, which
then skip the curl sums and return a FieldSample whose H is None.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import MediumParams, as_point, complex_array, cross, moment_coupling
from .errors import ConvergenceError, IllConditionedWarning, ParameterError
# dipole_field_sum and dipole_curl_sum stay bound here for solverbench/tracing.py
from .greens import (LatticeOperator, dipole_curl_sum, dipole_field_sum,  # noqa: F401
                     dipole_sums, grad_g, interaction_matrix)
from .incident import PlaneWave, curl_E0, eval_E0
from .particles import ParticleCloud, diagnose

# relative residual every solve must reach unless the caller sets a tolerance
DEFAULT_TOL = 1e-10
CONDITION_WARN_THRESHOLD = 1e12
# GMRES restart length (scipy's default), capped at the number of unknowns
GMRES_RESTART = 20
CONDITION_STEPS = 10  # Arnoldi steps of condition_estimate


@dataclass(frozen=True)
class FieldSample:
    """E and H at probe points, with the warnings of their evaluation; H is
    None when the evaluation was asked for E alone."""

    E: np.ndarray
    H: np.ndarray | None
    warnings: tuple = ()


@dataclass(frozen=True)
class SolverPath:
    """How a linear system was solved. Every field is deterministic, so the
    record belongs in the byte-reproducible diagnostics."""

    solver_used: str               # "iterative" ("none": nothing solved)
    operator: str = "dense"        # "dense" | "lattice-fft" ("none": nothing solved)
    iterations: int = 0            # GMRES inner iterations; 0 for none
    restart: int | None = None     # GMRES restart length; None for none
    maxiter: int | None = None     # GMRES cap on restart cycles; None for none

    def to_json_dict(self):
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CurlSolution:
    """Solved curl values P_m and induced moments Q_m with solve diagnostics.
    A solution keeps no reference to its system; the caller that reports a
    condition estimate computes it with `condition_estimate(system)`."""

    P: np.ndarray                # (M, 3) complex
    Q: np.ndarray                # (M, 3) complex
    residual_norm: float
    path: SolverPath

    def to_json_dict(self):
        return {"P": self.P, "Q": self.Q, "residual_norm": self.residual_norm}

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            P=complex_array(d["P"]),
            Q=complex_array(d["Q"]),
            residual_norm=float(d["residual_norm"]),
            path=SolverPath("none", operator="none"),  # a report does not record the path
        )


def system_coefficients(cloud: ParticleCloud, medium: MediumParams) -> np.ndarray:
    """Per-particle coupling coefficients c a^(2-kappa) h(x_m)."""
    return moment_coupling(medium) * cloud.radius ** (2.0 - cloud.kappa) * cloud.h_at_centers


def assemble_system(cloud: ParticleCloud, medium: MediumParams, wave: PlaneWave):
    """Dense (3M, 3M) system matrix and right-hand side (curl E0 at centers)."""
    A = _dense_system(cloud.centers, system_coefficients(cloud, medium), medium.k)
    return A, curl_E0(wave, medium.k, cloud.centers).reshape(-1)


def system_operator(points, coeffs, k):
    """The system I + T coupling the points, for the many-sphere and the
    limiting model alike: the matrix-free FFT operator applying T whenever
    the points form a lattice, at any size; else the dense matrix with the
    identity added."""
    n = len(points)
    if n < 1:
        raise ParameterError("cannot assemble a system for an empty point set")
    # GMRES keeps restart + 1 Krylov vectors of 3n unknowns, condition_estimate fewer
    basis = 16 * (min(GMRES_RESTART, 3 * n) + 1) * 3 * n
    system = LatticeOperator.from_points(points, coeffs, k, reserve=basis)
    return _dense_system(points, coeffs, k) if system is None else system


def _dense_system(points, coeffs, k):
    A = interaction_matrix(points, coeffs, k)
    idx = np.arange(A.shape[0])
    A[idx, idx] += 1.0
    return A


def linear_solve(system, rhs, *, tol=None, max_iter=None):
    """Unpreconditioned GMRES solve of the dense matrix A = I + T or of a
    LatticeOperator applying T; returns (x, residual, path). In the asymptotic
    regime A is the identity plus a small interaction, hence well conditioned;
    `condition_estimate` checks that for the callers that report it. The solve
    must reach the relative residual `tol` (DEFAULT_TOL when unset, else a
    finite positive number) in at most `max_iter` >= 1 restart cycles.
    """
    # scipy.sparse loads only here, so modes that solve no system skip its import
    import scipy.sparse.linalg

    rhs = np.asarray(rhs, dtype=complex).reshape(-1)
    n = rhs.size
    if n < 1:
        raise ParameterError("cannot solve an empty system")
    if system.shape != (n, n):
        raise ParameterError(f"matrix shape {system.shape} does not match rhs size {n}")
    tol = DEFAULT_TOL if tol is None else tol
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be a finite positive number, got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    history = []

    def record(pr_norm):
        history.append(float(pr_norm))

    name, apply_a = _products(system)
    last = [None, None]  # the vector of GMRES's latest product, and the product

    def matvec(v):
        last[:] = v, apply_a(v)
        return last[1]

    restart = min(GMRES_RESTART, n)
    maxiter = max_iter if max_iter is not None else 10 * n  # scipy's default cap
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=complex)
    x, info = scipy.sparse.linalg.gmres(
        op, rhs, rtol=tol, atol=0.0, restart=restart, maxiter=maxiter,
        callback=record, callback_type="pr_norm",
    )
    # scipy ends every restart cycle with the product at the x it returns
    ax = last[1] if last[0] is x else apply_a(x)
    if np.any(x) and np.array_equal(ax, x):
        # T annihilates the solution (an inert medium, a lone point): x = rhs
        # exactly, where GMRES returns (b/||b||)*||b||; x = 0 (tol >= 1) is no such case
        x, info, residual = rhs.copy(), 0, 0.0
        history.clear()
    else:
        residual = _relative_residual(ax, rhs)
    if info != 0 or residual > tol:
        raise ConvergenceError(
            f"GMRES failed to reach {tol:.1e} (info={info}, residual={residual:.3e})",
            residual_history=history,
        )
    path = SolverPath("iterative", name, iterations=len(history), restart=restart,
                      maxiter=maxiter)
    return x, residual, path


def solve(system, rhs, cloud: ParticleCloud, medium: MediumParams, *,
          tol=None, max_iter=None) -> CurlSolution:
    """Solve the system (dense matrix or lattice operator) for P and derive
    the induced moments Q."""
    x, residual, path = linear_solve(system, rhs, tol=tol, max_iter=max_iter)
    P = x.reshape(-1, 3)
    Q = -system_coefficients(cloud, medium)[:, np.newaxis] * P
    return CurlSolution(P=P, Q=Q, residual_norm=residual, path=path)


def solve_las(cloud, medium, wave, *, tol=None, max_iter=None) -> CurlSolution:
    """Assemble and solve in one call by GMRES: matrix-free when the centers
    form a lattice (every cloud `place_particles` emits), else on the dense
    matrix."""
    system = system_operator(cloud.centers, system_coefficients(cloud, medium), medium.k)
    rhs = curl_E0(wave, medium.k, cloud.centers).reshape(-1)
    return solve(system, rhs, cloud, medium, tol=tol, max_iter=max_iter)


def _relative_residual(ax, rhs):
    rhs_norm = np.linalg.norm(rhs)
    return float(np.linalg.norm(ax - rhs) / rhs_norm) if rhs_norm > 0 else 0.0


def _products(system):
    """(operator name, A v) for the dense matrix A = I + T or a lattice
    operator applying T."""
    if isinstance(system, np.ndarray):
        return "dense", lambda v: system @ v
    return "lattice-fft", lambda v: v + system.apply(v)


def _arnoldi(apply_a, v, steps):
    """The (j+1)-by-j Hessenberg matrix H of j <= steps Arnoldi steps on A
    from the start vector v, orthogonalized by classical Gram-Schmidt run
    twice (Giraud et al., Numer. Math. 101, 2005). It stops early, after j
    steps, when the Krylov space is invariant (H[j, j - 1] == 0)."""
    basis = np.empty((steps + 1, v.size), dtype=complex)
    H = np.zeros((steps + 1, steps), dtype=complex)
    basis[0] = v / np.linalg.norm(v)
    for j in range(steps):
        w = apply_a(basis[j])
        for _ in range(2):
            c = basis[:j + 1].conj() @ w
            w = w - c @ basis[:j + 1]
            H[:j + 1, j] += c
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] == 0.0:
            return H[:j + 2, :j + 1]
        basis[j + 1] = w / H[j + 1, j]
    return H


def condition_estimate(system) -> float:
    """sigma_max / sigma_min of the Hessenberg matrix of CONDITION_STEPS Arnoldi
    steps (at most one per unknown, one product each) on the dense matrix
    A = I + T or a LatticeOperator applying T, from a seeded vector. Its extreme
    singular values lie between those of A (Saad, Iterative Methods for Sparse
    Linear Systems, 2nd ed., 2003, sec. 6.3), so this never exceeds cond_2(A)
    up to rounding. A near-singular system raises IllConditionedWarning."""
    _, apply_a = _products(system)
    n = system.shape[0]
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    s = np.linalg.svd(_arnoldi(apply_a, v, min(CONDITION_STEPS, n)), compute_uv=False)
    cond = float(s[0] / s[-1])
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"condition estimate {cond:.3g} exceeds {CONDITION_WARN_THRESHOLD:.0e}; the "
            "continuous problem is uniquely solvable, so a near-singular system signals "
            "invalid parameters",
            IllConditionedWarning,
        )
    return cond


def probe_field(medium: MediumParams, wave: PlaneWave, x, sources, moments, excluded,
                notes=(), with_h=True) -> FieldSample:
    """E(x) = E0(x) + sum_m [grad g(x, y_m), Q_m] and H = curl E / (i omega mu0)
    at probe point(s) x, for dipole moments Q_m at the sources y_m; with
    with_h=False, E alone (bitwise the same) and H = None.

    excluded[i] lists the sources whose terms are dropped at probe i; sources
    with a zero moment drop out at every probe.
    """
    x = as_point(x)
    probes = np.atleast_2d(x)
    E = eval_E0(wave, medium.k, probes)
    curlE = curl_E0(wave, medium.k, probes) if with_h else None
    live = np.any(moments != 0, axis=1)
    if not np.all(live):
        index = np.cumsum(live) - 1  # position of each live source among the live ones
        excluded = [index[cols][live[cols]] for cols in excluded]
        sources, moments = sources[live], moments[live]
    if np.any(live):
        field, curl = dipole_sums(probes, sources, moments, medium.k, excluded, curl=with_h)
        E = E + field
        if with_h:
            curlE = curlE + curl
    row = 0 if x.ndim == 1 else slice(None)  # a single point gives (3,) vectors
    H = curlE[row] / (1j * medium.omega * medium.mu0) if with_h else None
    return FieldSample(E=E[row], H=H, warnings=tuple(notes))


def eval_field(solution: CurlSolution, cloud: ParticleCloud, medium: MediumParams,
               wave: PlaneWave, x, with_h=True) -> FieldSample:
    """Evaluate E and H (E alone when with_h is False) at probe point(s) x
    from the solved moments.

    Terms with |x - x_j| <= 2a are dropped, which realizes the effective-field
    convention near a sphere; probing exactly at a center is therefore allowed.
    """
    excluded = cloud.within(x, 2.0 * cloud.radius)
    return probe_field(medium, wave, x, cloud.centers, solution.Q, excluded, with_h=with_h)


@dataclass(frozen=True)
class NeglectReport:
    """Size of the neglected sub-wavelength correction versus the kept dipole
    term: j1 is the kept term at nearest-neighbor separation, j2_bound the
    correction bound a max(1/d^3, |k|^2/d) |Q|, ratio_bound = max(a/d, |k| a)."""

    j1_max: float
    j2_bound_max: float
    ratio_bound: float
    a_over_d: float
    ka: float

    def to_json_dict(self):
        return dataclasses.asdict(self)


def neglect_estimates(cloud: ParticleCloud, medium: MediumParams,
                      solution: CurlSolution) -> NeglectReport:
    """Evaluate the neglect diagnostics at each particle's nearest neighbor;
    a/d, |k| a and their ratio bound are the cloud's diagnose values."""
    k = medium.k
    diag = diagnose(cloud, k)
    bounds = {"ratio_bound": diag.ratio_bound, "a_over_d": diag.a_over_d, "ka": diag.ka}
    if cloud.M == 1:
        return NeglectReport(j1_max=0.0, j2_bound_max=0.0, **bounds)
    d_nn, nn = cloud.nearest
    j1 = np.linalg.norm(cross(grad_g(cloud.centers[nn], cloud.centers, k), solution.Q), axis=-1)
    q_norm = np.linalg.norm(solution.Q, axis=-1)
    j2 = cloud.radius * np.maximum(1.0 / d_nn ** 3, abs(k) ** 2 / d_nn) * q_norm
    return NeglectReport(j1_max=float(j1.max()), j2_bound_max=float(j2.max()), **bounds)
