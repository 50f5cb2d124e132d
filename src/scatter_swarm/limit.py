"""Limiting-medium solver and effective-medium design.

The continuum limit of the many-sphere system is solved in the unknown
W = curl E by midpoint collocation over a uniform cell partition of the
domain, reusing the exact pairwise kernel of the discrete system (matched
cells and weights give identical matrices entrywise) and the same GMRES solve.
The resulting medium is characterized by
    Psi(x) = 1 + c h(x) N(x),    mu(x) = mu0 / Psi(x),    K^2(x) = k^2 / Psi(x),
with c = 8 pi i / (3 omega mu0); design inverts these relations for h.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import (MaterialFields, MediumParams, SimDomain, VoxelGrid, as_point, box_nodes,
                   cross, grid_dims, moment_coupling, node_points)
from .errors import ParameterError, PoleError, StencilError
# dipole_curl_sum, dipole_field_sum and interaction_matrix stay bound here for
# solverbench/tracing.py; every cell row goes through las.system_operator
from .greens import dipole_curl_sum, dipole_field_sum, interaction_matrix  # noqa: F401
from .incident import PlaneWave, curl_E0
from .las import FieldSample, SolverPath, linear_solve, probe_field, system_operator


@dataclass(frozen=True)
class CollocationGrid:
    """Uniform cell partition of the domain with midpoint quadrature weights
    w_p = h(y_p) N(y_p) |cell|."""

    centers: np.ndarray      # (P, 3) cell midpoints
    weights: np.ndarray      # (P,) complex
    cell_volume: float
    dims: tuple
    lo: np.ndarray
    spacing: np.ndarray

    @classmethod
    def build(cls, domain: SimDomain, fields: MaterialFields, cells_per_axis):
        dims = grid_dims(cells_per_axis, "cells")
        spacing = domain.extent / np.asarray(dims)
        centers = node_points(domain.lo, spacing, dims, offset=0.5).reshape(-1, 3)
        vol = float(np.prod(spacing))
        h, N = fields.sample(centers)
        weights = np.asarray(h) * np.asarray(N) * vol
        return cls(centers=centers, weights=weights, cell_volume=vol, dims=dims,
                   lo=domain.lo.copy(), spacing=spacing)

    @property
    def P(self) -> int:
        return self.centers.shape[0]

    def cell_of(self, x):
        """Index of the cell containing each point (an int for one point), -1 outside."""
        t = np.floor((as_point(x) - self.lo) / self.spacing).astype(int)
        cells = np.ravel_multi_index(np.moveaxis(t, -1, 0), self.dims, mode="clip")
        cells = np.where(np.all((t >= 0) & (t < self.dims), axis=-1), cells, -1)
        return int(cells) if t.ndim == 1 else cells


@dataclass(frozen=True)
class LimitSolution:
    """Curl values W_p = (curl E)(y_p) of the limiting field at cell midpoints."""

    W: np.ndarray            # (P, 3) complex
    grid: CollocationGrid
    residual_norm: float
    path: SolverPath


def solve_limit(domain: SimDomain, fields: MaterialFields, medium: MediumParams,
                wave: PlaneWave, cells_per_axis, *, tol=None, max_iter=None) -> LimitSolution:
    """Collocate the curl of the limiting integral equation and solve for W.

    The p = q self-cell term is dropped (the diagonal is the identity),
    mirroring the self-exclusion of the discrete system; refinement studies
    quantify the committed cell-size error. The active cells (h N != 0) are
    solved by GMRES on the matrix-free FFT operator, at any grid size; the
    passive rows come from one product of T over the whole grid.
    """
    grid = CollocationGrid.build(domain, fields, cells_per_axis)
    k = medium.k
    c = moment_coupling(medium)
    active = np.abs(grid.weights) > 0.0
    W = np.asarray(curl_E0(wave, k, grid.centers), dtype=complex)
    residual = 0.0
    path = SolverPath("none", operator="none")
    if np.any(active):
        system = system_operator(grid.centers[active], c * grid.weights[active], k)
        x, residual, path = linear_solve(system, W[active], tol=tol, max_iter=max_iter)
        del system  # free the active operator before the whole-grid one is built
        W[active] = x.reshape(-1, 3)
        if not np.all(active):
            # passive rows do not feed back: their coefficient 0 drops them from T W
            T = system_operator(grid.centers, c * grid.weights, k)
            W[~active] -= T.apply(W).reshape(-1, 3)[~active]
    return LimitSolution(W=W, grid=grid, residual_norm=residual, path=path)


def eval_limit_field(solution: LimitSolution, medium: MediumParams, wave: PlaneWave,
                     x, with_h=True) -> FieldSample:
    """Evaluate the limiting E and H (E alone when with_h is False) at probe
    point(s) from the cell moments -c w_p W_p.

    For a probe inside a weighted cell the self-cell term is dropped and a
    nearest-singularity warning is attached; the value is still returned.
    """
    grid = solution.grid
    cells = grid.cell_of(np.atleast_2d(as_point(x)))
    excluded = [[cell] if cell >= 0 else [] for cell in cells]
    notes = [f"probe {row} lies inside weighted cell {cells[row]}; self-cell dropped"
             for row in np.flatnonzero((cells >= 0) & (np.abs(grid.weights[cells]) > 0.0))]
    # a passive cell's moment is zero, so probe_field drops it
    moments = -moment_coupling(medium) * grid.weights[:, np.newaxis] * solution.W
    return probe_field(medium, wave, x, grid.centers, moments, excluded, notes, with_h=with_h)


# ---------------------------------------------------------------------------
# effective medium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveMedium:
    """Voxelized medium response Psi, permeability mu and refraction K^2.

    Node-centered voxel grid; mu Psi = mu0 and K^2 Psi = k^2 hold voxelwise by
    construction.
    """

    origin: np.ndarray
    spacing: np.ndarray
    Psi: np.ndarray     # (nx, ny, nz) complex
    mu: np.ndarray
    K2: np.ndarray
    hi: np.ndarray      # top corner of the box; the last node of each axis sits on it

    @property
    def dims(self):
        return self.Psi.shape

    def node_points(self):
        """The nodes Psi was sampled at, shape dims + (3,)."""
        return box_nodes(self.origin, self.hi, self.dims)


def effective_medium(fields: MaterialFields, medium: MediumParams, grid_spec) -> EffectiveMedium:
    """Voxelize Psi = 1 + c h N, mu = mu0/Psi and K^2 = k^2/Psi over the domain."""
    dims, domain = grid_dims(grid_spec, "nodes"), fields.domain
    h, N = fields.sample(box_nodes(domain.lo, domain.hi, dims).reshape(-1, 3))
    Psi = (1.0 + moment_coupling(medium) * np.asarray(h) * np.asarray(N)).reshape(dims)
    bad = np.abs(Psi) < 1e-10
    if np.any(bad):
        voxel = tuple(int(i) for i in np.argwhere(bad)[0])
        raise PoleError(f"medium response Psi vanishes at voxel {voxel}", voxel=voxel)
    k = medium.k
    return EffectiveMedium(
        origin=domain.lo.copy(),
        spacing=domain.extent / (np.asarray(dims) - 1.0),
        Psi=Psi,
        mu=medium.mu0 / Psi,
        K2=(k * k) / Psi,
        hi=domain.hi,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Which voxels of a designed impedance are physically admissible.

    Re h > 0 is lossy and admissible, Re h = 0 (with h != 0) is the lossless
    boundary case (reported distinctly), Re h < 0 is infeasible. Voxels
    needing a response (mu != mu0) where N = 0 cannot be realized at all.
    """

    total: int
    feasible: int
    lossless: int
    infeasible_voxels: tuple
    zero_density_conflicts: tuple

    @property
    def all_feasible(self) -> bool:
        return not self.infeasible_voxels and not self.zero_density_conflicts

    def to_json_dict(self):
        return {**dataclasses.asdict(self), "all_feasible": self.all_feasible}


def design_materials(target_mu: VoxelGrid, medium: MediumParams, N_choice):
    """Impedance grid h realizing a target permeability, with feasibility report.

    h(x) = (3 omega mu0 / (8 pi i)) (mu0 / mu(x) - 1) / N(x). Voxels with
    Re h < 0 are flagged infeasible; voxels with mu != mu0 but N = 0 are
    flagged as density conflicts (h there is set to 0).
    """
    mu_vals = np.asarray(target_mu.values)
    dims = mu_vals.shape
    if np.any(mu_vals == 0):
        voxel = tuple(int(i) for i in np.argwhere(mu_vals == 0)[0])
        raise PoleError(f"target permeability is zero at voxel {voxel}", voxel=voxel)
    if isinstance(N_choice, VoxelGrid):
        if N_choice.values.shape != dims:
            raise ParameterError("N grid dims must match the target mu grid")
        if np.any(N_choice.values.imag):
            raise ParameterError("density N must be real-valued")
        N_vals = N_choice.values.real
    else:
        N_vals = np.full(dims, float(N_choice))
    if np.any(N_vals < 0):
        raise ParameterError("density N must be >= 0")

    c = moment_coupling(medium)
    ratio = medium.mu0 / mu_vals - 1.0
    needs_response = ratio != 0.0
    conflicts = needs_response & (N_vals == 0.0)
    h_vals = np.zeros(dims, dtype=complex)
    ok = needs_response & ~conflicts
    h_vals[ok] = ratio[ok] / (c * N_vals[ok])

    infeasible = h_vals.real < 0.0
    lossless = (h_vals.real == 0.0) & (h_vals != 0.0)
    report = FeasibilityReport(
        total=int(np.prod(dims)),
        feasible=int(np.count_nonzero(~infeasible & ~conflicts)),
        lossless=int(np.count_nonzero(lossless)),
        infeasible_voxels=tuple(tuple(int(i) for i in v) for v in np.argwhere(infeasible)),
        zero_density_conflicts=tuple(tuple(int(i) for i in v) for v in np.argwhere(conflicts)),
    )
    h_grid = VoxelGrid(target_mu.origin, target_mu.spacing, h_vals)
    return h_grid, report


# ---------------------------------------------------------------------------
# PDE residual of a sampled field
# ---------------------------------------------------------------------------

def pde_residual(E, em: EffectiveMedium, medium: MediumParams) -> np.ndarray:
    """Finite-difference residual |curl curl E - K^2 E + [grad Psi / Psi, curl E]|
    per interior voxel of a field sampled on the medium's voxel grid.

    E has shape dims + (3,). Uses 2nd-order central stencils; two boundary
    layers are consumed, so the result has shape (nx-4, ny-4, nz-4). With
    grad mu / mu = -grad Psi / Psi this is the curl-curl equation of the
    variable-permeability medium.
    """
    E = np.asarray(E, dtype=complex)
    dims = em.dims
    if E.shape != dims + (3,):
        raise ParameterError(f"E must have shape {dims + (3,)}, got {E.shape}")
    if min(dims) < 5:
        raise StencilError(f"need at least 5 voxels per axis for the stencils, got {dims}")
    dx = [float(s) for s in em.spacing]

    def curl(F):
        dF = [[np.gradient(F[..., c], dx[ax], axis=ax) for ax in range(3)] for c in range(3)]
        return np.stack([
            dF[2][1] - dF[1][2],
            dF[0][2] - dF[2][0],
            dF[1][0] - dF[0][1],
        ], axis=-1)

    W = curl(E)
    curl_curl = curl(W)
    grad_psi = np.stack([np.gradient(em.Psi, dx[ax], axis=ax) for ax in range(3)], axis=-1)
    bracket = cross(grad_psi / em.Psi[..., np.newaxis], W)
    res = curl_curl - em.K2[..., np.newaxis] * E + bracket
    mag = np.linalg.norm(res, axis=-1)
    return mag[2:-2, 2:-2, 2:-2]
