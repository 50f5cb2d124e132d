"""Solvers for electromagnetic wave scattering by many small impedance spheres.

Modules:
    core          vector algebra, medium parameters, geometry, material samplers
    greens        Helmholtz point kernel, derivatives, shared curl kernel
    incident      plane-wave incident field
    particles     cloud placement (count + impedance laws) and diagnostics
    las           many-sphere linear system for P_m = (curl E)(x_m), field evaluation
    limit         limiting-medium collocation solver and effective-medium design
    sphere_oracle single-sphere boundary-integral truth source
    cli           batch front-end (scatter-swarm run | study | validate)
"""

__version__ = "0.1.0"

from .core import (ConstantField, GaussianBump, MaterialFields, MediumParams,
                   PolynomialField, SimDomain, VoxelGrid, moment_coupling,
                   wavenumber)
from .greens import curl_dipole_kernel, eval_g, grad_g, hessian_g
from .incident import PlaneWave, curl_E0, eval_E0, eval_H0
from .las import (CurlSolution, FieldSample, assemble_system, eval_field,
                  neglect_estimates, solve, solve_las)
from .limit import (CollocationGrid, EffectiveMedium, LimitSolution,
                    design_materials, effective_medium, eval_limit_field,
                    pde_residual, solve_limit)
from .particles import CloudDiagnostics, ParticleCloud, diagnose, place_particles
from .sphere_oracle import (AsymptoticsReport, SphereMesh, SphereSolution,
                            apply_A, build_rhs, solve_sphere, sphere_moment,
                            verify_asymptotics)

__all__ = [
    "__version__",
    "ConstantField", "GaussianBump", "MaterialFields", "MediumParams",
    "PolynomialField", "SimDomain", "VoxelGrid", "moment_coupling",
    "wavenumber",
    "curl_dipole_kernel", "eval_g", "grad_g", "hessian_g",
    "PlaneWave", "curl_E0", "eval_E0", "eval_H0",
    "CurlSolution", "FieldSample", "assemble_system", "eval_field",
    "neglect_estimates", "solve", "solve_las",
    "CollocationGrid", "EffectiveMedium", "LimitSolution", "design_materials",
    "effective_medium", "eval_limit_field", "pde_residual", "solve_limit",
    "CloudDiagnostics", "ParticleCloud", "diagnose", "place_particles",
    "AsymptoticsReport", "SphereMesh", "SphereSolution", "apply_A",
    "build_rhs", "solve_sphere", "sphere_moment", "verify_asymptotics",
]
