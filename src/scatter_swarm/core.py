"""Complex 3-vector algebra, medium parameters, domain geometry and material samplers.

Everything here is immutable after construction and safe to share across
threads. Vectors are plain numpy arrays of shape (..., 3); complex fields use
dtype complex128 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError


# ---------------------------------------------------------------------------
# vector algebra
# ---------------------------------------------------------------------------

def cross(u, v):
    """Cross product u x v over the last axis (complex-safe, no conjugation).

    The component formula of numpy.cross, in its operation order, without its
    axis bookkeeping; the result is bitwise numpy.cross(u, v)."""
    u, v = np.asarray(u), np.asarray(v)
    if u.shape[-1:] != (3,) or v.shape[-1:] != (3,):
        raise ValueError(f"cross needs 3-vectors on the last axis, got {u.shape} and {v.shape}")
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    first = u1 * v2
    out = np.empty(first.shape + (3,), dtype=first.dtype)
    out[..., 0] = first
    out[..., 0] -= u2 * v1
    np.multiply(u2, v0, out=out[..., 1])
    out[..., 1] -= u0 * v2
    np.multiply(u0, v1, out=out[..., 2])
    out[..., 2] -= u1 * v0
    return out


def dot(u, v):
    """Bilinear dot product (u, v) over the last axis, without conjugation."""
    return np.sum(np.asarray(u) * np.asarray(v), axis=-1)


def tangential(E, N):
    """Tangential component E - N (E, N) of E relative to the unit vector N.

    Equals [N, [E, N]] for |N| = 1.
    """
    E = np.asarray(E)
    N = np.asarray(N)
    return E - N * dot(E, N)[..., np.newaxis]


def as_point(x):
    """Coerce to a float array of shape (3,) or (..., 3)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ParameterError(f"expected 3-vector(s), got shape {x.shape}")
    return x


def complex_array(pairs):
    """Complex array of shape (...) from [re, im] pairs of shape (..., 2).

    The exact inverse of the CLI's JSON writer: a float view of the pairs
    keeps -0.0, infinite and NaN parts bit for bit (re + 1j*im does not).
    A complex array passes through as a copy.
    """
    arr = np.array(pairs)
    if np.iscomplexobj(arr):
        return arr
    arr = np.ascontiguousarray(arr, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=complex)
    if arr.shape[-1:] != (2,):
        raise DataError(f"expected [re, im] pairs, got an array of shape {arr.shape}")
    return arr.view(complex)[..., 0]


def as_cvec(v):
    """Coerce to a complex array of shape (..., 3)."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] != 3:
        raise ParameterError(f"expected 3-vector(s), got shape {v.shape}")
    return v


# ---------------------------------------------------------------------------
# medium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumParams:
    """Ambient medium: permittivity, permeability, conductivity, frequency.

    Units are normalized (eps0 = mu0 = 1 by default) but all formulas carry
    omega and mu0 explicitly, so physical units work unchanged.
    """

    eps0: float = 1.0
    mu0: float = 1.0
    sigma0: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("omega", "eps0", "mu0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ParameterError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.sigma0 < math.inf:
            raise ParameterError(f"sigma0 must be finite and >= 0, got {self.sigma0}")

    @property
    def eps_eff(self) -> complex:
        """Effective permittivity eps0 + i sigma0 / omega of a conducting host."""
        return complex(self.eps0, self.sigma0 / self.omega)

    @property
    def k(self) -> complex:
        return wavenumber(self)


def wavenumber(medium: MediumParams) -> complex:
    """Principal wavenumber: k^2 = omega^2 (eps0 + i sigma0/omega) mu0, Im k >= 0."""
    k2 = medium.omega ** 2 * medium.eps_eff * medium.mu0
    k = complex(np.sqrt(complex(k2)))
    if k.imag < 0.0:
        k = -k
    return k


def moment_coupling(medium: MediumParams) -> complex:
    """Coupling constant 8 pi i / (3 omega mu0).

    Multiplies h(x) N(x) in the medium response Psi and multiplies
    a^(2-kappa) h(x_m) in the per-sphere induced moment; the 8 pi / 3 is the
    surface-normal second moment of a sphere.
    """
    return 8j * math.pi / (3.0 * medium.omega * medium.mu0)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimDomain:
    """Axis-aligned box holding the scatterer distribution."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lo).copy()
        hi = as_point(self.hi).copy()
        if not np.all(lo < hi):
            raise ParameterError(f"domain must have lo < hi componentwise, got {lo} !< {hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    def contains(self, x):
        """Boolean (or boolean array) marking points inside the closed box; a
        NaN coordinate lies outside. One compare per axis, without an
        (..., 3) mask."""
        x = as_point(x)
        inside = (x[..., 0] >= self.lo[0]) & (x[..., 0] <= self.hi[0])
        for i in (1, 2):
            inside &= (x[..., i] >= self.lo[i]) & (x[..., i] <= self.hi[i])
        return inside


def grid_dims(spec, what) -> tuple:
    """Per-axis counts of a grid from one count or three; fewer than 2 of
    `what` along an axis is a ParameterError."""
    dims = (int(spec),) * 3 if np.isscalar(spec) else tuple(int(n) for n in spec)
    if min(dims) < 2:
        raise ParameterError(f"need at least 2 {what} per axis, got {dims}")
    return dims


def node_points(origin, spacing, dims, offset=0.0) -> np.ndarray:
    """Nodes origin + spacing * (index + offset) of a grid with dims[i] nodes
    along axis i, shape dims + (3,); offset 0.5 gives cell midpoints."""
    axes = [origin[i] + spacing[i] * (np.arange(dims[i]) + offset) for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def box_nodes(lo, hi, dims) -> np.ndarray:
    """dims[i] nodes along axis i from lo[i] to hi[i] with both faces exact (a
    count of 1 gives lo), shape dims + (3,): the layout of every grid that
    spans a box, where node_points lays out lattices and cell midpoints."""
    axes = [np.linspace(lo[i], hi[i], dims[i]) for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# material samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantField:
    """Spatially constant sampler; its samples are a read-only broadcast of
    the one value, so sampling allocates nothing per point."""

    value: complex

    def __call__(self, points):
        points = as_point(points)
        return np.broadcast_to(complex(self.value), points.shape[:-1])


@dataclass(frozen=True)
class GaussianBump:
    """Isotropic Gaussian bump: amplitude * exp(-|x - center|^2 / (2 width^2))."""

    amplitude: complex
    center: tuple = (0.0, 0.0, 0.0)
    width: float = 1.0

    def __post_init__(self):
        if not (self.width > 0):
            raise ParameterError(f"width must be positive, got {self.width}")

    def __call__(self, points):
        points = as_point(points)
        r2 = np.sum((points - np.asarray(self.center, dtype=float)) ** 2, axis=-1)
        return complex(self.amplitude) * np.exp(-r2 / (2.0 * self.width ** 2))


_MONOMIALS = {
    "1": (0, 0, 0),
    "x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1),
    "xx": (2, 0, 0), "yy": (0, 2, 0), "zz": (0, 0, 2),
    "xy": (1, 1, 0), "xz": (1, 0, 1), "yz": (0, 1, 1),
}


@dataclass(frozen=True)
class PolynomialField:
    """Trivariate polynomial up to total degree 2: {"1": c0, "x": c1, "xy": ...}."""

    coeffs: dict

    def __post_init__(self):
        for key in self.coeffs:
            if key not in _MONOMIALS:
                raise ParameterError(f"unknown monomial {key!r}; allowed: {sorted(_MONOMIALS)}")

    def __call__(self, points):
        points = as_point(points)
        out = np.zeros(points.shape[:-1], dtype=complex)
        x, y, z = points[..., 0], points[..., 1], points[..., 2]
        for key, c in self.coeffs.items():
            px, py, pz = _MONOMIALS[key]
            out = out + complex(c) * x ** px * y ** py * z ** pz
        return out


class VoxelGrid:
    """Node-centered voxel field with trilinear interpolation.

    Nodes sit at origin + index * spacing; queries outside the grid's box
    return 0. Serializes as {dims, origin, spacing, values} with values
    flattened in C order.
    """

    def __init__(self, origin, spacing, values):
        origin = as_point(origin).copy()
        spacing = np.asarray(spacing, dtype=float).copy()
        values = np.asarray(values, dtype=complex).copy()
        if spacing.shape != (3,) or not np.all(np.isfinite(spacing) & (spacing > 0)):
            raise ParameterError(f"spacing must be 3 finite positive steps, got {spacing}")
        if not np.all(np.isfinite(origin)):
            raise ParameterError(f"origin must be finite, got {origin}")
        if values.ndim != 3 or min(values.shape) < 2:
            raise ParameterError(f"values must be (nx, ny, nz) with all dims >= 2, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("voxel grid contains NaN or infinite entries")
        for arr in (origin, spacing, values):
            arr.setflags(write=False)
        self.origin = origin
        self.spacing = spacing
        self.values = values

    @property
    def dims(self):
        return self.values.shape

    def __call__(self, points):
        points = as_point(points)
        flat = points.reshape(-1, 3)
        t = (flat - self.origin) / self.spacing
        hi = np.asarray(self.dims, dtype=float) - 1.0
        inside = np.all((t >= -1e-12) & (t <= hi + 1e-12), axis=-1)
        t = np.clip(t, 0.0, hi)
        i0 = np.minimum(t.astype(int), (np.asarray(self.dims) - 2))
        f = t - i0
        out = np.zeros(flat.shape[0], dtype=complex)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (np.where(dx, f[:, 0], 1 - f[:, 0])
                         * np.where(dy, f[:, 1], 1 - f[:, 1])
                         * np.where(dz, f[:, 2], 1 - f[:, 2]))
                    out += w * self.values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
        out[~inside] = 0.0
        return out.reshape(points.shape[:-1])

    def to_json_dict(self):
        return {"dims": self.dims, "origin": self.origin,
                "spacing": self.spacing, "values": self.values.reshape(-1)}

    @classmethod
    def from_json_dict(cls, d):
        dims = d["dims"]
        if not (isinstance(dims, (list, tuple)) and len(dims) == 3
                and all(isinstance(n, int) and not isinstance(n, bool) for n in dims)):
            raise DataError(f"voxel dims must be a list of three integers, got {dims!r}")
        vals = complex_array(d["values"])
        if vals.size != dims[0] * dims[1] * dims[2]:
            raise DataError(f"voxel value count {vals.size} does not match dims {dims}")
        return cls(d["origin"], d["spacing"], vals.reshape(dims))


@dataclass(frozen=True)
class MaterialFields:
    """Samplers for the impedance function h (complex, Re h >= 0) and the
    particle density N (real, >= 0) over a box domain; both vanish outside."""

    domain: SimDomain
    h: object = field(default_factory=lambda: ConstantField(0.0))
    N: object = field(default_factory=lambda: ConstantField(0.0))

    def sample(self, x):
        """Return (h(x), N(x)); both are zero outside the domain."""
        x = as_point(x)
        inside = self.domain.contains(x)
        h = np.asarray(self.h(x), dtype=complex)
        N = np.asarray(self.N(x))
        if np.iscomplexobj(N):
            if np.any(N.imag):  # a reduction, without an array of |Im N|
                raise ParameterError("density N must be real-valued")
            N = N.real
        N = np.asarray(N, dtype=float)
        if not np.all(inside):
            h = np.where(inside, h, 0.0)
            N = np.where(inside, N, 0.0)
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(N))):
            raise DataError("material sampler produced NaN or infinite values")
        if np.any(h.real < 0.0):
            raise ParameterError("impedance function must satisfy Re h >= 0")
        if np.any(N < 0.0):
            raise ParameterError("density N must be >= 0")
        if x.ndim == 1:
            return complex(h), float(N)
        return h, N
