"""Particle cloud generation realizing the count law M ~ a^-(2-kappa) * integral(N)
and the impedance law zeta_m = h(x_m) / a^kappa, plus separation diagnostics.

Placement thins a cubic lattice of spacing d = (a^(2-kappa) / N_max)^(1/3)
by one seeded rule for every density: each node is kept with probability
N(x) / N_max. The count law constrains only counts, not positions, so the
lattice is a reproducible choice; a constant N keeps every node.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import greens
from .core import MaterialFields, SimDomain, as_point, box_nodes, complex_array, node_points
from .errors import OverlapError, ParameterError

# bytes per placement-lattice node that place_particles holds at its peak:
# the nodes, the impedances, the keep mask and the cloud with its neighbour
# index; on a 22^3 lattice tracemalloc measures 154 with a constant N and 96
# with a Gaussian bump of width 0.25
NODE_BYTES = 160


@dataclass(frozen=True)
class ParticleCloud:
    """Immutable set of sphere centers with common radius and per-sphere impedance."""

    centers: np.ndarray       # (M, 3)
    radius: float             # a
    kappa: float
    zeta: np.ndarray          # (M,) complex, zeta_m = h(x_m) / a^kappa
    h_at_centers: np.ndarray  # (M,) complex

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float)).reshape(-1, 3).copy()
        zeta = np.asarray(self.zeta, dtype=complex).reshape(-1).copy()
        h = np.asarray(self.h_at_centers, dtype=complex).reshape(-1).copy()
        if not (self.radius > 0):
            raise ParameterError(f"radius must be positive, got {self.radius}")
        if not (0.0 < self.kappa < 1.0):
            raise ParameterError(f"kappa must lie in (0, 1), got {self.kappa}")
        if zeta.shape[0] != centers.shape[0] or h.shape[0] != centers.shape[0]:
            raise ParameterError("centers, zeta and h_at_centers must have matching lengths")
        if np.any(zeta.real < 0):
            raise ParameterError("impedances must satisfy Re zeta >= 0")
        for arr in (centers, zeta, h):
            arr.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "h_at_centers", h)
        d_min = float(self.nearest[0].min()) if self.M >= 2 else math.inf
        if d_min <= 2.0 * self.radius:
            raise OverlapError(f"nearest centers are {d_min:.6g} apart but spheres have "
                               f"diameter {2 * self.radius:.6g}")

    @functools.cached_property
    def _tree(self):
        # the one neighbour index, kept with the cloud; scipy.spatial loads only here
        from scipy.spatial import cKDTree

        return cKDTree(self.centers)

    @functools.cached_property
    def nearest(self):
        """(distance, index) of each center's nearest other center, from one
        k=2 query; a lone center gets (inf, M)."""
        dists, idx = self._tree.query(self.centers, k=2)
        return dists[:, 1].copy(), idx[:, 1].copy()  # the columns alone stay cached

    def within(self, points, radius):
        """Per point, the list of centers at distance <= radius from it."""
        return self._tree.query_ball_point(np.atleast_2d(as_point(points)), radius)

    @property
    def M(self) -> int:
        return self.centers.shape[0]

    def to_json_dict(self):
        return {"centers": self.centers, "a": self.radius, "kappa": self.kappa,
                "zeta": self.zeta}

    @classmethod
    def from_json_dict(cls, d):
        zeta = complex_array(d["zeta"])
        a = float(d["a"])
        kappa = float(d["kappa"])
        return cls(
            centers=np.asarray(d["centers"], dtype=float).reshape(-1, 3),
            radius=a,
            kappa=kappa,
            zeta=zeta,
            h_at_centers=zeta * a ** kappa,
        )


@dataclass(frozen=True)
class CloudDiagnostics:
    """Separation and count-law diagnostics of a placed cloud."""

    M: int
    d_min: float
    d_mean: float
    a_over_d: float
    ka: float
    count_error: float

    @property
    def ratio_bound(self) -> float:
        """The neglect ratio bound max(a/d, |k| a)."""
        return max(self.a_over_d, self.ka)

    def to_json_dict(self):
        return dataclasses.asdict(self)


def _axis_count(length, d):
    # integer cells of size d fitting in length, robust to roundoff at exact fits
    return int(math.floor(length / d + 1e-9))


def _lattice_nodes(domain: SimDomain, d):
    counts = [_axis_count(L, d) for L in domain.extent]
    if min(counts) < 1:
        raise ParameterError(
            f"no lattice node of spacing {d:.6g} fits in the domain extent {domain.extent}"
        )
    nbytes = NODE_BYTES * math.prod(counts)
    greens.require_memory(nbytes, f"the placement lattice of spacing {d:.6g} has "
                          f"{'x'.join(map(str, counts))} nodes and needs {nbytes} bytes")
    origin = domain.lo + (domain.extent - np.asarray(counts) * d) / 2.0
    return node_points(origin, (d, d, d), counts, offset=0.5).reshape(-1, 3)


def place_particles(domain: SimDomain, fields: MaterialFields, a, kappa, seed=0) -> ParticleCloud:
    """Place spheres of radius a in the domain per the count and impedance laws.

    The lattice spacing d = (a^(2-kappa)/N_max)^(1/3) is set by the densest
    region, N_max being the maximum of N on a 25^3 probe grid; each node is
    kept with probability N(x)/N_max by one seeded draw (reproducible). A
    constant density has ratio 1 everywhere, so it keeps the whole lattice.
    A density peak the probe grid misses would need a keep-probability above
    1 and raises ParameterError. A lattice whose placement would not fit in
    the available memory (NODE_BYTES per node) raises MemoryBudgetError
    before it is built.
    """
    if not (0.0 < kappa < 1.0):
        raise ParameterError(f"kappa must lie in (0, 1), got {kappa}")
    if not (a > 0):
        raise ParameterError(f"radius a must be positive, got {a}")

    probe = box_nodes(domain.lo, domain.hi, (25, 25, 25)).reshape(-1, 3)
    N_ref = float(fields.sample(probe)[1].max())
    del probe  # released before the lattice, whose peak NODE_BYTES bounds
    if N_ref <= 0.0:
        return _empty_cloud(a, kappa)

    d = (a ** (2.0 - kappa) / N_ref) ** (1.0 / 3.0)
    if d <= 2.0 * a:
        raise OverlapError(
            f"lattice spacing {d:.6g} does not exceed the sphere diameter {2 * a:.6g}; "
            "the radius is too large for the requested density"
        )
    nodes = _lattice_nodes(domain, d)
    h_vals, N_vals = fields.sample(nodes)
    worst = int(np.argmax(N_vals))
    ratio = N_vals[worst] / N_ref  # the largest keep-probability: x / N_ref is monotone in x
    if ratio > 1.0 + 1e-12:  # margin for rounding at plateaus of N
        raise ParameterError(
            f"density at lattice node {nodes[worst].tolist()} is {ratio:.6g} times "
            f"the maximum {N_ref:.6g} found on the 25^3 probe grid, so its keep-probability "
            "exceeds 1: the probe grid misses a density peak"
        )
    keep = np.random.default_rng(seed).random(nodes.shape[0]) < N_vals / N_ref
    if np.all(keep):  # a constant density keeps every node: no masked copies
        centers, h_c = nodes, h_vals
    else:
        centers, h_c = nodes[keep], h_vals[keep]
    return ParticleCloud(
        centers=centers,
        radius=float(a),
        kappa=float(kappa),
        zeta=h_c / a ** kappa,
        h_at_centers=h_c,
    )


def _empty_cloud(a, kappa):
    return ParticleCloud(
        centers=np.zeros((0, 3)),
        radius=float(a),
        kappa=float(kappa),
        zeta=np.zeros(0, dtype=complex),
        h_at_centers=np.zeros(0, dtype=complex),
    )


def diagnose(cloud: ParticleCloud, k, fields: MaterialFields | None = None) -> CloudDiagnostics:
    """Report count, nearest-neighbor distances, a/d, |k| a and the per-octant
    deviation of realized counts from the count law (needs the fields)."""
    if cloud.M < 1:
        raise ParameterError("diagnostics require at least one particle")
    nn = cloud.nearest[0]  # inf for a lone sphere, whose a/d is then 0
    d_min = float(nn.min())
    count_error = _octant_count_error(cloud, fields) if fields is not None else math.nan
    return CloudDiagnostics(
        M=cloud.M,
        d_min=d_min,
        d_mean=float(nn.mean()),
        a_over_d=cloud.radius / d_min,
        ka=float(abs(k) * cloud.radius),
        count_error=count_error,
    )


def _octant_count_error(cloud, fields):
    """Largest relative deviation of an octant's center count from the count
    law, whose integral of N is the midpoint rule on a 12^3 grid per octant;
    the eight grids are sampled in one call."""
    per_axis = 12  # count-law samples per axis of each octant
    dom = fields.domain
    mid = 0.5 * (dom.lo + dom.hi)
    scale = 1.0 / cloud.radius ** (2.0 - cloud.kappa)
    # octant o lies above mid on axis b where its bit b is set
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1
    lo = np.where(bits, mid, dom.lo)
    hi = np.where(bits, dom.hi, mid)
    axes = lo[..., None] + (hi - lo)[..., None] * (np.arange(per_axis) + 0.5) / per_axis
    pts = np.empty((8, per_axis, per_axis, per_axis, 3))
    pts[..., 0] = axes[:, 0, :, None, None]
    pts[..., 1] = axes[:, 1, None, :, None]
    pts[..., 2] = axes[:, 2, None, None, :]
    density = fields.sample(pts.reshape(-1, 3))[1].reshape(8, -1).sum(axis=1)
    expected = scale * density * np.prod((hi - lo) / per_axis, axis=1)
    # closed upper boundary only on the domain's upper faces
    centers = cloud.centers
    inside = np.all((centers >= dom.lo) & (centers < dom.hi + 1e-12), axis=1)
    octant = ((centers[inside] >= mid) << np.arange(3)).sum(axis=1)
    realized = np.bincount(octant, minlength=8)
    return float(np.max(np.abs(realized - expected) / np.maximum(expected, 1.0)))
