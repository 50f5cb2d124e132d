import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scatter_swarm import greens, particles
from scatter_swarm.core import (ConstantField, GaussianBump, MaterialFields,
                                PolynomialField, SimDomain, VoxelGrid)
from scatter_swarm.cli import write_json
from scatter_swarm.errors import DataError, MemoryBudgetError, OverlapError, ParameterError
from scatter_swarm.particles import ParticleCloud, diagnose, place_particles


def axis_count(length, spacing):
    # independent enumeration: walk nodes until the next cell no longer fits
    n = 0
    while (n + 1) * spacing <= length * (1 + 1e-9):
        n += 1
    return n


@pytest.fixture
def unit_cube():
    return SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])


def constant_fields(domain, h=0.1, N=1.0):
    return MaterialFields(domain=domain, h=ConstantField(h), N=ConstantField(N))


def test_uniform_lattice_count_and_spacing(unit_cube):
    fields = constant_fields(unit_cube)
    cloud = place_particles(unit_cube, fields, a=0.01, kappa=0.5)
    d_expected = (0.01 ** 1.5) ** (1 / 3)
    assert abs(d_expected - 0.1) < 1e-15
    assert cloud.M == axis_count(1.0, d_expected) ** 3 == 1000
    diag = diagnose(cloud, 1.0)
    assert abs(diag.d_min - 0.1) < 1e-12
    assert abs(diag.a_over_d - 0.1) < 1e-10
    assert abs(diag.ka - 0.01) < 1e-15


def test_zero_density_gives_empty_cloud(unit_cube):
    fields = constant_fields(unit_cube, N=0.0)
    cloud = place_particles(unit_cube, fields, a=0.01, kappa=0.5)
    assert cloud.M == 0


@pytest.mark.parametrize("N", [
    ConstantField(-1.0), GaussianBump(amplitude=-1.0, center=(0.5, 0.5, 0.5), width=0.25),
], ids=["constant", "gaussian"])
def test_negative_density_is_a_parameter_error(unit_cube, N):
    fields = MaterialFields(domain=unit_cube, h=ConstantField(0.1), N=N)
    with pytest.raises(ParameterError, match="density N must be >= 0"):
        place_particles(unit_cube, fields, a=0.01, kappa=0.5)


def test_placement_reads_density_values_not_the_sampler_type(unit_cube):
    # a unit density sampled three ways gives one cloud: placement thins
    # every density by the same seeded draw, which keeps every node at ratio 1
    clouds = [place_particles(unit_cube, MaterialFields(domain=unit_cube, h=ConstantField(0.1),
                                                        N=N), a=0.02, kappa=0.5)
              for N in (ConstantField(1.0), PolynomialField({"1": 1.0}),
                        lambda pts: np.ones(pts.shape[:-1]))]
    for cloud in clouds[1:]:
        assert np.array_equal(cloud.centers, clouds[0].centers)
        assert np.array_equal(cloud.zeta, clouds[0].zeta)
    reseeded = place_particles(unit_cube, constant_fields(unit_cube), a=0.02, kappa=0.5, seed=5)
    assert np.array_equal(reseeded.centers, clouds[0].centers)
    assert np.array_equal(reseeded.zeta, clouds[0].zeta)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_nonfinite_constant_density_is_a_data_error(unit_cube, value):
    with pytest.raises(DataError, match="NaN or infinite"):
        place_particles(unit_cube, constant_fields(unit_cube, N=value), a=0.01, kappa=0.5)


def test_placement_lattice_memory_preflight(unit_cube, monkeypatch):
    # a = 0.01 gives a lattice of 10^3 nodes
    fields = constant_fields(unit_cube)
    nbytes = particles.NODE_BYTES * 1000
    monkeypatch.setattr(greens, "available_memory", lambda: nbytes - 1)
    with pytest.raises(MemoryBudgetError, match=f"10x10x10 nodes and needs {nbytes} bytes"):
        place_particles(unit_cube, fields, a=0.01, kappa=0.5)
    monkeypatch.setattr(greens, "available_memory", lambda: nbytes)
    assert place_particles(unit_cube, fields, a=0.01, kappa=0.5).M == 1000


def test_placement_peak_is_bounded_by_node_bytes(unit_cube):
    # a = 0.002 gives a lattice of 22^3 nodes; the first placement imports
    # scipy.spatial, so it runs before tracing starts
    fields = constant_fields(unit_cube)
    place_particles(unit_cube, fields, a=0.01, kappa=0.5)
    tracemalloc.start()
    try:
        cloud = place_particles(unit_cube, fields, a=0.002, kappa=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cloud.M == 22 ** 3
    assert 0.5 * particles.NODE_BYTES * cloud.M < peak <= particles.NODE_BYTES * cloud.M


def test_halving_radius_scales_count(unit_cube):
    fields = constant_fields(unit_cube)
    m1 = place_particles(unit_cube, fields, a=0.01, kappa=0.5).M
    m2 = place_particles(unit_cube, fields, a=0.005, kappa=0.5).M
    d2 = (0.005 ** 1.5) ** (1 / 3)
    assert m2 == axis_count(1.0, d2) ** 3
    # nearest integer lattice realization of the 2^1.5 factor
    assert m2 == 2744
    assert abs(m2 / m1 - 2 ** 1.5) < 0.1


def test_placement_is_deterministic(unit_cube):
    fields = constant_fields(unit_cube)
    c1 = place_particles(unit_cube, fields, a=0.02, kappa=0.5)
    c2 = place_particles(unit_cube, fields, a=0.02, kappa=0.5)
    assert np.array_equal(c1.centers, c2.centers)
    assert np.array_equal(c1.zeta, c2.zeta)


def test_impedance_law(unit_cube):
    fields = constant_fields(unit_cube, h=0.3 + 0.1j)
    cloud = place_particles(unit_cube, fields, a=0.02, kappa=0.7)
    assert np.abs(cloud.zeta - (0.3 + 0.1j) / 0.02 ** 0.7).max() < 1e-14
    assert np.abs(cloud.h_at_centers - (0.3 + 0.1j)).max() < 1e-15


def test_kappa_range_enforced(unit_cube):
    fields = constant_fields(unit_cube)
    for kappa in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ParameterError):
            place_particles(unit_cube, fields, a=0.01, kappa=kappa)


def test_overlap_guard(unit_cube):
    # huge density forces the lattice spacing below the sphere diameter
    fields = constant_fields(unit_cube, N=1e6)
    with pytest.raises(OverlapError):
        place_particles(unit_cube, fields, a=0.01, kappa=0.5)


def test_cloud_invariants_rejected():
    with pytest.raises(OverlapError):
        ParticleCloud(centers=[[0, 0, 0], [0.015, 0, 0]], radius=0.01, kappa=0.5,
                      zeta=np.ones(2, dtype=complex), h_at_centers=np.ones(2, dtype=complex))
    with pytest.raises(ParameterError):
        ParticleCloud(centers=[[0, 0, 0]], radius=0.01, kappa=0.5,
                      zeta=np.array([-1.0 + 0j]), h_at_centers=np.array([-1.0 + 0j]))


def test_single_particle_diagnostics():
    cloud = ParticleCloud(centers=[[0.5, 0.5, 0.5]], radius=0.01, kappa=0.5,
                          zeta=np.array([1.0 + 0j]), h_at_centers=np.array([0.1 + 0j]))
    diag = diagnose(cloud, 2.0)
    assert math.isinf(diag.d_min) and math.isinf(diag.d_mean)
    assert diag.a_over_d == 0.0
    assert abs(diag.ka - 0.02) < 1e-15
    # the lone sphere still answers ball queries
    probes = [[0.5, 0.5, 0.5], [0.5, 0.5, 0.519], [0.5, 0.5, 0.521]]
    assert [list(cols) for cols in cloud.within(probes, 0.02)] == [[0], [0], []]
    assert list(cloud.within(probes[0], 0.02)[0]) == [0]


def make_cloud(centers, a):
    h = np.full(len(centers), 0.1 + 0j)
    return ParticleCloud(centers=centers, radius=a, kappa=0.5, zeta=h / a ** 0.5, h_at_centers=h)


def jittered_lattice_cloud():
    # 6^3 lattice of spacing 0.1, each center moved by up to 0.015 per axis
    axes = [0.1 * (np.arange(6) + 0.5)] * 3
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return make_cloud(nodes + np.random.default_rng(3).uniform(-0.015, 0.015, nodes.shape), 0.03)


def random_cloud():
    centers = np.random.default_rng(8).uniform(0.0, 1.0, (150, 3))
    return make_cloud(centers, 0.45 * pair_distances(centers, centers).min())


def pair_distances(points, centers):
    # brute force, with a point's distance to itself taken as infinite
    dist = np.linalg.norm(points[:, np.newaxis, :] - centers[np.newaxis, :, :], axis=-1)
    if points is centers:
        np.fill_diagonal(dist, np.inf)
    return dist


@pytest.mark.parametrize("make", [jittered_lattice_cloud, random_cloud])
def test_nearest_matches_brute_force(make):
    cloud = make()
    dist = pair_distances(cloud.centers, cloud.centers)
    ordered = np.sort(dist, axis=1)
    assert np.all(ordered[:, 0] < ordered[:, 1])  # every argmin is unique
    d_nn, idx = cloud.nearest
    assert np.array_equal(idx, dist.argmin(axis=1))
    assert np.array_equal(d_nn, dist.min(axis=1))


@pytest.mark.parametrize("make", [jittered_lattice_cloud, random_cloud])
def test_within_matches_brute_force(make):
    # probes at each center and at 2a(1 -+ 1e-9) from it toward its nearest
    # neighbour, where the ball of radius 2a around the center starts or
    # stops holding the probe
    cloud = make()
    c, r = cloud.centers, 2.0 * cloud.radius
    toward = c[cloud.nearest[1]] - c
    toward /= np.linalg.norm(toward, axis=1)[:, np.newaxis]
    inner, outer = c + r * (1 - 1e-9) * toward, c + r * (1 + 1e-9) * toward
    probes = np.concatenate([c, inner, outer])
    dist = pair_distances(probes, c)
    got = cloud.within(probes, r)
    assert len(got) == len(probes)
    for row, cols in enumerate(got):
        assert sorted(cols) == list(np.flatnonzero(dist[row] <= r))
    assert all(m in got[m] and m in got[cloud.M + m] and m not in got[2 * cloud.M + m]
               for m in range(cloud.M))


def test_separation_ratio_shrinks_with_radius(unit_cube):
    fields = constant_fields(unit_cube)
    ratios = []
    for a in (0.02, 0.01, 0.005, 0.0025):
        cloud = place_particles(unit_cube, fields, a=a, kappa=0.5)
        ratios.append(diagnose(cloud, 1.0).a_over_d)
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_octant_count_error(unit_cube):
    fields = constant_fields(unit_cube)
    cloud = place_particles(unit_cube, fields, a=0.01, kappa=0.5)
    diag = diagnose(cloud, 1.0, fields)
    # 10 layers per axis split evenly across octants for constant density
    assert diag.count_error < 0.05
    assert math.isnan(diagnose(cloud, 1.0).count_error)


def octant_count_error_per_octant(cloud, fields):
    """The count-law check with one sample call and one (M, 3) mask per
    octant: the reference for the one-call _octant_count_error."""
    per_axis = 12
    dom = fields.domain
    mid = 0.5 * (dom.lo + dom.hi)
    scale = 1.0 / cloud.radius ** (2.0 - cloud.kappa)
    worst = 0.0
    for oct_idx in range(8):
        bits = [(oct_idx >> b) & 1 for b in range(3)]
        lo = np.where(bits, mid, dom.lo)
        hi = np.where(bits, dom.hi, mid)
        axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(per_axis) + 0.5) / per_axis
                for i in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        cell_vol = float(np.prod((hi - lo) / per_axis))
        expected = scale * float(np.sum(fields.sample(pts)[1])) * cell_vol
        in_oct = np.all((cloud.centers >= lo)
                        & (cloud.centers < hi + (np.asarray(bits) == 1) * 1e-12), axis=1)
        realized = int(np.count_nonzero(in_oct))
        worst = max(worst, abs(realized - expected) / max(expected, 1.0))
    return worst


OFF_ORIGIN_BOX = SimDomain(lo=[-0.3, 0.2, 1.0], hi=[0.7, 1.4, 1.6])


@pytest.mark.parametrize("domain, N, a", [
    (SimDomain(lo=[0, 0, 0], hi=[1, 1, 1]), ConstantField(1.0), 0.01),
    (OFF_ORIGIN_BOX, ConstantField(1.0), 0.01),
    (SimDomain(lo=[0, 0, 0], hi=[1, 1, 1]),
     GaussianBump(amplitude=1.0, center=(0.5, 0.5, 0.5), width=0.25), 0.005),
    (OFF_ORIGIN_BOX, PolynomialField({"1": 0.5, "x": 0.3, "yz": 0.2, "zz": 0.1}), 0.01),
], ids=["constant", "constant-off-origin", "gaussian", "polynomial"])
def test_octant_count_error_matches_the_per_octant_reference(domain, N, a):
    fields = MaterialFields(domain=domain, h=ConstantField(0.1), N=N)
    cloud = place_particles(domain, fields, a=a, kappa=0.5, seed=3)
    ours = particles._octant_count_error(cloud, fields)
    assert ours.hex() == octant_count_error_per_octant(cloud, fields).hex()


def test_octant_count_error_bins_centers_on_mid_and_faces_as_the_reference():
    # centers on the octant boundary mid, on the domain's lower and upper
    # faces (the upper one closed), just past them and outside the domain.
    # Every octant expects a distinct count below one, so a lone center's
    # error names the octant it is binned in, or none.
    dom = OFF_ORIGIN_BOX
    mid = 0.5 * (dom.lo + dom.hi)
    N = PolynomialField({"1": 2e-4, "x": 2e-4, "y": 4e-4, "z": 1.6e-3})
    fields = MaterialFields(domain=dom, h=ConstantField(0.1), N=N)
    values = np.stack([dom.lo, mid, dom.hi, dom.hi + 1e-13, dom.hi + 1e-9, dom.lo - 1e-9])
    centers = np.array([[values[i, 0], values[j, 1], values[k, 2]]
                        for i in range(6) for j in range(6) for k in range(6)])
    errors = set()
    for cloud_centers in [centers] + [c[None] for c in centers]:
        m = len(cloud_centers)
        cloud = ParticleCloud(centers=cloud_centers, radius=0.01 if m == 1 else 1e-15,
                              kappa=0.5, zeta=np.ones(m), h_at_centers=np.ones(m))
        ours = particles._octant_count_error(cloud, fields)
        assert ours.hex() == octant_count_error_per_octant(cloud, fields).hex()
        errors.add(ours)
    assert len(errors) > 8  # the eight octants and the outside, at least


def test_varying_density_is_seeded_and_reproducible(unit_cube):
    fields = MaterialFields(domain=unit_cube, h=ConstantField(0.1),
                            N=GaussianBump(amplitude=2.0, center=(0.5, 0.5, 0.5), width=0.3))
    c1 = place_particles(unit_cube, fields, a=0.01, kappa=0.5, seed=4)
    c2 = place_particles(unit_cube, fields, a=0.01, kappa=0.5, seed=4)
    c3 = place_particles(unit_cube, fields, a=0.01, kappa=0.5, seed=5)
    assert np.array_equal(c1.centers, c2.centers)
    assert c1.M > 0
    assert c1.M != c3.M or not np.array_equal(c1.centers, c3.centers)
    # realized count tracks the density integral: midpoint quadrature oracle
    n = 40
    axes = [np.linspace(0.5 / n, 1 - 0.5 / n, n)] * 3
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    integral = float(np.sum(fields.sample(pts)[1])) / n ** 3
    expected = integral / 0.01 ** 1.5
    assert abs(c1.M - expected) / expected < 0.15


def test_json_round_trip(unit_cube, tmp_path):
    fields = constant_fields(unit_cube, h=0.2 + 0.05j)
    cloud = place_particles(unit_cube, fields, a=0.02, kappa=0.6)
    path = tmp_path / "cloud.json"
    write_json(path, cloud.to_json_dict())
    back = ParticleCloud.from_json_dict(json.loads(path.read_text()))
    assert np.array_equal(back.centers, cloud.centers)
    assert back.radius == cloud.radius and back.kappa == cloud.kappa
    assert np.abs(back.zeta - cloud.zeta).max() == 0.0
    assert np.abs(back.h_at_centers - cloud.h_at_centers).max() < 1e-15


class BumpOnFloor:
    """Density 0.1 plus a unit Gaussian bump (test helper)."""

    def __init__(self, center, width):
        self.bump = GaussianBump(amplitude=1.0, center=center, width=width)

    def __call__(self, pts):
        return 0.1 + self.bump(pts)


PROBE_AXIS = np.linspace(0.0, 1.0, 25)  # the placement's density probe nodes


@settings(max_examples=25, deadline=None)
@given(cell=st.tuples(*[st.integers(0, 23)] * 3),
       frac=st.tuples(*[st.floats(0.3, 0.7)] * 3),
       width=st.floats(0.005, 0.03))
@example(cell=(12, 12, 8), frac=(0.529, 0.429, 0.538), width=0.0134)
def test_density_peak_between_probe_nodes_is_never_clipped(cell, frac, width):
    unit_cube = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
    step = PROBE_AXIS[1]
    center = tuple(PROBE_AXIS[i] + f * step for i, f in zip(cell, frac))
    fields = MaterialFields(domain=unit_cube, h=ConstantField(0.1),
                            N=BumpOnFloor(center, width))
    a = 0.001
    # independent recomputation of the largest keep-probability N(x) / N_ref
    probes = np.stack(np.meshgrid(*[PROBE_AXIS] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    n_ref = fields.sample(probes)[1].max()
    d = (a ** 1.5 / n_ref) ** (1 / 3)
    count = axis_count(1.0, d)
    axis = (1.0 - count * d) / 2 + d * (np.arange(count) + 0.5)
    nodes = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    ratio = fields.sample(nodes)[1].max() / n_ref
    if ratio > 1.0 + 1e-9:
        with pytest.raises(ParameterError, match="keep-probability exceeds 1"):
            place_particles(unit_cube, fields, a=a, kappa=0.5)
    elif ratio <= 1.0:
        assert place_particles(unit_cube, fields, a=a, kappa=0.5).M > 0


def test_a_density_the_lattice_misses_places_an_empty_cloud(unit_cube):
    # N = 1 on the slab x <= 0.01 (the voxel grid reads 0 outside its box):
    # the probe nodes at x = 0 find the maximum 1, but the lattice of spacing
    # 0.1 starts at x = 0.05, so no node is kept
    slab = VoxelGrid(origin=[0, 0, 0], spacing=[0.01, 1, 1], values=np.ones((2, 2, 2)))
    fields = MaterialFields(domain=unit_cube, h=ConstantField(0.1), N=slab)
    cloud = place_particles(unit_cube, fields, a=0.01, kappa=0.5)
    assert cloud.M == 0
    assert cloud.centers.shape == (0, 3) and cloud.zeta.shape == (0,)
    assert cloud.radius == 0.01 and cloud.kappa == 0.5
