import ast
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatter_swarm
from scatter_swarm.core import (ConstantField, GaussianBump, MaterialFields,
                                MediumParams, PolynomialField, SimDomain,
                                VoxelGrid, box_nodes, complex_array, cross, dot,
                                node_points, tangential, wavenumber)
from scatter_swarm.cli import write_json
from scatter_swarm.errors import DataError, ParameterError

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 1e-6 else np.array([0.0, 0.0, 1.0])


def test_wavenumber_lossless():
    assert wavenumber(MediumParams(omega=2.0)) == 2.0
    assert wavenumber(MediumParams(omega=0.5)) == 0.5


def test_wavenumber_conductive():
    k = wavenumber(MediumParams(sigma0=2.0, omega=1.0))
    assert abs(k * k - (1 + 2j)) < 1e-14
    assert k.imag > 0


def test_wavenumber_invalid_parameters():
    with pytest.raises(ParameterError):
        MediumParams(omega=0.0)
    with pytest.raises(ParameterError):
        MediumParams(eps0=-1.0)
    with pytest.raises(ParameterError):
        MediumParams(mu0=0.0)
    with pytest.raises(ParameterError):
        MediumParams(sigma0=-0.1)


def test_wavenumber_continuous_in_conductivity():
    k0 = wavenumber(MediumParams(sigma0=0.0))
    k1 = wavenumber(MediumParams(sigma0=1e-12))
    assert abs(k1 - k0) <= 1e-10


@settings(max_examples=200)
@given(vec3, vec3)
def test_double_cross_is_tangential_projection(E, n):
    N = unit(n)
    lhs = cross(N, cross(E, N))
    rhs = E - N * dot(E, N)
    assert np.abs(lhs - rhs).max() <= 1e-14 * max(1.0, np.abs(E).max())


@settings(max_examples=200)
@given(vec3, vec3)
def test_double_cross_negates_tangential_vectors(v, n):
    N = unit(n)
    sigma = tangential(v, N)
    assert np.abs(cross(N, cross(N, sigma)) + sigma).max() <= 1e-14 * max(1.0, np.abs(v).max())


@settings(max_examples=200)
@given(vec3, vec3)
def test_cross_antisymmetry_and_orthogonality(u, v):
    scale = max(1.0, np.abs(u).max() * np.abs(v).max())
    assert np.abs(cross(u, v) + cross(v, u)).max() <= 1e-14 * scale
    assert np.abs(cross(u, u)).max() == 0.0
    assert abs(dot(u, cross(u, v))) <= 1e-12 * scale * max(1.0, np.abs(u).max())


def test_cross_is_bitwise_numpy_cross():
    # every operand shape the package uses: single vectors, rows of vectors,
    # the broadcast pair grid, and real with complex in either order
    rng = np.random.default_rng(3)

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = [(cvec(3), cvec(3)), (rng.standard_normal(3), cvec(3)),
             (cvec(512, 3), rng.standard_normal((512, 3))),
             (rng.standard_normal((64, 3)), cvec(64, 3)),
             (cvec(7, 1, 3), cvec(1, 5, 3)), (rng.standard_normal((7, 1, 3)), cvec(1, 5, 3)),
             (np.array([-0.0, 1.0, -2.0]), np.array([1.0, -0.0, 3.0 - 0.0j]))]
    for u, v in cases:
        ours, ref = cross(u, v), np.cross(u, v)
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()
    with pytest.raises(ValueError):
        cross(np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        cross(np.ones((4, 3)), np.ones((3, 4)))


@pytest.fixture
def unit_domain():
    return SimDomain(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])


def test_domain_validation_and_volume(unit_domain):
    assert unit_domain.volume == 1.0
    assert unit_domain.contains([0.5, 0.5, 0.5])
    assert not unit_domain.contains([1.5, 0.5, 0.5])
    with pytest.raises(ParameterError):
        SimDomain(lo=[0, 0, 0], hi=[1, -1, 1])


# an off-origin box, and coordinates on each of its faces, inside, outside and NaN
CONTAINS_BOX = SimDomain(lo=[-0.5, 0.0, 0.25], hi=[0.5, 2.0, 0.75])
box_coord = st.sampled_from([-0.5, 0.5, 0.0, 2.0, 0.25, 0.75, -1.0, 3.0, math.nan]) \
    | st.floats(min_value=-1.0, max_value=3.0, allow_nan=False)


@settings(max_examples=100)
@given(st.lists(st.tuples(box_coord, box_coord, box_coord), min_size=1, max_size=12))
def test_contains_matches_the_whole_mask_reference(points):
    # the per-axis compares give the (..., 3) mask's answer bit for bit: the
    # closed faces count as inside, a NaN coordinate as outside
    x = np.array(points)
    lo, hi = CONTAINS_BOX.lo, CONTAINS_BOX.hi
    reference = np.all((x >= lo) & (x <= hi), axis=-1)
    inside = CONTAINS_BOX.contains(x)
    assert inside.dtype == bool and np.array_equal(inside, reference)
    grid = CONTAINS_BOX.contains(x.reshape(-1, 1, 3))
    assert np.array_equal(grid, reference.reshape(-1, 1))
    for point, expected in zip(x, reference):
        one = CONTAINS_BOX.contains(point)
        assert np.shape(one) == () and one.dtype == bool and one == expected


def test_sample_constant_fields(unit_domain):
    fields = MaterialFields(domain=unit_domain, h=ConstantField(0.1), N=ConstantField(5.0))
    h, N = fields.sample([0.3, 0.3, 0.3])
    assert h == 0.1 and N == 5.0
    h, N = fields.sample([2.0, 0.3, 0.3])
    assert h == 0.0 and N == 0.0


def test_sample_batch_and_validation(unit_domain):
    fields = MaterialFields(domain=unit_domain, h=ConstantField(0.1), N=ConstantField(5.0))
    pts = np.array([[0.5, 0.5, 0.5], [3.0, 0.0, 0.0]])
    h, N = fields.sample(pts)
    assert np.array_equal(N, [5.0, 0.0])
    bad = MaterialFields(domain=unit_domain, h=ConstantField(-0.1 + 0j), N=ConstantField(1.0))
    with pytest.raises(ParameterError):
        bad.sample([0.5, 0.5, 0.5])
    neg = MaterialFields(domain=unit_domain, h=ConstantField(0.0), N=ConstantField(-1.0))
    with pytest.raises(ParameterError):
        neg.sample([0.5, 0.5, 0.5])


def test_gaussian_and_polynomial_samplers():
    g = GaussianBump(amplitude=2.0, center=(0.5, 0.5, 0.5), width=0.2)
    assert abs(g(np.array([0.5, 0.5, 0.5])) - 2.0) < 1e-15
    far = g(np.array([0.5, 0.5, 0.5 + 0.4]))
    assert abs(far - 2.0 * math.exp(-2.0)) < 1e-14
    p = PolynomialField({"1": 1.0, "x": 2.0, "yz": -1.0})
    assert abs(p(np.array([0.5, 1.0, 2.0])) - (1 + 1.0 - 2.0)) < 1e-15
    with pytest.raises(ParameterError):
        PolynomialField({"xxx": 1.0})


def test_voxel_trilinear_center(unit_domain):
    # checkerboard corners: half 0, half 1, so the cell center averages to 0.5
    vals = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                vals[i, j, k] = (i + j + k) % 2
    grid = VoxelGrid(origin=[0, 0, 0], spacing=[1, 1, 1], values=vals)
    fields = MaterialFields(domain=unit_domain, h=ConstantField(0.0), N=grid)
    _, N = fields.sample([0.5, 0.5, 0.5])
    assert N == 0.5


def test_voxel_nan_rejected():
    vals = np.ones((2, 2, 2))
    vals[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        VoxelGrid(origin=[0, 0, 0], spacing=[1, 1, 1], values=vals)


def test_voxel_json_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    grid = VoxelGrid(origin=[0.1, -0.2, 0.0], spacing=[0.5, 0.25, 1.0], values=vals)
    path = tmp_path / "voxel.json"
    write_json(path, grid.to_json_dict())
    back = VoxelGrid.from_json_dict(json.loads(path.read_text()))
    assert np.array_equal(back.values, grid.values)
    assert np.array_equal(back.origin, grid.origin)
    assert np.array_equal(back.spacing, grid.spacing)


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2, 1], [2.5, 2, 2], [2.0, 2, 2], [2, True, 2],
                                  "222", None])
def test_voxel_json_refuses_malformed_dims(dims):
    # dims [2, 2] used to index past its end, and 2.5 was truncated to 2
    d = {"dims": dims, "origin": [0, 0, 0], "spacing": [1, 1, 1], "values": [[1.0, 0.0]] * 8}
    with pytest.raises(DataError, match="voxel dims must be a list of three integers"):
        VoxelGrid.from_json_dict(d)


def test_complex_array_is_bit_exact():
    parts = [0.0, -0.0, 1.5, -2.25e-300, np.inf, -np.inf, np.nan]
    pairs = [[re, im] for re in parts for im in parts]
    back = complex_array(pairs)
    assert back.shape == (len(pairs),)
    expected = np.array(pairs, dtype=float)
    got = np.stack([back.real, back.imag], axis=-1)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert complex_array([[[1.0, 2.0]] * 3] * 2).shape == (2, 3)
    assert complex_array([]).shape == (0,)
    assert np.array_equal(complex_array(np.array([1 + 2j])), [1 + 2j])
    with pytest.raises(DataError):
        complex_array([1.0, 2.0, 3.0])


def test_voxel_outside_grid_is_zero(unit_domain):
    grid = VoxelGrid(origin=[0.4, 0.4, 0.4], spacing=[0.1, 0.1, 0.1], values=np.ones((2, 2, 2)))
    fields = MaterialFields(domain=unit_domain, h=ConstantField(0.0), N=grid)
    assert fields.sample([0.45, 0.45, 0.45])[1] == 1.0
    assert fields.sample([0.8, 0.8, 0.8])[1] == 0.0


@pytest.mark.parametrize("lo, hi", [([0.3] * 3, [0.9] * 3), ([-0.2] * 3, [0.7] * 3)])
def test_box_nodes_put_the_end_nodes_on_the_faces(lo, hi):
    for n in range(2, 80):
        nodes = box_nodes(lo, hi, (n, n + 1, n))
        assert nodes.shape == (n, n + 1, n, 3)
        assert np.array_equal(nodes[0, 0, 0], lo)
        assert np.array_equal(nodes[-1, -1, -1], hi)
        # below the top faces the nodes are lo + spacing * index bit for bit
        spacing = (np.asarray(hi) - lo) / (np.asarray(nodes.shape[:3]) - 1.0)
        assert np.array_equal(nodes[:-1, :-1, :-1],
                              node_points(lo, spacing, nodes.shape[:3])[:-1, :-1, :-1])


def test_box_nodes_of_one_node_per_axis_is_lo():
    assert np.array_equal(box_nodes([0.1, 0.2, 0.3], [1.0, 1.0, 1.0], (1, 1, 1)),
                          [[[[0.1, 0.2, 0.3]]]])
    assert np.array_equal(box_nodes([0.0] * 3, [1.0] * 3, (1, 2, 1))[0, :, 0, 1], [0.0, 1.0])


def _grid_builders(tree):
    """(qualified name of the enclosing def, call) of each np.linspace and
    np.meshgrid call in the module tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"
                    and child.func.attr in ("linspace", "meshgrid")):
                found.append((".".join(scope), child.func.attr))
            visit(child, scope)

    visit(tree, [])
    return found


def test_grids_are_laid_out_only_by_the_core_rules():
    # every box grid goes through core.box_nodes and every lattice through
    # core.node_points; the one other mesh is the circulant offset grid of
    # the lattice FFT operator
    package = pathlib.Path(scatter_swarm.__file__).parent
    calls = {(path.name, scope, name) for path in sorted(package.glob("*.py"))
             for scope, name in _grid_builders(ast.parse(path.read_text()))}
    assert {call for call in calls if call[0] != "core.py"} == {
        ("greens.py", "LatticeOperator.from_points", "meshgrid")}
    assert {call[1:] for call in calls if call[0] == "core.py"} == {
        ("node_points", "meshgrid"), ("box_nodes", "linspace"), ("box_nodes", "meshgrid")}
