"""Every call binding the benchmark tracer wraps must exist in the package.

The tracer (solverbench/tracing.py) replaces module attributes by name; a
renamed or removed attribute would only show up when `run.py --trace 1`
fails, so this test resolves each binding directly, and checks that traced
las and limit solves and the report writers still pass through the bindings
the benchmark times.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from scatter_swarm import cli
from scatter_swarm.core import ConstantField, MaterialFields, MediumParams, SimDomain
from scatter_swarm.incident import PlaneWave
from scatter_swarm.las import solve_las
from scatter_swarm.limit import solve_limit
from scatter_swarm.particles import place_particles

TRACING = pathlib.Path(__file__).resolve().parents[1] / "solverbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("solverbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    bindings = load_tracing().BINDINGS
    assert bindings
    for binding in bindings:
        module = importlib.import_module(binding.module)
        assert callable(getattr(module, binding.attr)), f"{binding.module}.{binding.attr}"


CUBE = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
FIELDS = MaterialFields(domain=CUBE, h=ConstantField(0.05), N=ConstantField(1.0))
MEDIUM = MediumParams()
WAVE = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


def las_solve(method):
    cloud = place_particles(CUBE, FIELDS, a=0.1, kappa=0.5)
    return solve_las(cloud, MEDIUM, WAVE, method=method)


def limit_solve(method):
    return solve_limit(CUBE, FIELDS, MEDIUM, WAVE, 3, method=method)


def traced_span_names(solve, method):
    tracer = load_tracing().Tracer()
    with tracer.request_scope("guard"):
        solve(method)
    return {span["name"] for span in tracer.spans}


@pytest.mark.parametrize("solve", [las_solve, limit_solve], ids=["las", "limit"])
def test_traced_solve_records_the_timed_spans(solve):
    names = traced_span_names(solve, "direct")
    assert {"greens.assemble", "las.solve", "las.lu"} <= names


@pytest.mark.parametrize("solve", [las_solve, limit_solve], ids=["las", "limit"])
def test_traced_auto_solve_records_the_gmres_spans(solve):
    # both grids are lattices, so "auto" solves them matrix-free by GMRES
    names = traced_span_names(solve, "auto")
    assert {"las.solve", "las.gmres"} <= names
    assert not {"las.lu", "greens.assemble"} & names


def test_traced_writes_record_the_write_spans_and_bytes(tmp_path):
    # cli.write_s and cli.bytes_written are read from these spans and counts
    tracer = load_tracing().Tracer()
    with tracer.request_scope("guard"):
        cli.write_json(tmp_path / "doc.json", {"z": np.array([1 + 2j, -0.0])})
        cli.write_field_csv(tmp_path / "f.csv", np.zeros((2, 3)), ("E",), np.ones((2, 1)))
    writes = [s for s in tracer.spans if s["name"] == "cli.write"]
    atomic = [s for s in tracer.spans if s["name"] == "cli.write_atomic"]
    assert len(writes) == 2 and len(atomic) == 2
    assert [s["parent"] for s in atomic] == [s["id"] for s in writes]
    size = sum(len(p.read_bytes()) for p in (tmp_path / "doc.json", tmp_path / "f.csv"))
    assert tracer.counts["guard"]["cli.bytes_written"] == size
