"""Every call binding the benchmark tracer wraps must exist in the package.

The tracer (solverbench/tracing.py) replaces module attributes by name; a
renamed or removed attribute would only show up when `run.py --trace 1`
fails, so this test resolves each binding directly, and checks that traced
las and limit solves and the report writers still pass through the bindings
the benchmark times. It also loads every benchmark workload config through
`cli.load_config`, so a config rule cannot refuse what the benchmark runs,
and runs every workload's requests through the benchmark's own output
checks, so a change that the benchmark would count as failed requests fails
here first.
"""

import dataclasses
import importlib
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from scatter_swarm import cli, limit
from scatter_swarm.core import (ConstantField, MaterialFields, MediumParams, SimDomain,
                                moment_coupling)
from scatter_swarm.incident import PlaneWave, curl_E0
from scatter_swarm.las import solve_las
from scatter_swarm.limit import CollocationGrid, solve_limit
from scatter_swarm.particles import place_particles

SOLVERBENCH = pathlib.Path(__file__).resolve().parents[1] / "solverbench"


def load_solverbench(name):
    path = SOLVERBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"solverbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_solverbench("tracing")


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


def jittered(points):
    return points + 1e-4 * np.random.default_rng(11).standard_normal(points.shape)


def las_solve(off_lattice):
    cloud = place_particles(CUBE, FIELDS, a=0.1, kappa=0.5)
    if off_lattice:
        cloud = dataclasses.replace(cloud, centers=jittered(cloud.centers))
    return solve_las(cloud, MEDIUM, WAVE)


def limit_solve(off_lattice):
    if not off_lattice:
        return solve_limit(CUBE, FIELDS, MEDIUM, WAVE, 3)
    # the collocation grid is a lattice, so points off it go through the
    # builder and the solve that solve_limit looks up
    grid = CollocationGrid.build(CUBE, FIELDS, 3)
    coeffs = moment_coupling(MEDIUM) * grid.weights
    system = limit.system_operator(jittered(grid.centers), coeffs, MEDIUM.k)
    return limit.linear_solve(system, curl_E0(WAVE, MEDIUM.k, grid.centers))


def traced_span_names(solve, off_lattice):
    tracer = load_tracing().Tracer()
    with tracer.request_scope("guard"):
        solve(off_lattice)
    return {span["name"] for span in tracer.spans}


@pytest.mark.parametrize("solve", [las_solve, limit_solve], ids=["las", "limit"])
def test_traced_solve_records_the_timed_spans(solve):
    # off a lattice, GMRES runs on the assembled dense matrix
    names = traced_span_names(solve, True)
    assert {"greens.assemble", "las.solve", "las.gmres"} <= names


@pytest.mark.parametrize("solve", [las_solve, limit_solve], ids=["las", "limit"])
def test_traced_auto_solve_records_the_gmres_spans(solve):
    # both grids are lattices, so they are solved matrix-free by GMRES
    names = traced_span_names(solve, False)
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


@pytest.mark.parametrize("seed", [0, 3])
def test_every_workload_config_loads(tmp_path, seed):
    workloads = load_solverbench("workloads")
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.json"
        path.write_text(workloads.config_text(name, seed))
        cli.load_config(str(path))


@pytest.mark.parametrize("seed", [0, 3])
def test_every_workload_passes_the_benchmark_output_checks(tmp_path, seed):
    # a guard: run.py counts a request as failed when the first request's
    # outputs fail checks.CHECKS or a later request's differ from them byte
    # for byte; each request runs as the benchmark child runs it, from a
    # config file in its own directory
    workloads, checks = load_solverbench("workloads"), load_solverbench("checks")
    for name, workload in workloads.WORKLOADS.items():
        text = workloads.config_text(name, seed)
        outs = []
        for rid in range(2):
            req_dir = tmp_path / f"{name}-req-{rid}"
            req_dir.mkdir()
            (req_dir / "config.json").write_text(text)
            assert cli.main([workload.command, str(req_dir / "config.json")]) == 0, name
            outs.append(str(req_dir / "out"))
        assert checks.CHECKS[name](outs[0], json.loads(text)) == [], name
        assert checks.same_outputs(*outs), name
