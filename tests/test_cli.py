import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scatter_swarm import cli, greens, las
from scatter_swarm.cli import (dumps_stable, load_config, main, write_atomic, write_field_csv,
                               write_json)
from scatter_swarm.core import (ConstantField, MaterialFields, MediumParams, SimDomain,
                                complex_array)
from scatter_swarm.incident import PlaneWave, eval_E0, eval_H0
from scatter_swarm.las import eval_field, solve_las
from scatter_swarm.limit import effective_medium
from scatter_swarm.particles import place_particles


def base_config(out_dir, **overrides):
    cfg = {
        "medium": {"eps0": 1.0, "mu0": 1.0, "sigma0": 0.0, "omega": 1.0},
        "domain": {"box": [[0, 0, 0], [0.5, 0.5, 0.5]]},
        "materials": {
            "h": {"preset": "constant", "value": [0.05, 0.0]},
            "N": {"preset": "constant", "value": 8.0},
        },
        "wave": {"alpha": [0, 0, 1], "polarization": [1, 0, 0]},
        "solver": {"mode": "las", "a": 0.02, "kappa": 0.5, "cells_per_axis": 4},
        "output": {
            "dir": str(out_dir),
            "probes": {"box": [[0.6, 0.0, 0.6], [1.1, 0.5, 1.1]], "shape": [3, 3, 3]},
        },
    }
    for key, val in overrides.items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_probe_grid(cfg):
    box = cfg["output"]["probes"]["box"]
    shape = cfg["output"]["probes"]["shape"]
    axes = [np.linspace(box[0][i], box[1][i], shape[i]) for i in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def load_field_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    pts = data[:, :3]
    E = data[:, 3:9:2] + 1j * data[:, 4:10:2]
    H = data[:, 9:15:2] + 1j * data[:, 10:16:2]
    return pts, E, H


def test_inert_run_reproduces_incident_field(tmp_path):
    cfg = base_config(tmp_path / "out", **{"materials.h.value": [0.0, 0.0]})
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    pts, E, H = load_field_csv(tmp_path / "out" / "fields.csv")
    medium = MediumParams()
    wave = PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    E0 = eval_E0(wave, medium.k, pts)
    H0 = eval_H0(wave, medium, pts)
    assert np.array_equal(E, E0)
    assert np.abs(H - H0).max() <= 1e-16
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert all(q == [[0.0, 0.0]] * 3 for q in sol["Q"])


def test_las_run_outputs(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["cloud"]["M"] == 343
    assert diag["config"]["solver"]["a"] == 0.02
    assert diag["neglect"]["ratio_bound"] > 0
    cloud = json.loads((tmp_path / "out" / "cloud.json").read_text())
    assert len(cloud["centers"]) == 343 and len(cloud["zeta"]) == 343
    # a lattice cloud takes the matrix-free GMRES path under "auto"
    solver = diag["solver"]
    assert (solver["solver_used"], solver["operator"]) == ("iterative", "lattice-fft")
    assert solver["iterations"] > 0
    assert (solver["restart"], solver["maxiter"]) == (20, 10 * 3 * 343)
    # the dense LU path is gone: "direct" is a config error
    cfg = base_config(tmp_path / "out_direct", **{"solver.method": "direct"})
    capsys.readouterr()
    assert main(["run", write_config(tmp_path, cfg, "direct.json")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["path"] == "solver.method" and "GMRES" in err["message"]


def test_iterative_run_records_gmres_path(tmp_path):
    cfg = base_config(tmp_path / "out", **{"solver.method": "iterative",
                                           "materials.h.value": [0.01, 0.0]})
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    solver = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["solver"]
    assert (solver["solver_used"], solver["operator"]) == ("iterative", "lattice-fft")
    assert solver["iterations"] > 0
    assert (solver["restart"], solver["maxiter"]) == (20, 10 * 3 * 343)


def test_byte_identical_reports(tmp_path):
    cfg = base_config(tmp_path / "out_a")
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "out_b")]) == 0
    for name in ("solution.json", "fields.csv", "cloud.json"):
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b


def test_config_round_trip_reproduces_outputs(tmp_path):
    cfg = base_config(tmp_path / "out_a")
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    diag = json.loads((tmp_path / "out_a" / "diagnostics.json").read_text())
    resolved = diag["config"]
    assert main(["run", write_config(tmp_path, resolved, "resolved.json"),
                 "--out", str(tmp_path / "out_b")]) == 0
    assert ((tmp_path / "out_a" / "fields.csv").read_bytes()
            == (tmp_path / "out_b" / "fields.csv").read_bytes())


def test_schema_violation_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", **{"solver.kappa": 1.5})
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"] == "solver.kappa"


def test_missing_key_path_reported(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    del cfg["domain"]
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["path"].startswith("domain")


@pytest.mark.parametrize("key, value, path", [
    ("solver.max_iter", -3, "solver.max_iter"),
    ("solver.max_iter", 0, "solver.max_iter"),
    ("solver.tolerance", -1, "solver.tolerance"),
    ("solver.tolerance", 0, "solver.tolerance"),
    ("output.probes.box", [[2, 0], [3, 1, 1]], "output.probes.box"),
    ("output.probes.box", [[2, 0, "x"], [3, 1, 1]], "output.probes.box"),
    ("output.probes.shape", ["a", 2, 2], "output.probes.shape"),
    ("output.probes.shape", [-1, 2, 2], "output.probes.shape"),
    ("output.probes.shape", [0, 2, 2], "output.probes.shape"),
    ("solver.max_iter", True, "solver.max_iter"),
    ("solver.seed", True, "solver.seed"),
    ("solver.seed", -1, "solver.seed"),
    ("solver.oracle_h", [-1, 0], "solver.oracle_h"),
    # a real-valued key refuses a nonzero imaginary part, and every number is finite
    ("wave.alpha", [[0, 1], 0, 1], "wave.alpha"),
    ("domain.box", [[0, 0, 0], [0.5, 0.5, "0.5"]], "domain.box"),
    ("domain.box", [[0, 0, 0], [0.5, 0.5, True]], "domain.box"),
    ("medium.omega", math.inf, "medium.omega"),
    ("wave.alpha", [0, 0, math.nan], "wave.alpha"),
    ("output.probes.box", [[0.6, 0.0, 0.6], [math.inf, 0.5, 1.1]], "output.probes.box"),
    ("materials.h.value", math.nan, "materials.h.value"),
    ("solver.tolerance", math.inf, "solver.tolerance"),
])
def test_out_of_range_solver_and_probe_settings_are_config_errors(tmp_path, capsys, key, value,
                                                                  path):
    cfg = base_config(tmp_path / "out", **{key: value})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["path"]) == ("ConfigError", path)


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path / "out",
                      **{"solver.method": "iterative", "solver.tolerance": 1e-15,
                         "solver.max_iter": 1})
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConvergenceError"
    assert (tmp_path / "out" / "error.json").exists()


def test_limit_mode_honours_max_iter(tmp_path, capsys):
    cfg = base_config(tmp_path / "out",
                      **{"solver.mode": "limit", "solver.method": "iterative",
                         "solver.tolerance": 1e-15, "solver.max_iter": 1})
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConvergenceError"


def test_write_atomic_uses_a_unique_temporary_file(tmp_path):
    target = tmp_path / "report.json"
    (tmp_path / "report.json.tmp").mkdir()  # stale temporary of a fixed name
    write_atomic(str(target), "new\n")
    assert target.read_text() == "new\n"
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "entry").write_text("")
    with pytest.raises(OSError):
        write_atomic(str(blocked), "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "report.json",
                                                          "report.json.tmp"]


def test_limit_mode_outputs(tmp_path):
    cfg = base_config(tmp_path / "out", **{"solver.mode": "limit"})
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert sol["grid"]["dims"] == [4, 4, 4]
    assert len(sol["W"]) == 64
    em_lines = (tmp_path / "out" / "effective_medium.csv").read_text().strip().split("\n")
    assert em_lines[0].startswith("x,y,z,Re(Psi)")


def test_limit_run_writes_every_output_atomically(tmp_path, monkeypatch):
    written = []
    write = cli.write_atomic

    def recorded(path, text):
        written.append(path)
        return write(path, text)

    monkeypatch.setattr(cli, "write_atomic", recorded)
    cfg = base_config(tmp_path / "out", **{"solver.mode": "limit"})
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    out = tmp_path / "out"
    assert sorted(written) == sorted(str(out / name) for name in (
        "solution.json", "fields.csv", "effective_medium.csv", "diagnostics.json"))
    assert sorted(p.name for p in out.iterdir()) == sorted(p.rsplit("/", 1)[1] for p in written)


def test_mode_override_selects_design(tmp_path):
    cfg = base_config(tmp_path / "out", **{
        "design": {"grid": 4, "target_mu": {"preset": "constant", "value": 1.0}, "N": 1.0},
    })
    assert main(["run", write_config(tmp_path, cfg), "--mode", "design"]) == 0
    feas = json.loads((tmp_path / "out" / "feasibility.json").read_text())
    assert feas["all_feasible"] is True
    assert feas["config"]["solver"]["mode"] == "design"


def test_radius_override_is_validated_like_a_config_key(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", path, "--a", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["path"] == "solver.a"
    assert main(["run", path, "--a", "0.025"]) == 0
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["config"]["solver"]["a"] == 0.025


def test_overrides_do_not_outlive_their_call(tmp_path):
    # the parser is built once per process; a second call without overrides
    # must see the config's own radius and output directory
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", path, "--a", "0.025", "--out", str(tmp_path / "first")]) == 0
    assert main(["run", path]) == 0
    first = json.loads((tmp_path / "first" / "diagnostics.json").read_text())["config"]
    second = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["config"]
    assert first["solver"]["a"] == 0.025
    assert first["output"]["dir"] == str(tmp_path / "first")
    assert second["solver"]["a"] == 0.02
    assert second["output"]["dir"] == str(tmp_path / "out")
    assert cli._parser() is cli._parser()


def test_placement_lattice_beyond_memory_exits_3(tmp_path, capsys):
    # a = 1e-9 asks for about 3e13 lattice nodes; the preflight refuses them
    # before anything is allocated
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["run", path, "--a", "1e-9"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "MemoryBudgetError"
    assert (tmp_path / "out" / "error.json").exists()


def test_an_allocation_numpy_refuses_exits_3(tmp_path, capsys, monkeypatch):
    # numpy raises a plain MemoryError for an array it cannot allocate; a
    # stand-in raises it here, so the test allocates nothing
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "place_particles", refuse)
    assert main(["run", write_config(tmp_path, base_config(tmp_path / "out"))]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "MemoryError", "message": "Unable to allocate 7.28 TiB for an array"}
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {"error": err}


@pytest.mark.parametrize("key, value, path, message", [
    ("materials.N", {"value": 1.0}, "materials.N.preset", None),
    ("materials.N", {"preset": "gaussian", "amplitude": 1.0, "center": [0, 0, 0], "width": -1},
     "materials.N.width", None),
    ("solver.a_sequence", [0.04, -0.02], "solver.a_sequence[1]", None),
    ("output.probes.box", 3, "output.probes.box", None),
    ("materials.N", {"voxel_path": 3}, "materials.N.voxel_path", None),
    ("materials.N", {"preset": "gaussian", "amplitude": 1.0, "center": [[0.25, 3], 0.25, 0.25],
                     "width": 0.1}, "materials.N.center", None),
    ("materials.N", {"voxel": {"dims": [2, 2, 2], "origin": [0, 0, 0], "spacing": [math.nan, 1, 1],
                               "values": [[8.0, 0.0]] * 8}}, "materials.N.voxel", None),
    ("materials.N", {"voxel": {"dims": [2, 2, 2], "origin": [0, 0, 0], "spacing": [math.inf, 1, 1],
                               "values": [[8.0, 0.0]] * 8}}, "materials.N.voxel", None),
    ("materials.N", {"voxel": {"dims": [2, 2, 2], "origin": [math.nan, 0, 0], "spacing": [1, 1, 1],
                               "values": [[8.0, 0.0]] * 8}}, "materials.N.voxel", None),
    ("solver", 3, "solver", None),
    ("output.probes", [[0, 0, 0], [1, 1, 1]], "output.probes", None),
    ("materials.h", {"preset": "polynomial", "coeffs": {"w": 1}}, "materials.h.coeffs", None),
    ("materials.h", {"voxel": {"dims": [2, 2, 2]}}, "materials.h.voxel",
     "missing required key 'values'"),
    ("materials.h", {"voxel_path": "no_values.json"}, "materials.h.voxel_path",
     "missing required key 'values'"),
], ids=["sampler-preset", "gaussian-width", "a-sequence", "probe-box", "voxel-path",
        "gaussian-center-imaginary", "voxel-nan-spacing", "voxel-infinite-spacing",
        "voxel-nan-origin", "solver-not-an-object", "probes-not-an-object",
        "polynomial-monomial", "voxel-missing-key", "voxel-file-missing-key"])
def test_nested_config_error_names_the_full_path(tmp_path, capsys, key, value, path, message):
    # the grid file of the voxel-file case, which lacks its values
    (tmp_path / "no_values.json").write_text(
        '{"dims": [2, 2, 2], "origin": [0, 0, 0], "spacing": [1, 1, 1]}')
    cfg = base_config(tmp_path / "out", **{key: value})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["path"] == path
    if message is not None:
        assert err["message"] == f"{path}: {message}"


@pytest.mark.parametrize("key", ["voxel", "voxel_path"])
def test_null_voxel_form_falls_through_to_the_preset(tmp_path, key):
    # null means the key is absent, so the preset beside it is read
    plain = {"preset": "constant", "value": 0.05}
    for name, h in (("plain", plain), ("null", {key: None, **plain})):
        cfg = base_config(tmp_path / name, **{"materials.h": h})
        assert main(["run", write_config(tmp_path, cfg, f"{name}.json")]) == 0
    assert (tmp_path / "null" / "fields.csv").read_bytes() == \
        (tmp_path / "plain" / "fields.csv").read_bytes()


@pytest.mark.parametrize("key, value, path", [
    ("solver.tolerence", 1e-3, "solver.tolerence"),
    ("wave.polarisation", [0, 1, 0], "wave.polarisation"),
    ("materials.h.width", 0.1, "materials.h.width"),
    ("solvr", {"a": 0.04}, "solvr"),
    ("output.probes.boxes", [[0, 0, 0], [1, 1, 1]], "output.probes.boxes"),
], ids=["misspelt-solver-key", "misspelt-wave-key", "constant-preset-width", "top-level",
        "nested-probes-key"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, key, value, path):
    cfg = base_config(tmp_path / "out", **{key: value})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["path"], err["message"]) == ("ConfigError", path,
                                                         f"{path}: unknown key")


def test_the_design_block_is_read_only_in_design_mode(tmp_path, capsys):
    design = {"grid": 3, "target_mu": {"preset": "constant", "value": 1.0}, "grd": 4}
    path = write_config(tmp_path, base_config(tmp_path / "out", design=design))
    assert load_config(path)["design"] is None
    assert main(["run", path, "--mode", "design"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["path"] == "design.grd"


@pytest.mark.parametrize("text, path", [("[]", None), ('{"solver": 3}', "solver")])
def test_override_of_a_malformed_config_is_config_error(tmp_path, capsys, text, path):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["run", str(config), "--a", "0.1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["path"] == (path or str(config))


@pytest.mark.parametrize("content", [
    '{"dims": [2, 2, 2], "origin": [0, 0, 0], "spacing": [1, 1, 1]}',
    '{"dims": [2, 2,',
    None,
], ids=["missing-values", "invalid-json", "missing-file"])
def test_malformed_voxel_file_is_config_error(tmp_path, capsys, content):
    if content is not None:
        (tmp_path / "n.json").write_text(content)
    cfg = base_config(tmp_path / "out", **{"materials.N": {"voxel_path": "n.json"}})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["path"] == "materials.N.voxel_path"
    if content is None:
        assert err["message"].endswith(f"file not found: {tmp_path / 'n.json'}")


@pytest.mark.parametrize("dims", [[2, 2], [2.5, 2, 2], [2, 2, True]])
@pytest.mark.parametrize("material, form", [("N", "voxel"), ("h", "voxel_path")])
def test_malformed_voxel_dims_is_config_error(tmp_path, capsys, dims, material, form):
    grid = {"dims": dims, "origin": [0, 0, 0], "spacing": [1, 1, 1], "values": [[8.0, 0.0]] * 8}
    spec = {"voxel": grid}
    if form == "voxel_path":
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        spec = {"voxel_path": "grid.json"}
    cfg = base_config(tmp_path / "out", **{f"materials.{material}": spec})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    path = f"materials.{material}.{form}"
    assert (err["path"], err["message"]) == (
        path, f"{path}: voxel dims must be a list of three integers, got {dims!r}")


@pytest.mark.parametrize("grid", [3, 7, 12])
def test_design_grid_is_the_effective_medium_grid(tmp_path, grid):
    # on [0.3, 0.9]^3 lo + spacing * (n - 1) rounds past 0.9; the design grid
    # samples its target at the effective medium's nodes, ending on hi
    box = [[0.3] * 3, [0.9] * 3]
    domain = SimDomain(lo=box[0], hi=box[1])
    fields = MaterialFields(domain=domain, h=ConstantField(0.05), N=ConstantField(8.0))
    nodes = effective_medium(fields, MediumParams(), grid).node_points()
    for axis, name in enumerate("xyz"):
        design = {"grid": grid, "target_mu": {"preset": "polynomial", "coeffs": {name: 1.0}}}
        cfg = base_config(tmp_path / "out", **{"domain.box": box, "solver.mode": "design",
                                               "design": design})
        target = load_config(write_config(tmp_path, cfg))["design"]["target_mu"]
        assert np.array_equal(target.values.real, nodes[..., axis])


def test_design_mode_identity_target(tmp_path):
    cfg = base_config(tmp_path / "out", **{
        "solver.mode": "design",
        "design": {"grid": 4, "target_mu": {"preset": "constant", "value": 1.0}, "N": 1.0},
    })
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    h = json.loads((tmp_path / "out" / "h_design.json").read_text())
    assert all(v == [0.0, 0.0] for v in h["values"])
    feas = json.loads((tmp_path / "out" / "feasibility.json").read_text())
    assert feas["all_feasible"] is True


def test_zero_target_permeability_exits_3(tmp_path, capsys):
    cfg = base_config(tmp_path / "out", **{
        "solver.mode": "design",
        "design": {"grid": 4, "target_mu": {"preset": "constant", "value": 0.0}, "N": 1.0},
    })
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "PoleError"
    assert err["message"] == "target permeability is zero at voxel (0, 0, 0)"
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {"error": err}


def test_design_density_with_an_imaginary_part_is_refused(tmp_path, capsys):
    # a number must be real at design.N; a sampler's complex grid is refused by
    # design_materials itself
    design = {"grid": 3, "target_mu": {"preset": "constant", "value": 0.5}, "N": [1, 5]}
    cfg = base_config(tmp_path / "out", **{"solver.mode": "design", "design": design})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["path"] == "design.N"
    design["N"] = {"preset": "constant", "value": [1, 5]}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["type"], err["message"]) == ("ParameterError", "density N must be real-valued")


def test_real_valued_keys_take_a_pair_with_zero_imaginary_part(tmp_path):
    cfg = base_config(tmp_path / "out", **{"wave.alpha": [[0.6, 0], 0, 0.8],
                                           "wave.polarization": [0.8, 0, -0.6]})
    resolved = load_config(write_config(tmp_path, cfg))["resolved"]
    assert resolved["wave"]["alpha"] == [0.6, 0.0, 0.8]


@pytest.mark.parametrize("a, error", [(0.2, "OverlapError"), (1e-9, "MemoryBudgetError")],
                         ids=["overlap", "memory-budget"])
def test_validate_reports_a_placement_error(tmp_path, capsys, a, error):
    cfg = base_config(tmp_path / "out", **{"solver.a": a})
    assert main(["validate", write_config(tmp_path, cfg)]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == error
    assert (tmp_path / "out" / "error.json").exists()
    assert not (tmp_path / "out" / "validation.json").exists()


def test_validate_mode(tmp_path):
    cfg = base_config(tmp_path / "out")
    rc = main(["validate", write_config(tmp_path, cfg)])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"green_helmholtz_residual", "green_hessian_trace", "mesh_normal_moment",
            "maxwell_curl_consistency", "effective_medium_mu_psi",
            "design_round_trip"} <= names
    assert all(c["passed"] for c in doc["checks"])


def test_oracle_mode(tmp_path):
    cfg = base_config(tmp_path / "out", **{
        "solver.mode": "oracle",
        "solver.a_sequence": [0.04, 0.02],
        "solver.n_theta": 8,
        "solver.oracle_h": [0.1, 0.0],
    })
    rc = main(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
    assert rep["monotone"] is True
    assert len(rep["a"]) == 2 and len(rep["rel_error"]) == 2


def test_null_oracle_h_samples_h_at_the_domain_center(tmp_path, monkeypatch):
    cfg = base_config(tmp_path / "out", **{
        "solver.mode": "oracle",
        "solver.a_sequence": [0.04, 0.02],
        "solver.n_theta": 8,
        "solver.oracle_h": None,
        "materials.h": {"preset": "polynomial", "coeffs": {"1": [0.05, 0.0], "x": 0.1}},
    })
    path = write_config(tmp_path, cfg)
    assert "oracle_h" not in load_config(path)["resolved"]["solver"]
    seen = []
    real = cli.verify_asymptotics
    monkeypatch.setattr(cli, "verify_asymptotics",
                        lambda a_seq, kappa, h, *args, **kwargs:
                        seen.append(h) or real(a_seq, kappa, h, *args, **kwargs))
    assert main(["run", path]) == 0
    assert seen == [pytest.approx(0.05 + 0.1 * 0.25, rel=1e-15)]


@pytest.mark.parametrize("solver", [{"solver.oracle_h": [0.0, 0.0]},
                                    {"solver.oracle_h": None, "materials.h.value": 0.0}],
                         ids=["oracle_h", "h-at-center"])
def test_oracle_with_a_zero_h_exits_3(tmp_path, capsys, solver):
    # a zero closed-form moment leaves the relative error undefined
    cfg = base_config(tmp_path / "out", **{"solver.mode": "oracle", "solver.n_theta": 6,
                                           **solver})
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError"
    assert "closed-form moment is zero" in error["message"]
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {"error": error}
    assert not (tmp_path / "out" / "oracle_report.json").exists()


@pytest.mark.parametrize("a_sequence", [[0.05], [0.0125, 0.05], [0.05, 0.05]])
def test_oracle_refuses_a_radius_sequence_it_cannot_sweep(tmp_path, capsys, monkeypatch,
                                                           a_sequence):
    monkeypatch.setattr(cli, "verify_asymptotics", None)  # refused before any solve
    cfg = base_config(tmp_path / "out", **{"solver.mode": "oracle",
                                           "solver.a_sequence": a_sequence})
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["path"]) == ("ConfigError", "solver.a_sequence")


def test_study_inert_medium_passes(tmp_path):
    cfg = base_config(tmp_path / "out", **{
        "materials.h.value": [0.0, 0.0],
        "solver.a_sequence": [0.04, 0.02],
    })
    rc = main(["study", write_config(tmp_path, cfg)])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "study_report.json").read_text())
    assert rep["status"] == "PASSED"
    assert all(row["D"] == 0.0 for row in rep["rows"])
    assert all("ka" in row and "a_over_d" in row for row in rep["rows"])


def test_a_density_the_placement_lattice_misses_is_refused(tmp_path, capsys):
    # N = 1 on the slab x <= 0.01 only: the probe grid sees it, but the
    # lattice of spacing 0.1 starts at x = 0.05 and keeps no node
    slab = {"dims": [2, 2, 2], "origin": [0, 0, 0], "spacing": [0.01, 1, 1],
            "values": [[1.0, 0.0]] * 8}
    cfg = base_config(tmp_path / "out", **{"domain.box": [[0, 0, 0], [1, 1, 1]],
                                           "solver.a": 0.01, "materials.N": {"voxel": slab}})
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError"
    assert error["message"] == (
        "no sphere is placed at a = 0.01: materials.N keeps no node of the placement lattice, "
        "as a zero N does everywhere; limit mode treats a zero N as an inert medium")
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {"error": error}


@pytest.mark.parametrize("command, a", [("run", 0.02), ("study", 0.04)])
def test_an_empty_medium_is_refused_where_it_is_placed(tmp_path, capsys, command, a):
    # N = 0 places no sphere: the las run and the study name the radius and
    # materials.N instead of failing later on the empty system
    cfg = base_config(tmp_path / "out", **{"materials.N.value": 0.0,
                                           "solver.a_sequence": [0.04, 0.02]})
    assert main([command, write_config(tmp_path, cfg)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError"
    assert error["message"] == (
        f"no sphere is placed at a = {a}: materials.N keeps no node of the placement lattice, "
        "as a zero N does everywhere; limit mode treats a zero N as an inert medium")
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == {"error": error}


def test_limit_mode_solves_an_empty_medium_as_inert(tmp_path):
    # guard: the medium a las run refuses above is inert in limit mode
    cfg = base_config(tmp_path / "out", **{"materials.N.value": 0.0, "solver.mode": "limit"})
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    pts, E, _ = load_field_csv(tmp_path / "out" / "fields.csv")
    assert np.array_equal(E, eval_E0(PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0]),
                                     MediumParams().k, pts))


def test_study_rows_echo_diagnostics(tmp_path):
    cfg = base_config(tmp_path / "out", **{"solver.a_sequence": [0.03, 0.02]})
    rc = main(["study", write_config(tmp_path, cfg)])
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "study_report.json").read_text())
    assert rep["status"] in ("PASSED", "FAILED")
    for row in rep["rows"]:
        assert row["M"] > 0
        assert row["ratio_bound"] >= max(row["a_over_d"], row["ka"]) - 1e-15


def test_only_a_las_run_computes_the_condition_estimate(tmp_path, monkeypatch):
    calls, evals = [], []
    arnoldi, eval_field = las._arnoldi, cli.eval_field
    monkeypatch.setattr(las, "_arnoldi", lambda *args: calls.append(args) or arnoldi(*args))
    # estimates computed by the time each probe evaluation starts
    monkeypatch.setattr(cli, "eval_field",
                        lambda *args, **kwargs: evals.append(len(calls)) or eval_field(*args, **kwargs))
    study = base_config(tmp_path / "study", **{"solver.a_sequence": [0.04, 0.02]})
    assert main(["study", write_config(tmp_path, study, "study.json")]) == 0
    assert calls == []
    run = base_config(tmp_path / "run", **{"materials.N.value": 1.0})
    assert main(["run", write_config(tmp_path, run, "run.json")]) == 0
    assert len(calls) == 1
    # the study's two probe evaluations come with no estimate; the run computes its
    # one estimate before its probe evaluation
    assert evals == [0, 0, 1]
    solver = json.loads((tmp_path / "run" / "diagnostics.json").read_text())["solver"]
    solution = json.loads((tmp_path / "run" / "solution.json").read_text())
    assert solver["operator"] == "lattice-fft"
    assert 1.0 < solver["condition_estimate"] < 10.0
    assert solver["condition_estimate"] == solution["condition_estimate"]


def test_a_las_run_builds_its_system_once(tmp_path, monkeypatch):
    # the solve and the condition estimate share one lattice operator
    builds = []
    from_points = greens.LatticeOperator.from_points
    monkeypatch.setattr(greens.LatticeOperator, "from_points",
                        lambda *args, **kwargs: builds.append(args) or from_points(*args, **kwargs))
    cfg = base_config(tmp_path / "out", **{"materials.N.value": 1.0})
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert len(builds) == 1
    solver = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["solver"]
    assert solver["operator"] == "lattice-fft"


def test_output_formats_filter(tmp_path):
    cfg = base_config(tmp_path / "out", **{"output.formats": ["csv"]})
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "out" / "fields.csv").exists()
    assert not (tmp_path / "out" / "solution.json").exists()
    bad = base_config(tmp_path / "out2", **{"output.formats": ["yaml"]})
    assert main(["run", write_config(tmp_path, bad, "bad.json")]) == 2


def test_a_las_run_without_csv_evaluates_no_probe(tmp_path, monkeypatch):
    # fields.csv is the only reader of the probe fields
    cfg = base_config(tmp_path / "out")
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    (tmp_path / "out").rename(tmp_path / "both")
    evals = []
    monkeypatch.setattr(cli, "eval_field", lambda *args, **kwargs: evals.append(args))
    cfg["output"]["formats"] = ["json"]
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert evals == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "cloud.json", "diagnostics.json", "solution.json"]
    for name in ("solution.json", "cloud.json", "diagnostics.json"):
        both = (tmp_path / "both" / name).read_text()
        # the resolved config in diagnostics.json echoes the formats
        both = re.sub(r'"csv",\s*', "", both) if name == "diagnostics.json" else both
        assert (tmp_path / "out" / name).read_text() == both


def test_dumps_stable_formats():
    text = dumps_stable({"x": 0.1, "nested": [1, 2.5, None, True, "s"]})
    assert "0.10000000000000001" in text
    assert json.loads(text.replace("0.10000000000000001", "0.1"))


def test_negative_zero_survives_the_json_round_trip(tmp_path):
    values = np.array([complex(-0.0, -0.0), complex(1.0, -0.0)])
    write_json(tmp_path / "z.json", {"z": values})
    with open(tmp_path / "z.json") as fh:
        back = complex_array(json.load(fh)["z"])
    assert np.array_equal(back, values)
    assert np.all(np.signbit(back.real) == np.signbit(values.real))
    assert np.all(np.signbit(back.imag))


def test_cli_module_entry(tmp_path):
    cfg = base_config(tmp_path / "out", **{"materials.h.value": [0.0, 0.0]})
    path = write_config(tmp_path, cfg)
    proc = subprocess.run([sys.executable, "-m", "scatter_swarm", "run", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_import_leaves_scipy_spatial_unloaded():
    # cKDTree is imported by the functions that query neighbours, so modes
    # without a particle cloud (the oracle) never load scipy.spatial
    code = "import sys, scatter_swarm.cli; assert 'scipy.spatial' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_load_config_resolves_objects(tmp_path):
    cfg = base_config(tmp_path / "out")
    resolved = load_config(write_config(tmp_path, cfg))
    assert resolved["medium"].omega == 1.0
    assert resolved["probes"].shape == (27, 3)
    assert resolved["solver"]["mode"] == "las"


def test_numpy_bool_scalar_is_a_json_bool():
    assert dumps_stable(np.bool_(True)) == "true"
    assert dumps_stable({"ok": np.array([1.0, 2.0]).all()}) == '{\n  "ok": true\n}'
    assert dumps_stable([np.bool_(False)]) == "[\n  false\n]"


# Per-value reference for the vectorised codec: one format(x, ".17g") call per
# float and one recursive call per list element. The writer must match it byte
# for byte.

def reference_float(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def reference_dumps(obj, indent=0):
    pad = " " * indent
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        obj = [obj.real, obj.imag]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {json.dumps(str(k))}: {reference_dumps(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {reference_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return json.dumps(bool(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_float(float(obj))
    return json.dumps(obj)


def reference_csv(points, names, values):
    header = ",".join(["x", "y", "z"] + [f"{part}({n})" for n in names for part in ("Re", "Im")])
    rows = np.hstack([np.asarray(points, dtype=float).reshape(-1, 3),
                      np.ascontiguousarray(values, dtype=complex).view(float)])
    return "\n".join([header] + [",".join(map(reference_float, row)) for row in rows.tolist()]) + "\n"


def from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, from_bits(0xFFF8000000000000),
               5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               1e308, -1e308, 1e-308, -1e-308, 1.0, -3.0, 2.0 ** 53, 1e16, 1e17, 0.1]

float64_values = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.integers(0, 2 ** 64 - 1).map(from_bits),
                           st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
              elements=float64_values, fill=st.nothing()))
def test_codec_matches_the_per_value_reference(values):
    for indent in (0, 3):
        assert dumps_stable(values, indent) == reference_dumps(values, indent)
    pairs = np.empty(values.shape, dtype=complex)
    pairs.real, pairs.imag = values, -values
    assert dumps_stable({"z": pairs}) == reference_dumps({"z": pairs})
    for x in values.reshape(-1)[:4].tolist():
        assert dumps_stable(x) == reference_float(x)


GRID = np.array(EDGE_FLOATS * 3).reshape(5, 4, 3)
PAIRS = np.ascontiguousarray(GRID[..., :2]).view(complex)[..., 0]   # re, im = GRID[..., 0], [..., 1]
SINGLE = np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 1e-40, 3e38], dtype=np.float32)


@pytest.mark.parametrize("value", [
    np.array(1.5), np.array(-0.0), np.array(math.nan), np.zeros(0), np.zeros((2, 0)),
    np.zeros((0, 3)), GRID[0, 0], GRID[0], GRID, GRID.reshape(5, 2, 2, 3),
    GRID.transpose(2, 0, 1), GRID[::2, 1::2, ::-1], SINGLE, SINGLE.reshape(7, 1).T,
    np.array(1 - 0.0j), np.zeros(0, dtype=complex), PAIRS, PAIRS.T, PAIRS[::2, ::-3],
    np.stack([SINGLE, SINGLE[::-1]], axis=-1).view(np.complex64),
    np.arange(6).reshape(2, 3), np.array([[True, False]]), np.array([1.5, None, "s"], dtype=object),
    {"nested": [GRID[1], {"x": GRID[2, 1:3]}, np.float32(0.1), -0.0, complex(-0.0, math.inf)]},
], ids=lambda v: f"{type(v).__name__}{getattr(v, 'shape', '')}{getattr(v, 'dtype', '')}")
def test_codec_layouts_match_the_reference(value):
    for indent in (0, 2, 5):
        assert dumps_stable(value, indent) == reference_dumps(value, indent)


def test_integer_and_bool_arrays_write_ints_and_bools():
    assert dumps_stable(np.arange(2)) == "[\n  0,\n  1\n]"
    assert dumps_stable(np.array([True, False])) == "[\n  true,\n  false\n]"


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_field_csv_matches_the_reference(tmp_path, rows):
    points = GRID.reshape(-1, 3)[:rows]
    values = np.ascontiguousarray(GRID.reshape(-1, 2)[: 2 * rows]).view(complex).reshape(rows, 2)
    write_field_csv(tmp_path / "f.csv", points, ("A", "B"), values)
    assert (tmp_path / "f.csv").read_text() == reference_csv(points, ("A", "B"), values)


def test_field_csv_in_blocks_matches_the_reference(tmp_path, monkeypatch):
    # blocks of 2 rows: two full blocks and a one-row remainder
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 2)
    test_field_csv_matches_the_reference(tmp_path, 5)


def test_las_reports_match_the_reference(tmp_path):
    cube = SimDomain(lo=[0, 0, 0], hi=[1, 1, 1])
    fields = MaterialFields(domain=cube, h=ConstantField(0.05), N=ConstantField(1.0))
    medium, wave = MediumParams(), PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])
    cloud = place_particles(cube, fields, a=0.1, kappa=0.5)
    sol = solve_las(cloud, medium, wave)
    probes = np.random.default_rng(0).uniform(-0.5, 1.5, (40, 3))
    fs = eval_field(sol, cloud, medium, wave, probes)
    for doc in (sol.to_json_dict(), cloud.to_json_dict()):
        write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == reference_dumps(doc) + "\n"
    table = np.hstack([fs.E, fs.H])
    write_field_csv(tmp_path / "fields.csv", probes, cli._FIELD_NAMES, table)
    assert (tmp_path / "fields.csv").read_text() == reference_csv(probes, cli._FIELD_NAMES, table)
