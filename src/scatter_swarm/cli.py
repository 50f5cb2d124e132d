"""Batch front-end: parse a JSON config, run solvers/studies, export artifacts.

Subcommands:
    scatter-swarm run <config.json>       single solve per the solver.mode
    scatter-swarm study <config.json>     limit-passage convergence study
    scatter-swarm validate <config.json>  invariant suite, pass/fail JSON

Exit codes: 0 success, 2 config/schema violation (the error names the offending
key), 3 solver or validation failure. Failures also emit machine-readable
error JSON. Reports embed the resolved config and are written with a fixed
17-significant-digit float format, so identical configs produce byte-identical
reports. This module is the package's one encoder and writer: every JSON file
and CSV table goes through write_atomic. One formatter, _format_floats, writes
every float: a whole array in one % pass, poured into a layout template built
once per array, with the special values spelled NaN, Infinity, -Infinity and
-0.0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import uuid

import numpy as np

from . import __version__, fd
from .core import (ConstantField, GaussianBump, MaterialFields, MediumParams,
                   PolynomialField, SimDomain, VoxelGrid, box_nodes)
from .errors import ParameterError, ScatterError
from .greens import eval_g, hessian_g
from .incident import PlaneWave, curl_E0, eval_E0
from .las import (condition_estimate, eval_field, neglect_estimates, solve, solve_las,
                  system_coefficients, system_operator)
from .limit import (design_materials, effective_medium, eval_limit_field,
                    solve_limit)
from .particles import diagnose, place_particles
from .sphere_oracle import SphereMesh, normal_second_moment, verify_asymptotics


class ConfigError(ScatterError, ValueError):
    """Config schema violation; path names the offending key."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# deterministic JSON / CSV output
# ---------------------------------------------------------------------------

CSV_BLOCK_ROWS = 256  # rows of write_field_csv formatted in one % pass

# the only texts "%.17g" gives that JSON cannot read back as the same float
_SPECIAL_TEXTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "-0": "-0.0"}


def _format_floats(values) -> list[str]:
    """Texts of the floats in `values` (a sequence or a real array, taken in C
    order) at 17 significant digits, with NaN, Infinity, -Infinity and -0.0
    spelled so that they read back as themselves ("-0" would read back as the
    integer 0). One % pass formats them all; only special values are patched."""
    if isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=float).ravel().tolist()
    text = "%.17g\n" * len(values) % tuple(values)
    texts = text.split("\n")
    texts.pop()
    # a finite nonzero value never spells an "n" or a bare "-0"
    if "n" in text or "-0\n" in text:
        flat = np.asarray(values, dtype=float)
        for i in np.flatnonzero(~np.isfinite(flat) | (flat == 0) & np.signbit(flat)).tolist():
            texts[i] = _SPECIAL_TEXTS[texts[i]]
    return texts


def _list_template(shape, indent):
    """dumps_stable's nested-list layout of an array of `shape` at `indent`,
    with a %s slot for each leaf."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = " " * indent
    inner = f"{pad}  {_list_template(shape[1:], indent + 2)}"
    return "[\n" + ",\n".join([inner] * shape[0]) + "\n" + pad + "]"


def dumps_stable(obj, indent=0) -> str:
    """JSON text with floats at 17 significant digits (byte-reproducible).
    A complex value is written as its [re, im] pair."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {dumps_stable(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {dumps_stable(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_floats((float(obj),))[0]
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps_stable([obj.real, obj.imag], indent)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            pairs = np.ascontiguousarray(obj, dtype=complex).view(float)
            return dumps_stable(pairs.reshape(obj.shape + (2,)), indent)
        if obj.dtype.kind == "f":
            return _list_template(obj.shape, indent) % tuple(_format_floats(obj))
        return dumps_stable(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_atomic(path, text):
    """Write via a uniquely named temporary file in the target directory."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    write_atomic(path, dumps_stable(obj) + "\n")


def write_field_csv(path, points, names, values):
    """CSV of x, y, z and the real and imaginary parts of the complex columns
    `names`; values has one row per point and one column per name. Rows are
    formatted CSV_BLOCK_ROWS at a time, so the per-float texts of one block
    only are alive at once."""
    header = ",".join(["x", "y", "z"] + [f"{part}({n})" for n in names for part in ("Re", "Im")])
    rows = np.hstack([np.asarray(points, dtype=float).reshape(-1, 3),
                      np.ascontiguousarray(values, dtype=complex).view(float)])
    row = ",".join(["%s"] * rows.shape[1]) + "\n"
    blocks = [header + "\n"]
    for i in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[i:i + CSV_BLOCK_ROWS]
        blocks.append(row * len(block) % tuple(_format_floats(block)))
    write_atomic(path, "".join(blocks))


_FIELD_NAMES = ("Ex", "Ey", "Ez", "Hx", "Hy", "Hz")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_SENTINEL = object()


def _get(cfg, path, kind, default=_SENTINEL, check=None):
    """The value at the full dotted config path `path` in cfg, read by _checked.
    A missing or null key or section gives `default` unread, if one is given; a
    section that is not an object is an error."""
    node = cfg
    parts = path.split(".")
    for i, key in enumerate(parts):
        if node is not None and not isinstance(node, dict):
            raise ConfigError(".".join(parts[:i]), "expected an object")
        if node is None or key not in node:
            if default is not _SENTINEL:
                return default
            raise ConfigError(".".join(parts[: i + 1]), "missing required key")
        node = node[key]
    if node is None and default is not _SENTINEL:
        return default
    return _checked(node, path, kind, check)


def _checked(node, path, kind, check=None):
    """node read as kind, the one reader of every config value, then checked by
    check, which returns an error message or None; errors name path. kind is a
    type (an int passes as float, a bool as neither, a float must be finite)
    or a reader (node, path) -> value: _complex, _real, _vec3(kind) or _box."""
    if not isinstance(kind, type):
        node = kind(node, path)
    elif kind is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    elif not isinstance(node, kind) or (kind is int and isinstance(node, bool)):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(node).__name__}")
    if kind is float and not math.isfinite(node):
        raise ConfigError(path, "must be finite")
    if check is not None:
        err = check(node)
        if err:
            raise ConfigError(path, err)
    return node


def _complex(node, path):
    """A number or an [re, im] pair of numbers, as a complex with finite parts."""
    re, im = node if isinstance(node, list) and len(node) == 2 else (node, 0.0)
    try:
        return complex(_checked(re, path, float), _checked(im, path, float))
    except ConfigError:
        raise ConfigError(path, "expected a finite number or [re, im] pair") from None


def _real(node, path):
    """A _complex whose imaginary part is 0, as a float."""
    z = _complex(node, path)
    if z.imag:
        raise ConfigError(path, "expected a real number: the imaginary part must be 0")
    return z.real


def _vec3(kind):
    """The reader of a list of 3 values of kind."""
    def read(node, path):
        if not (isinstance(node, list) and len(node) == 3):
            raise ConfigError(path, "expected a 3-component list")
        return [_checked(v, path, kind) for v in node]
    return read


def _box(node, path):
    """Two _vec3(_real) corners [[lo3], [hi3]]."""
    if not (isinstance(node, list) and len(node) == 2):
        raise ConfigError(path, "expected [[lo3], [hi3]]")
    return [_vec3(_real)(corner, path) for corner in node]


def _read_json(path, key, missing):
    """Parse a JSON file; a missing or malformed file is a ConfigError at key."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(key, missing) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(key, f"invalid JSON: {exc}") from exc


def _built(path, make, *args, **kwargs):
    """make(*args, **kwargs); a library refusal of the parsed values is a
    ConfigError at config path `path`."""
    try:
        return make(*args, **kwargs)
    except KeyError as exc:  # str(exc) is the bare repr of the key
        raise ConfigError(path, f"missing required key {exc}") from exc
    except (ScatterError, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _field_sampler(get, path, base_dir):
    """The sampler that the object at config path `path` describes; get reads
    the object and each of its fields by full path."""
    get(path, dict)  # the spec must be an object; a null voxel or voxel_path is absent
    if (voxel := get(f"{path}.voxel", dict, None)) is not None:
        return _built(f"{path}.voxel", VoxelGrid.from_json_dict, voxel)
    key = f"{path}.voxel_path"
    if (name := get(key, str, None)) is not None:
        vp = os.path.join(base_dir, name)
        return _built(key, VoxelGrid.from_json_dict, _read_json(vp, key, f"file not found: {vp}"))
    preset = get(f"{path}.preset", str)
    if preset == "constant":
        return ConstantField(get(f"{path}.value", _complex))
    if preset == "gaussian":
        return GaussianBump(amplitude=get(f"{path}.amplitude", _complex),
                            center=tuple(get(f"{path}.center", _vec3(_real))),
                            width=get(f"{path}.width", float, check=_positive))
    if preset == "polynomial":
        key = f"{path}.coeffs"
        return _built(key, PolynomialField, {k: _checked(v, f"{key}.{k}", _complex)
                                             for k, v in get(key, dict).items()})
    raise ConfigError(f"{path}.preset", f"unknown preset {preset!r}")


def _refuse_unknown_keys(raw, read):
    """Raise a ConfigError at the first key, level by level in file order, that
    sits in an object some read went into but that no read named. `read`
    holds the full dotted paths read."""
    entered = {""}  # the objects the reads went into, each added once
    for path in read:
        while (path := path.rpartition(".")[0]) and path not in entered:
            entered.add(path)
    nodes = [("", raw)]
    for prefix, node in nodes:
        for key, value in node.items():
            path = prefix + key
            if "." in key or path not in read and path not in entered:
                raise ConfigError(path, "unknown key")
            if path in entered and isinstance(value, dict):
                nodes.append((path + ".", value))


_MODES = ("las", "limit", "oracle", "design", "validate")


def load_config(path, overrides=None):
    """Parse and validate a config file into resolved runtime objects.

    overrides maps "section.key" names to values that replace the file's
    before validation, so they pass the same checks as the file's keys.
    Every value is read by its full dotted path, and a key that no read
    names, in an object a read went into, is refused as unknown.
    The echoed config is the parsed values; materials and design echo their specs.
    """
    raw = _read_json(path, str(path), "config file not found")
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "expected a JSON object")
    for name, value in (overrides or {}).items():
        section, key = name.split(".")
        if not isinstance(raw.setdefault(section, {}), dict):
            raise ConfigError(section, "expected an object")
        raw[section][key] = value
    base_dir = os.path.dirname(os.path.abspath(path))
    read = set()

    def get(key, kind, default=_SENTINEL, check=None):  # every value, by its full path
        read.add(key)
        return _get(raw, key, kind, default, check)

    medium = MediumParams(
        eps0=get("medium.eps0", float, 1.0, check=_positive),
        mu0=get("medium.mu0", float, 1.0, check=_positive),
        sigma0=get("medium.sigma0", float, 0.0,
                   check=lambda v: None if v >= 0 else "must be >= 0"),
        omega=get("medium.omega", float, 1.0, check=_positive),
    )
    box = get("domain.box", _box)
    domain = _built("domain.box", SimDomain, lo=box[0], hi=box[1])

    # an absent material takes MaterialFields' default, zero
    fields = MaterialFields(domain, **{
        name: _field_sampler(get, f"materials.{name}", base_dir)
        for name in ("h", "N") if get(f"materials.{name}", dict, None) is not None})

    alpha = get("wave.alpha", _vec3(_real), [0.0, 0.0, 1.0])
    pol = get("wave.polarization", _vec3(_complex), [1 + 0j, 0j, 0j])
    wave = _built("wave", PlaneWave, direction=alpha, polarization=pol)

    mode = get("solver.mode", str, "las",
               check=lambda m: None if m in _MODES else f"must be one of {_MODES}")
    solver = {
        "mode": mode,
        "a": get("solver.a", float, 0.02, check=_positive),
        "kappa": get("solver.kappa", float, 0.5,
                     check=lambda v: None if 0.0 < v < 1.0 else "must lie in (0, 1)"),
        "cells_per_axis": get("solver.cells_per_axis", int, 6,
                              check=lambda v: None if v >= 2 else "must be >= 2"),
        "tolerance": get("solver.tolerance", float, None, check=_positive),
        # kept so that existing configs load; it selects nothing
        "method": get("solver.method", str, "auto",
                      check=lambda m: None if m in ("auto", "iterative")
                      else "must be auto | iterative: every system is now solved by GMRES"),
        "max_iter": get("solver.max_iter", int, None,
                        check=lambda v: None if v >= 1 else "must be >= 1"),
        "seed": get("solver.seed", int, 0,
                    check=lambda v: None if v >= 0 else "must be >= 0"),
        "a_sequence": [
            _checked(v, f"solver.a_sequence[{i}]", float, _positive)
            for i, v in enumerate(get("solver.a_sequence", list, []))
        ],
        "n_theta": get("solver.n_theta", int, 16,
                       check=lambda v: None if v >= 2 else "must be >= 2"),
        "oracle_h": get("solver.oracle_h", _complex, None,
                        check=lambda h: None if h.real >= 0 else "must satisfy Re h >= 0"),
    }

    pbox = get("output.probes.box", _box, [[2.0, 0.0, 0.0], [3.0, 1.0, 1.0]])
    pshape = get("output.probes.shape", _vec3(int), [3, 3, 3],
                 check=lambda s: None if min(s) >= 1 else "must be integers >= 1")
    probes = box_nodes(pbox[0], pbox[1], pshape).reshape(-1, 3)

    design = None
    read.add("design")  # the design block is read in design mode only; others leave it be
    if mode == "design":
        dspec = get("design", dict)
        grid_n = get("design.grid", int, 8, check=lambda v: None if v >= 2 else "must be >= 2")
        dims, spacing = (grid_n,) * 3, domain.extent / (grid_n - 1)
        pts = box_nodes(domain.lo, domain.hi, dims).reshape(-1, 3)

        def on_grid(key):  # the sampler at key, sampled on the design grid
            values = _field_sampler(get, key, base_dir)(pts)
            return VoxelGrid(domain.lo, spacing, np.asarray(values).reshape(dims))

        def density(n, key):  # a sampler on the grid, or one real N
            return on_grid(key) if isinstance(n, dict) else _real(n, key)

        design = {"target_mu": on_grid("design.target_mu"),
                  "N": get("design.N", density, 1.0), "grid": grid_n}

    formats = get("output.formats", list, ["csv", "json"], check=lambda fs: next(
        (f"unknown format {f!r}" for f in fs if f not in ("csv", "json")), None))
    out_name = get("output.dir", str, "out")
    _refuse_unknown_keys(raw, read)

    resolved = {
        "medium": dataclasses.asdict(medium),
        "domain": {"box": box},
        "materials": raw.get("materials", {}),
        "wave": {"alpha": alpha, "polarization": pol},
        "solver": {k: v for k, v in solver.items() if k != "oracle_h" or v is not None},
        "output": {"dir": out_name, "probes": {"box": pbox, "shape": pshape},
                   "formats": formats},
    }
    if design is not None:
        resolved["design"] = dspec

    return {
        "medium": medium, "domain": domain, "fields": fields, "wave": wave,
        "solver": solver, "probes": probes, "out_dir": os.path.join(base_dir, out_name),
        "design": design, "formats": tuple(formats), "resolved": resolved,
    }


def _positive(v):
    return None if v > 0 else "must be > 0"


# ---------------------------------------------------------------------------
# run modes
# ---------------------------------------------------------------------------

def _place(cfg, a):
    """The configured cloud of radius a, refused here when it holds no sphere."""
    s = cfg["solver"]
    cloud = place_particles(cfg["domain"], cfg["fields"], a, s["kappa"], seed=s["seed"])
    if cloud.M == 0:
        raise ParameterError(
            f"no sphere is placed at a = {a:g}: materials.N keeps no node of the placement "
            "lattice, as a zero N does everywhere; limit mode treats a zero N as an inert medium")
    return cloud


def _run_las(cfg):
    s = cfg["solver"]
    medium, wave = cfg["medium"], cfg["wave"]
    cloud = _place(cfg, s["a"])
    # one system serves the solve and the estimate, freed before the probes raise the peak
    system = system_operator(cloud.centers, system_coefficients(cloud, medium), medium.k)
    sol = solve(system, curl_E0(wave, medium.k, cloud.centers), cloud, medium,
                tol=s["tolerance"], max_iter=s["max_iter"])
    cond = condition_estimate(system)
    del system
    write_csv = "csv" in cfg["formats"]  # fields.csv is the only reader of the probe fields
    fs = eval_field(sol, cloud, medium, wave, cfg["probes"]) if write_csv else None
    out = cfg["out_dir"]
    if "json" in cfg["formats"]:
        write_json(os.path.join(out, "solution.json"),
                   {**sol.to_json_dict(), "condition_estimate": cond})
        write_json(os.path.join(out, "cloud.json"), cloud.to_json_dict())
    if write_csv:
        write_field_csv(os.path.join(out, "fields.csv"), cfg["probes"], _FIELD_NAMES,
                        np.hstack([fs.E, fs.H]))
    diag = diagnose(cloud, medium.k, cfg["fields"])
    write_json(os.path.join(out, "diagnostics.json"), {
        "config": cfg["resolved"],
        "cloud": diag.to_json_dict(),
        "neglect": neglect_estimates(cloud, medium, sol).to_json_dict(),
        "solver": {"residual_norm": sol.residual_norm,
                   "condition_estimate": cond,
                   **sol.path.to_json_dict()},
    })


def _run_limit(cfg):
    s = cfg["solver"]
    medium, wave = cfg["medium"], cfg["wave"]
    sol = solve_limit(cfg["domain"], cfg["fields"], medium, wave, s["cells_per_axis"],
                      tol=s["tolerance"], max_iter=s["max_iter"])
    fs = eval_limit_field(sol, medium, wave, cfg["probes"])
    out = cfg["out_dir"]
    if "json" in cfg["formats"]:
        write_json(os.path.join(out, "solution.json"), {
            "W": sol.W,
            "grid": {"dims": sol.grid.dims, "lo": sol.grid.lo, "spacing": sol.grid.spacing,
                     "cell_volume": sol.grid.cell_volume},
            "residual_norm": sol.residual_norm,
        })
    if "csv" in cfg["formats"]:
        write_field_csv(os.path.join(out, "fields.csv"), cfg["probes"], _FIELD_NAMES,
                        np.hstack([fs.E, fs.H]))
        em = effective_medium(cfg["fields"], medium, s["cells_per_axis"] + 1)
        write_field_csv(os.path.join(out, "effective_medium.csv"), em.node_points(),
                        ("Psi", "mu", "K2"),
                        np.stack([em.Psi, em.mu, em.K2], axis=-1).reshape(-1, 3))
    write_json(os.path.join(out, "diagnostics.json"), {
        "config": cfg["resolved"],
        "grid": {"dims": list(sol.grid.dims), "active_cells":
                 int(np.count_nonzero(np.abs(sol.grid.weights) > 0))},
        "solver": {"residual_norm": sol.residual_norm, **sol.path.to_json_dict()},
        "field_warnings": list(fs.warnings),
    })


def _run_oracle(cfg):
    s = cfg["solver"]
    medium, wave = cfg["medium"], cfg["wave"]
    a_seq = s["a_sequence"] or [0.05, 0.025, 0.0125]
    if len(a_seq) < 2 or any(a2 >= a1 for a1, a2 in zip(a_seq, a_seq[1:])):
        raise ConfigError("solver.a_sequence",
                          "oracle needs at least two strictly decreasing radii")
    h = s["oracle_h"]
    if h is None:
        center = 0.5 * (cfg["domain"].lo + cfg["domain"].hi)
        h = complex(cfg["fields"].sample(center)[0])
    report = verify_asymptotics(a_seq, s["kappa"], h, medium, wave, n_theta=s["n_theta"])
    doc = report.to_json_dict()
    doc["config"] = cfg["resolved"]
    write_json(os.path.join(cfg["out_dir"], "oracle_report.json"), doc)
    return 0 if report.monotone else 3


def _run_design(cfg):
    medium = cfg["medium"]
    d = cfg["design"]
    h_grid, report = design_materials(d["target_mu"], medium, d["N"])
    out = cfg["out_dir"]
    write_json(os.path.join(out, "h_design.json"), h_grid.to_json_dict())
    doc = report.to_json_dict()
    doc["config"] = cfg["resolved"]
    write_json(os.path.join(out, "feasibility.json"), doc)


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

def run_validation_suite(cfg):
    """Kernel identities, mesh exactness, Maxwell residuals and medium algebra."""
    medium, wave = cfg["medium"], cfg["wave"]
    k = medium.k
    rng = np.random.default_rng(20240)
    checks = []

    def add(name, value, tol):
        checks.append({"name": name, "value": float(value), "tolerance": float(tol),
                       "passed": bool(value <= tol)})

    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1, 1, 3)
        y = x + rng.uniform(0.5, 1.5) * _random_unit(rng)
        kk = rng.uniform(0.5, 2.0)
        g = eval_g(x, y, kk)
        step = 0.02 * min(np.linalg.norm(x - y), 1.0 / kk)
        res = fd.laplacian6(lambda p: eval_g(p, y, kk), x, step) + kk ** 2 * g
        worst = max(worst, abs(res) / abs(kk ** 2 * g))
    add("green_helmholtz_residual", worst, 1e-6)

    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1, 1, 3)
        y = x + rng.uniform(0.3, 2.0) * _random_unit(rng)
        H = hessian_g(x, y, k)
        g = eval_g(x, y, k)
        worst = max(worst, abs(np.trace(H) + k * k * g) / abs(k * k * g))
    add("green_hessian_trace", worst, 1e-12)

    mesh = SphereMesh.build(12, 0.03)
    target = (4.0 * math.pi * 0.03 ** 2 / 3.0) * np.eye(3)
    add("mesh_normal_moment", np.abs(normal_second_moment(mesh) - target).max()
        / np.abs(target).max(), 1e-8)

    # small scattering solve on the configured materials; a zero density places
    # no sphere, so there is nothing to scatter
    cloud = place_particles(cfg["domain"], cfg["fields"], cfg["solver"]["a"],
                            cfg["solver"]["kappa"], seed=cfg["solver"]["seed"])
    if cloud.M > 0:
        sol = solve_las(cloud, medium, wave)
        span = float(np.max(cfg["domain"].extent))
        probe = cfg["domain"].hi + np.array([0.31, 0.47, 0.59]) * span
        fs = eval_field(sol, cloud, medium, wave, probe)
        curl = fd.curl(lambda p: eval_field(sol, cloud, medium, wave, p, with_h=False).E,
                       probe, 1e-3)
        rhs = 1j * medium.omega * medium.mu0 * fs.H
        add("maxwell_curl_consistency",
            np.linalg.norm(curl - rhs) / np.linalg.norm(rhs), 1e-4)

        def scattered(p):
            return eval_field(sol, cloud, medium, wave, p, with_h=False).E - eval_E0(wave, k, p)
        div = fd.div(scattered, probe, 1e-3)
        scale = abs(k) * np.linalg.norm(scattered(probe))
        add("scattered_divergence", abs(div) / scale if scale > 0 else 0.0, 1e-4)

    em = effective_medium(cfg["fields"], medium, 8)
    add("effective_medium_mu_psi",
        np.abs(em.mu * em.Psi - medium.mu0).max() / medium.mu0, 1e-14)
    add("effective_medium_k2_psi",
        np.abs(em.K2 * em.Psi - k * k).max() / abs(k * k), 1e-14)

    psi = 1.0 + 0.4 * rng.random((6, 6, 6)) + 1j * 0.5 * rng.random((6, 6, 6))
    target_mu = VoxelGrid(cfg["domain"].lo, cfg["domain"].extent / 5.0, medium.mu0 / psi)
    h_grid, _ = design_materials(target_mu, medium, 1.0)
    fields2 = MaterialFields(domain=cfg["domain"], h=h_grid, N=ConstantField(1.0))
    em2 = effective_medium(fields2, medium, 6)
    add("design_round_trip",
        np.abs(em2.mu - target_mu.values).max() / np.abs(target_mu.values).max(), 1e-12)

    return checks


def _random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _run_validate(cfg):
    checks = run_validation_suite(cfg)
    ok = all(c["passed"] for c in checks)
    write_json(os.path.join(cfg["out_dir"], "validation.json"), {
        "config": cfg["resolved"],
        "checks": checks,
        "passed": ok,
    })
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def convergence_study(cfg):
    """Sweep the radius sequence: solve the many-sphere system per radius,
    solve the limit equation once, and write the probe-field discrepancy D(a)
    and the neglect ratio bound max(a/d, |k|a) per row to study_report.json.
    Non-decreasing D marks the study FAILED (reported, not raised)."""
    s = cfg["solver"]
    medium, wave = cfg["medium"], cfg["wave"]
    a_seq = s["a_sequence"]
    if len(a_seq) < 2:
        raise ConfigError("solver.a_sequence", "study needs at least two radii")
    lim = solve_limit(cfg["domain"], cfg["fields"], medium, wave, s["cells_per_axis"],
                      tol=s["tolerance"], max_iter=s["max_iter"])
    lf = eval_limit_field(lim, medium, wave, cfg["probes"], with_h=False)
    ref_norm = float(np.linalg.norm(lf.E))
    rows = []
    for a in a_seq:
        cloud = _place(cfg, a)
        sol = solve_las(cloud, medium, wave, tol=s["tolerance"], max_iter=s["max_iter"])
        fs = eval_field(sol, cloud, medium, wave, cfg["probes"], with_h=False)
        diag = diagnose(cloud, medium.k)
        rows.append({
            "a": a,
            "M": cloud.M,
            "d_min": diag.d_min,
            "ka": diag.ka,
            "a_over_d": diag.a_over_d,
            "ratio_bound": diag.ratio_bound,
            "D": float(np.linalg.norm(fs.E - lf.E)) / ref_norm,
        })
    ds = [r["D"] for r in rows]
    # an inert medium gives identically zero discrepancies: converged, not failed
    decreasing = all(d2 < d1 for d1, d2 in zip(ds, ds[1:])) or all(d <= 1e-12 for d in ds)
    report = {
        "config": cfg["resolved"],
        "cells_per_axis": s["cells_per_axis"],
        "rows": rows,
        "decreasing": decreasing,
        "status": "PASSED" if decreasing else "FAILED",
    }
    write_json(os.path.join(cfg["out_dir"], "study_report.json"), report)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# the runner of each solver.mode and subcommand; it returns the exit code,
# None for 0
_RUNNERS = {"las": _run_las, "limit": _run_limit, "oracle": _run_oracle,
            "design": _run_design, "validate": _run_validate, "study": convergence_study}


def _emit_error(exc, out_dir=None):
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ConfigError):
        doc["error"]["path"] = exc.path
    sys.stdout.write(dumps_stable(doc) + "\n")
    if out_dir is not None and os.path.isdir(out_dir):
        with contextlib.suppress(OSError):
            write_json(os.path.join(out_dir, "error.json"), doc)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="scatter-swarm",
        description="Solvers for electromagnetic scattering by many small impedance spheres",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("run", "execute the solver mode from the config"),
                           ("study", "limit-passage convergence study"),
                           ("validate", "run the invariant suite")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config")
        p.add_argument("--a", type=float, default=None, help="override solver.a")
        p.add_argument("--mode", default=None, help="override solver.mode")
        p.add_argument("--out", default=None, help="override output.dir")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    out_dir = None
    overrides = {name: value for name, value in (("solver.a", args.a), ("solver.mode", args.mode))
                 if value is not None}
    try:
        cfg = load_config(args.config, overrides)
        if args.out is not None:
            cfg["out_dir"] = args.out
            cfg["resolved"]["output"]["dir"] = args.out
        out_dir = cfg["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
        runner = _RUNNERS[cfg["solver"]["mode"] if args.command == "run" else args.command]
        return runner(cfg) or 0
    except ConfigError as exc:
        _emit_error(exc, out_dir)
        return 2
    except (ScatterError, np.linalg.LinAlgError, ValueError, MemoryError) as exc:
        _emit_error(exc, out_dir)
        return 3


if __name__ == "__main__":
    sys.exit(main())
