"""Span tracer that wraps the package's call bindings from outside.

Each wrapped binding records a span (name, start, end, parent span, request
id) and, where useful, a counter derived from its arguments or result. The
package itself is not modified: the wrappers replace module attributes for
the duration of one traced request and are removed afterwards. Spans stay in
memory until the run writes them out.

A binding is the name a caller looks up: `las.interaction_matrix` and
`limit.interaction_matrix` are separate bindings of one function, so both
are wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, NamedTuple


def _n_points(args, kwargs, key, pos):
    value = kwargs[key] if key in kwargs else args[pos]
    return len(value) if value.ndim > 1 else 1


# Counters come from argument and result sizes, not from timing. "sum" adds
# over a request; "max" keeps the largest value, such as the biggest dense
# matrix, which is what sets peak memory.

def _assemble_counts(args, kwargs, result):
    n = _n_points(args, kwargs, "points", 0)
    return [("greens.assemble_pairs", n * (n - 1), "sum"),
            ("greens.matrix_bytes", 16 * (3 * n) ** 2, "max")]


def _dipole_counts(args, kwargs, result):
    pairs = _n_points(args, kwargs, "probes", 0) * _n_points(args, kwargs, "sources", 1)
    return [("greens.dipole_pairs", pairs, "sum")]


def _write_counts(args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[1]
    return [("cli.bytes_written", len(text.encode()), "sum")]


def _place_counts(args, kwargs, result):
    return [("particles.spheres", result.M, "sum")]


def _limit_counts(args, kwargs, result):
    return [("limit.cells_active", int((abs(result.grid.weights) > 0).sum()), "sum")]


def _oracle_counts(args, kwargs, result):
    n = result.shape[0]
    return [("sphere_oracle.unknowns", n, "sum"),
            ("sphere_oracle.matrix_bytes", 16 * n * n, "max")]


def _count_gmres_iterations(tracer, kwargs):
    callback = kwargs.get("callback")
    if callback is not None:
        def counted(*args):
            tracer.count("las.gmres_iters", 1, "sum")
            return callback(*args)
        kwargs["callback"] = counted


class Binding(NamedTuple):
    module: str
    attr: str
    span: str                          # span name the calls are recorded under
    count: Callable | None = None      # counters from (args, kwargs, result)
    pre: Callable | None = None        # adjusts the call's keyword arguments first


BINDINGS = [
    Binding("scatter_swarm.cli", "load_config", "cli.load_config"),
    Binding("scatter_swarm.cli", "write_json", "cli.write"),
    Binding("scatter_swarm.cli", "write_field_csv", "cli.write"),
    Binding("scatter_swarm.cli", "write_atomic", "cli.write_atomic", _write_counts),
    Binding("scatter_swarm.cli", "place_particles", "particles.place", _place_counts),
    Binding("scatter_swarm.cli", "diagnose", "particles.diagnose"),
    Binding("scatter_swarm.cli", "solve_las", "las.solve_las"),
    Binding("scatter_swarm.cli", "eval_field", "las.eval"),
    Binding("scatter_swarm.cli", "neglect_estimates", "las.neglect"),
    Binding("scatter_swarm.cli", "solve_limit", "limit.solve", _limit_counts),
    Binding("scatter_swarm.cli", "eval_limit_field", "limit.eval"),
    Binding("scatter_swarm.cli", "verify_asymptotics", "sphere_oracle.verify"),
    Binding("scatter_swarm.las", "assemble_system", "las.assemble"),
    Binding("scatter_swarm.las", "linear_solve", "las.solve"),
    Binding("scatter_swarm.las", "interaction_matrix", "greens.assemble", _assemble_counts),
    Binding("scatter_swarm.las", "dipole_field_sum", "greens.dipole_sum", _dipole_counts),
    Binding("scatter_swarm.las", "dipole_curl_sum", "greens.dipole_sum", _dipole_counts),
    Binding("scatter_swarm.limit", "linear_solve", "las.solve"),
    Binding("scatter_swarm.limit", "interaction_matrix", "greens.assemble", _assemble_counts),
    Binding("scatter_swarm.limit", "dipole_field_sum", "greens.dipole_sum", _dipole_counts),
    Binding("scatter_swarm.limit", "dipole_curl_sum", "greens.dipole_sum", _dipole_counts),
    Binding("scatter_swarm.sphere_oracle", "operator_matrix", "sphere_oracle.build", _oracle_counts),
    # callees of the solve layers, looked up as module attributes at call time
    Binding("scipy.linalg", "lu_factor", "las.lu"),
    Binding("scipy.linalg", "solve", "sphere_oracle.solve"),
    Binding("scipy.sparse.linalg", "gmres", "las.gmres", pre=_count_gmres_iterations),
]


class Tracer:
    """In-memory span and counter store for traced requests."""

    def __init__(self):
        self.spans = []        # dicts: id, name, start, end, parent, request
        self.counts = defaultdict(dict)   # request -> counter -> value
        self._stack = []
        self.request = None

    def count(self, name, value, mode):
        slot = self.counts[self.request]
        if mode == "max":
            slot[name] = max(slot.get(name, 0), value)
        else:
            slot[name] = slot.get(name, 0) + value

    def wrap(self, fn, binding):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if binding.pre is not None:
                binding.pre(self, kwargs)
            span = {"id": len(self.spans), "name": binding.span,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "request": self.request}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if binding.count is not None:
                for counter, value, mode in binding.count(args, kwargs, result):
                    self.count(counter, value, mode)
            return result

        return traced

    @contextlib.contextmanager
    def request_scope(self, request_id):
        """Install every wrapper for one request, then restore the bindings."""
        saved = []
        self.request = request_id
        try:
            for binding in BINDINGS:
                module = importlib.import_module(binding.module)
                original = getattr(module, binding.attr)
                saved.append((module, binding.attr, original))
                setattr(module, binding.attr, self.wrap(original, binding))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.request = None


# per-layer metric -> (unit, how it is derived from one traced request)
LAYER_METRICS = {
    "cli.load_config_s": ("s", ("busy", "cli.load_config")),
    "cli.write_s": ("s", ("busy", "cli.write")),
    "cli.bytes_written": ("B", ("count", "cli.bytes_written")),
    "particles.place_s": ("s", ("busy", "particles.place")),
    "particles.diagnose_s": ("s", ("busy", "particles.diagnose")),
    "particles.spheres": ("count", ("count", "particles.spheres")),
    "greens.assemble_s": ("s", ("busy", "greens.assemble")),
    "greens.assemble_pairs_per_s": ("1/s", ("rate", "greens.assemble_pairs", "greens.assemble")),
    "greens.matrix_bytes": ("B", ("count", "greens.matrix_bytes")),
    "greens.dipole_sum_s": ("s", ("busy", "greens.dipole_sum")),
    "greens.dipole_pairs_per_s": ("1/s", ("rate", "greens.dipole_pairs", "greens.dipole_sum")),
    "las.assemble_s": ("s", ("busy", "las.assemble")),
    "las.solve_s": ("s", ("busy", "las.solve")),
    "las.lu_s": ("s", ("busy", "las.lu")),
    "las.gmres_s": ("s", ("busy", "las.gmres")),
    "las.gmres_iters": ("count", ("count", "las.gmres_iters")),
    "las.post_solve_s": ("s", ("self", "las.solve")),
    "las.eval_s": ("s", ("busy", "las.eval")),
    "las.eval_self_s": ("s", ("self", "las.eval")),
    "las.neglect_s": ("s", ("busy", "las.neglect")),
    "limit.solve_s": ("s", ("busy", "limit.solve")),
    "limit.solve_self_s": ("s", ("self", "limit.solve")),
    "limit.eval_s": ("s", ("busy", "limit.eval")),
    "limit.eval_self_s": ("s", ("self", "limit.eval")),
    "limit.cells_active": ("count", ("count", "limit.cells_active")),
    "sphere_oracle.build_s": ("s", ("busy", "sphere_oracle.build")),
    "sphere_oracle.solve_s": ("s", ("busy", "sphere_oracle.solve")),
    "sphere_oracle.unknowns": ("count", ("count", "sphere_oracle.unknowns")),
    "sphere_oracle.matrix_bytes": ("B", ("count", "sphere_oracle.matrix_bytes")),
    "trace.overhead_ratio": ("ratio", None),
    "trace.coverage": ("ratio", None),
}


def _source(rule):
    """The span or counter a metric is derived from."""
    return rule[2] if rule[0] == "rate" else rule[1]


def request_layers(spans, counts, wall_s):
    """Per-layer values of one traced request from its spans and counters."""
    busy = defaultdict(float)
    child = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    top = 0.0
    for s in spans:
        d = s["end"] - s["start"]
        busy[s["name"]] += d
        if s["parent"] is None:
            top += d
        else:
            child[by_id[s["parent"]]["name"]] += d
    out = {}
    for metric, (_, rule) in LAYER_METRICS.items():
        if rule is None:
            continue
        kind, key = rule[0], rule[1]
        if kind == "busy":
            out[metric] = busy[key]
        elif kind == "self":
            out[metric] = busy[key] - child[key]
        elif kind == "count":
            out[metric] = counts.get(key, 0)
        else:
            t = busy[rule[2]]
            out[metric] = counts.get(key, 0) / t if t > 0 else 0.0
    out["trace.coverage"] = top / wall_s
    return out


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Median over traced requests of each per-layer metric.

    Returns (metrics, idle): every metric is reported, and `idle` names those
    whose span or counter never occurred in this run. They read 0 because
    their layer did no work, not because it was too fast to measure.
    """
    spans_by_request = defaultdict(list)
    for s in tracer.spans:
        spans_by_request[s["request"]].append(s)
    rows = [request_layers(spans_by_request[rid], tracer.counts.get(rid, {}), wall)
            for rid, wall in traced_walls.items()]
    out = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    out["trace.overhead_ratio"] = (statistics.median(traced_walls.values())
                                   / statistics.median(untraced_walls))
    seen = {s["name"] for s in tracer.spans}
    seen.update(c for slot in tracer.counts.values() for c in slot)
    idle = [m for m, (_, rule) in LAYER_METRICS.items()
            if rule is not None and _source(rule) not in seen]
    return {m: {"value": out[m], "unit": LAYER_METRICS[m][0]} for m in LAYER_METRICS}, idle
