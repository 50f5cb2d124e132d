"""Every call binding the benchmark tracer wraps must exist in the package.

The tracer (solverbench/tracing.py) replaces module attributes by name; a
renamed or removed attribute would only show up when `run.py --trace 1`
fails, so this test resolves each binding directly.
"""

import importlib
import importlib.util
import pathlib

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
