"""Child Python processes started by the tests import scatter_swarm from src,
as the tests themselves do through the pytest `pythonpath` setting."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
