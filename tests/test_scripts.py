"""The example scripts run end to end at tiny sizes and write parseable files."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from scatter_swarm import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_design_demo(tmp_path):
    proc = run_script("design_demo.py", "--grid", "4", "--out-dir", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    h = json.loads((tmp_path / "out" / "h_design.json").read_text())
    assert h["dims"] == [4, 4, 4] and len(h["values"]) == 64
    table = np.loadtxt(tmp_path / "out" / "achieved_medium.csv", delimiter=",", skiprows=1)
    assert table.shape == (64, 9)


def test_oracle_asymptotics(tmp_path):
    out = tmp_path / "report.json"
    proc = run_script("oracle_asymptotics.py", "--n-theta", "4", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert len(report["a"]) == 3 and len(report["Q_oracle"]) == 3


def test_limit_passage_study(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    proc = run_script("limit_passage_study.py", "--a", "0.1", "0.08", "--cells", "3", cwd=work)
    assert proc.returncode == 0, proc.stderr
    assert list(work.iterdir()) == []
    printed = [float(line.split()[6]) for line in proc.stdout.splitlines()[2:]]

    # the same study through the CLI, from the script's defaults
    config = {
        "domain": {"box": [[0, 0, 0], [1, 1, 1]]},
        "materials": {"h": {"preset": "constant", "value": 0.05},
                      "N": {"preset": "constant", "value": 1.0}},
        "solver": {"a_sequence": [0.1, 0.08], "kappa": 0.5, "cells_per_axis": 3},
        "output": {"dir": "out",
                   "probes": {"box": [[0.1, 0.1, 1.01], [0.9, 0.9, 1.05]], "shape": [5, 5, 5]}},
    }
    (tmp_path / "study.json").write_text(json.dumps(config))
    assert cli.main(["study", str(tmp_path / "study.json")]) == 0
    rows = json.loads((tmp_path / "out" / "study_report.json").read_text())["rows"]
    assert printed == [round(r["D"], 6) for r in rows]
