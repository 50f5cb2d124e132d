"""The example scripts run end to end at tiny sizes and write parseable files."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

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
    proc = run_script("limit_passage_study.py", "--a", "0.1", "0.08", "--cells", "3",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "D(a)" in proc.stdout
