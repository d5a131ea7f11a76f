"""Smoke tests: each experiment script runs on a month of days and reruns byte-identically."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsagg

SCRIPTS = Path(__file__).parents[1] / "scripts"
# the children import the same tsagg as this process
ENV = {**os.environ, "PYTHONPATH": str(Path(tsagg.__file__).parents[1])}
TRACES = [f"{profile}_{method}.csv" for profile in ("solar", "wind", "load")
          for method in ("centroid", "medoid", "distribution")]


def run_twice(tmp_path, script, out_flag, out_name):
    """Output files by name, as bytes, of two runs into separate directories."""
    runs = []
    for i in range(2):
        out = tmp_path / str(i) / out_name
        out.parent.mkdir()
        subprocess.run([sys.executable, str(SCRIPTS / script), "--days", "30",
                        out_flag, str(out)], env=ENV, check=True, capture_output=True)
        files = [out] if out.is_file() else sorted(out.iterdir())
        runs.append({f.name: f.read_bytes() for f in files})
    return runs


@pytest.mark.parametrize("script, out_flag, out_name, expected", [
    ("pathway_comparison.py", "--out-dir", "traces", TRACES),
    ("duration_curve_sweep.py", "--out", "sweep.csv", ["sweep.csv"]),
], ids=["pathway_comparison", "duration_curve_sweep"])
def test_script_runs_and_reruns_identically(tmp_path, script, out_flag, out_name, expected):
    first, second = run_twice(tmp_path, script, out_flag, out_name)
    assert sorted(first) == sorted(expected)
    assert all(first[name].count(b"\n") > 1 for name in expected)
    assert first == second
