"""Smoke tests: each experiment script runs on a month of days and reruns byte-identically.

The children run with ``-W error``, so a warning fails them as it fails a test.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import tsagg
from tsagg import pathway
from tsagg.cli import main
from tsagg.hierarchy import ward_linkage
from tsagg.synthetic import load_profile

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
        subprocess.run([sys.executable, "-W", "error", str(SCRIPTS / script), "--days", "30",
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


@pytest.mark.parametrize("script, out_flag, out_name, linkages", [
    ("pathway_comparison.py", "--out-dir", "traces", 3),
    ("duration_curve_sweep.py", "--out", "sweep.csv", 1),
], ids=["pathway_comparison", "duration_curve_sweep"])
def test_script_links_each_input_once(tmp_path, monkeypatch, script, out_flag, out_name,
                                      linkages):
    # one period linkage per input profile serves all three methods
    calls = []
    monkeypatch.setattr(pathway, "ward_linkage",
                        lambda samples: calls.append(1) or ward_linkage(samples))
    monkeypatch.setattr(sys, "argv", [script, "--days", "30", out_flag,
                                      str(tmp_path / out_name)])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert len(calls) == linkages


def test_pathway_traces_have_the_cli_header(tmp_path):
    data = tmp_path / "load.csv"
    data.write_text("load\n" + "".join(f"{v!r}\n" for v in load_profile(30).tolist()))
    assert main(["pathway", "--input", str(data), "--out-dir", str(tmp_path / "cli"),
                 "--period-length", "24"]) == 0
    header = (tmp_path / "cli" / "pathway.csv").read_text().splitlines()[0]
    subprocess.run([sys.executable, "-W", "error", str(SCRIPTS / "pathway_comparison.py"),
                    "--days", "30", "--out-dir", str(tmp_path / "traces")], env=ENV,
                   check=True, capture_output=True)
    assert {(tmp_path / "traces" / name).read_text().splitlines()[0]
            for name in TRACES} == {header}
