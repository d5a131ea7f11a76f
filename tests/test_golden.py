"""Golden digests: the CLI's artifacts keep their exact bytes.

Every (input, representation, normalization) case runs ``aggregate`` at
(4, 6), ``pathway --budget 40`` and an unbounded ``pathway`` in process,
and the sha256 of each artifact must equal the one in
``golden_digests.json``. The unbounded search runs until both dimensions
are exhausted, so its ``pathway.csv`` holds the rows with one empty ratio
cell. The inputs:

- ``synthetic``: 60 days x 3 attributes of the seeded solar, wind and load
  profiles;
- ``ties``: 40 days x 2 attributes of integers 0..2, each day one of six
  day patterns, so many periods and distances tie exactly;
- ``trailing``: the synthetic input plus 7 steps, run with
  ``--drop-trailing``.

After a change meant to alter the outputs, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from tsagg.cli import main
from tsagg.synthetic import load_profile, solar_profile, wind_profile

DIGESTS = Path(__file__).with_name("golden_digests.json")
ARTIFACTS = ("representatives.csv", "mapping.csv", "metrics.json",
             "pathway.csv", "selected.json")
METHODS = ("centroid", "medoid", "distribution")
NORMALIZATIONS = ("minmax", "znorm")
COMMANDS = {
    "aggregate": ["aggregate", "--typical-periods", "4", "--segments", "6"],
    "pathway": ["pathway", "--budget", "40"],
    "pathway-unbounded": ["pathway"],
}


def _write_csv(path, values, names):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in values)


def _inputs(work):
    """Input name -> (CSV path, extra CLI flags)."""
    synthetic = np.column_stack([solar_profile(61, seed=3), wind_profile(61, seed=3),
                                 load_profile(61, seed=3)])
    rng = np.random.default_rng(7)
    patterns = rng.integers(0, 3, size=(6, 24, 2))
    ties = patterns[rng.integers(0, 6, size=40)].reshape(-1, 2)
    cases = {
        "synthetic": (synthetic[:60 * 24], ["solar", "wind", "load"], []),
        "ties": (ties, ["a", "b"], []),
        "trailing": (synthetic[:60 * 24 + 7], ["solar", "wind", "load"],
                     ["--drop-trailing"]),
    }
    inputs = {}
    for name, (values, names, flags) in cases.items():
        path = work / f"{name}.csv"
        _write_csv(path, values, names)
        inputs[name] = (path, flags)
    return inputs


def compute_digests(work: Path) -> dict[str, dict[str, str]]:
    """Case name -> artifact name -> sha256, for the whole matrix."""
    digests = {}
    for input_name, (path, flags) in _inputs(work).items():
        for method in METHODS:
            for norm in NORMALIZATIONS:
                for command, argv in COMMANDS.items():
                    case = f"{input_name}/{method}/{norm}/{command}"
                    out = work / case.replace("/", "-")
                    code = main([*argv, "--input", str(path), "--out-dir", str(out),
                                 "--period-length", "24", "--representation", method,
                                 "--normalization", norm, *flags])
                    assert code == 0, case
                    digests[case] = {
                        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ARTIFACTS if (out / name).is_file()}
    return digests


def test_artifacts_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert compute_digests(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = compute_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {DIGESTS}", file=sys.stderr)
