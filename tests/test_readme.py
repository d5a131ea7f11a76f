"""The README's ``python`` block runs as written, so the documented API is the code's."""

import re
from pathlib import Path

import numpy as np

from tsagg.synthetic import load_profile, solar_profile

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    days = 60
    values = np.column_stack([load_profile(days, seed=0), solar_profile(days, seed=0)])
    namespace = {"values": values}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the shapes and values its comments state
    assert namespace["periods"].shape == (days, 24, 2)
    assert np.bincount(namespace["assignment"]).sum() == days
    lengths, values, trace = namespace["lengths"], namespace["values"], namespace["trace"]
    assert lengths.shape == (8, 8) and np.all(lengths.sum(axis=1) == 24)
    assert values.shape == (8, 8, 2)
    assert (trace[0].p, trace[0].s, trace[0].direction) == (1, 1, "")
    assert trace[1].direction in ("more_periods", "more_segments")
    assert trace[-1].total_steps == trace[-1].p * trace[-1].s > 96
