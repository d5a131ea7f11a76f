"""The benchmark's workloads and the seeded inputs they run on.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, as in a modeller's script that waits
on each call. Inputs are CSVs with a ``timestamp`` column and the
attributes ``solar,wind,load`` from ``tsagg.synthetic``; the program sees
only these files.

Why these three: each of the next planned speed-ups works on a different
layer, so each needs a workload where that layer does most of the work and
one where it does little.

- ``pathway-year``: the unbounded search on a year of days. Segmentation
  (1,598 segment linkages and ~5k segment cuts per search) is about 90% of
  the time; the period linkage is a few percent.
- ``pathway-multiyear``: a budgeted search on three years of days. The
  O(n^3) dense period linkage is most of the time and its matrices are the
  largest allocation; segmentation is a few percent. Four years would
  stress the linkage more, but each call then takes 6-13 s on a shared
  2-core host, bound by memory bandwidth that neighbours also use, and
  runs of a few such calls did not repeat within 25%.
- ``cli-batch``: one ``python -m tsagg.cli`` process per call, five calls
  in a fixed round-robin. Interpreter start-up and imports are most of each
  call; the rest is spread over parsing, one small period linkage, a few
  segmentations and the writers, and the search layers barely run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ATTRIBUTES = ("solar", "wind", "load")
STEPS_PER_PERIOD = 24
_PL = ["--period-length", str(STEPS_PER_PERIOD)]


@dataclass(frozen=True)
class Call:
    """One CLI invocation; --input and --out-dir are added when run."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    in_process: bool  # tsagg.cli.main in one process, else python -m tsagg.cli
    calls: tuple[Call, ...]
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pathway-year", days=365, in_process=True,
            calls=(Call("pathway-full", ("pathway", *_PL,
                                         "--representation", "distribution")),),
            why="unbounded pathway on 365 days x 3: segment linkages and cuts "
                "dominate, the period linkage is small"),
        Workload(
            name="pathway-multiyear", days=1095, in_process=True,
            calls=(Call("pathway-96", ("pathway", *_PL, "--budget", "96")),),
            why="pathway --budget 96 on 1,095 days x 3: the dense O(n^3) period "
                "linkage dominates time and allocation"),
        Workload(
            name="cli-batch", days=365, in_process=False,
            calls=(
                Call("aggregate-8x8", ("aggregate", *_PL, "--typical-periods", "8",
                                       "--segments", "8", "--representation",
                                       "distribution", "--normalization", "minmax")),
                Call("aggregate-8-medoid", ("aggregate", *_PL, "--typical-periods",
                                            "8", "--representation", "medoid",
                                            "--normalization", "znorm")),
                Call("aggregate-12x6", ("aggregate", *_PL, "--typical-periods", "12",
                                        "--segments", "6",
                                        "--representation", "centroid")),
                Call("pathway-96", ("pathway", *_PL, "--budget", "96")),
                Call("metrics", ("metrics",)),  # --aggregated added by inputs
            ),
            why="one python -m tsagg.cli process per call, five calls round-robin: "
                "start-up, CSV parsing and writers dominate"),
    )
}


def series(days: int, seed: int) -> np.ndarray:
    """(days * 24, 3) hourly solar, wind and load from one seed."""
    from tsagg.synthetic import load_profile, solar_profile, wind_profile

    s_solar, s_wind, s_load = (int(s) for s in
                               np.random.SeedSequence(seed).generate_state(3))
    return np.column_stack([solar_profile(days, s_solar),
                            wind_profile(days, s_wind),
                            load_profile(days, s_load)])


def write_csv(path: Path, values: np.ndarray) -> None:
    """Timestamped CSV in the format the CLI reads, 10 significant digits."""
    stamps = np.datetime64("2021-01-01T00", "h") + np.arange(values.shape[0])
    lines = ["timestamp," + ",".join(ATTRIBUTES)]
    lines.extend(f"{t}," + ",".join(f"{v:.10g}" for v in row)
                 for t, row in zip(stamps.astype(str), values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    """Write the workload's ``input.csv`` into ``work``.

    ``cli-batch`` also gets ``reconstruction.csv`` for its ``metrics`` call:
    every day replaced by the mean day of the series.
    """
    values = series(workload.days, seed)
    write_csv(work / "input.csv", values)
    if any(c.argv[0] == "metrics" for c in workload.calls):
        days = values.reshape(workload.days, STEPS_PER_PERIOD, len(ATTRIBUTES))
        mean_day = days.mean(axis=0)
        write_csv(work / "reconstruction.csv",
                  np.tile(mean_day, (workload.days, 1)))


def argv_for(call: Call, work: Path, out_dir: Path) -> list[str]:
    """Full CLI arguments of ``call`` on the inputs in ``work``."""
    argv = [*call.argv, "--input", str(work / "input.csv"),
            "--out-dir", str(out_dir)]
    if call.argv[0] == "metrics":
        argv += ["--aggregated", str(work / "reconstruction.csv")]
    return argv
