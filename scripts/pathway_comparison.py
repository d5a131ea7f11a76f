#!/usr/bin/env python3
"""Trace the typical-period/segment pathway for three profile archetypes.

Writes one trace CSV per (profile, representation) pair and prints where
the search spends its early moves, which shows how strongly the profile
shape steers the tradeoff (solar -> segments first, wind -> periods
first).
"""

import argparse
import csv
from pathlib import Path

from tsagg.core import build_frame
from tsagg.pathway import ConfigEvaluator, pathway_search
from tsagg.synthetic import load_profile, solar_profile, wind_profile

PROFILES = {"solar": solar_profile, "wind": wind_profile, "load": load_profile}
METHODS = ("centroid", "medoid", "distribution")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=365)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("pathway_traces"))
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, gen in PROFILES.items():
        periods, _, _ = build_frame(gen(args.days, seed=args.seed), [name], 24)
        for method in METHODS:
            trace = pathway_search(ConfigEvaluator(periods, method))
            out = args.out_dir / f"{name}_{method}.csv"
            with out.open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["p", "s", "total_steps", "rmse", "direction"])
                for i, state in enumerate(trace.states):
                    direction = trace.moves[i - 1].direction if i else ""
                    writer.writerow([state.p, state.s, state.total_steps,
                                     f"{state.rmse:.12g}", direction])
            first = [m.direction for m in trace.moves[:5]]
            n_seg = sum(d == "more_segments" for d in first)
            print(f"{name:6s} {method:13s} first 5 moves: "
                  f"{n_seg} segments / {5 - n_seg} periods -> {out}")


if __name__ == "__main__":
    main()
