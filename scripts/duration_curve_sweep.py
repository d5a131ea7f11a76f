#!/usr/bin/env python3
"""Compare how the three representation methods track the duration curve.

Sweeps the number of typical days at hourly resolution on a synthetic
load year and reports chronological and duration-curve RMSE per method.
The distribution representation should hold the duration-curve error far
below the other two at every cluster count.
"""

import argparse
import csv
from pathlib import Path

from tsagg.core import build_frame
from tsagg.metrics import duration_curve_rmse, rmse_tot
from tsagg.pathway import ConfigEvaluator, build_grid
from tsagg.synthetic import load_profile

METHODS = ("centroid", "medoid", "distribution")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=365)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("duration_sweep.csv"))
    args = parser.parse_args()

    periods, _, _ = build_frame(load_profile(args.days, seed=args.seed), ["load"], 24)
    original = periods.reshape(-1, 1)
    evaluators = {method: ConfigEvaluator(periods, method) for method in METHODS}

    with args.out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["typical_days", "method", "rmse_tot", "duration_rmse"])
        for k in build_grid(periods.shape[0]):
            for method, evaluator in evaluators.items():
                _, _, rec = evaluator.reconstruction(k, 24)
                writer.writerow([
                    k, method,
                    f"{rmse_tot(original, rec):.12g}",
                    f"{duration_curve_rmse(original, rec)[0]:.12g}",
                ])
            print(f"typical days {k:3d} done")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
