"""Command-line front end: CSV in, aggregated CSV/JSON artifacts out.

Input format: UTF-8 CSV (a leading byte-order mark is skipped) with a
header row of attribute names, one row per time step, dot decimal
separator. A leading timestamp column is detected by the header name
"timestamp" (case-insensitive) and excluded from the values. All numeric
output is printed with 12 significant digits, so repeated runs on
identical input produce byte-identical files.

Exit codes: 0 success, 2 input/format or filesystem error, 3 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    NORMALIZATION_METHODS,
    TimeSeriesSet,
    denormalize,
    normalize,
    to_periods,
    validate_and_build,
)
from .errors import ConfigError, DataError
from .hierarchy import ClusterResult
from .metrics import build_report, reconstruct
from .pathway import ConfigEvaluator, PathwayTrace, pathway_search, select_config
from .representation import REPRESENTATION_METHODS, RepresentativeSet


@dataclass(frozen=True)
class RunConfig:
    """Resolved command-line options for one run."""

    input_path: Path
    out_dir: Path
    period_length: int
    typical_periods: int | None = None
    segments: int | None = None
    representation: str = "distribution"
    normalization: str = "minmax"
    budget: int | None = None
    drop_trailing: bool = False


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


def _round_floats(obj):
    """Round floats to 12 significant digits for stable JSON output."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True,
                      default=_json_default)
    path.write_text(text + "\n", encoding="utf-8")


def read_csv(path: Path) -> TimeSeriesSet:
    """Parse a time-series CSV; errors name the offending line."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    has_timestamp = bool(header) and header[0].lower() == "timestamp"
    names = header[1:] if has_timestamp else header
    if not names:
        raise DataError(f"{path}: header declares no attribute columns (line 1)")
    rows = []
    origin = None
    for line_no, row in enumerate(reader, start=2):
        if not row:
            raise DataError(f"{path}: blank line {line_no}")
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}")
        cells = row[1:] if has_timestamp else row
        if has_timestamp and origin is None:
            origin = row[0].strip()
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        t, a = bad[0]
        raise DataError(
            f"{path}: line {t + 2}: non-finite value in column {names[a]!r}")
    return validate_and_build(values, names, resolution_hours=1.0,
                              origin_timestamp=origin)


def write_representatives(path: Path, reps: RepresentativeSet,
                          ts: TimeSeriesSet, norm_params) -> None:
    """One row per (cluster, segment), values denormalized."""
    if reps.segments is None:
        raise DataError("representatives carry no segment layout")
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster_id", "weight", "segment_id", "duration_steps",
                         *ts.attribute_names])
        layout = reps.segments
        values = denormalize(layout.values.reshape(-1, reps.n_attributes),
                             norm_params).reshape(layout.values.shape)
        for c in range(reps.k):
            for si in range(layout.n_segments):
                writer.writerow([c, int(reps.weights[c]), si, int(layout.lengths[c, si]),
                                 *(_fmt(v) for v in values[c, si])])


def write_mapping(path: Path, clusters: ClusterResult) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["period_index", "cluster_id"])
        for p, c in enumerate(clusters.assignment):
            writer.writerow([p, int(c)])


def write_pathway(path: Path, trace: PathwayTrace) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "p", "s", "total_steps", "rmse",
                         "direction", "ratio_periods", "ratio_segments"])
        for i, state in enumerate(trace.states):
            move = trace.moves[i - 1] if i > 0 else None
            writer.writerow([
                i, state.p, state.s, state.total_steps, _fmt(state.rmse),
                move.direction if move else "",
                _fmt(move.ratio_periods) if move and move.ratio_periods is not None else "",
                _fmt(move.ratio_segments) if move and move.ratio_segments is not None else "",
            ])


def _prepare(config: RunConfig):
    ts = read_csv(config.input_path)
    normalized, params = normalize(ts, config.normalization)
    frame = to_periods(normalized, config.period_length, params,
                       drop_trailing=config.drop_trailing)
    if frame.dropped_steps:
        print(f"note: dropped {frame.dropped_steps} trailing step(s)",
              file=sys.stderr)
    return ts, frame


def _aggregate(ts: TimeSeriesSet, frame, evaluator: ConfigEvaluator,
               p: int, s: int, out_dir: Path) -> None:
    clusters = evaluator.clusters(p)
    reps = evaluator.segmented(p, s)
    rec = reconstruct(frame, clusters, reps)
    report = build_report(frame.unrolled(), rec, ts.attribute_names,
                          total_steps=p * s)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_representatives(out_dir / "representatives.csv", reps, ts,
                          frame.norm_params)
    write_mapping(out_dir / "mapping.csv", clusters)
    write_json(out_dir / "metrics.json", report.to_json_dict())


def cmd_aggregate(config: RunConfig) -> int:
    if config.typical_periods is None:
        raise ConfigError("--typical-periods is required for aggregate")
    ts, frame = _prepare(config)
    s = config.segments if config.segments is not None else frame.steps_per_period
    evaluator = ConfigEvaluator(frame, config.representation)
    evaluator.evaluate(config.typical_periods, s)
    _aggregate(ts, frame, evaluator, config.typical_periods, s, config.out_dir)
    return 0


def cmd_pathway(config: RunConfig) -> int:
    ts, frame = _prepare(config)
    evaluator = ConfigEvaluator(frame, config.representation)
    trace = pathway_search(frame, config.representation,
                           max_total_steps=config.budget, evaluator=evaluator)
    selected = (select_config(trace, config.budget)
                if config.budget is not None else trace.final)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_pathway(config.out_dir / "pathway.csv", trace)
    write_json(config.out_dir / "selected.json", {
        "typical_periods": selected.p,
        "segments": selected.s,
        "total_steps": selected.total_steps,
        "rmse_tot": selected.rmse,
        "budget": config.budget,
    })
    _aggregate(ts, frame, evaluator, selected.p, selected.s, config.out_dir)
    return 0


def cmd_metrics(original_path: Path, aggregated_path: Path,
                normalization: str, out_dir: Path) -> int:
    """Score an externally produced aggregation against the original."""
    original = read_csv(original_path)
    aggregated = read_csv(aggregated_path)
    names = original.attribute_names
    if set(aggregated.attribute_names) != set(names):
        raise DataError(
            f"attribute mismatch: original {list(names)}, "
            f"aggregated {list(aggregated.attribute_names)}")
    if original.values.shape != aggregated.values.shape:
        raise DataError(
            f"shape mismatch: original {original.values.shape}, "
            f"aggregated {aggregated.values.shape}")
    # align the aggregated columns to the original by name
    columns = [aggregated.attribute_names.index(n) for n in names]
    normalized, params = normalize(original, normalization)
    agg_normalized = (aggregated.values[:, columns] - params.offset) / params.scale
    report = build_report(normalized, agg_normalized, names)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "metrics.json", report.to_json_dict())
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; those are configuration errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsagg",
                     description="Aggregate time series into weighted typical "
                                 "periods with intra-period segments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, type=Path,
                       help="input CSV (header of attribute names, one row per step)")
        p.add_argument("--out-dir", required=True, type=Path,
                       help="directory for output files")
        p.add_argument("--normalization", choices=NORMALIZATION_METHODS,
                       default="minmax")

    def common_agg(p):
        common(p)
        p.add_argument("--period-length", required=True, type=int,
                       help="time steps per period, e.g. 24 for daily periods")
        p.add_argument("--representation", choices=REPRESENTATION_METHODS,
                       default="distribution")
        p.add_argument("--drop-trailing", action="store_true",
                       help="discard steps that do not fill a whole period")

    agg = sub.add_parser("aggregate", help="aggregate at a fixed configuration")
    common_agg(agg)
    agg.add_argument("--typical-periods", required=True, type=int)
    agg.add_argument("--segments", type=int, default=None,
                     help="segments per period (default: period length)")

    path = sub.add_parser("pathway", help="search the typical-period/segment tradeoff")
    common_agg(path)
    path.add_argument("--budget", type=int, default=None,
                      help="maximum total aggregated time steps")

    met = sub.add_parser("metrics", help="score an external aggregation")
    met.add_argument("--input", required=True, type=Path,
                     help="original CSV")
    met.add_argument("--aggregated", required=True, type=Path,
                     help="reconstructed CSV of the same shape")
    met.add_argument("--out-dir", required=True, type=Path)
    met.add_argument("--normalization", choices=NORMALIZATION_METHODS,
                     default="minmax")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "metrics":
            return cmd_metrics(args.input, args.aggregated,
                               args.normalization, args.out_dir)
        config = RunConfig(
            input_path=args.input,
            out_dir=args.out_dir,
            period_length=args.period_length,
            typical_periods=getattr(args, "typical_periods", None),
            segments=getattr(args, "segments", None),
            representation=args.representation,
            normalization=args.normalization,
            budget=getattr(args, "budget", None),
            drop_trailing=args.drop_trailing,
        )
        if args.command == "aggregate":
            return cmd_aggregate(config)
        return cmd_pathway(config)
    except (DataError, OSError) as exc:
        # OSError: creating the output directory or writing an artifact
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
