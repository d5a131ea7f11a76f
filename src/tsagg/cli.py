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
from pathlib import Path

import numpy as np

from .core import (
    NORMALIZATION_METHODS,
    build_frame,
    denormalize,
    normalize,
    rescale,
    validate_and_build,
)
from .errors import ConfigError, DataError, check_count
from .metrics import build_report
from .pathway import ConfigEvaluator, PathwayState, pathway_search, select_config
from .representation import REPRESENTATION_METHODS


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _round_floats(obj):
    """Round floats to 12 significant digits for stable JSON output."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(_round_floats(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    path.write_text(text + "\n", encoding="utf-8")


def read_csv(path: Path) -> tuple[np.ndarray, list[str]]:
    """Parse a time-series CSV into values and attribute names.

    Plain files take one ``np.loadtxt`` call, whose C parser rounds as
    ``float()`` does. The rest go cell by cell through ``csv`` and
    ``float()``: files with no data line, with a ``"``, whose data lines
    hold other than the header's comma count each in total, with a blank or
    whitespace-only line (``loadtxt`` would skip it), and files ``loadtxt``
    rejects, such as a line with too few fields, ``1_0`` or non-ASCII
    digits. Errors name the file, and the offending line where there is
    one: a record's last line, if it spans lines.
    """
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    # with their ends, a quoted cell that spans lines keeps its line break
    lines = text.splitlines(keepends=True)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    has_timestamp = bool(header) and header[0].lower() == "timestamp"
    names = header[1:] if has_timestamp else header
    if not names:
        raise DataError(f"{path}: header declares no attribute columns (line 1)")
    data, values, line_nos = lines[1:], None, None
    # with the total right, a line with too many fields forces one with too
    # few, on which loadtxt raises, as usecols reaches the last column
    if (data and '"' not in text and all(map(str.strip, data))
            and text.count(",") - lines[0].count(",") == (len(header) - 1) * len(data)):
        try:
            values = np.loadtxt(data, delimiter=",", comments=None, ndmin=2,
                                usecols=range(len(header) - len(names), len(header)))
        except ValueError:
            pass
    if values is None:
        values, line_nos = _parse_rows(path, reader, len(header), has_timestamp)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        t, a = bad[0]
        raise DataError(f"{path}: line {t + 2 if line_nos is None else line_nos[t]}: "
                        f"non-finite value in column {names[a]!r}")
    return values, names


def _parse_rows(path: Path, reader, n_fields: int,
                has_timestamp: bool) -> tuple[np.ndarray, list[int]]:
    """The data rows of ``reader``, cell by cell through ``float()``, and their lines."""
    rows, line_nos = [], []
    for row in reader:
        line_no = reader.line_num
        if not row:
            raise DataError(f"{path}: blank line {line_no}")
        if len(row) != n_fields:
            raise DataError(
                f"{path}: line {line_no} has {len(row)} fields, expected {n_fields}")
        cells = row[1:] if has_timestamp else row
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from exc
        line_nos.append(line_no)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows), line_nos


def write_representatives(path: Path, weights: np.ndarray, lengths: np.ndarray,
                          values: np.ndarray, names) -> None:
    """One row per (cluster, segment), weighted by cluster size, values in original units."""
    k, n_segments, n_attrs = values.shape
    values, weights, lengths = values.tolist(), weights.tolist(), lengths.tolist()
    # '%.12g' % x prints exactly what _fmt(x) prints
    row = "%d,%d,%d,%d" + ",%.12g" * n_attrs + "\n"
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["cluster_id", "weight", "segment_id", "duration_steps", *names])
        fh.writelines(row % (c, weights[c], si, lengths[c][si], *values[c][si])
                      for c in range(k) for si in range(n_segments))


def write_mapping(path: Path, assignment: np.ndarray) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("period_index,cluster_id\n")
        fh.writelines(f"{p},{c}\n" for p, c in enumerate(assignment.tolist()))


def write_pathway(path: Path, trace: tuple[PathwayState, ...]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "p", "s", "total_steps", "rmse",
                         "direction", "ratio_periods", "ratio_segments"])
        for i, state in enumerate(trace):
            writer.writerow([i, state.p, state.s, state.total_steps, _fmt(state.rmse),
                             state.direction,
                             *("" if r is None else _fmt(r)
                               for r in (state.ratio_periods, state.ratio_segments))])


def _frame(args: argparse.Namespace):
    values, names = read_csv(args.input)
    periods, offset, scale = build_frame(values, names, args.period_length,
                                         args.normalization, args.drop_trailing)
    dropped = values.shape[0] - periods.shape[0] * periods.shape[1]
    if dropped:
        print(f"note: dropped {dropped} trailing step(s)", file=sys.stderr)
    return names, (offset, scale), periods


def _aggregate(args: argparse.Namespace, names, transform, evaluator, p: int, s: int):
    """Write the artifacts of configuration (p, s), every value computed first."""
    assignment, lengths, values, rec = evaluator.reconstruction(p, s, args.representation)
    report = build_report(evaluator.periods.reshape(rec.shape), rec, names, total_steps=p * s)
    raw = denormalize(values.reshape(-1, len(names)), *transform)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_representatives(args.out_dir / "representatives.csv", np.bincount(assignment),
                          lengths, raw.reshape(values.shape), names)
    write_mapping(args.out_dir / "mapping.csv", assignment)
    write_json(args.out_dir / "metrics.json", report)


def cmd_aggregate(args: argparse.Namespace) -> int:
    names, transform, periods = _frame(args)
    n_periods, steps = periods.shape[:2]
    # checked before the period linkage, the dominant cost
    p = check_count(args.typical_periods, "p", n_periods)
    s = check_count(steps if args.segments is None else args.segments, "s", steps)
    _aggregate(args, names, transform, ConfigEvaluator(periods), p, s)
    return 0


def cmd_pathway(args: argparse.Namespace) -> int:
    names, transform, periods = _frame(args)
    if args.budget is not None and args.budget < 1:  # checked before the period linkage
        raise ConfigError(f"budget must be >= 1, got {args.budget}")
    evaluator = ConfigEvaluator(periods)
    trace = pathway_search(evaluator, args.representation, max_total_steps=args.budget)
    selected = trace[-1] if args.budget is None else select_config(trace, args.budget)
    # every value is checked before the first file is written
    _aggregate(args, names, transform, evaluator, selected.p, selected.s)
    write_pathway(args.out_dir / "pathway.csv", trace)
    write_json(args.out_dir / "selected.json", {
        "typical_periods": selected.p,
        "segments": selected.s,
        "total_steps": selected.total_steps,
        "rmse_tot": selected.rmse,
        "budget": args.budget,
    })
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Score an externally produced aggregation against the original."""
    original, names = validate_and_build(*read_csv(args.input))
    aggregated, agg_names = validate_and_build(*read_csv(args.aggregated))
    if set(agg_names) != set(names):
        raise DataError(
            f"attribute mismatch: original {list(names)}, aggregated {list(agg_names)}")
    # align the aggregated columns to the original by name; build_report checks the shapes
    columns = [agg_names.index(n) for n in names]
    normalized, offset, scale = normalize(original, args.normalization, names)
    report = build_report(normalized, rescale(aggregated[:, columns], offset, scale, names),
                          names)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_json(args.out_dir / "metrics.json", report)
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
    agg.set_defaults(run=cmd_aggregate)
    agg.add_argument("--typical-periods", required=True, type=int)
    agg.add_argument("--segments", type=int, default=None,
                     help="segments per period (default: period length)")

    path = sub.add_parser("pathway", help="search the typical-period/segment tradeoff")
    common_agg(path)
    path.set_defaults(run=cmd_pathway)
    path.add_argument("--budget", type=int, default=None,
                      help="maximum total aggregated time steps")

    met = sub.add_parser("metrics", help="score an external aggregation")
    common(met)
    met.add_argument("--aggregated", required=True, type=Path,
                     help="reconstructed CSV of the same shape as the input")
    met.set_defaults(run=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (DataError, OSError) as exc:
        # OSError: creating the output directory or writing an artifact
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
