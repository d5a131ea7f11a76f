import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
import tsagg
from tsagg.cli import main, read_csv, write_json
from tsagg.core import (
    NORMALIZATION_METHODS,
    build_frame,
    denormalize,
    normalize,
    validate_and_build,
)
from tsagg.errors import ConfigError, DataError
from tsagg.metrics import rmse_tot
from tsagg.pathway import ConfigEvaluator
from tsagg.representation import REPRESENTATION_METHODS
from tsagg.synthetic import load_profile, solar_profile, wind_profile


def write_csv(path, values, names, timestamps=None):
    values = np.asarray(values)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = (["timestamp"] if timestamps is not None else []) + list(names)
        writer.writerow(header)
        for i, row in enumerate(values):
            prefix = [timestamps[i]] if timestamps is not None else []
            writer.writerow(prefix + [repr(float(v)) for v in row])


def read_rows(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def year_csv(tmp_path):
    path = tmp_path / "load.csv"
    write_csv(path, load_profile(365, seed=0), ["load"])
    return path


class TestAggregate:
    def test_eight_by_eight_has_64_rows(self, year_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(year_csv), "--out-dir", str(out),
                     "--period-length", "24", "--typical-periods", "8",
                     "--segments", "8", "--representation", "distribution"])
        assert code == 0
        rows = read_rows(out / "representatives.csv")
        assert len(rows) == 64
        weights = {r["cluster_id"]: int(r["weight"]) for r in rows}
        assert sum(weights.values()) == 365
        durations = sum(int(r["duration_steps"]) for r in rows)
        assert durations == 8 * 24
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["total_steps"] == 64
        assert metrics["reduction_ratio"] > 0.99

    def test_identity_configuration_zero_error(self, tmp_path):
        path = tmp_path / "small.csv"
        rng = np.random.default_rng(1)
        write_csv(path, rng.standard_normal((48, 2)), ["a", "b"])
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "12", "--typical-periods", "4"])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse_tot"] == 0.0

    def test_mapping_covers_every_period(self, year_csv, tmp_path):
        out = tmp_path / "out"
        main(["aggregate", "--input", str(year_csv), "--out-dir", str(out),
              "--period-length", "24", "--typical-periods", "5"])
        rows = read_rows(out / "mapping.csv")
        assert len(rows) == 365
        assert {int(r["period_index"]) for r in rows} == set(range(365))
        assert {int(r["cluster_id"]) for r in rows} == set(range(5))

    def test_byte_identical_reruns(self, year_csv, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            main(["aggregate", "--input", str(year_csv), "--out-dir", str(out),
                  "--period-length", "24", "--typical-periods", "8",
                  "--segments", "8"])
            outs.append(out)
        for fname in ("representatives.csv", "mapping.csv", "metrics.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_representatives_rows_match_library(self, tmp_path):
        # every value printed with 12 significant digits, as the library has it
        values = 1e3 * np.random.default_rng(3).standard_normal((10 * 6, 2))
        path = tmp_path / "in.csv"
        write_csv(path, values, ["a", "b"])
        out = tmp_path / "out"
        assert main(["aggregate", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "6", "--typical-periods", "4",
                     "--segments", "3", "--normalization", "znorm"]) == 0
        periods, offset, scale = build_frame(values, ["a", "b"], 6, "znorm")
        assignment, lengths, means, _ = ConfigEvaluator(periods).reconstruction(
            4, 3, "distribution")
        segment_values = denormalize(means.reshape(-1, 2), offset, scale)
        weights = np.bincount(assignment)
        expected = ["cluster_id,weight,segment_id,duration_steps,a,b"]
        for i, (a, b) in enumerate(segment_values):
            c, j = divmod(i, 3)
            expected.append(f"{c},{weights[c]},{j},{lengths[c, j]},"
                            f"{a:.12g},{b:.12g}")
        assert (out / "representatives.csv").read_text().splitlines() == expected

    def test_representatives_roundtrip_reproduces_rmse(self, year_csv, tmp_path):
        out = tmp_path / "out"
        main(["aggregate", "--input", str(year_csv), "--out-dir", str(out),
              "--period-length", "24", "--typical-periods", "8",
              "--segments", "6", "--representation", "distribution"])
        reps = read_rows(out / "representatives.csv")
        mapping = read_rows(out / "mapping.csv")
        expanded_cluster = {}
        for row in reps:
            expanded_cluster.setdefault(row["cluster_id"], []).extend(
                [float(row["load"])] * int(row["duration_steps"]))
        series = []
        for row in mapping:
            series.extend(expanded_cluster[row["cluster_id"]])
        # rescore in normalized space against the original input
        original, _ = validate_and_build(load_profile(365, seed=0), ["load"])
        normalized, offset, scale = normalize(original, "minmax")
        rebuilt = (np.array(series).reshape(-1, 1) - offset) / scale
        metrics = json.loads((out / "metrics.json").read_text())
        assert abs(rmse_tot(normalized, rebuilt) - metrics["rmse_tot"]) < 1e-9

    def test_timestamp_column_detected(self, tmp_path):
        path = tmp_path / "ts.csv"
        stamps = [f"2021-01-01T{h:02d}:00" for h in range(24)] * 2
        write_csv(path, np.arange(48.0), ["load"], timestamps=stamps)
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "24", "--typical-periods", "2"])
        assert code == 0

    def test_drop_trailing(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        write_csv(path, np.arange(50.0), ["load"])
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "24", "--typical-periods", "2",
                     "--drop-trailing"])
        assert code == 0
        assert "dropped 2 trailing" in capsys.readouterr().err

    def test_non_divisible_without_flag_fails(self, tmp_path):
        path = tmp_path / "odd.csv"
        write_csv(path, np.arange(50.0), ["load"])
        code = main(["aggregate", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--period-length", "24",
                     "--typical-periods", "2"])
        assert code == 3

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("load\n1.0\nnot-a-number\n2.0\n")
        code = main(["aggregate", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--period-length", "1",
                     "--typical-periods", "1"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"load\n1.0\n\xe9\n")
        code = main(["aggregate", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--period-length", "1",
                     "--typical-periods", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_byte_order_mark_with_timestamp(self, tmp_path):
        path = tmp_path / "bom.csv"
        lines = ["timestamp,load"] + [f"t{i},{float(i % 24)}" for i in range(48)]
        path.write_bytes("\n".join(lines).encode("utf-8-sig") + b"\n")
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "24", "--typical-periods", "1"])
        assert code == 0
        assert read_rows(out / "representatives.csv")[0].keys() >= {"load"}

    def test_nonfinite_value_reports_file_line(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("load\n1.0\n2.0\n3.0\n4.0\nnan\n6.0\n")
        code = main(["aggregate", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--period-length", "1",
                     "--typical-periods", "1"])
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    def test_out_dir_is_a_file(self, year_csv, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        code = main(["aggregate", "--input", str(year_csv), "--out-dir", str(blocker),
                     "--period-length", "24", "--typical-periods", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file(self, tmp_path):
        code = main(["aggregate", "--input", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "out"), "--period-length", "24",
                     "--typical-periods", "2"])
        assert code == 2

    def test_too_many_clusters_is_config_error(self, tmp_path):
        path = tmp_path / "small.csv"
        write_csv(path, np.arange(48.0), ["load"])
        code = main(["aggregate", "--input", str(path), "--out-dir",
                     str(tmp_path / "out"), "--period-length", "24",
                     "--typical-periods", "3"])
        assert code == 3

    def test_linkage_beyond_free_memory_is_config_error(self, year_csv, tmp_path,
                                                        monkeypatch, capsys):
        # hourly periods of a year: 4 * 8760 * 8761 bytes for the distances
        monkeypatch.setattr("tsagg.hierarchy.available_memory", lambda: 100_000_000)
        code = main(["aggregate", "--input", str(year_csv), "--out-dir",
                     str(tmp_path / "out"), "--period-length", "1",
                     "--typical-periods", "8"])
        assert code == 3
        err = capsys.readouterr().err
        assert "307.0 MB" in err and "100.0 MB" in err

    def test_out_of_memory_is_config_exit(self, year_csv, tmp_path, monkeypatch, capsys):
        # an allocation that the memory guard does not count
        def no_memory(samples):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr("tsagg.pathway.ward_linkage", no_memory)
        out = tmp_path / "out"
        code = main(["aggregate", "--input", str(year_csv), "--out-dir", str(out),
                     "--period-length", "24", "--typical-periods", "8"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert not out.exists()

    def test_unknown_flag_is_config_error(self):
        code = main(["aggregate", "--bogus"])
        assert code == 3


def quiet_main(argv):
    """main(argv), asserting that no warning escaped it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code


# a column whose largest value does not survive the round trip through minmax
TOP_OF_RANGE = "x\n2.9937604643020797e+292\n1.7976931348623157e+308\n"


def no_linkage(samples):
    raise AssertionError("the period linkage was built")


class TestHostileInput:
    """Finite inputs whose normalization overflows, and checks before the linkage."""

    @pytest.fixture
    def huge(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("spread\n1e200\n-1e200\n5\n1\n3\n")
        return path

    def test_overflowing_znorm_spread_is_data_error(self, huge, tmp_path, capsys):
        out = tmp_path / "out"
        assert quiet_main(["pathway", "--input", str(huge), "--out-dir", str(out),
                           "--period-length", "1", "--normalization", "znorm"]) == 2
        assert "'spread'" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_overflowing_znorm_spread_is_data_error(self, huge, tmp_path, capsys):
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("spread\n" + "0\n" * 5)
        out = tmp_path / "out"
        assert quiet_main(["metrics", "--input", str(huge), "--aggregated", str(zeros),
                           "--out-dir", str(out), "--normalization", "znorm"]) == 2
        assert "'spread'" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_overflowing_minmax_range_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "range.csv"
        path.write_text("range\n-1e308\n1e308\n0\n1\n")
        out = tmp_path / "out"
        assert quiet_main(["metrics", "--input", str(path), "--aggregated", str(path),
                           "--out-dir", str(out)]) == 2
        assert "'range'" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_aggregated_frame_is_checked(self, tmp_path, capsys):
        # the original normalizes; the aggregated frame overflows its scale
        original, aggregated = tmp_path / "a.csv", tmp_path / "b.csv"
        original.write_text("tiny\n0\n1e-300\n")
        aggregated.write_text("tiny\n0\n1e10\n")
        assert quiet_main(["metrics", "--input", str(original), "--aggregated",
                           str(aggregated), "--out-dir", str(tmp_path / "out")]) == 2
        assert "'tiny'" in capsys.readouterr().err

    def test_metrics_overflowing_squared_difference_is_data_error(self, tmp_path, capsys):
        # both frames rescale to finite values; their difference squared does not
        original, aggregated = tmp_path / "a.csv", tmp_path / "b.csv"
        original.write_text("x\n0\n1\n")
        aggregated.write_text("x\n0\n1e300\n")
        out = tmp_path / "out"
        assert quiet_main(["metrics", "--input", str(original), "--aggregated",
                           str(aggregated), "--out-dir", str(out)]) == 2
        assert "'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["aggregate", "--typical-periods", "2"], ["pathway"]],
                             ids=["aggregate", "pathway"])
    def test_denormalized_overflow_takes_the_input_bound(self, argv, tmp_path):
        # minmax offset and scale are finite, but scale + offset rounds up
        # past the largest float when the top value is denormalized; the
        # written values stay finite and inside the input's range
        path = tmp_path / "top.csv"
        path.write_text(TOP_OF_RANGE)
        out = tmp_path / "out"
        assert quiet_main(argv + ["--input", str(path), "--out-dir", str(out),
                                  "--period-length", "1"]) == 0
        values = np.array([float(row["x"]) for row in read_rows(out / "representatives.csv")])
        # the bounds as the writer prints them, to 12 digits, which keep the order
        low, high = (float(f"{float(v):.12g}") for v in TOP_OF_RANGE.split()[1:])
        assert np.isfinite(values).all()
        assert ((low <= values) & (values <= high)).all()
        assert values.max() == high

    def test_aggregate_checks_counts_before_the_linkage(self, tmp_path, monkeypatch,
                                                        capsys):
        path = tmp_path / "small.csv"
        write_csv(path, np.arange(48.0), ["load"])
        monkeypatch.setattr("tsagg.pathway.ward_linkage", no_linkage)
        for counts, message in ((["1", "100"], "s=100 out of range [1, 24]"),
                                (["3", "1"], "p=3 out of range [1, 2]")):
            assert quiet_main(["aggregate", "--input", str(path), "--out-dir",
                               str(tmp_path / "out"), "--period-length", "24",
                               "--typical-periods", counts[0], "--segments", counts[1]]) == 3
            assert message in capsys.readouterr().err

    def test_pathway_checks_budget_before_the_linkage(self, year_csv, tmp_path, monkeypatch,
                                                      capsys):
        monkeypatch.setattr("tsagg.pathway.ward_linkage", no_linkage)
        assert quiet_main(["pathway", "--input", str(year_csv), "--out-dir",
                           str(tmp_path / "out"), "--period-length", "1",
                           "--budget", "0"]) == 3
        assert "budget must be >= 1, got 0" in capsys.readouterr().err

    def test_write_json_rejects_non_finite_numbers(self, tmp_path):
        path = tmp_path / "metrics.json"
        for value in (float("nan"), float("inf")):
            with pytest.raises(DataError, match="metrics.json"):
                write_json(path, {"rmse_tot": value})
        assert not path.exists()


# magnitudes up to the largest finite float, with subnormals and both
# zeros; each column draws its values from one of these
LARGEST = float(np.finfo(np.float64).max)
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, LARGEST, -LARGEST])
COLUMN_VALUES = [st.floats(-LARGEST, LARGEST), st.floats(-1e3, 1e3),
                 st.one_of(st.floats(-LARGEST, LARGEST), st.floats(-1, 1), EXTREMES)]


@st.composite
def frame_text(draw, n_rows, n_cols):
    """CSV text of n_rows by n_cols values, sometimes with a blank or ragged line.

    A column is free, constant, or constant but for one value, which is one
    ulp away or any other value.
    """
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["free", "free", "constant", "nearly"]))
        values = draw(st.sampled_from(COLUMN_VALUES))
        if kind == "free":
            columns.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
            continue
        column = [draw(values)] * n_rows
        if kind == "nearly":
            other = draw(st.one_of(st.sampled_from([np.inf, -np.inf]), values))
            if np.isinf(other):
                # one ulp away; from the largest floats only inward
                away = other if abs(column[0]) < LARGEST else -column[0]
                other = float(np.nextafter(column[0], away))
            column[draw(st.integers(0, n_rows - 1))] = other
        columns.append(column)
    cell = draw(st.sampled_from([repr, "{:.10g}".format]))
    lines = [",".join(f"a{i}" for i in range(n_cols))]
    lines += [",".join(cell(v) for v in row) for row in zip(*columns)]
    damage = draw(st.sampled_from(["none"] * 8 + ["blank", "short", "long"]))
    if damage != "none":
        line = {"blank": "", "short": ",".join(["1"] * (n_cols - 1)),
                "long": ",".join(["1"] * (n_cols + 1))}[damage]
        lines.insert(draw(st.integers(1, len(lines))), line)
    return "\n".join(lines) + "\n"


def count(draw, limit):
    """A count in [1, limit], or now and then 0 or limit + 1."""
    if draw(st.integers(0, 7)):
        return draw(st.integers(1, limit))
    return draw(st.sampled_from([0, limit + 1]))


@st.composite
def cli_runs(draw):
    """(argv without --input and --out-dir, input CSV text, aggregated CSV text or None).

    The input holds periods of up to 6 steps, sometimes with a remainder.
    """
    steps, n_periods = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    remainder = 0 if draw(st.integers(0, 3)) else draw(st.integers(0, steps - 1))
    n_rows = n_periods * steps + remainder
    n_cols = draw(st.integers(1, 3))
    command = draw(st.sampled_from(["aggregate", "pathway", "metrics"]))
    argv = [command, "--normalization", draw(st.sampled_from(NORMALIZATION_METHODS))]
    if command == "metrics":
        return argv, draw(frame_text(n_rows, n_cols)), draw(frame_text(n_rows, n_cols))
    length = steps if draw(st.integers(0, 3)) else draw(st.integers(0, n_rows + 1))
    argv += ["--period-length", str(length),
             "--representation", draw(st.sampled_from(REPRESENTATION_METHODS))]
    if draw(st.booleans()):
        argv.append("--drop-trailing")
    if command == "aggregate":
        argv += ["--typical-periods", str(count(draw, n_periods))]
        if draw(st.booleans()):
            argv += ["--segments", str(count(draw, steps))]
    elif draw(st.booleans()):
        argv += ["--budget", str(count(draw, n_periods * steps))]
    return argv, draw(frame_text(n_rows, n_cols)), None


def artifact_numbers(name, data):
    """Every number in an artifact, as floats."""
    if name.endswith(".json"):
        def reject(token):
            raise AssertionError(f"{name}: {token}")

        def walk(obj):
            if isinstance(obj, dict):
                return [x for v in obj.values() for x in walk(v)]
            return [float(obj)] if isinstance(obj, (int, float)) else []

        return walk(json.loads(data, parse_constant=reject))
    rows = list(csv.reader(data.decode().splitlines()))[1:]
    return [float(c) for row in rows for c in row
            if c not in ("", "more_periods", "more_segments")]


def run_main(argv, out):
    """main's exit code and, on exit 0, its artifacts in ``out`` by name."""
    code = quiet_main(argv + ["--out-dir", str(out)])
    return code, ({f.name: f.read_bytes() for f in out.iterdir()} if code == 0 else None)


class TestMainOnGeneratedInput:
    @settings(max_examples=300, deadline=None)
    @given(cli_runs())
    # a finite aggregated frame whose squared difference overflows
    @example((["metrics", "--normalization", "minmax"], "x\n0\n1\n", "x\n0\n1e300\n"))
    # the overflowing normalizations of the hostile-input tests
    @example((["pathway", "--normalization", "znorm", "--period-length", "1",
               "--representation", "distribution"], "x\n1e200\n-1e200\n5\n1\n3\n", None))
    @example((["metrics", "--normalization", "znorm"], "x\n1e200\n-1e200\n5\n1\n3\n",
              "x\n0\n0\n0\n0\n0\n"))
    @example((["metrics", "--normalization", "minmax"], "x\n-1e308\n1e308\n0\n1\n",
              "x\n-1e308\n1e308\n0\n1\n"))
    # the top value rounds up past the largest float when denormalized
    @example((["aggregate", "--normalization", "minmax", "--period-length", "1",
               "--representation", "distribution", "--typical-periods", "2"], TOP_OF_RANGE, None))
    @example((["pathway", "--normalization", "minmax", "--period-length", "1",
               "--representation", "distribution"], TOP_OF_RANGE, None))
    def test_exits_cleanly_with_sound_artifacts(self, tmp_path_factory, run):
        argv, text, aggregated = run
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            work = Path(tmp)
            (work / "input.csv").write_text(text)
            argv = argv + ["--input", str(work / "input.csv")]
            if aggregated is not None:
                (work / "aggregated.csv").write_text(aggregated)
                argv += ["--aggregated", str(work / "aggregated.csv")]
            code, artifacts = run_main(argv, work / "out")
            assert code in (0, 2, 3)
            if code != 0:
                return
            for name, data in artifacts.items():
                assert np.isfinite(artifact_numbers(name, data)).all(), name
            assert run_main(argv, work / "rerun") == (0, artifacts)
        if argv[0] == "metrics":
            return
        steps = int(argv[argv.index("--period-length") + 1])
        n_periods = (text.count("\n") - 1) // steps  # no blank or ragged line on exit 0
        reps = list(csv.DictReader(artifacts["representatives.csv"].decode().splitlines()))
        weights, lengths = {}, {}
        for row in reps:
            weights[row["cluster_id"]] = int(row["weight"])
            lengths.setdefault(row["cluster_id"], []).append(int(row["duration_steps"]))
        assert sum(weights.values()) == n_periods
        assert all(sum(ls) == steps and min(ls) >= 1 for ls in lengths.values())


class TestErrorBranches:
    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("timestamp\n2021-01-01T00:00\n", "header declares no attribute columns"),
    ], ids=["empty", "timestamp-only"])
    def test_read_csv_without_attributes(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_csv(path)
        assert main(["aggregate", "--input", str(path), "--out-dir", str(tmp_path / "out"),
                     "--period-length", "1", "--typical-periods", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("length", [0, 49])
    def test_period_length_out_of_range(self, tmp_path, capsys, length):
        path = tmp_path / "in.csv"
        write_csv(path, np.arange(48.0), ["load"])
        message = f"steps_per_period={length} out of range for 48 steps"
        with pytest.raises(ConfigError, match=message):
            build_frame(np.arange(48.0), ["load"], length)
        assert main(["aggregate", "--input", str(path), "--out-dir", str(tmp_path / "out"),
                     "--period-length", str(length), "--typical-periods", "1"]) == 3
        assert message in capsys.readouterr().err


class TestPathwayCommand:
    def test_budget_respected(self, year_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["pathway", "--input", str(year_csv), "--out-dir", str(out),
                     "--period-length", "24", "--budget", "64"])
        assert code == 0
        selected = json.loads((out / "selected.json").read_text())
        assert selected["typical_periods"] * selected["segments"] <= 64
        rows = read_rows(out / "pathway.csv")
        assert rows[0]["p"] == "1" and rows[0]["s"] == "1"
        assert rows[0]["direction"] == ""
        assert all(r["direction"] in ("more_periods", "more_segments")
                   for r in rows[1:])
        # aggregate artifacts for the selected configuration are written too
        reps = read_rows(out / "representatives.csv")
        assert len(reps) == selected["typical_periods"] * selected["segments"]

    def test_unbounded_reaches_full_resolution(self, tmp_path):
        path = tmp_path / "small.csv"
        rng = np.random.default_rng(2)
        write_csv(path, rng.standard_normal((96, 1)), ["x"])
        out = tmp_path / "out"
        code = main(["pathway", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "12"])
        assert code == 0
        selected = json.loads((out / "selected.json").read_text())
        assert selected["typical_periods"] == 8
        assert selected["segments"] == 12
        assert selected["rmse_tot"] == 0.0


class TestMetricsCommand:
    def test_identical_files_score_zero(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, np.arange(24.0), ["load"])
        out = tmp_path / "out"
        code = main(["metrics", "--input", str(path), "--aggregated", str(path),
                     "--out-dir", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["rmse_tot"] == 0.0
        assert metrics["total_steps"] is None

    def test_permuted_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(40)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, values, ["load"])
        write_csv(b, values[rng.permutation(40)], ["load"])
        out = tmp_path / "out"
        main(["metrics", "--input", str(a), "--aggregated", str(b),
              "--out-dir", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["duration_curve_rmse"]["load"] == 0.0
        assert metrics["chronological_rmse"]["load"] > 0.0

    def test_constant_offset_in_normalized_units(self, tmp_path):
        values = np.linspace(0.0, 10.0, 50)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, values, ["load"])
        write_csv(b, values + 2.5, ["load"])
        out = tmp_path / "out"
        main(["metrics", "--input", str(a), "--aggregated", str(b),
              "--out-dir", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        # minmax scale of the original is 10, so the offset is 0.25 normalized
        assert abs(metrics["rmse_tot"] - 0.25) < 1e-9

    def test_columns_aligned_by_name(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((30, 2))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, values, ["load", "pv"])
        write_csv(b, values[:, ::-1], ["pv", "load"])
        out = tmp_path / "out"
        code = main(["metrics", "--input", str(a), "--aggregated", str(b),
                     "--out-dir", str(out)])
        assert code == 0
        assert json.loads((out / "metrics.json").read_text())["rmse_tot"] == 0.0

    def test_different_column_names_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, np.zeros((10, 2)), ["load", "pv"])
        write_csv(b, np.zeros((10, 2)), ["load", "wind"])
        code = main(["metrics", "--input", str(a), "--aggregated", str(b),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_shape_mismatch(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, np.arange(10.0), ["load"])
        write_csv(b, np.arange(12.0), ["load"])
        code = main(["metrics", "--input", str(a), "--aggregated", str(b),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2


# cells float() and loadtxt may read differently, or that one of them rejects
TOKENS = [" 1.5", "1_0", "\u0661", "inf", "nan", "1e400", "-0", "", '"1.5"', "#1", "0x10"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
CELLS = st.one_of(FINITE.map(repr), FINITE.map(lambda v: "%.10g" % v),
                  st.sampled_from(TOKENS))


@st.composite
def csv_files(draw):
    """CSV bytes of 1-3 attributes, with or without a timestamp column.

    Rows are mostly well formed; some are blank, whitespace only, or one
    field short or long. Line endings are LF or CRLF, with or without a
    byte-order mark.
    """
    header = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        header.insert(0, "timestamp")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank", "space", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n_fields = len(header) + {"row": 0, "short": -1, "long": 1}[kind]
            lines.append(",".join(draw(CELLS) for _ in range(n_fields)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text.encode("utf-8-sig" if draw(st.booleans()) else "utf-8")


def parse_outcome(read, path):
    """Names and value bytes, or the DataError text."""
    try:
        values, names = read(path)
    except DataError as exc:
        return str(exc)
    return names, values.dtype, values.shape, values.tobytes()


class TestReadCsv:
    @settings(max_examples=400, deadline=None)
    @given(csv_files())
    # each input the fast path leaves to the cell-by-cell parser
    @example(b"a\n")  # no data line
    @example(b'a,b\n1,"1.5"\n')  # quoted cell
    @example(b'timestamp,a\n"t,1\n2",5\n')  # quoted field over two lines: one row
    @example(b'a\n"1\n2"\n3\n')  # quoted value cell over two lines: one bad cell
    @example(b"a,b\n1\n")  # one field short
    @example(b"a,b\n1,2,3\n")  # one field long
    @example(b"a,b\n1,2,3\n4\n")  # one long and one short: the comma total fits
    @example(b"timestamp,a\nt,1,2\nt\n")  # the same with a timestamp
    @example(b"a\n1\n\n2\n")  # blank line in a one-column file
    @example(b"a\n1\n \t\n2\n")  # whitespace-only line in a one-column file
    @example(b"timestamp,a\nt0,1_0\n")  # loadtxt rejects underscores
    @example("a\n\u0661\n".encode())  # loadtxt rejects non-ASCII digits
    @example(b"a,b\n1,#1\n")  # float() error text
    @example(b"a,b\n1,\n")  # empty cell
    def test_matches_cell_by_cell_parser(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "read_csv.csv"
        path.write_bytes(content)
        assert parse_outcome(read_csv, path) == parse_outcome(reference.read_csv, path)

    @pytest.mark.parametrize("cell, message", [
        ("inf", "non-finite value in column 'a'"),
        ("abc", "could not convert string to float: 'abc'"),
    ])
    def test_line_after_a_record_over_two_lines(self, tmp_path, cell, message):
        # the first data record spans lines 2 and 3, so the bad cell is on line 4
        path = tmp_path / "quoted.csv"
        path.write_text(f'timestamp,a\n"t,1\n2",5\nx,{cell}\n', encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: line 4: {message}"

    def test_value_cell_over_two_lines_keeps_its_line_break(self, tmp_path):
        # the cell is "1\n2", not 12
        path = tmp_path / "quoted.csv"
        path.write_text('a\n"1\n2"\n3\n', encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: could not convert string to float: '1\\n2'")

    def test_benchmark_style_file_takes_fast_path(self, tmp_path, monkeypatch):
        # timestamps and 10 significant digits, as the benchmark writes them
        values = np.column_stack([solar_profile(30, 1), wind_profile(30, 2),
                                  load_profile(30, 3)])
        stamps = np.datetime64("2021-01-01T00", "h") + np.arange(values.shape[0])
        lines = ["timestamp,solar,wind,load"] + [
            f"{t}," + ",".join(f"{v:.10g}" for v in row)
            for t, row in zip(stamps.astype(str), values)]
        path = tmp_path / "input.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = parse_outcome(reference.read_csv, path)

        def no_fallback(*args):
            raise AssertionError("the cell-by-cell parser ran")

        monkeypatch.setattr("tsagg.cli._parse_rows", no_fallback)
        assert parse_outcome(read_csv, path) == expected


def test_cli_import_loads_no_scipy():
    code = ("import sys, tsagg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # the child imports the same tsagg as this process
    src = str(Path(tsagg.__file__).parents[1])
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_cli_calls_load_no_numpy_ma(tmp_path):
    # numpy.ma costs about 17 ms of import time; np.unique(x) loads it
    path = tmp_path / "in.csv"
    write_csv(path, load_profile(30, seed=0), ["load"])
    calls = [["aggregate", "--typical-periods", "4", "--segments", "6",
              "--representation", "medoid"], ["pathway", "--budget", "96"]]
    code = ("import sys; from tsagg.cli import main\n"
            f"for argv in {calls!r}:\n"
            f"    assert main(argv + ['--input', {str(path)!r}, '--period-length', '24',"
            f" '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    src = str(Path(tsagg.__file__).parents[1])
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
