"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

The verdict lines are echoed in an "acceptance criteria" section at the
end of the pytest run (see conftest.py), so a plain `pytest` shows them.
"""

import csv
import json
import time

import numpy as np
import pytest

import conftest

from tsagg.cli import main
from tsagg.hierarchy import ward_linkage
from tsagg.metrics import duration_curve_rmse, rmse_tot
from tsagg.pathway import (
    MORE_PERIODS,
    MORE_SEGMENTS,
    ConfigEvaluator,
    pathway_search,
    select_config,
)
from tsagg.synthetic import load_profile, solar_profile, wind_profile

from helpers import chain_partition, periods_of
from reference import chain_matrix, naive_cut, naive_ward


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    conftest.acceptance_lines.append(line)
    assert ok, line


def aggregate_once(periods, p, s, method):
    assignment, _, _, rec = ConfigEvaluator(periods).reconstruction(p, s, method)
    return assignment, rec


@pytest.fixture(scope="module")
def solar_run():
    periods = periods_of(solar_profile(365, seed=0), 24)
    evaluator = ConfigEvaluator(periods)
    start = time.monotonic()
    trace = pathway_search(evaluator, "distribution")
    elapsed = time.monotonic() - start
    return periods, evaluator, trace, elapsed


def test_identity_configuration_zero_error():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    periods = periods_of(rng.standard_normal((30 * 24, 3)), 24)
    zero = []
    for method in ("centroid", "medoid", "distribution"):
        _, rec = aggregate_once(periods, 30, 24, method)
        zero.append(rmse_tot(periods.reshape(-1, 3), rec) == 0.0)
    elapsed = time.monotonic() - start
    report("identity-configuration-zero-error",
           all(zero) and elapsed < 5.0,
           f"exact zeros={zero}, {elapsed:.2f}s < 5s")


def test_duration_curve_reproduction():
    start = time.monotonic()
    # exact replication of the grouped duration curve, per attribute
    two_attr = np.column_stack([load_profile(365, seed=0),
                                load_profile(365, seed=1)])
    periods = periods_of(two_attr, 24)
    assignment, rec = aggregate_once(periods, 8, 24, "distribution")
    exact = True
    for a in range(2):
        parts = []
        for c in range(8):
            members = np.flatnonzero(assignment == c)
            pooled = periods[members][:, :, a].reshape(-1)
            pooled_desc = np.sort(pooled)[::-1]
            m = members.size
            means = np.array([np.mean(pooled_desc[i * m:(i + 1) * m])
                              for i in range(24)])
            parts.append(np.repeat(means, m))
        expected = np.sort(np.concatenate(parts))[::-1]
        got = np.sort(rec[:, a])[::-1]
        exact = exact and np.array_equal(expected, got)

    # the synthesized profiles track the duration curve far closer than means
    periods1 = periods_of(load_profile(365, seed=0), 24)
    scores = {}
    for method in ("centroid", "distribution"):
        _, rec1 = aggregate_once(periods1, 8, 24, method)
        scores[method] = duration_curve_rmse(periods1.reshape(-1, 1), rec1)[0]
    factor_ok = scores["distribution"] <= 0.25 * scores["centroid"]
    elapsed = time.monotonic() - start
    report("duration-curve-reproduction",
           exact and factor_ok and elapsed < 30.0,
           f"exact={exact}, ratio={scores['distribution'] / scores['centroid']:.3f}"
           f" <= 0.25, {elapsed:.2f}s < 30s")


def test_mean_conservation():
    rng = np.random.default_rng(0)
    periods = periods_of(rng.standard_normal((30 * 24, 3)), 24)

    def mean_error(method, ps):
        _, rec = aggregate_once(ps, 6, 24, method)
        return np.abs(rec.mean(axis=0) - ps.reshape(-1, 3).mean(axis=0)).max()

    centroid_ok = mean_error("centroid", periods) < 1e-10
    distribution_ok = mean_error("distribution", periods) < 1e-10
    medoid_breaks = False
    for seed in range(10):
        ps = periods_of(np.random.default_rng(seed).standard_normal((30 * 24, 3)), 24)
        if mean_error("medoid", ps) > 1e-6:
            medoid_breaks = True
            break
    report("mean-conservation",
           centroid_ok and distribution_ok and medoid_breaks,
           f"centroid<1e-10={centroid_ok}, distribution<1e-10={distribution_ok}, "
           f"medoid>1e-6 on some seed={medoid_breaks}")


def test_ward_oracle_equivalence():
    rng = np.random.default_rng(1234)
    matches = 0
    contiguous = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        samples = rng.standard_normal((n, int(rng.integers(1, 4))))
        free = ward_linkage(samples)
        free_ref = naive_ward(samples)
        chain_ref = naive_ward(samples, chain_matrix(n))
        ok = free.ids.tolist() == [[a, b] for a, b, _, _ in free_ref]
        # a chain's partitions at every k fix its merge sequence
        for k in range(1, n + 1):
            ok = ok and np.array_equal(free.cut(k)[0], naive_cut(n, free_ref, k))
            chain_cut = chain_partition(samples, k)
            ok = ok and np.array_equal(chain_cut, naive_cut(n, chain_ref, k))
            contiguous = contiguous and \
                int((np.diff(chain_cut) != 0).sum()) == k - 1
        matches += ok
    report("ward-oracle-equivalence", matches == 100 and contiguous,
           f"{matches}/100 instances match, chain cuts contiguous={contiguous}")


def test_time_step_bookkeeping(tmp_path):
    path = tmp_path / "load.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["load"])
        for v in load_profile(365, seed=0):
            writer.writerow([repr(float(v))])
    out = tmp_path / "out"
    code = main(["aggregate", "--input", str(path), "--out-dir", str(out),
                 "--period-length", "24", "--typical-periods", "8",
                 "--segments", "8", "--representation", "distribution"])
    with (out / "representatives.csv").open() as fh:
        n_rows = len(list(csv.DictReader(fh)))
    metrics = json.loads((out / "metrics.json").read_text())
    report("time-step-bookkeeping",
           code == 0 and n_rows == 64 and metrics["reduction_ratio"] > 0.99,
           f"rows={n_rows} (want 64), reduction={metrics['reduction_ratio']:.4f} > 0.99")


def test_pathway_direction_reproduction(solar_run):
    _, _, solar_trace, solar_elapsed = solar_run
    solar_dirs = [state.direction for state in solar_trace[1:]]
    solar_first3 = all(d == MORE_SEGMENTS for d in solar_dirs[:3])
    segments_bounded = all(state.s <= 12
                           for state in solar_trace if state.p < 8)

    start = time.monotonic()
    wind_periods = periods_of(wind_profile(365, seed=0), 24)
    wind_trace = pathway_search(ConfigEvaluator(wind_periods), "distribution")
    wind_elapsed = time.monotonic() - start
    wind_dirs = [state.direction for state in wind_trace[1:]]
    wind_first3 = all(d == MORE_PERIODS for d in wind_dirs[:3])

    time_ok = solar_elapsed < 60.0 and wind_elapsed < 60.0
    report("pathway-direction-reproduction",
           solar_first3 and segments_bounded and wind_first3 and time_ok,
           f"solar first3={solar_dirs[:3]}, s<=12 before p>=8={segments_bounded}, "
           f"wind first3={wind_dirs[:3]}, "
           f"times solar {solar_elapsed:.1f}s / wind {wind_elapsed:.1f}s < 60s")


def test_pathway_dominance(solar_run):
    _, evaluator, trace, _ = solar_run
    dominated = {}
    for budget in (48, 96, 192):
        selected = select_config(trace, budget)
        hourly = evaluator.evaluate(budget // 24, 24, "distribution")
        dominated[budget] = selected.rmse <= hourly
    report("pathway-dominance", all(dominated.values()),
           ", ".join(f"budget {b}: {'<=' if ok else '>'} hourly"
                     for b, ok in dominated.items()))


def test_determinism(tmp_path):
    path = tmp_path / "load.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["load"])
        for v in load_profile(365, seed=3):
            writer.writerow([repr(float(v))])
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["aggregate", "--input", str(path), "--out-dir", str(out),
                     "--period-length", "24", "--typical-periods", "8",
                     "--segments", "8", "--representation", "distribution"])
        assert code == 0
        digests.append(tuple(
            (out / f).read_bytes()
            for f in ("representatives.csv", "mapping.csv", "metrics.json")))
    report("determinism", digests[0] == digests[1],
           "byte-identical representatives.csv, mapping.csv, metrics.json")
