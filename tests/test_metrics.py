import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsagg.errors import DataError
from tsagg.hierarchy import cut, ward_linkage
from tsagg.metrics import (
    attribute_rmse,
    build_report,
    duration_curve_rmse,
    reconstruct,
    rmse_tot,
)
from tsagg.pathway import ConfigEvaluator
from tsagg.representation import represent
from tsagg.segmentation import cut_layout, segment_linkage

from helpers import periods_of

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def single_cell(i, j, value):
    """A 12 x 2 array of zeros but for one cell."""
    x = np.zeros((12, 2))
    x[i, j] = value
    return x


def aggregate(periods, p, s, method):
    return ConfigEvaluator(periods).reconstruction(p, s, method)[3]


class TestReconstruct:
    def test_identity_configuration_is_exact(self):
        rng = np.random.default_rng(0)
        periods = periods_of(rng.standard_normal((72, 2)), 24)
        for method in ("centroid", "medoid", "distribution"):
            rec = aggregate(periods, 3, 24, method)
            np.testing.assert_array_equal(rec, periods.reshape(72, 2))

    def test_single_cluster_single_segment_is_global_mean(self):
        rng = np.random.default_rng(1)
        periods = periods_of(rng.standard_normal((48, 2)), 12)
        rec = aggregate(periods, 1, 1, "centroid")
        for a in range(2):
            np.testing.assert_allclose(
                rec[:, a], periods[:, :, a].mean(), rtol=0, atol=1e-12)

    def test_piecewise_constant_within_segments(self):
        rng = np.random.default_rng(2)
        periods = periods_of(rng.standard_normal((96, 1)), 24)
        assignment, _ = cut(ward_linkage(periods.reshape(4, -1))[0], 2)
        profiles = represent(periods, assignment, "centroid")
        lengths, values = cut_layout(profiles, segment_linkage(profiles), 5)
        rec = reconstruct(lengths, values, assignment).reshape(4, 24)
        for p in range(4):
            row = lengths[assignment[p]]
            for start, length in zip(np.cumsum(row) - row, row):
                run = rec[p, start:start + length]
                assert np.all(run == run[0])

    def test_shape_mismatch_rejected(self):
        # an assignment to two clusters, but segments of only one representative
        assignment, _ = cut(ward_linkage(np.arange(4.0))[0], 2)
        profiles = represent(periods_of(np.arange(6.0), 3), np.zeros(2, dtype=np.int64),
                             "centroid")
        lengths, values = cut_layout(profiles, segment_linkage(profiles), 3)
        with pytest.raises(DataError):
            reconstruct(lengths, values, assignment)


    @pytest.mark.parametrize("call, message", [
        (lambda: reconstruct(np.array([[2.0, 2.0]]), np.zeros((1, 2, 1)),
                             np.zeros(1, dtype=np.int64)), "lengths of dtype float64"),
        (lambda: reconstruct(np.array([[2, 2]]), np.zeros((1, 2, 1)), np.zeros(1)),
         "assignment of dtype float64"),
        # numpy would read the bools as a mask and return an empty frame
        (lambda: reconstruct(np.array([[2, 2]]), np.zeros((1, 2, 1)), np.zeros(1, dtype=bool)),
         "assignment of dtype bool"),
        (lambda: represent(np.zeros((3, 2, 1)), np.array([0., 1., 1.]), "centroid"),
         "assignment of dtype float64"),
    ], ids=["float-lengths", "float-assignment", "bool-assignment", "float-represent"])
    def test_index_arrays_must_be_integers(self, call, message):
        with pytest.raises(DataError, match=message):
            call()

    @pytest.mark.parametrize("lengths, values, assignment, message", [
        (np.array([[2, 2]]), np.zeros((1, 2, 1)), np.zeros((2, 3), dtype=np.int64),
         r"assignment of shape \(2, 3\)"),
        (np.array([[2, 2]]), np.zeros((1, 2, 1)), np.int64(0), r"assignment of shape \(\)"),
        ([[2, 2]], np.zeros((1, 2, 1)), [[0]], r"assignment of shape \(1, 1\)"),
        ([[2, 1]], [[[1.0], [2.0]]], [0, 0], None),
    ], ids=["table-assignment", "scalar-assignment", "nested-list", "lists"])
    def test_lists_work_and_dimensions_are_checked(self, lengths, values, assignment, message):
        # lists are taken as the arrays they spell
        if message is None:
            rec = reconstruct(lengths, values, assignment)
            assert rec.ravel().tolist() == [1.0, 1.0, 2.0] * 2
        else:
            with pytest.raises(DataError, match=message):
                reconstruct(lengths, values, assignment)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_unsigned_and_signed_indices_work(self, dtype):
        rec = reconstruct(np.array([[2, 1]], dtype=dtype), np.arange(2.0).reshape(1, 2, 1),
                          np.zeros(2, dtype=dtype))
        assert rec.ravel().tolist() == [0.0, 0.0, 1.0] * 2
        profiles = represent(np.arange(6.0).reshape(3, 2, 1), np.array([0, 1, 1], dtype=dtype),
                             "centroid")
        assert profiles.ravel().tolist() == [0.0, 1.0, 3.0, 4.0]


@pytest.mark.parametrize("shape", [(0, 1), (0, 2), (3, 0)])
@pytest.mark.parametrize("metric", [
    rmse_tot, attribute_rmse, duration_curve_rmse,
    lambda original, aggregated: build_report(original, aggregated,
                                              [f"a{i}" for i in range(original.shape[1])]),
], ids=["rmse_tot", "attribute_rmse", "duration_curve_rmse", "build_report"])
def test_empty_data_rejected(metric, shape):
    with pytest.raises(DataError, match=rf"empty data: shape \({shape[0]}, {shape[1]}\)"):
        metric(np.zeros(shape), np.zeros(shape))


class TestRmseTot:
    def test_identical_inputs(self):
        x = np.random.default_rng(3).standard_normal((10, 2))
        assert rmse_tot(x, x) == 0.0

    def test_constant_offset(self):
        x = np.random.default_rng(4).standard_normal((10, 3))
        assert abs(rmse_tot(x, x + 0.25) - 0.25) < 1e-12

    def test_half_step_example(self):
        assert abs(rmse_tot(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
                   - np.sqrt(0.5)) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            rmse_tot(np.zeros((3, 1)), np.zeros((4, 1)))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (12, 2), elements=finite),
           arrays(np.float64, (12, 2), elements=finite))
    @example(single_cell(0, 0, 8.76e-159), single_cell(3, 1, 3.2412e-159))
    def test_symmetry_and_scaling(self, x, y):
        assert rmse_tot(x, y) == rmse_tot(y, x)
        # squares below 2.2e-308 are subnormal: each keeps an absolute error
        # of up to 2.5e-324 rather than a relative one, which the mean and
        # the square root turn into at most about 1e-161 of RMSE. The draw
        # above has differences near 1e-158 and a relative error of 1.7e-7
        np.testing.assert_allclose(rmse_tot(x, x + 2 * (y - x)),
                                   2 * rmse_tot(x, y), rtol=1e-9, atol=1e-160)


class TestDurationCurveRmse:
    def test_permutation_scores_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 2))
        shuffled = x[rng.permutation(50)]
        np.testing.assert_array_equal(duration_curve_rmse(x, shuffled), [0.0, 0.0])

    def test_identical_inputs(self):
        x = np.random.default_rng(6).standard_normal((20, 1))
        assert duration_curve_rmse(x, x)[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (24, 2), elements=finite),
           arrays(np.float64, (24, 2), elements=finite))
    def test_never_exceeds_chronological(self, x, y):
        duration = duration_curve_rmse(x, y)
        chrono = attribute_rmse(x, y)
        assert np.all(duration <= chrono + 1e-12)

    def test_distribution_beats_centroid_on_daily_pattern(self):
        rng = np.random.default_rng(7)
        base = np.sin(np.linspace(0, 2 * np.pi, 24))
        days = base[None, :] * (1 + 0.3 * rng.standard_normal((60, 1))) \
            + 0.2 * rng.uniform(-1, 1, size=(60, 24))
        periods = periods_of(days.reshape(-1), 24)
        original = periods.reshape(-1, 1)
        scores = {}
        for method in ("centroid", "distribution"):
            rec = aggregate(periods, 6, 24, method)
            scores[method] = duration_curve_rmse(original, rec)[0]
        assert scores["distribution"] <= scores["centroid"]


class TestReport:
    def test_fields_and_ratio(self):
        rng = np.random.default_rng(8)
        periods = periods_of(rng.standard_normal((96, 2)), 24)
        original = periods.reshape(96, 2)
        rec = aggregate(periods, 2, 6, "centroid")
        report = build_report(original, rec, ["a", "b"], total_steps=12)
        assert set(report) == {"rmse_tot", "chronological_rmse",
                               "duration_curve_rmse", "total_steps", "reduction_ratio"}
        assert report["total_steps"] == 12
        assert report["reduction_ratio"] == 1 - 12 / 96
        assert set(report["chronological_rmse"]) == {"a", "b"}
        assert all(v >= 0 for v in report["duration_curve_rmse"].values())
        assert report["rmse_tot"] == rmse_tot(original, rec)

    def test_name_count_mismatch(self):
        with pytest.raises(DataError, match="1 names for 2 attributes"):
            build_report(np.zeros((4, 2)), np.zeros((4, 2)), ["a"])

    @pytest.mark.parametrize("aggregated, name", [
        ([[1.0, 1e200], [0.0, 3.0]], "b"),  # b's squares overflow
        ([[1e200, 1e200], [0.0, 0.0]], "a"),  # both do: the first
        # each attribute's mean square fits, the pooled sum does not
        ([[1.1e154, 1.2e154], [0.0, 0.0]], "b"),
    ], ids=["one", "both", "pooled"])
    def test_overflow_names_the_attribute(self, aggregated, name):
        with pytest.raises(DataError, match=f"attribute '{name}' overflow"):
            build_report(np.zeros((2, 2)), aggregated, ["a", "b"])

    def test_unknown_configuration_leaves_ratio_unset(self):
        x = np.zeros((10, 1))
        report = build_report(x, x, ["a"])
        assert report["total_steps"] is None
        assert report["reduction_ratio"] is None
