import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsagg.core import build_frame, denormalize, normalize, to_periods, validate_and_build
from tsagg.errors import ConfigError, DataError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def matrices(min_rows=2, max_rows=30, max_cols=4):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: arrays(np.float64, (r, c), elements=finite)))


def validated(values):
    values = np.asarray(values, dtype=np.float64)
    names = [f"a{i}" for i in range(values.shape[1])]
    return validate_and_build(values, names)[0]


class TestValidateAndBuild:
    def test_year_of_hourly_load(self):
        values, names = validate_and_build(np.ones((8760, 1)), ["load"])
        assert values.shape == (8760, 1)
        assert names == ("load",)
        assert not values.flags.writeable

    def test_nan_rejected_with_position(self):
        values = np.zeros((4, 2))
        values[2, 1] = np.nan
        with pytest.raises(DataError, match=r"row 2, column 1"):
            validate_and_build(values, ["a", "b"])

    def test_inf_rejected(self):
        with pytest.raises(DataError):
            validate_and_build([[1.0], [np.inf]], ["a"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            validate_and_build(np.zeros((3, 2)), ["a", "a"])

    def test_name_count_mismatch(self):
        with pytest.raises(DataError):
            validate_and_build(np.zeros((3, 2)), ["a"])

    def test_three_dimensional_values_rejected(self):
        with pytest.raises(DataError, match="values must be 2-dimensional, got ndim=3"):
            validate_and_build(np.zeros((2, 3, 1)), ["a"])

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match=r"empty data: shape \(0, 1\)"):
            validate_and_build(np.zeros((0, 1)), ["a"])


class TestNormalize:
    def test_minmax_simple(self):
        normalized, offset, scale = normalize(validated([[2.0], [4.0], [6.0]]), "minmax")
        assert normalized.ravel().tolist() == [0.0, 0.5, 1.0]
        assert offset[0] == 2.0 and scale[0] == 4.0

    def test_minmax_constant_attribute(self):
        normalized, offset, scale = normalize(validated([[5.0], [5.0], [5.0]]), "minmax")
        assert normalized.ravel().tolist() == [0.0, 0.0, 0.0]
        assert offset[0] == 5.0 and scale[0] == 1.0

    def test_znorm_two_points(self):
        # sample std (ddof=1) of [0, 2] is sqrt(2), so values map to -+1/sqrt(2)
        normalized, _, _ = normalize(validated([[0.0], [2.0]]), "znorm")
        np.testing.assert_allclose(
            normalized.ravel(), [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)

    @pytest.mark.parametrize("column, method", [
        ([-1e308, 1e308, 0.0, 1.0], "minmax"),
        ([1e200, -1e200, 5.0, 1.0, 3.0], "znorm"),
    ], ids=["minmax-range", "znorm-spread"])
    def test_overflow_names_the_attribute(self, column, method):
        x = validated(np.column_stack([np.zeros(len(column)), column]))
        with pytest.raises(DataError, match="attribute 'wide'"):
            normalize(x, method, ("flat", "wide"))
        with pytest.raises(DataError, match="attribute 1 "):
            normalize(x, method)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            normalize(validated([[1.0], [2.0]]), "scale")

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_minmax_range(self, values):
        normalized, _, _ = normalize(validated(values), "minmax")
        assert normalized.min() >= 0.0
        assert normalized.max() <= 1.0
        for a in range(values.shape[1]):
            col = values[:, a]
            if col.max() > col.min():
                assert normalized[:, a].min() == 0.0
                assert normalized[:, a].max() == 1.0

    @settings(max_examples=60, deadline=None)
    @given(matrices(min_rows=3))
    def test_znorm_moments(self, values):
        normalized, _, _ = normalize(validated(values), "znorm")
        assert np.all(np.isfinite(normalized))
        for a in range(values.shape[1]):
            col = values[:, a]
            if col.max() == col.min():
                assert np.all(normalized[:, a] == 0.0)
            elif col.std(ddof=1) > 1e-100:  # away from variance underflow
                assert abs(normalized[:, a].mean()) < 1e-10
                assert abs(normalized[:, a].std(ddof=1) - 1.0) < 1e-10


class TestDenormalize:
    def test_inverts_minmax(self):
        _, offset, scale = normalize(validated([[2.0], [4.0], [6.0]]), "minmax")
        restored = denormalize(np.array([[0.0], [0.5], [1.0]]), offset, scale)
        assert restored.ravel().tolist() == [2.0, 4.0, 6.0]

    def test_constant_attribute_restored(self):
        _, offset, scale = normalize(validated([[5.0], [5.0], [5.0]]), "minmax")
        restored = denormalize(np.zeros((3, 1)), offset, scale)
        assert restored.ravel().tolist() == [5.0, 5.0, 5.0]

    def test_dimension_mismatch(self):
        _, offset, scale = normalize(validated([[1.0, 2.0], [3.0, 4.0]]), "minmax")
        with pytest.raises(DataError):
            denormalize(np.zeros((2, 3)), offset, scale)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["top", "bottom"])
    def test_overflow_takes_the_largest_float_of_its_sign(self, sign):
        # minmax rounds this column's scale up to the largest float, so its
        # top value, 1, overflows on the way back; the mirrored column's frame
        # has the offset -MAX, and -1 overflows it the other way
        column = sign * np.array([[2.9937604643020797e+292], [1.7976931348623157e+308]])
        _, offset, scale = normalize(validated(column), "minmax")
        restored = denormalize(np.array([[sign]]), offset, scale)
        assert restored.tolist() == [[sign * np.finfo(np.float64).max]]

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.sampled_from(["minmax", "znorm"]))
    def test_round_trip(self, values, method):
        x = validated(values)
        normalized, offset, scale = normalize(x, method)
        restored = denormalize(normalized, offset, scale)
        # tolerance is relative to each attribute's magnitude
        for a in range(values.shape[1]):
            tol = 1e-12 * max(1.0, np.abs(values[:, a]).max())
            assert np.abs(restored[:, a] - values[:, a]).max() <= tol


class TestToPeriods:
    def test_daily_periods_of_a_year(self):
        periods = to_periods(np.zeros((8760, 1)), 24)
        assert periods.shape == (365, 24, 1)
        assert not periods.flags.writeable

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError, match="remainder 1"):
            to_periods(np.zeros((10, 1)), 3)

    def test_drop_trailing(self):
        data = np.arange(10.0).reshape(10, 1)
        periods = to_periods(data, 3, drop_trailing=True)
        # three whole periods; the tenth step is the one dropped
        assert periods.shape == (3, 3, 1)
        assert periods.ravel().tolist() == data[:9].ravel().tolist()

    def test_column_layout(self):
        # step-major, attribute-minor: (t, a) -> column t * N_a + a of the row view
        data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        rows = to_periods(data, 2).reshape(2, -1)
        assert rows[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert rows[1].tolist() == [5.0, 6.0, 7.0, 8.0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3), st.data())
    def test_unroll_is_lossless(self, n_periods, steps, n_attrs, data):
        values = data.draw(arrays(np.float64, (n_periods * steps, n_attrs),
                                  elements=finite))
        x = validated(values)
        normalized, _, _ = normalize(x, "minmax")
        periods = to_periods(normalized, steps)
        assert np.array_equal(periods.reshape(-1, n_attrs), normalized)


class TestBuildFrame:
    def test_composes_the_three_stages(self):
        values = np.random.default_rng(0).standard_normal((50, 2))
        periods, offset, scale = build_frame(values, ["a", "b"], 24, "znorm",
                                             drop_trailing=True)
        normalized, expected_offset, expected_scale = normalize(validated(values), "znorm")
        expected = to_periods(normalized, 24, drop_trailing=True)
        assert periods.tobytes() == expected.tobytes()
        # 50 steps make two periods of 24; the last 2 steps are dropped
        assert periods.shape == (2, 24, 2)
        assert offset.tobytes() == expected_offset.tobytes()
        assert scale.tobytes() == expected_scale.tobytes()

    def test_validates_the_raw_matrix(self):
        with pytest.raises(DataError, match="duplicate"):
            build_frame(np.zeros((4, 2)), ["a", "a"], 2)
