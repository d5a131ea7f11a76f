import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsagg.errors import ConfigError, DataError
from tsagg.hierarchy import cut, ward_linkage
from tsagg.representation import represent
from tsagg.metrics import reconstruct
from tsagg.segmentation import cut_layout, segment_linkage

from helpers import chain_partition, periods_of, segment_one
from reference import best_partition, chain_matrix, naive_cut, naive_ward

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def layout_of(lengths, c=0):
    """(start_step, length_steps) of every segment of period c."""
    lengths = lengths[c].tolist()
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).tolist()
    return list(zip(starts, lengths))


@st.composite
def tie_heavy_profiles(draw):
    """Integer steps in 0..2 with repeated steps and constant attributes."""
    n = draw(st.integers(2, 8))
    n_attrs = draw(st.integers(1, 3))
    pool = draw(arrays(np.int64, (draw(st.integers(1, n)), n_attrs),
                       elements=st.integers(0, 2)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    profile = pool[picks].astype(np.float64)
    if draw(st.booleans()):
        profile[:, draw(st.integers(0, n_attrs - 1))] = draw(st.integers(0, 2))
    return profile


class TestSegmentPeriod:
    def test_identity_segmentation(self):
        profile = np.arange(8.0).reshape(4, 2)
        lengths, values = segment_one(profile, 4)
        assert layout_of(lengths) == [(0, 1), (1, 1), (2, 1), (3, 1)]
        np.testing.assert_array_equal(values[0], profile)

    def test_single_segment_is_mean(self):
        profile = np.array([[0.0, 2.0], [4.0, 6.0]])
        lengths, values = segment_one(profile, 1)
        assert layout_of(lengths) == [(0, 2)]
        np.testing.assert_array_equal(values[0, 0], [2.0, 4.0])

    def test_two_plateaus(self):
        lengths, values = segment_one(np.array([0.0, 0.0, 10.0, 10.0]), 2)
        assert layout_of(lengths) == [(0, 2), (2, 2)]
        assert values[0, 0, 0] == 0.0
        assert values[0, 1, 0] == 10.0
        expected, _ = best_partition(np.array([0.0, 0.0, 10.0, 10.0]), 2,
                                     contiguous=True)
        assert layout_of(lengths)[1][0] == int(np.flatnonzero(np.diff(expected))[0]) + 1

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            segment_one(np.zeros((4, 1)), 0)
        with pytest.raises(ConfigError):
            segment_one(np.zeros((4, 1)), 5)

    def test_count_must_be_an_integer(self):
        for s in (2.0, 2.5):
            with pytest.raises(ConfigError, match="is not an integer"):
                segment_one(np.zeros((4, 1)), s)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 3), st.data())
    def test_partition_and_mean_conservation(self, steps, n_attrs, data):
        profile = data.draw(arrays(np.float64, (steps, n_attrs), elements=finite))
        n_segments = data.draw(st.integers(1, steps))
        lengths, values = segment_one(profile, n_segments)
        assert lengths.shape[1] == n_segments
        assert lengths.sum() == steps
        assert np.all(lengths >= 1)
        for a in range(n_attrs):
            weighted = (lengths[0] * values[0, :, a]).sum() / steps
            assert abs(weighted - profile[:, a].mean()) < 1e-12 * max(
                1.0, np.abs(profile[:, a]).max())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 10), st.data())
    def test_refinement_splits_one_segment(self, steps, data):
        profile = data.draw(arrays(np.float64, (steps, 1), elements=finite))
        for s in range(1, steps):
            coarse = set(layout_of(segment_one(profile, s)[0]))
            fine = set(layout_of(segment_one(profile, s + 1)[0]))
            # hierarchical nesting: all but one coarse segment survive
            assert len(coarse - fine) == 1
            assert len(fine - coarse) == 2

    def test_segment_values_are_exact_means(self):
        # bit for bit the plain per-segment mean, also for runs of 3+ steps
        rng = np.random.default_rng(5)
        checked = 0
        for n_attrs in (1, 3):
            profiles = 7.3 * rng.standard_normal((20, 24, n_attrs))
            ranks = segment_linkage(profiles)
            for s in range(1, 9):
                lengths, values = cut_layout(profiles, ranks, s)
                for c in range(20):
                    for j, (start, length) in enumerate(layout_of(lengths, c)):
                        if length < 3:
                            continue
                        expected = profiles[c, start:start + length].mean(axis=0)
                        assert values[c, j].tobytes() == expected.tobytes()
                        checked += 1
        assert checked > 500


class TestChainOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_profiles())
    @example(np.array([[2.0], [0.0], [2.0], [1.0], [1.0], [0.0]]))
    # an exact tie that a cost summed without the oracle's dot product breaks
    @example(np.array([[1.0, 0], [0, 1], [0, 1], [2, 1], [1, 0], [1, 0], [2, 1], [1, 2]]))
    def test_tie_heavy_matches_naive(self, profile):
        n = profile.shape[0]
        expected = naive_ward(profile, chain_matrix(n))
        for s in range(1, n + 1):
            np.testing.assert_array_equal(chain_partition(profile, s),
                                          naive_cut(n, expected, s))

    def test_batch_equals_one_profile_at_a_time(self):
        rng = np.random.default_rng(6)
        # 512 x 24 x 3 is about a search's single call on a year of days
        for shape in ((30, 12, 2), (512, 24, 3)):
            profiles = rng.integers(0, 3, shape).astype(np.float64)
            ranks = segment_linkage(profiles)
            for c in range(shape[0]):
                np.testing.assert_array_equal(ranks[c],
                                              segment_linkage(profiles[c:c + 1])[0])

    def test_ranks_are_a_merge_order(self):
        ranks = segment_linkage(np.random.default_rng(7).standard_normal((5, 24, 3)))
        assert ranks.shape == (5, 23)
        for row in ranks:
            assert sorted(row.tolist()) == list(range(23))


class TestSegmentRepresentatives:
    @staticmethod
    def segmented(values, steps, k, n_segments):
        periods = periods_of(values, steps)
        assignment, _ = cut(ward_linkage(periods.reshape(periods.shape[0], -1))[0], k)
        profiles = represent(periods, assignment, "centroid")
        return profiles, cut_layout(profiles, segment_linkage(profiles), n_segments)

    def test_eight_times_eight(self):
        rng = np.random.default_rng(0)
        _, (lengths, values) = self.segmented(rng.standard_normal((8760, 1)), 24, 8, 8)
        assert lengths.shape == (8, 8)
        assert values.shape == (8, 8, 1)

    def test_identity_keeps_profiles(self):
        rng = np.random.default_rng(1)
        profiles, (lengths, values) = self.segmented(rng.standard_normal((48, 2)), 12, 2, 12)
        assert np.all(lengths == 1)
        np.testing.assert_array_equal(values, profiles)

    def test_identical_periods_get_identical_layouts(self):
        rng = np.random.default_rng(2)
        day = rng.standard_normal((24, 1))
        _, (lengths, _) = self.segmented(np.vstack([day, day]), 24, 2, 5)
        assert layout_of(lengths, 0) == layout_of(lengths, 1)


@pytest.mark.parametrize("lengths, values, message", [
    ([[2, 2]], np.zeros((1, 3, 1)), r"values of shape \(1, 3, 1\) for lengths of shape \(1, 2\)"),
    ([[2, 2]], np.zeros((1, 2)), r"values of shape \(1, 2\) for lengths of shape \(1, 2\)"),
    ([[2, 2], [1, 2]], np.zeros((2, 2, 1)), "segments do not tile the period"),
    ([[4, 0]], np.zeros((1, 2, 1)), "segments do not tile the period"),
], ids=["shapes", "flat-values", "row-totals", "empty-segment"])
def test_layout_rejects_malformed_segments(lengths, values, message):
    with pytest.raises(DataError, match=message):
        reconstruct(np.array(lengths), values, np.zeros(1, dtype=np.int64))
