import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsagg.core import NormParams, to_periods
from tsagg.errors import ConfigError, DataError
from tsagg.hierarchy import ClusterResult, ward_linkage
from tsagg.representation import REPRESENTATION_METHODS, represent

from helpers import build_frame, each_worker_count
from reference import distribution_group_means, distribution_profile, representatives

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def clustered_frame(values, steps, k):
    frame = build_frame(values, steps)
    return frame, ward_linkage(frame.rows).cut(k)


class TestCentroid:
    def test_singleton_cluster_copies_member(self):
        frame, clusters = clustered_frame(np.arange(12.0), 3, 4)
        profiles = represent(frame, clusters, "centroid")
        for c in range(4):
            member = np.flatnonzero(clusters.assignment == c)[0]
            np.testing.assert_array_equal(profiles[c].ravel(), frame.rows[member])

    def test_elementwise_mean(self):
        # two periods [1,3] and [3,5]: raw mean profile is [2,4]
        frame = build_frame(np.array([1.0, 3.0, 3.0, 5.0]), 2)
        clusters = ward_linkage(frame.rows).cut(1)
        profiles = represent(frame, clusters, "centroid")
        expected = (frame.rows[0] + frame.rows[1]) / 2
        np.testing.assert_array_equal(profiles[0].ravel(), expected)

    def test_weighted_mean_preserved(self):
        rng = np.random.default_rng(0)
        frame, clusters = clustered_frame(rng.standard_normal((96, 3)), 24, 2)
        profiles = represent(frame, clusters, "centroid")
        for a in range(3):
            weighted = sum(
                clusters.sizes[c] * profiles[c, :, a].mean()
                for c in range(2)) / frame.n_periods
            original = frame.unrolled()[:, a].mean()
            assert abs(weighted - original) < 1e-10


class TestMedoid:
    def test_singleton_cluster(self):
        frame, clusters = clustered_frame(np.arange(12.0), 3, 4)
        profiles = represent(frame, clusters, "medoid")
        for c in range(4):
            member = np.flatnonzero(clusters.assignment == c)[0]
            np.testing.assert_array_equal(profiles[c].ravel(), frame.rows[member])

    def test_middle_of_three(self):
        # periods of one step with values 0, 1, 10: medoid is the middle one
        frame = build_frame(np.array([0.0, 1.0, 10.0]), 1)
        clusters = ward_linkage(np.zeros((3, 1))).cut(1)  # force one cluster
        profiles = represent(frame, clusters, "medoid")
        np.testing.assert_array_equal(profiles[0].ravel(), frame.rows[1])

    def test_profiles_are_input_rows(self):
        rng = np.random.default_rng(1)
        frame, clusters = clustered_frame(rng.standard_normal((60, 2)), 12, 3)
        profiles = represent(frame, clusters, "medoid")
        expected = representatives(frame.rows, clusters.assignment, 12, "medoid")
        np.testing.assert_array_equal(profiles, expected)
        for c in range(3):
            rows = frame.rows[np.flatnonzero(clusters.assignment == c)]
            assert (rows == profiles[c].ravel()).all(axis=1).any()

    def test_blocked_equal_sized_clusters_match_reference(self, monkeypatch):
        # three clusters of 400 periods, 24 steps x 3 attributes: the batched
        # kernel runs one-row blocks. Each cluster is 200 integer rows and
        # their mirror images 2 - x, so a row and its mirror tie on the
        # distance sum, and only the lowest-index rule picks the medoid
        rng = np.random.default_rng(17)
        half = rng.integers(0, 3, (3, 200, 72)).astype(np.float64)
        rows = np.concatenate([half, 2 - half], axis=1).reshape(1200, 72)
        shuffle = rng.permutation(1200)
        assignment = np.repeat(np.arange(3), 400)[shuffle]
        unit = NormParams("minmax", offset=np.zeros(3), scale=np.ones(3))
        frame = to_periods(rows[shuffle].reshape(-1, 3), 24, unit)
        clusters = ClusterResult(k=3, assignment=assignment, sizes=np.full(3, 400),
                                 nodes=np.arange(3))
        expected = representatives(frame.rows, assignment, 24, "medoid")
        for _ in each_worker_count(monkeypatch):
            np.testing.assert_array_equal(represent(frame, clusters, "medoid"), expected)


class TestDistribution:
    def test_hand_traced_example(self):
        # one attribute, 2-step periods [5,1] and [0,3] in a single cluster
        frame = build_frame(np.array([5.0, 1.0, 0.0, 3.0]), 2)
        # bypass normalization effects: the frame is minmax over [0,5]
        clusters = ward_linkage(frame.rows).cut(1)
        profiles = represent(frame, clusters, "distribution")
        np.testing.assert_allclose(profiles[0].ravel() * 5, [4, 0.5])

    def test_singleton_cluster_is_exact(self):
        rng = np.random.default_rng(2)
        frame, clusters = clustered_frame(rng.standard_normal((20, 2)), 5, 4)
        profiles = represent(frame, clusters, "distribution")
        for c in range(4):
            member = np.flatnonzero(clusters.assignment == c)[0]
            np.testing.assert_array_equal(profiles[c].ravel(), frame.rows[member])

    def test_matches_stepwise_reference(self):
        rng = np.random.default_rng(3)
        frame, clusters = clustered_frame(rng.standard_normal((120, 2)), 8, 3)
        profiles = represent(frame, clusters, "distribution")
        view = frame.rows.reshape(frame.n_periods, 8, 2)
        for c in range(3):
            members = np.flatnonzero(clusters.assignment == c)
            for a in range(2):
                expected = distribution_profile(view[members][:, :, a])
                np.testing.assert_array_equal(profiles[c, :, a], expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.data())
    def test_sorted_profile_equals_group_means(self, k, steps, data):
        n_periods = k * 3
        values = data.draw(arrays(np.float64, (n_periods * steps, 2), elements=finite))
        frame = build_frame(values, steps)
        clusters = ward_linkage(frame.rows).cut(k)
        profiles = represent(frame, clusters, "distribution")
        view = frame.rows.reshape(n_periods, steps, 2)
        for c in range(k):
            members = np.flatnonzero(clusters.assignment == c)
            for a in range(2):
                sorted_profile = -np.sort(-profiles[c, :, a])
                np.testing.assert_array_equal(
                    sorted_profile, distribution_group_means(view[members][:, :, a]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_mean_preserved(self, k, data):
        values = data.draw(arrays(np.float64, (k * 4 * 6, 1), elements=finite))
        frame = build_frame(values, 6)
        clusters = ward_linkage(frame.rows).cut(k)
        profiles = represent(frame, clusters, "distribution")
        view = frame.rows.reshape(frame.n_periods, 6, 1)
        for c in range(k):
            members = np.flatnonzero(clusters.assignment == c)
            assert abs(profiles[c, :, 0].mean()
                       - view[members][:, :, 0].mean()) < 1e-10


class TestCommon:
    def test_weights_sum_to_n_periods(self):
        rng = np.random.default_rng(4)
        frame, clusters = clustered_frame(rng.standard_normal((72, 2)), 12, 3)
        assert clusters.sizes.sum() == frame.n_periods
        for method in ("centroid", "medoid", "distribution"):
            assert represent(frame, clusters, method).shape == (3, 12, 2)

    def test_methods_coincide_on_singletons(self):
        rng = np.random.default_rng(5)
        frame = build_frame(rng.standard_normal((40, 2)), 5)
        clusters = ward_linkage(frame.rows).cut(frame.n_periods)
        profiles = [represent(frame, clusters, m)
                    for m in ("centroid", "medoid", "distribution")]
        np.testing.assert_array_equal(profiles[0], profiles[1])
        np.testing.assert_array_equal(profiles[0], profiles[2])

    def test_assignment_size_mismatch_rejected(self):
        frame = build_frame(np.arange(12.0), 3)
        clusters = ward_linkage(np.zeros((2, 1))).cut(1)
        with pytest.raises(DataError):
            represent(frame, clusters, "centroid")

    def test_unknown_method(self):
        frame = build_frame(np.arange(12.0), 3)
        clusters = ward_linkage(frame.rows).cut(2)
        with pytest.raises(ConfigError):
            represent(frame, clusters, "mean")


@st.composite
def tie_heavy_frames(draw):
    """0..2 integer periods, each repeated, so many clusters share a size."""
    steps = draw(st.integers(1, 4))
    n_attrs = draw(st.integers(1, 2))
    pool = draw(arrays(np.int64, (draw(st.integers(1, 4)), steps * n_attrs),
                       elements=st.integers(0, 2)))
    repeats = draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8))
    periods = np.repeat(pool[picks], repeats, axis=0).astype(np.float64)
    return build_frame(periods.reshape(-1, n_attrs), steps)


class TestOracle:
    """Every method equals the one-cluster-at-a-time reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_frames())
    def test_tie_heavy_every_cut(self, frame):
        linkage = ward_linkage(frame.rows)
        for p in range(1, frame.n_periods + 1):
            clusters = linkage.cut(p)
            for method in REPRESENTATION_METHODS:
                np.testing.assert_array_equal(
                    represent(frame, clusters, method),
                    representatives(frame.rows, clusters.assignment,
                                    frame.steps_per_period, method))

    def test_random_every_cut(self):
        # clusters of 9+ members reduce pairwise, so summation order shows
        rng = np.random.default_rng(6)
        frame = build_frame(7.3 * rng.standard_normal((40 * 6, 3)), 6)
        linkage = ward_linkage(frame.rows)
        for p in range(1, 41):
            clusters = linkage.cut(p)
            for method in REPRESENTATION_METHODS:
                np.testing.assert_array_equal(
                    represent(frame, clusters, method),
                    representatives(frame.rows, clusters.assignment, 6, method))
