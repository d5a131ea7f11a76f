import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsagg import representation
from tsagg.core import to_periods
from tsagg.errors import ConfigError, DataError
from tsagg.hierarchy import cut, ward_linkage
from tsagg.representation import MEDOID_BROADCAST, REPRESENTATION_METHODS, represent

from helpers import periods_of
from reference import (
    distribution_group_means,
    distribution_profile,
    representatives,
    sq_distance_matrix,
)

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def rows_of(periods):
    """The (P, T * N_a) row view the period linkage clusters."""
    return periods.reshape(periods.shape[0], -1)


def count_split(monkeypatch):
    """The member counts of the medoid clusters split into row blocks, in a list.

    A chunk's subtraction writes (D', clusters, rows, m) differences. A
    split cluster's first block starts at the cluster's first row, so its
    two operands start at one address.
    """
    counts, subtract = [], np.subtract

    def recorded(part, chunk, out):
        rows, m = out.shape[2:]
        if rows < m and part.ctypes.data == chunk.ctypes.data:
            counts.append(m)
        return subtract(part, chunk, out=out)

    monkeypatch.setattr(np, "subtract", recorded)
    return counts


def mirrored_integer_rows(rng, m, width):
    """m integer 0..2 rows, half of them the mirror images 2 - x of the others.

    A row and its mirror tie exactly on the distance sum; a row of ones,
    its own mirror, makes an odd m.
    """
    half = rng.integers(0, 3, (m // 2, width)).astype(np.float64)
    return np.concatenate([half, 2 - half, np.ones((m % 2, width))])


def clustered(values, steps, k):
    """Normalized periods and their assignment at k clusters."""
    periods = periods_of(values, steps)
    return periods, cut(ward_linkage(rows_of(periods))[0], k)[0]


class TestCentroid:
    def test_singleton_cluster_copies_member(self):
        periods, assignment = clustered(np.arange(12.0), 3, 4)
        profiles = represent(periods, assignment, "centroid")
        for c in range(4):
            member = np.flatnonzero(assignment == c)[0]
            np.testing.assert_array_equal(profiles[c], periods[member])

    def test_elementwise_mean(self):
        # two periods [1,3] and [3,5]: raw mean profile is [2,4]
        periods = periods_of(np.array([1.0, 3.0, 3.0, 5.0]), 2)
        profiles = represent(periods, np.zeros(2, dtype=np.int64), "centroid")
        expected = (periods[0] + periods[1]) / 2
        np.testing.assert_array_equal(profiles[0], expected)

    def test_weighted_mean_preserved(self):
        rng = np.random.default_rng(0)
        periods, assignment = clustered(rng.standard_normal((96, 3)), 24, 2)
        profiles = represent(periods, assignment, "centroid")
        sizes = np.bincount(assignment)
        for a in range(3):
            weighted = sum(sizes[c] * profiles[c, :, a].mean() for c in range(2)) / 4
            original = periods[:, :, a].mean()
            assert abs(weighted - original) < 1e-10


class TestMedoid:
    def test_singleton_cluster(self):
        periods, assignment = clustered(np.arange(12.0), 3, 4)
        profiles = represent(periods, assignment, "medoid")
        for c in range(4):
            member = np.flatnonzero(assignment == c)[0]
            np.testing.assert_array_equal(profiles[c], periods[member])

    def test_middle_of_three(self):
        # periods of one step with values 0, 1, 10: medoid is the middle one
        periods = periods_of(np.array([0.0, 1.0, 10.0]), 1)
        assignment, _ = cut(ward_linkage(np.zeros((3, 1)))[0], 1)  # force one cluster
        profiles = represent(periods, assignment, "medoid")
        np.testing.assert_array_equal(profiles[0], periods[1])

    def test_profiles_are_input_rows(self):
        rng = np.random.default_rng(1)
        periods, assignment = clustered(rng.standard_normal((60, 2)), 12, 3)
        profiles = represent(periods, assignment, "medoid")
        expected = representatives(rows_of(periods), assignment, 12, "medoid")
        np.testing.assert_array_equal(profiles, expected)
        for c in range(3):
            rows = rows_of(periods)[np.flatnonzero(assignment == c)]
            assert (rows == profiles[c].ravel()).all(axis=1).any()

    def test_blocked_equal_sized_clusters_match_reference(self):
        # three clusters of 400 periods, 24 steps x 3 attributes: each
        # splits into 100 row blocks of 4 rows. Each cluster is 200 integer rows and their mirror images
        # 2 - x, so a row and its mirror tie on the distance sum, and only
        # the lowest-index rule picks the medoid
        rng = np.random.default_rng(17)
        half = rng.integers(0, 3, (3, 200, 72)).astype(np.float64)
        rows = np.concatenate([half, 2 - half], axis=1).reshape(1200, 72)
        shuffle = rng.permutation(1200)
        assignment = np.repeat(np.arange(3), 400)[shuffle]
        periods = to_periods(rows[shuffle].reshape(-1, 3), 24)
        expected = representatives(rows_of(periods), assignment, 24, "medoid")
        np.testing.assert_array_equal(represent(periods, assignment, "medoid"), expected)

    @pytest.mark.parametrize("kind", ["normal", "mirrored-integer", "mirrored-normal"])
    def test_both_sides_of_the_broadcast_bound_match_reference(self, kind, monkeypatch):
        # 72 values a period: clusters of 44 exceed the bound and split into
        # row blocks, three clusters of 42 take one broadcast chunk each, and
        # nine clusters of 12 share one chunk. Mirrored clusters hold rows
        # x and c - x, whose exact distance sums tie: integer rows and
        # c = 2 sum exactly, so the lowest index wins; normal rows and c = 0
        # sum the same values in another order, so the rounding decides
        sizes = [44] * 3 + [42] * 3 + [12] * 9
        assert 42 * 42 * 72 <= MEDOID_BROADCAST < 43 * 43 * 72
        rng = np.random.default_rng(21)
        clusters = []
        for size in sizes:
            if kind == "normal":
                clusters.append(rng.standard_normal((size, 72)))
            elif kind == "mirrored-integer":
                clusters.append(mirrored_integer_rows(rng, size, 72))
            else:
                half = rng.standard_normal((size // 2, 72))
                clusters.append(np.concatenate([half, -half]))
        shuffle = rng.permutation(sum(sizes))
        rows = np.concatenate(clusters)[shuffle]
        assignment = np.repeat(np.arange(len(sizes)), sizes)[shuffle]
        periods = rows.reshape(-1, 24, 3)
        expected = representatives(rows, assignment, 24, "medoid").tobytes()
        split = count_split(monkeypatch)
        assert represent(periods, assignment, "medoid").tobytes() == expected
        assert split == [44] * 3

    @pytest.mark.parametrize("signed_zero", [False, True], ids=["zero", "signed-zero"])
    def test_constant_columns_do_not_count_towards_the_bound(self, signed_zero,
                                                            monkeypatch):
        # three clusters of 44 periods of 24 steps x 3 attributes, whose
        # first attribute is 0.0 in the first 12 hours of every period:
        # 44 * 44 * 72 differences exceed the bound, 44 * 44 * 60 do not, so
        # every cluster takes one broadcast chunk. Column 1 is constant in
        # two clusters but not the third, so it stays. Mirrored integer
        # rows tie exactly, and only the lowest-index rule picks the medoid
        assert 44 * 44 * 60 <= MEDOID_BROADCAST < 44 * 44 * 72
        rng = np.random.default_rng(23)
        half = rng.integers(0, 3, (3, 22, 72)).astype(np.float64)
        rows = np.concatenate([half, 2 - half], axis=1).reshape(132, 24, 3)
        rows[:, :12, 0] = 0.0
        if signed_zero:
            rows[::3, :12, 0] = -0.0
        rows[44:, 0, 1] = 1.0
        shuffle = rng.permutation(132)
        assignment = np.repeat(np.arange(3), 44)[shuffle]
        periods = rows[shuffle]
        expected = representatives(rows_of(periods), assignment, 24, "medoid").tobytes()
        split = count_split(monkeypatch)
        assert represent(periods, assignment, "medoid").tobytes() == expected
        assert split == []

    @pytest.mark.parametrize("m", [44, 63, 64, 65, 130])
    @pytest.mark.parametrize("kind", ["normal", "mirrored-integer"])
    def test_streamed_sums_are_the_square_matrix_sums(self, m, kind):
        # periods of 8 steps x 4 attributes: clusters of 44, 63 and 64 take
        # one chunk, and 65 and 130 split into row blocks, of 63 and 2 rows
        # and of 31 rows four times and 6. The sums keep the oracle's bits
        # whichever shape the chunks take, and ties go to the lowest index
        assert 64 * 64 * 32 <= MEDOID_BROADCAST < 65 * 65 * 32
        rng = np.random.default_rng(m)
        if kind == "normal":
            rows = rng.standard_normal((m, 32))
        else:
            rows = mirrored_integer_rows(rng, m, 32)
        sums = sq_distance_matrix(rows).sum(axis=1)
        assert representation._distance_sums(rows[None])[0].tobytes() == sums.tobytes()
        profiles = represent(rows.reshape(m, 8, 4), np.zeros(m, dtype=np.int64), "medoid")
        assert profiles.tobytes() == rows[sums.argmin()].tobytes()

    @pytest.mark.parametrize("g, m, width", [(27, 12, 72), (2, 65, 32)],
                             ids=["remainder-chunk", "short-last-block"])
    @pytest.mark.parametrize("kind", ["normal", "mirrored-integer"])
    def test_chunk_edges_keep_the_square_matrix_sums(self, g, m, width, kind):
        # 27 clusters of 12 x 72 take chunks of 12, 12 and 3 whole clusters;
        # each of two clusters of 65 x 32 splits into row blocks of 63 and 2
        assert 12 * 12 * 12 * 72 <= MEDOID_BROADCAST < 13 * 12 * 12 * 72
        assert 63 * 65 * 32 <= MEDOID_BROADCAST < 64 * 65 * 32
        rng = np.random.default_rng(g)
        if kind == "normal":
            rows = rng.standard_normal((g, m, width))
        else:
            rows = np.stack([mirrored_integer_rows(rng, m, width) for _ in range(g)])
        sums = representation._distance_sums(rows)
        for c in range(g):
            assert sums[c].tobytes() == sq_distance_matrix(rows[c]).sum(axis=1).tobytes()

    @pytest.mark.parametrize("m", [5, 400])
    def test_no_varying_column_sums_to_zero(self, m):
        # two clusters whose members are all equal, 0.0 and -0.0 comparing
        # equal: every sum is 0, and the first member wins. 400 members
        # split into row blocks even with no column
        rows = np.full((2, m, 6), 0.5)
        rows[:, ::2, 0] = 0.0
        rows[:, 1::2, 0] = -0.0
        assert representation._distance_sums(rows).tobytes() == np.zeros((2, m)).tobytes()
        assignment = np.repeat(np.arange(2), m)
        profiles = represent(rows.reshape(2 * m, 2, 3), assignment, "medoid")
        assert profiles.tobytes() == rows[:, 0].reshape(2, 2, 3).tobytes()


class TestDistribution:
    def test_hand_traced_example(self):
        # one attribute, 2-step periods [5,1] and [0,3] in a single cluster
        periods = periods_of(np.array([5.0, 1.0, 0.0, 3.0]), 2)
        # bypass normalization effects: the periods are minmax over [0,5]
        profiles = represent(periods, np.zeros(2, dtype=np.int64), "distribution")
        np.testing.assert_allclose(profiles[0].ravel() * 5, [4, 0.5])

    def test_singleton_cluster_is_exact(self):
        rng = np.random.default_rng(2)
        periods, assignment = clustered(rng.standard_normal((20, 2)), 5, 4)
        profiles = represent(periods, assignment, "distribution")
        for c in range(4):
            member = np.flatnonzero(assignment == c)[0]
            np.testing.assert_array_equal(profiles[c], periods[member])

    def test_matches_stepwise_reference(self):
        rng = np.random.default_rng(3)
        periods, assignment = clustered(rng.standard_normal((120, 2)), 8, 3)
        profiles = represent(periods, assignment, "distribution")
        for c in range(3):
            members = np.flatnonzero(assignment == c)
            for a in range(2):
                expected = distribution_profile(periods[members][:, :, a])
                np.testing.assert_array_equal(profiles[c, :, a], expected)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.data())
    def test_sorted_profile_equals_group_means(self, k, steps, data):
        n_periods = k * 3
        values = data.draw(arrays(np.float64, (n_periods * steps, 2), elements=finite))
        periods, assignment = clustered(values, steps, k)
        profiles = represent(periods, assignment, "distribution")
        for c in range(k):
            members = np.flatnonzero(assignment == c)
            for a in range(2):
                sorted_profile = -np.sort(-profiles[c, :, a])
                np.testing.assert_array_equal(
                    sorted_profile, distribution_group_means(periods[members][:, :, a]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_mean_preserved(self, k, data):
        values = data.draw(arrays(np.float64, (k * 4 * 6, 1), elements=finite))
        periods, assignment = clustered(values, 6, k)
        profiles = represent(periods, assignment, "distribution")
        for c in range(k):
            members = np.flatnonzero(assignment == c)
            assert abs(profiles[c, :, 0].mean()
                       - periods[members][:, :, 0].mean()) < 1e-10


class TestCommon:
    def test_weights_sum_to_n_periods(self):
        rng = np.random.default_rng(4)
        periods, assignment = clustered(rng.standard_normal((72, 2)), 12, 3)
        assert np.bincount(assignment).sum() == periods.shape[0]
        for method in ("centroid", "medoid", "distribution"):
            assert represent(periods, assignment, method).shape == (3, 12, 2)

    def test_methods_coincide_on_singletons(self):
        rng = np.random.default_rng(5)
        periods, assignment = clustered(rng.standard_normal((40, 2)), 5, 8)
        profiles = [represent(periods, assignment, m)
                    for m in ("centroid", "medoid", "distribution")]
        np.testing.assert_array_equal(profiles[0], profiles[1])
        np.testing.assert_array_equal(profiles[0], profiles[2])

    def test_assignment_size_mismatch_rejected(self):
        periods = periods_of(np.arange(12.0), 3)
        assignment, _ = cut(ward_linkage(np.zeros((2, 1)))[0], 1)
        with pytest.raises(DataError):
            represent(periods, assignment, "centroid")

    def test_unknown_method(self):
        periods, assignment = clustered(np.arange(12.0), 3, 2)
        with pytest.raises(ConfigError):
            represent(periods, assignment, "mean")

    @pytest.mark.parametrize("method", REPRESENTATION_METHODS)
    @pytest.mark.parametrize("assignment, message", [
        ([0, 2, 2], "cluster 1 has no member"),
        ([0, -1, 1], "period 1 has the negative cluster index -1"),
    ], ids=["empty-cluster", "negative-index"])
    def test_assignment_must_fill_every_cluster(self, method, assignment, message):
        periods = periods_of(np.arange(12.0), 4)
        with pytest.raises(DataError, match=message):
            represent(periods, np.array(assignment), method)

    @pytest.mark.parametrize("periods, assignment, message", [
        (np.zeros((3, 2)), np.zeros(3, dtype=np.int64), r"periods of shape \(3, 2\)"),
        (np.zeros((3, 2, 1)), np.zeros((3, 1), dtype=np.int64), r"assignment of shape \(3, 1\)"),
        (np.zeros((3, 2, 1)), [[0], [0], [0]], r"assignment of shape \(3, 1\)"),
        (np.zeros((3, 2, 1)), [0, 0, 0], None),
        ([[[0.0], [1.0]], [[2.0], [3.0]]], [0, 0], None),
    ], ids=["flat-periods", "column-assignment", "nested-list", "list", "list-periods"])
    def test_lists_work_and_dimensions_are_checked(self, periods, assignment, message):
        # lists are taken as the arrays they spell
        if message is None:
            expected = represent(np.array(periods), np.array(assignment), "centroid")
            np.testing.assert_array_equal(represent(periods, assignment, "centroid"), expected)
        else:
            with pytest.raises(DataError, match=message):
                represent(periods, assignment, "centroid")


@st.composite
def tie_heavy_periods(draw):
    """0..2 integer periods, each repeated, so many clusters share a size."""
    steps = draw(st.integers(1, 4))
    n_attrs = draw(st.integers(1, 2))
    pool = draw(arrays(np.int64, (draw(st.integers(1, 4)), steps * n_attrs),
                       elements=st.integers(0, 2)))
    repeats = draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8))
    periods = np.repeat(pool[picks], repeats, axis=0).astype(np.float64)
    return periods_of(periods.reshape(-1, n_attrs), steps)


class TestOracle:
    """Every method equals the one-cluster-at-a-time reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_periods())
    def test_tie_heavy_every_cut(self, periods):
        n_periods, steps, _ = periods.shape
        ids = ward_linkage(rows_of(periods))[0]
        for p in range(1, n_periods + 1):
            assignment, _ = cut(ids, p)
            for method in REPRESENTATION_METHODS:
                np.testing.assert_array_equal(
                    represent(periods, assignment, method),
                    representatives(rows_of(periods), assignment, steps, method))

    def test_random_every_cut(self):
        # clusters of 9+ members reduce pairwise, so summation order shows
        rng = np.random.default_rng(6)
        periods = periods_of(7.3 * rng.standard_normal((40 * 6, 3)), 6)
        ids = ward_linkage(rows_of(periods))[0]
        for p in range(1, 41):
            assignment, _ = cut(ids, p)
            for method in REPRESENTATION_METHODS:
                np.testing.assert_array_equal(
                    represent(periods, assignment, method),
                    representatives(rows_of(periods), assignment, 6, method))
