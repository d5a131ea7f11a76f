import numpy as np
import pytest

from tsagg.errors import ConfigError, DataError
from tsagg.hierarchy import medoid_of, sq_distances, ward_cluster, ward_linkage

from helpers import chain_partition, segment_one
from reference import (
    best_partition,
    chain_matrix,
    naive_cut,
    naive_ward,
    sq_distance_matrix,
)


def assert_same_partition(a, b):
    """Equal up to label names (both label by first appearance, so exact)."""
    np.testing.assert_array_equal(a, b)


class TestWardExamples:
    def test_two_tight_pairs(self):
        samples = np.array([0.0, 0.1, 5.0, 5.1])
        result = ward_cluster(samples, 2)
        expected, _ = best_partition(samples, 2)
        assert_same_partition(result.assignment, expected)
        assert result.sizes.tolist() == [2, 2]

    def test_k_equals_n(self):
        result = ward_cluster(np.array([3.0, 1.0, 2.0]), 3)
        assert result.assignment.tolist() == [0, 1, 2]
        assert result.sizes.tolist() == [1, 1, 1]

    def test_chain_two_plateaus(self):
        samples = np.array([0.0, 0.0, 10.0, 10.0])
        expected, _ = best_partition(samples, 2, contiguous=True)
        assert_same_partition(chain_partition(samples, 2), expected)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            ward_cluster(np.zeros((3, 1)), 0)
        with pytest.raises(ConfigError):
            ward_cluster(np.zeros((3, 1)), 4)

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(DataError):
            ward_cluster(np.array([0.0, np.nan]), 1)


class TestOracleEquivalence:
    def test_unconstrained_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            samples = rng.standard_normal((n, d))
            linkage = ward_linkage(samples)
            expected = naive_ward(samples)
            assert [(m.id_a, m.id_b) for m in linkage.merges] == \
                [(a, b) for a, b, _, _ in expected]
            np.testing.assert_allclose([m.cost for m in linkage.merges],
                                       [c for _, _, c, _ in expected], rtol=1e-9)
            for k in range(1, n + 1):
                assert_same_partition(linkage.cut(k).assignment,
                                      naive_cut(n, expected, k))

    def test_chain_matches_naive(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            samples = rng.standard_normal((n, 2))
            expected = naive_ward(samples, chain_matrix(n))
            # the partitions at every k fix a chain's merge sequence
            for k in range(1, n + 1):
                assert_same_partition(chain_partition(samples, k),
                                      naive_cut(n, expected, k))


class TestLinkageProperties:
    def test_run_to_completion_has_n_minus_1_merges(self):
        linkage = ward_linkage(np.random.default_rng(0).standard_normal((12, 3)))
        assert len(linkage.merges) == 11

    def test_unconstrained_costs_non_decreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            linkage = ward_linkage(rng.standard_normal((15, 2)))
            costs = [m.cost for m in linkage.merges]
            assert all(c1 <= c2 * (1 + 1e-12) for c1, c2 in zip(costs, costs[1:]))

    def test_determinism(self):
        samples = np.random.default_rng(2).standard_normal((20, 4))
        a = ward_linkage(samples.copy())
        b = ward_linkage(samples.copy())
        assert a == b
        np.testing.assert_array_equal(a.cut(5).assignment, b.cut(5).assignment)

    def test_chain_clusters_are_intervals(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 15))
            samples = rng.standard_normal((n, 2))
            previous = set()
            for k in range(1, n + 1):
                lengths = segment_one(samples, k).lengths[0]
                # k non-empty runs in step order that tile the chain
                assert lengths.size == k and np.all(lengths >= 1)
                assert lengths.sum() == n
                # one more segment keeps every boundary and adds one
                bounds = set(np.cumsum(lengths)[:-1].tolist())
                assert previous <= bounds and len(bounds) == k - 1
                previous = bounds

    def test_successive_cuts_differ_by_one_split(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((12, 2))
        linkage = ward_linkage(samples)
        for k in range(1, 12):
            coarse = linkage.cut(k).assignment
            fine = linkage.cut(k + 1).assignment
            # every fine cluster sits inside one coarse cluster
            split = set()
            for c in range(k + 1):
                owners = set(coarse[fine == c].tolist())
                assert len(owners) == 1
            # exactly one coarse cluster is divided in two
            for c in range(k):
                children = set(fine[coarse == c].tolist())
                if len(children) > 1:
                    split.add(c)
                    assert len(children) == 2
            assert len(split) == 1


class TestMedoid:
    def test_singleton(self):
        assert medoid_of(np.array([[1.0], [2.0], [9.0], [4.0]]), {3}) == 3

    def test_three_member_example(self):
        assert medoid_of(np.array([[0.0], [1.0], [10.0]]), [0, 1, 2]) == 1

    def test_tie_goes_to_lowest_index(self):
        # symmetric around 1.5: indices 1 and 2 have equal distance sums
        assert medoid_of(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 1, 2, 3]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            medoid_of(np.zeros((3, 1)), [])


class TestSqDistances:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (200, 72), (1460, 72)])
    def test_matches_cdist_on_random_rows(self, shape):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = 3.1 * np.random.default_rng(shape[0]).standard_normal(shape)
        expected = cdist(x, x, "sqeuclidean")
        assert sq_distances(x).tobytes() == expected.tobytes()

    def test_matches_cdist_on_integer_grids(self):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = np.random.default_rng(9).integers(0, 3, (300, 24)).astype(np.float64)
        assert sq_distances(x).tobytes() == cdist(x, x, "sqeuclidean").tobytes()

    def test_matches_column_order_reference(self):
        # runs without scipy: the definition, summed in the same order
        x = np.random.default_rng(10).standard_normal((50, 30))
        assert sq_distances(x).tobytes() == sq_distance_matrix(x).tobytes()
