import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsagg import hierarchy
from tsagg.errors import ConfigError, DataError
from tsagg.hierarchy import available_memory, sq_distances, ward_linkage
from tsagg.representation import represent
from tsagg.synthetic import load_profile, solar_profile, wind_profile

from helpers import (
    chain_partition,
    each_worker_count,
    merge_list,
    periods_of,
    segment_one,
    use_cpus,
)
from reference import (
    best_partition,
    chain_matrix,
    dense_ward,
    first_neighbours,
    naive_cut,
    naive_nodes,
    naive_ward,
    sq_distance_matrix,
)


def assert_same_merges(linkage, expected):
    """The merge arrays equal the (ids, costs, sizes) arrays, bit for bit."""
    for got, want in zip((linkage.ids, linkage.costs, linkage.sizes), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def record_threads(monkeypatch):
    """The threads started from now on, in a list."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def assert_same_partition(a, b):
    """Equal up to label names (both label by first appearance, so exact)."""
    np.testing.assert_array_equal(a, b)


class TestWardExamples:
    def test_two_tight_pairs(self):
        samples = np.array([0.0, 0.1, 5.0, 5.1])
        assignment, _ = ward_linkage(samples).cut(2)
        expected, _ = best_partition(samples, 2)
        assert_same_partition(assignment, expected)
        assert np.bincount(assignment).tolist() == [2, 2]

    def test_k_equals_n(self):
        assignment, nodes = ward_linkage(np.array([3.0, 1.0, 2.0])).cut(3)
        assert assignment.tolist() == [0, 1, 2]
        assert nodes.tolist() == [0, 1, 2]

    def test_chain_two_plateaus(self):
        samples = np.array([0.0, 0.0, 10.0, 10.0])
        expected, _ = best_partition(samples, 2, contiguous=True)
        assert_same_partition(chain_partition(samples, 2), expected)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            ward_linkage(np.zeros((3, 1))).cut(0)
        with pytest.raises(ConfigError):
            ward_linkage(np.zeros((3, 1))).cut(4)

    def test_zero_samples_rejected(self):
        with pytest.raises(DataError, match="no samples to cluster"):
            ward_linkage(np.zeros((0, 3)))

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(DataError):
            ward_linkage(np.array([0.0, np.nan]))

    def test_overflowing_distances_rejected(self):
        # finite samples whose squared distances overflow to inf; the CLI
        # normalizes first, so only library callers can pass them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow"):
                ward_linkage([[0.0], [1e200], [2e200], [1.0]])
            # the squared distances fit (1e308 at most), but merging 0 and 1
            # updates the distance to 1e154 by (2e308 + 2e308 - 1) / 3
            with pytest.raises(DataError, match="overflow"):
                ward_linkage([[0.0], [1e154], [1.0]])

    def test_overflow_in_a_helper_block_rejected(self, monkeypatch):
        # 500 rows of 72 columns would take 2 workers, and blocks hold 64
        # rows: rows 64-127 are block 1, the helper's, and only the pair
        # (70, 300) overflows. The bound rejects the samples first.
        use_cpus(monkeypatch, 2)
        x = np.random.default_rng(14).standard_normal((500, 72))
        x[70, 0], x[300, 0] = 1e154, -1e154
        started = record_threads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow"):
                ward_linkage(x)
        assert started == []

    def test_exception_in_a_helper_block_reaches_the_caller(self, monkeypatch):
        # as above, block 1 is the helper's, and it goes column by column
        use_cpus(monkeypatch, 2)
        column_by_column, failed_in = hierarchy._column_by_column, []

        def failing(columns, i, acc, diff):
            if i == 64:
                failed_in.append(threading.current_thread())
                raise RuntimeError("block 64 failed")
            column_by_column(columns, i, acc, diff)

        monkeypatch.setattr(hierarchy, "_column_by_column", failing)
        started = record_threads(monkeypatch)
        with pytest.raises(RuntimeError, match="block 64 failed"):
            ward_linkage(np.random.default_rng(14).standard_normal((500, 72)))
        assert len(started) == 1 and failed_in == started


@st.composite
def spread_samples(draw):
    """Normal, 0..2 integer or repeated rows, 2-120 of 1-12 columns, not all equal."""
    n, d = draw(st.integers(2, 120)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "repeated"]))
    if kind == "normal":
        x = rng.standard_normal((n, d))
    elif kind == "integer":
        x = rng.integers(0, 3, (n, d)).astype(np.float64)
    else:
        pool = rng.standard_normal((draw(st.integers(2, 6)), d))
        x = pool[rng.integers(0, len(pool), n)]
    assume(np.ptp(x, axis=0).any())
    return x


def scaled_to_bound(x, share):
    """x scaled so that 4 n^2 sum((max - min)^2) is share of the largest float."""
    bound = 4.0 * len(x) ** 2 * np.square(np.ptp(x, axis=0)).sum()
    return x * (np.sqrt(share / bound) * np.sqrt(np.finfo(np.float64).max))


class TestOverflowBound:
    """ward_linkage links samples just inside its bound and rejects those just outside."""

    @settings(max_examples=150, deadline=None)
    @given(spread_samples())
    def test_links_inside_the_bound(self, x):
        # one CPU: helper threads would not take the caller's error settings
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            use_cpus(mp, 1)
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                linkage = ward_linkage(scaled_to_bound(x, 0.999))
        assert np.isfinite(linkage.costs).all()

    @settings(max_examples=150, deadline=None)
    @given(spread_samples())
    def test_rejected_outside_the_bound_before_any_thread(self, x):
        with pytest.MonkeyPatch.context() as mp:
            use_cpus(mp, 2)
            mp.setattr(hierarchy, "THREAD_MIN_DIFFERENCES", 1)
            started = record_threads(mp)
            with pytest.raises(DataError, match="overflow"):
                ward_linkage(scaled_to_bound(x, 1.001))
        assert started == []


# eight rows whose last two merges break the tie rule: (5, 11), (12, 13)
# where the oracle takes (5, 12), (11, 13)
TIE_RULE_DEFECT = np.array([[2, 2], [2, 2], [2, 2], [2, 1], [1, 1], [1, 2], [2, 2], [2, 2]],
                           dtype=np.float64)


class TestOracleEquivalence:
    @pytest.mark.xfail(strict=True, reason="rounding in the Lance-Williams update "
                       "breaks ties the oracle keeps (ROADMAP item 4)")
    def test_tie_rule_on_rounded_ties(self):
        expected = naive_ward(TIE_RULE_DEFECT)
        assert ward_linkage(TIE_RULE_DEFECT).ids.tolist() == [[a, b] for a, b, _, _ in expected]

    def test_unconstrained_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            samples = rng.standard_normal((n, d))
            linkage = ward_linkage(samples)
            expected = naive_ward(samples)
            assert linkage.ids.tolist() == [[a, b] for a, b, _, _ in expected]
            np.testing.assert_allclose(linkage.costs, [c for _, _, c, _ in expected],
                                       rtol=1e-9)
            for k in range(1, n + 1):
                assert_same_partition(linkage.cut(k)[0], naive_cut(n, expected, k))

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


@st.composite
def tie_heavy_periods(draw):
    """0..2 integer periods repeated 1-4 times, in shuffled order.

    Sometimes one column is constant, and sometimes every row is the same.
    """
    n_cols = draw(st.integers(1, 6))
    pool = draw(arrays(np.int64, (draw(st.integers(2, 15)), n_cols),
                       elements=st.integers(0, 2)))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(pool), max_size=len(pool)))
    rows = np.repeat(pool, repeats, axis=0).astype(np.float64)
    rows = rows[draw(st.permutations(range(len(rows))))]
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, n_cols - 1))] = draw(st.integers(0, 2))
    if draw(st.booleans()):
        rows[:] = rows[0]
    return rows


def synthetic_year():
    """The (365, 72) period rows of a seeded synthetic year."""
    values = np.column_stack([solar_profile(365, seed=4), wind_profile(365, seed=4),
                              load_profile(365, seed=4)])
    return periods_of(values, 24).reshape(365, -1)


def spokes(n_spokes):
    """Unit spokes, then their hub at the origin: every spoke's nearest row."""
    return np.vstack([np.eye(n_spokes), np.zeros((1, n_spokes))])


class TestDenseEquality:
    """The cached linkage takes the dense linkage's merges bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_periods())
    # the first merge takes the hub, so every spoke's cached neighbour is gone
    @example(spokes(20))
    # (1, 3) and (0, 2) share no row, but the cluster {1, 3} is nearer to
    # row 4 than row 0 is to row 2, so (4, 5) comes between them
    @example(np.array([[0.5], [-0.4], [0.3], [-0.5], [-0.3]]))
    # after (0, 2), the new cluster 5 is as near to row 1 as row 3 is to
    # row 4, and (1, 5) wins the tie
    @example(np.array([[0, 0, 0], [-0.5, 1, 0.5], [1, 0, 0], [10, 10, 10], [11, 11, 11]]))
    # the tie rule's known defect (TestOracleEquivalence): the same merges
    @example(TIE_RULE_DEFECT)
    def test_tie_heavy(self, rows):
        assert_same_merges(ward_linkage(rows), dense_ward(rows))

    def test_synthetic_year(self):
        rows = synthetic_year()
        assert_same_merges(ward_linkage(rows), dense_ward(rows))

    def test_long_tie_heavy_input(self):
        # 350 rows from a pool of 20: in several passes the candidate window
        # ends inside a run of equal cached distances
        rows = grid_with_repeats(350, 0)
        assert_same_merges(ward_linkage(rows), dense_ward(rows))

    # on the tie-heavy rows, new clusters tie with later merges at cost 0
    @pytest.mark.parametrize("make_rows", [synthetic_year, lambda: grid_with_repeats(350, 0)],
                             ids=["synthetic-year", "tie-heavy"])
    def test_merges_in_batches(self, make_rows, monkeypatch):
        # one _merge_batch call per pass of the merge loop
        passes = []

        def counted(*args):
            passes.append(1)
            return merge_batch(*args)

        merge_batch = hierarchy._merge_batch
        monkeypatch.setattr(hierarchy, "_merge_batch", counted)
        rows = make_rows()
        ward_linkage(rows)
        assert 0 < len(passes) < len(rows) / 3


class TestMemory:
    def test_peak_is_one_square_matrix(self, monkeypatch):
        n = 730
        rows = np.random.default_rng(11).standard_normal((n, 72))
        for _ in each_worker_count(monkeypatch):
            tracemalloc.start()
            try:
                ward_linkage(rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 8 * n * n

    def test_available_memory_reads_meminfo(self, tmp_path, monkeypatch):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:        8211520 kB\n"
                           "MemFree:         6676480 kB\n"
                           "MemAvailable:    7363328 kB\n")
        monkeypatch.setattr("tsagg.hierarchy.MEMINFO", str(meminfo))
        assert available_memory() == 7363328 * 1024

    @pytest.mark.parametrize("meminfo", [None, "MemTotal: 8211520 kB\n"],
                             ids=["no-meminfo", "no-MemAvailable"])
    def test_available_memory_falls_back_to_free_pages(self, tmp_path, monkeypatch,
                                                      meminfo):
        path = tmp_path / "meminfo"
        if meminfo is not None:
            path.write_text(meminfo)
        monkeypatch.setattr("tsagg.hierarchy.MEMINFO", str(path))
        pages = {"SC_AVPHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr("os.sysconf", pages.__getitem__)
        assert available_memory() == 4096000

    def test_available_memory_unknown(self, tmp_path, monkeypatch):
        def no_sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr("tsagg.hierarchy.MEMINFO", str(tmp_path / "meminfo"))
        monkeypatch.setattr("os.sysconf", no_sysconf)
        assert available_memory() is None

    def test_matrix_beyond_free_memory_is_config_error(self, monkeypatch):
        # 8 * 25^2 bytes fit in 5,000; 8 * 26^2 do not
        monkeypatch.setattr("tsagg.hierarchy.available_memory", lambda: 5_000)
        ward_linkage(np.zeros((25, 1)))
        with pytest.raises(ConfigError, match="needs"):
            ward_linkage(np.zeros((26, 1)))


def tie_heavy_sixty():
    """60 rows: 12 integer 0..2 rows of 3 columns, each 5 times, shuffled."""
    rng = np.random.default_rng(12)
    pool = rng.integers(0, 3, (12, 3)).astype(np.float64)
    return pool[rng.permutation(np.repeat(np.arange(12), 5))]


class TestCut:
    def test_tie_heavy_every_k(self):
        linkage = ward_linkage(tie_heavy_sixty())
        merges = merge_list(linkage)
        for k in range(1, 61):
            assignment, nodes = linkage.cut(k)
            expected = naive_cut(60, merges, k)
            np.testing.assert_array_equal(assignment, expected)
            assert nodes.size == k

    def test_nodes_every_k(self):
        linkage = ward_linkage(tie_heavy_sixty())
        merges = merge_list(linkage)
        for k in range(1, 61):
            np.testing.assert_array_equal(linkage.cut(k)[1], naive_nodes(60, merges, k))
        # singletons are their sample ids; the last merge's cluster is 2n - 2
        np.testing.assert_array_equal(linkage.cut(60)[1], np.arange(60))
        assert linkage.cut(1)[1].tolist() == [118]


class TestLinkageProperties:
    def test_run_to_completion_has_n_minus_1_merges(self):
        linkage = ward_linkage(np.random.default_rng(0).standard_normal((12, 3)))
        assert linkage.ids.shape == (11, 2)
        assert linkage.costs.shape == linkage.sizes.shape == (11,)

    def test_unconstrained_costs_non_decreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            linkage = ward_linkage(rng.standard_normal((15, 2)))
            costs = linkage.costs.tolist()
            assert all(c1 <= c2 * (1 + 1e-12) for c1, c2 in zip(costs, costs[1:]))

    def test_determinism(self):
        samples = np.random.default_rng(2).standard_normal((20, 4))
        a = ward_linkage(samples.copy())
        b = ward_linkage(samples.copy())
        assert_same_merges(a, (b.ids, b.costs, b.sizes))
        for got, want in zip(a.cut(5), b.cut(5)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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
            coarse, _ = linkage.cut(k)
            fine, _ = linkage.cut(k + 1)
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


def medoid_periods(values, assignment):
    """Per cluster, the period index whose row ``represent`` picks as medoid.

    The periods are one step of one attribute each, left unscaled; the
    values are distinct, so a row names its period.
    """
    periods = np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)
    profiles = represent(periods, np.asarray(assignment), "medoid").ravel()
    return [int(np.flatnonzero(periods.ravel() == p)[0]) for p in profiles]


class TestMedoid:
    """The medoid of ``represent``: the member with the smallest distance sum."""

    def test_singleton(self):
        assert medoid_periods([1.0, 2.0, 9.0, 4.0], [0, 0, 0, 1])[1] == 3

    def test_three_member_example(self):
        assert medoid_periods([0.0, 1.0, 10.0], [0, 0, 0]) == [1]

    def test_tie_goes_to_lowest_index(self):
        # symmetric around 1.5: indices 1 and 2 have equal distance sums
        assert medoid_periods([0.0, 1.0, 2.0, 3.0], [0, 0, 0, 0]) == [1]


class TestSqDistances:
    """Each test runs the kernel with 1, 2 and 3 workers."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (200, 72), (1460, 72)])
    def test_matches_cdist_on_random_rows(self, shape, monkeypatch):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = 3.1 * np.random.default_rng(shape[0]).standard_normal(shape)
        expected = cdist(x, x, "sqeuclidean")
        for _ in each_worker_count(monkeypatch):
            assert sq_distances(x).tobytes() == expected.tobytes()

    def test_matches_cdist_on_integer_grids(self, monkeypatch):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = np.random.default_rng(9).integers(0, 3, (300, 24)).astype(np.float64)
        expected = cdist(x, x, "sqeuclidean")
        for _ in each_worker_count(monkeypatch):
            assert sq_distances(x).tobytes() == expected.tobytes()

    def test_matches_column_order_reference(self, monkeypatch):
        # runs without scipy: the definition, summed in the same order
        x = np.random.default_rng(10).standard_normal((50, 30))
        expected = sq_distance_matrix(x)
        for _ in each_worker_count(monkeypatch):
            assert sq_distances(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpu_count", [None, 3])
    def test_without_affinity_mask(self, monkeypatch, cpu_count):
        # the CPU count stands in; None means unknown, so one worker
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        started = record_threads(monkeypatch)
        # differences for 3 workers, in 10 blocks
        x = np.random.default_rng(13).standard_normal((600, 72))
        assert sq_distances(x).tobytes() == sq_distance_matrix(x).tobytes()
        assert len(started) == (cpu_count or 1) - 1

    def test_small_input_starts_no_thread(self, monkeypatch):
        # 72 columns: the most rows whose differences do not fill two
        # workers, and one more
        use_cpus(monkeypatch, 3)
        started = record_threads(monkeypatch)
        n = 1
        while 72 * (n + 1) * (n + 2) // 2 < 2 * hierarchy.THREAD_MIN_DIFFERENCES:
            n += 1
        rng = np.random.default_rng(16)
        for rows in (31, n):
            x = rng.standard_normal((rows, 72))
            assert sq_distances(x).tobytes() == sq_distance_matrix(x).tobytes()
        assert started == []
        x = rng.standard_normal((n + 1, 72))
        assert sq_distances(x).tobytes() == sq_distance_matrix(x).tobytes()
        assert len(started) == 1


def constant_columns(kind):
    """150 rows of 8 columns, some of them constant; "nearly" is constant
    but for one row, so dropping it would change the distances."""
    x = np.random.default_rng(17).standard_normal((150, 8))
    if kind in ("first", "middle", "last"):
        x[:, {"first": 0, "middle": 4, "last": -1}[kind]] = 2.5
    elif kind == "all":
        x[:] = x[0]
    elif kind == "signed-zero":
        x[:, 3] = 0.0
        x[::3, 3] = -0.0
    elif kind == "one-varying":
        x[:, 1:] = 1.5
    elif kind == "nearly":
        x[:, 2] = 1.0
        x[77, 2] = 3.0
        x[:, 5] = 0.0
    return x


class TestConstantColumns:
    """Dropping the constant columns keeps every bit, on 1, 2 and 3 workers."""

    @pytest.fixture(autouse=True)
    def every_call_threads(self, monkeypatch):
        # 150 rows make 3 blocks; each may go to its own worker
        monkeypatch.setattr(hierarchy, "THREAD_MIN_DIFFERENCES", 1)

    @pytest.mark.parametrize("kind", ["first", "middle", "last", "all", "signed-zero",
                                      "one-varying", "nearly"])
    def test_matches_reference(self, kind, monkeypatch):
        x = constant_columns(kind)
        expected = sq_distance_matrix(x)
        for _ in each_worker_count(monkeypatch):
            assert sq_distances(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["first", "all", "signed-zero", "nearly"])
    def test_matches_cdist(self, kind, monkeypatch):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = constant_columns(kind)
        expected = cdist(x, x, "sqeuclidean")
        for _ in each_worker_count(monkeypatch):
            assert sq_distances(x).tobytes() == expected.tobytes()


def grid_with_repeats(n_rows, seed):
    """n_rows integer 0..2 rows of 3 columns, drawn from 20 with repeats."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 3, (20, 3)).astype(np.float64)
    return pool[rng.integers(0, 20, n_rows)]


class TestFirstNeighbours:
    """The neighbours the kernel hands the linkage keep the tie rule."""

    @pytest.mark.parametrize("rows", [tie_heavy_sixty(), grid_with_repeats(200, 19),
                                      grid_with_repeats(150, 20)],
                             ids=["tie-heavy-sixty", "grid-200", "grid-150"])
    def test_first_minimum_among_larger_indices(self, rows, monkeypatch):
        monkeypatch.setattr(hierarchy, "THREAD_MIN_DIFFERENCES", 1)
        want_d, want_r = first_neighbours(sq_distance_matrix(rows))
        # the workers fill one pair of neighbour arrays; switch threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in each_worker_count(monkeypatch):
                _, near_d, near_r = sq_distances(rows, nearest=True)
                assert near_d.tolist() == want_d
                assert near_r[:-1].tolist() == want_r[:-1]
        finally:
            sys.setswitchinterval(interval)
