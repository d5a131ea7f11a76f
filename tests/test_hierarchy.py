import hashlib
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
    merge_list,
    periods_of,
    segment_one,
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


def triangle(matrix):
    """The bytes of a square matrix's upper triangle with its diagonal, row after row."""
    return matrix[np.triu_indices(len(matrix))].tobytes()


def distances(x):
    """The bytes of the kernel's stored distances of the rows of x."""
    return sq_distances(x)[0].tobytes()


def record_threads(monkeypatch):
    """The threads started from now on, in a list."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def record_calls(monkeypatch, module, name):
    """The first arguments of the calls of module.name from now on, in a list."""
    calls, function = [], getattr(module, name)

    def recorded(first, *args):
        calls.append(first)
        return function(first, *args)

    monkeypatch.setattr(module, name, recorded)
    return calls


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
        # 500 rows of 72 columns make 8 blocks of 64 rows, and only the pair
        # (70, 300), across blocks 1 and 4, overflows. The bound rejects the
        # samples before any distance is computed.
        x = np.random.default_rng(14).standard_normal((500, 72))
        x[70, 0], x[300, 0] = 1e154, -1e154
        calls = record_calls(monkeypatch, hierarchy, "sq_distances")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow"):
                ward_linkage(x)
        assert calls == []


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                linkage = ward_linkage(scaled_to_bound(x, 0.999))
        assert np.isfinite(linkage.costs).all()

    @settings(max_examples=150, deadline=None)
    @given(spread_samples())
    def test_rejected_outside_the_bound_before_any_thread(self, x):
        with pytest.MonkeyPatch.context() as mp:
            calls = record_calls(mp, hierarchy, "sq_distances")
            with pytest.raises(DataError, match="overflow"):
                ward_linkage(scaled_to_bound(x, 1.001))
        assert calls == []


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


def benchmark_frame(days, seed):
    """(days * 24, 3) hourly solar, wind and load, seeded as perfbench seeds its inputs."""
    s_solar, s_wind, s_load = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    return np.column_stack([solar_profile(days, s_solar), wind_profile(days, s_wind),
                            load_profile(days, s_load)])


# sha256 of ids, costs and sizes, one after the other, per (days, seed, normalization)
LINKAGE_DIGESTS = {
    (365, 0, "minmax"): "1dab126a61588971e39d2b4c2bae4f670ef93189fc19b0ee43af89799f5a9b43",
    (365, 0, "znorm"): "09ed2da57b613cb4a88b1745afd087f3a94aceb2bccf89169a38a914262b8f3b",
    (365, 1, "minmax"): "13dc716f5d71ea4166e76b54aa0463e3da9cf6f6e56bfd69b16d4217756cf51c",
    (365, 1, "znorm"): "ff3c0e5269114bb69716381cbed7377a586e8f78e5f15af629451bd1326eb1a1",
    (1095, 0, "minmax"): "b2fecb5a86874bacaf5ff9576fbcdb34b378d236192bd23f1922eb5aff6bede0",
    (1095, 0, "znorm"): "b3167da7acece9199f798de515a73c2d548d05318a79b29931b13cb333b5586b",
    (1095, 1, "minmax"): "a77ae9d5891917bcf272ebd6e8b1531e00eafb11edb1ef681e54a3adc11c2ace",
    (1095, 1, "znorm"): "e596594ee17e5259594ecf1e699acbea4fd72b205febaa00b65352ef9b2a4f98",
}


class TestPinnedMerges:
    """The period linkage of the benchmark's inputs keeps its bits."""

    @pytest.mark.parametrize("days, seed, norm", sorted(LINKAGE_DIGESTS))
    def test_digest(self, days, seed, norm):
        rows = periods_of(benchmark_frame(days, seed), 24, norm).reshape(days, -1)
        linkage = ward_linkage(rows)
        digest = hashlib.sha256()
        for merges in (linkage.ids, linkage.costs, linkage.sizes):
            digest.update(merges.tobytes())
        assert digest.hexdigest() == LINKAGE_DIGESTS[days, seed, norm]


class TestTriangle:
    def test_position_is_the_row_major_index(self):
        # every (r, c), both orders, at the index of the upper triangle's
        # row-major order that np.triu_indices gives
        for n in range(1, 41):
            base = sq_distances(np.zeros((n, 1)))[1]
            index = np.empty((n, n), dtype=np.int64)
            upper = np.triu_indices(n)
            index[upper] = index[upper[::-1]] = np.arange(upper[0].size)
            r, c = np.indices((n, n))
            assert (hierarchy._position(base, r, c) == index).all()


class TestSingleThread:
    def test_linkage_and_streamed_medoid_start_no_thread(self, monkeypatch):
        # a linkage of 1,460 x 72 rows, and one medoid cluster of 200
        # periods of 72 values, past the broadcast bound, so it splits into row blocks
        started = record_threads(monkeypatch)
        rng = np.random.default_rng(24)
        ward_linkage(rng.standard_normal((1460, 72)))
        represent(rng.standard_normal((200, 24, 3)), np.zeros(200, dtype=np.int64), "medoid")
        assert started == []


class TestMemory:
    def test_peak_is_one_square_matrix(self):
        # the stored triangle takes half of the bound, and at this size the
        # kernel's block buffers and the merge loop's row gathers stay within
        # the other half; a square matrix alone would fill it
        n = 1460
        rows = np.random.default_rng(11).standard_normal((n, 72))
        tracemalloc.start()
        try:
            ward_linkage(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

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
        # 4 * 34 * 35 bytes fit in 5,000; 4 * 35 * 36 do not
        monkeypatch.setattr("tsagg.hierarchy.available_memory", lambda: 5_000)
        ward_linkage(np.zeros((34, 1)))
        with pytest.raises(ConfigError, match="needs"):
            ward_linkage(np.zeros((35, 1)))


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

    def test_counts_must_be_integers(self):
        linkage = ward_linkage(tie_heavy_sixty())
        for k in (2.0, 2.5, "2"):
            with pytest.raises(ConfigError, match="is not an integer"):
                linkage.cut(k)
        for got, expected in zip(linkage.cut(np.int64(7)), linkage.cut(7)):
            np.testing.assert_array_equal(got, expected)


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
                lengths = segment_one(samples, k)[0][0]
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
    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (200, 72), (1460, 72)])
    def test_matches_cdist_on_random_rows(self, shape):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = 3.1 * np.random.default_rng(shape[0]).standard_normal(shape)
        assert distances(x) == triangle(cdist(x, x, "sqeuclidean"))

    def test_matches_cdist_on_integer_grids(self):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = np.random.default_rng(9).integers(0, 3, (300, 24)).astype(np.float64)
        assert distances(x) == triangle(cdist(x, x, "sqeuclidean"))

    def test_matches_column_order_reference(self):
        # runs without scipy: the definition, summed in the same order
        x = np.random.default_rng(10).standard_normal((50, 30))
        assert distances(x) == triangle(sq_distance_matrix(x))


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
    """Dropping the constant columns keeps every bit."""

    @pytest.mark.parametrize("kind", ["first", "middle", "last", "all", "signed-zero",
                                      "one-varying", "nearly"])
    def test_matches_reference(self, kind):
        x = constant_columns(kind)
        assert distances(x) == triangle(sq_distance_matrix(x))

    @pytest.mark.parametrize("kind", ["first", "all", "signed-zero", "nearly"])
    def test_matches_cdist(self, kind):
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        x = constant_columns(kind)
        assert distances(x) == triangle(cdist(x, x, "sqeuclidean"))


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
    def test_first_minimum_among_larger_indices(self, rows):
        want_d, want_r = first_neighbours(sq_distance_matrix(rows))
        near_d, near_r = sq_distances(rows)[2:]
        assert near_d.tolist() == want_d
        assert near_r[:-1].tolist() == want_r[:-1]
