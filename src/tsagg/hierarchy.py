"""Deterministic agglomerative Ward clustering of whole periods.

Sample distance is the summed squared attribute difference,
d(i, j) = sum_a (x[i, a] - x[j, a])^2; cluster distances evolve by the
Lance-Williams recurrence for Ward's minimum-variance criterion, so for two
singletons the merge cost equals d(i, j) and in general it is proportional
to the within-cluster variance increase of the merge. Unconstrained Ward
costs never decrease between consecutive merges. (Time steps inside a
period are merged by the chain routine in the segmentation module.)

Determinism: cluster ids are 0..n-1 for the input samples and n+m for the
cluster created by merge m. Among equal-cost candidate merges the pair
with the lexicographically smallest (id_a, id_b), id_a < id_b, wins. The
rule compares costs as computed: the Lance-Williams update rounds, so two
merges whose exact costs tie can differ in the last bit, and the smaller
computed cost then wins over the smaller ids (``TIE_RULE_DEFECT`` in the
hierarchy tests is such an input, a strict expected failure). The merges
are three arrays, the (id_a, id_b) pairs, the costs and the sizes of the
new clusters, and ``cut`` replays the first pairs into a partition.

The period linkage is Müllner's generic algorithm ("Modern hierarchical,
agglomerative clustering algorithms", arXiv:1109.2378). It stores each
pairwise distance once, the upper triangle of the distance matrix with its
diagonal, whose rows the merged clusters reuse, so it needs 4 n (n + 1)
bytes; a run that would not fit in available memory fails with a
ConfigError first. Each row caches its nearest cluster among larger ids.
Each pass of the merge loop applies the run of merges it can prove come
next, about 50 passes for a year of days: each merge is the (cost, id_a,
id_b) minimum at its step, and each distance the expression of one merge
at a time on the same operands, so the bits are those of merging one pair
at a time. The time is O(n^2) when few rows share a neighbour and O(n^3)
at worst, when equal distances end every pass after one merge. The
distance kernel is described at ``sq_distances``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError, DataError, check_count


def cut(ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Partition into k clusters by replaying the first n - k merges of ids.

    ids is the (n - 1, 2) merge array ``ward_linkage`` returns. Returns
    (assignment, nodes): sample i is in cluster assignment[i], numbered
    0..k-1 by first appearance in sample order, and nodes[c] is cluster c's
    node in the merge history, its sample id for a singleton or n + m for
    the cluster born in merge m. Sizes: np.bincount(assignment). ids that
    are not an (m, 2) integer array are a DataError.
    """
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu" or ids.ndim != 2 or ids.shape[1] != 2:
        raise DataError(f"ids of dtype {ids.dtype} and shape {ids.shape} "
                        "are not an (m, 2) integer array")
    n = ids.shape[0] + 1
    n_merges = n - check_count(k, "k", n)
    parent = np.arange(n + n_merges)
    parent[ids[:n_merges]] = np.arange(n, n + n_merges)[:, None]
    # pointer jumping: each pass doubles the span every pointer covers
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    # label clusters 0..k-1 in order of first appearance
    roots, first_seen, inverse = np.unique(parent[:n], return_index=True,
                                           return_inverse=True)
    by_appearance = np.argsort(first_seen)
    label = np.empty(k, dtype=np.int64)
    label[by_appearance] = np.arange(k)
    return label[inverse], roots[by_appearance]


# the most candidates a pass of the merge loop takes from the front of its
# sorted rows. On a shared two-CPU VM (medians of 7 and 2 interleaved
# runs), 16, 32, 48 and 96 took 122, 114, 118 and 119 ms to link 1,095
# periods and 2.9, 2.4, 2.4 and 2.8 s for 8,760; every active row as a
# candidate took 119 ms and 2.9 s
CANDIDATES = 48


def sq_distances(samples: np.ndarray):
    """Squared Euclidean distances between all rows, each stored once.

    Returns (tri, base, near_d, near_r). tri holds the upper triangle of the
    (n, n) distance matrix with its diagonal, n (n + 1) / 2 values row after
    row, so row r holds columns r..n-1, and _position(base, r, c) is where
    the distance of rows r and c sits, in either order. near_d and near_r
    are the rows' first neighbours, the (distance, index) of the first
    minimum among larger indices, with an infinite distance for the last
    row.

    Each entry sums the squared attribute differences in column order, the
    order of scipy's ``cdist(..., "sqeuclidean")``, so the two agree bit for
    bit. A column that holds one finite value in all rows (compared with
    ``==``, so 0.0 and -0.0 are one value) is left out: it adds +0.0 to each
    sum, and a sum of squares, never -0.0, is unchanged by that.

    Rows go in blocks of 64 through two buffers of 64 n values. A block
    squares each column's differences from its rows' own index on into one
    buffer and adds them to the other, so each entry accumulates in column
    order, then writes each row's segment into the triangle. Its broadcasts
    are fastest under the buffer ``ward_linkage`` sets; the bits are the same.
    """
    n = samples.shape[0]
    keep = ~((samples == samples[:1]).all(axis=0) & np.isfinite(samples[0]))
    columns = np.ascontiguousarray(samples[:, keep].T)
    r = np.arange(n)
    base = r * (2 * n - r - 1) // 2  # row r starts at base[r] + r
    tri = np.empty(n * (n + 1) // 2)
    near_d, near_r = np.empty(n), np.empty(n, dtype=np.int64)
    rows = min(64, n)
    below = np.tri(rows, dtype=bool)  # a row's own index and those below it
    # sized for the first block, the widest
    sums, squares = np.empty(rows * n), np.empty(rows * n)
    for i in range(0, n, rows):
        b = min(rows, n - i)
        acc = sums[:b * (n - i)].reshape(b, n - i)
        diff = squares[:acc.size].reshape(acc.shape)
        acc.fill(0.0)
        for column in columns:
            np.subtract(column[i:i + b, None], column[i:], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(acc, diff, out=acc)
        start = int(base[i]) + i
        for j in range(b):  # row i + j's segment, columns i + j..n-1
            tri[start:start + n - i - j] = acc[j, j:]
            start += n - i - j
        acc[:, :b][below[:b, :b]] = np.inf
        k = acc.argmin(axis=1)
        near_r[i:i + b] = i + k
        near_d[i:i + b] = acc[np.arange(b), k]
    return tri, base, near_d, near_r


def _position(base, r, c):
    """Where the distance of rows r and c sits in the triangle, either order.

    Row r starts at base[r] + r, so (r, c) with c >= r sits at base[r] + c;
    for c > r the other candidate, base[c] + r, is never smaller.
    """
    pos = base[c] + r
    return np.minimum(pos, base[r] + c, out=pos)


MEMINFO = "/proc/meminfo"


def available_memory() -> int | None:
    """Memory available to a new allocation in bytes, or None if unknown.

    That is the kernel's MemAvailable estimate where meminfo gives one: free
    pages plus the page cache it can reclaim. Elsewhere it is the free page
    count times the page size.
    """
    try:
        with open(MEMINFO) as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def ward_linkage(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full merge history of the samples as three arrays (ids, costs, sizes).

    n samples take n - 1 merges. Merge m joins the clusters
    ids[m] = (id_a, id_b), id_a < id_b, at cost costs[m] into the cluster
    n + m of sizes[m] samples; ``cut`` partitions it at any cluster count.

    Non-finite samples are a DataError, and so are those for which 4 n^2 R,
    R the sum of the columns' (max - min)^2, is not finite. Below that bound
    nothing overflows: a squared distance is at most R; a merge cost,
    2|A||B|/(|A| + |B|) times the squared distance of centroids in the
    samples' bounding box, at most n R; a Lance-Williams term, a size of at
    most n times a cost, n^2 R, and a sum of two 2 n^2 R, half the bound.
    It runs under numpy's smallest buffer, as numpy copies broadcast rows shorter
    than its buffer: several times slower in the kernel, half as fast in the passes.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    if not np.all(np.isfinite(samples)):
        raise DataError("samples contain non-finite values")
    n = samples.shape[0]
    if n == 0:
        raise DataError("no samples to cluster")
    with np.errstate(over="ignore"):
        bound = 4.0 * n * n * np.square(samples.max(axis=0) - samples.min(axis=0)).sum()
    if not np.isfinite(bound):
        raise DataError("squared distances or merge costs could overflow; rescale the samples")
    needed, free = 4 * n * (n + 1), available_memory()
    if free is not None and needed > free:
        raise ConfigError(
            f"clustering {n} periods needs {needed / 1e6:.1f} MB for the "
            f"pairwise distances, but only {free / 1e6:.1f} MB of memory is available")
    buffer_size = np.setbufsize(16)
    try:
        return _generic_ward(samples)
    finally:
        np.setbufsize(buffer_size)


def _generic_ward(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Müllner's generic algorithm, a pass of provable merges at a time.

    ``_merge_batch`` decides each pass; the loop applies its merges, writes
    the new clusters' distances and updates the cached neighbours. Rows
    whose neighbour merged rescan once a pass.
    """
    n = samples.shape[0]
    # one row per active cluster; the cluster born in a merge takes over
    # the row of id_a. Per row: its cluster id, size and cached neighbour,
    # the (distance, row) of the smallest (distance, id) among larger ids.
    tri, base, near_d, near_r = sq_distances(samples)
    row_id = np.arange(n)
    size = np.ones(n)
    order = np.arange(n)  # active rows in increasing id order
    merged = np.zeros(n, dtype=bool)

    ids = np.empty((n - 1, 2), dtype=np.int64)
    costs, sizes = np.empty(n - 1), np.empty(n - 1, dtype=np.int64)
    step = 0
    while step < n - 1:
        a, b, cost, new_d, new_new = _merge_batch(tri, base, size, row_id, order, near_d, near_r)
        done = slice(step, step + a.size)
        ids[done, 0], ids[done, 1] = row_id[a], row_id[b]
        costs[done] = cost
        size[a] += size[b]
        sizes[done] = size[a]
        row_id[a] = n + np.arange(step, step + a.size)
        step += a.size

        merged[a] = merged[b] = True
        stays = np.flatnonzero(~merged[order])
        rest, new_d = order[stays], new_d.take(stays, axis=1)
        low = np.isfinite(new_new)  # below the diagonal, under the overflow bound
        tri[_position(base, a[:, None], rest)] = new_d
        tri[_position(base, a[:, None], a)[low]] = new_new[low]
        # a new cluster's neighbour is the first minimum among the later ones
        first = new_new.argmin(axis=0)
        near_d[a], near_r[a] = new_new[first, np.arange(a.size)], a[first]
        # rows whose neighbour merged rescan; the others take the first
        # minimum of their cached distance and the new clusters, in id order
        (at,) = np.nonzero(merged[near_r[rest]])
        merged[a] = False
        best = new_d.min(axis=0)
        closer = best < near_d[rest]
        nearer = rest[closer]
        near_d[nearer], near_r[nearer] = best[closer], a[new_d[:, closer].argmin(axis=0)]
        order = np.concatenate((rest, a))
        if at.size:
            # each row's candidates, the larger ids, follow it in ``order``:
            # one gather from the first row's, masked before each row
            rows, after = order[at], order[at[0] + 1:]
            scan = tri.take(_position(base, rows[:, None], after))
            scan[np.arange(after.size) < (at - at[0])[:, None]] = np.inf
            first = scan.argmin(axis=1)
            near_d[rows], near_r[rows] = scan[np.arange(rows.size), first], after[first]
    return ids, costs, sizes


def _merge_batch(tri, base, size, row_id, order, near_d, near_r):
    """The merges that provably come next, and the new clusters' distances.

    A pass takes the first CANDIDATES rows in (cached distance, id) order,
    each with its neighbour, up to the first whose neighbour merged earlier
    in the pass; a row that merged as a neighbour drops out. Merge t stands
    unless a pair with a cluster born earlier in the pass comes before it in
    the tie rule; every other pair comes after it, as a row whose neighbour
    merged can only move up.

    Returns the rows a and b of those merges, in order; their costs; the
    new clusters' distances to the rows of ``order``; and [u, s], the later
    cluster u's distance to s by merge u, inf unless s < u.
    """
    # ``order`` is in id order, so a stable sort is (cached distance, id)
    # order; the cap keeps out the last row, whose cached distance, inf, sorts last
    pos = np.argsort(near_d[order], kind="stable")[:min(CANDIDATES, order.size - 1)]
    a, b = order[pos], near_r[order[pos]]
    take, seen = [], set()
    for t, (row, neighbour) in enumerate(zip(a.tolist(), b.tolist())):
        if row in seen:  # merged as an earlier row's neighbour
            continue
        if neighbour in seen:  # its next pair is unknown until it rescans
            break
        seen.update((row, neighbour))
        take.append(t)
    a, b = a[take], b[take]
    # the merges' rows in ``order``: the rows a, then the rows b
    at = np.concatenate((pos[take], np.searchsorted(row_id[order], row_id[b])))

    # a's cached distance is the triangle's (a, b): every value near_d gets, the triangle gets
    d, si, sj = near_d[a][:, None], size[a][:, None], size[b][:, None]

    def update(d_a, d_b, nm):  # the expression of one merge at a time
        return ((si + nm) * d_a + (sj + nm) * d_b - nm * d) / ((si + sj) + nm)

    rows = tri.take(_position(base, np.concatenate((a, b))[:, None], order))
    new_d = update(rows[:a.size], rows[a.size:], size[order])
    # [u, s]: the later cluster u's distance to s, as merge u computes it
    t, taken = np.arange(a.size), np.full(order.size, a.size)
    to_a, to_b = new_d[:, at].T.reshape(2, a.size, -1)
    new_new = np.where(t[:, None] > t, update(to_a, to_b, (si + sj).T), np.inf)
    # a cluster s < t comes before merge t with a row no merge before t takes
    # (taken[j] >= t) or a new cluster u < t. New ids are the largest, so on
    # a tie only a row of smaller id than merge t's comes first, and no pair
    # after (last cost, largest merged row) does, which bounds equal distances
    taken[at.reshape(2, -1)] = t
    rival = new_d <= d[-1, 0]
    rival[:, at.max():] = new_d[:, at.max():] < d[-1, 0]
    s, j = np.divmod(np.flatnonzero(rival), order.size)
    cost = new_d[s, j][:, None]
    stops = (((cost < d[:, 0]) | (cost == d[:, 0]) & (j[:, None] < at[:a.size]))
             & (s[:, None] < t) & (t <= taken[j][:, None])).any(axis=0)
    stops |= ((new_new.min(axis=1)[:, None] < d[:, 0]) & (t[:, None] < t)).any(axis=0)
    count = np.append(stops, True).argmax()  # no pair comes before merge 0
    return a[:count], b[:count], d[:count, 0], new_d[:count], new_new[:count, :count]
