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
with the lexicographically smallest (id_a, id_b), id_a < id_b, wins. A
Linkage keeps its merges as three arrays: the (id_a, id_b) pairs, the
costs and the sizes of the new clusters.

The period linkage is Müllner's generic algorithm ("Modern hierarchical,
agglomerative clustering algorithms", arXiv:1109.2378). It keeps one n x n
distance matrix, whose rows the merged clusters reuse, so it needs 8 n^2
bytes; a run that would not fit in available memory fails with a ConfigError
first. Each row caches its nearest cluster among larger ids; a merge scans
the n cached entries and rescans only the rows whose neighbour it merged.
The time is O(n^2) when few rows share a neighbour and O(n^3) at worst.

The distance kernel leaves out the columns that are constant in every row,
which add +0.0 to each sum, and sums the other columns' squared
differences one column after the other, the order of scipy's ``cdist``.
It fills the matrix in blocks of rows and, for the linkage, finds each
row's first neighbour in the same pass, so the merge loop starts from its
cached neighbours without another scan. A call of at least 2 *
THREAD_MIN_DIFFERENCES differences (about 480 periods of 72 values) runs
on every CPU the process may use, a smaller one on one CPU; the bits are
the same whatever their number. The same kernel takes a batch of
equal-sized groups, one matrix per group; the medoid representative sums
its rows.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True, eq=False)
class Linkage:
    """Deterministic merge history; cut at any cluster count it reached.

    n samples take n - 1 merges. Merge m joins the clusters
    ids[m] = (id_a, id_b), id_a < id_b, at cost costs[m] into the cluster
    n + m of sizes[m] samples.
    """

    ids: np.ndarray
    costs: np.ndarray
    sizes: np.ndarray

    def cut(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Partition into k clusters by replaying the first n - k merges.

        Returns (assignment, nodes): sample i is in cluster assignment[i],
        numbered 0..k-1 by first appearance in sample order, and nodes[c] is
        cluster c's node in the merge history, its sample id for a singleton
        or n + m for the cluster born in merge m. Sizes: np.bincount(assignment).
        """
        n = self.ids.shape[0] + 1
        if not 1 <= k <= n:
            raise ConfigError(f"k={k} out of range [1, {n}]")
        n_merges = n - k
        parent = np.arange(n + n_merges)
        parent[self.ids[:n_merges]] = np.arange(n, n + n_merges)[:, None]
        # pointer jumping: each pass doubles how far every pointer reaches
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


# the fewest differences a worker takes. Timed on a shared two-CPU VM
# (medians of 30-40 alternating calls, 72 random columns), a second worker
# lost at 300 rows (7.0 -> 7.4 ms), broke even near 500 and paid off from
# about 700 (24.6 -> 21.5 ms; 1,095 rows: 49 -> 36 ms), about 2 * 2^22
# differences; when the other CPU was busy it gained nothing below 1,460
THREAD_MIN_DIFFERENCES = 1 << 22


def sq_distances(samples: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all rows, (n, D) -> (n, n).

    A leading batch axis, (g, m, D) -> (g, m, m), gives each group its own
    matrix, every entry the expression of a call on that group alone.
    Each entry sums the squared attribute differences in column order, the
    order of scipy's ``cdist(..., "sqeuclidean")``, so the two agree bit for
    bit. A column that holds one finite value in all rows of each group
    (compared with ``==``, so 0.0 and -0.0 are one value) is left out: it
    adds +0.0 to each sum, and a sum of squares, never -0.0, is unchanged
    by that. The linkage calls the same kernel, which then also returns each
    row's first nearest neighbour among the larger indices. A call of fewer
    than 2 * THREAD_MIN_DIFFERENCES differences runs on one CPU. The
    kernel is described at ``_fill_distances``.
    """
    batched = samples.ndim == 3
    out, _ = _fill_distances(samples if batched else samples[None], nearest=False)
    return out if batched else out[0]


def _fill_distances(samples, nearest):
    """The (g, n, n) distances of ``sq_distances`` for (g, n, D) samples.

    Rows go in blocks of 64, each block across all groups. A block fills
    its part of the upper triangle, and the lower triangle is its mirror
    image. A block of at most 2^17 differences takes them all in one numpy
    call, squares them and adds them up over the column axis, which numpy
    accumulates one column after the other; the medoid's many small batched
    calls are faster that way. A larger block goes column by column: it
    squares the column's differences into a buffer and adds that to its
    sums, so each entry again accumulates in column order, the buffers stay
    small, and every numpy call releases the GIL, so the workers overlap.
    Numpy's iterator would copy a broadcast operand through its buffer
    whenever a block row is shorter than that buffer, which makes the
    subtraction several times slower; there the kernel shrinks the buffer
    to the smallest size numpy takes.

    The W workers are the CPUs the process may use, at most one per block
    and one per THREAD_MIN_DIFFERENCES differences the call computes, and
    at least one. Worker w takes blocks w, w + W, ..., as the early blocks
    are the widest, into buffers of its own. Every entry is the same
    expression whichever worker computes it, so the bits do not depend on
    W. Helper threads run under the caller's ``np.geterr()``, and their
    exceptions are raised in the caller.

    With ``nearest`` and one group, each block also finds its rows' first
    neighbours: the (distance, index) of the first minimum among larger
    indices, with an infinite distance for the last row. Returns the
    distances and those two arrays, or None for them.
    """
    g, n, _ = samples.shape
    keep = ~((samples == samples[:, :1]).all(axis=(0, 1))
             & np.isfinite(samples[:, 0]).all(axis=0))
    keep[0] |= not keep.any()
    columns = np.ascontiguousarray(samples[:, :, keep].transpose(2, 0, 1))
    n_cols = columns.shape[0]
    out = np.empty((g, n, n))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    rows = min(64, n)
    starts = range(0, n, rows)
    workers = max(1, min(cpus, len(starts),
                         n_cols * g * n * (n + 1) // 2 // THREAD_MIN_DIFFERENCES))
    if nearest:
        near_d, near_r = np.empty(n), np.empty(n, dtype=np.int64)
        # a row's own index and those below it are no candidates
        below = np.tri(rows, dtype=bool)
    # a new thread starts with numpy's default error settings, and threading
    # only prints an uncaught exception, which would leave blocks unfilled
    settings, errors = np.geterr(), []

    def fill(worker):
        try:
            # the first block is the widest: a worker needs a buffer for
            # one column's squares only if that block goes column by column
            sums = np.empty(g * rows * n)
            squares = np.empty(g * rows * n) if n_cols * g * rows * n > 1 << 17 else None
            with np.errstate(**settings):
                for i in starts[worker::workers]:
                    b = min(rows, n - i)
                    size, shape = g * b * (n - i), (g, b, n - i)
                    acc = sums[:size].reshape(shape)
                    if n_cols * size <= 1 << 17:
                        # the reduction adds the columns in order; it pairs
                        # terms only in a one-entry block, a diagonal zero
                        work = np.empty((n_cols,) + shape)
                        np.subtract(columns[:, :, i:i + b, None], columns[:, :, None, i:],
                                    out=work)
                        np.multiply(work, work, out=work)
                        np.add.reduce(work, axis=0, out=acc)
                    else:
                        _column_by_column(columns, i, acc, squares[:size].reshape(shape))
                    out[:, i:i + b, i:] = acc
                    out[:, i:, i:i + b] = acc.transpose(0, 2, 1)
                    if nearest:
                        acc = acc[0]
                        acc[:, :b][below[:b, :b]] = np.inf
                        k = acc.argmin(axis=1)
                        near_r[i:i + b] = i + k
                        near_d[i:i + b] = acc[np.arange(b), k]
        except BaseException as exc:  # raised in the caller below
            errors.append(exc)

    helpers = [threading.Thread(target=fill, args=(w,)) for w in range(1, workers)]
    for thread in helpers:
        thread.start()
    fill(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return out, ((near_d, near_r) if nearest else None)


def _column_by_column(columns, i, acc, diff):
    """Sum the squared column differences of rows i.. into acc, (g, b, m)."""
    b = acc.shape[1]
    acc.fill(0.0)
    buffer_size = np.setbufsize(16)
    try:
        for column in columns:
            np.subtract(column[:, i:i + b, None], column[:, None, i:], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(acc, diff, out=acc)
    finally:
        np.setbufsize(buffer_size)


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


def ward_linkage(samples: np.ndarray) -> Linkage:
    """Build the full merge history (n - 1 merges) for the given samples.

    Samples that are not finite, or whose squared distances or merge costs
    overflow the float range, are a DataError.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    if not np.all(np.isfinite(samples)):
        raise DataError("samples contain non-finite values")
    n = samples.shape[0]
    if n == 0:
        raise DataError("no samples to cluster")
    needed, free = 8 * n * n, available_memory()
    if free is not None and needed > free:
        raise ConfigError(
            f"clustering {n} periods needs {needed / 1e6:.1f} MB for the "
            f"distance matrix, but only {free / 1e6:.1f} MB of memory is available")
    # an overflow would turn distances into inf and the merges into
    # self-merges, so any overflow rejects the samples
    try:
        with np.errstate(over="raise"):
            return Linkage(*_generic_ward(samples))
    except FloatingPointError:
        raise DataError("squared distances or merge costs between the "
                        "samples overflow; rescale them") from None


def _generic_ward(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Müllner's generic algorithm on the cached nearest neighbours."""
    n = samples.shape[0]
    # one row per active cluster; the cluster born in a merge takes over
    # the row of id_a. Per row: its cluster id, size and cached neighbour,
    # the (distance, row) of the smallest (distance, id) among larger ids.
    dist, (near_d, near_r) = _fill_distances(samples[None], nearest=True)
    dist = dist[0]
    row_id = np.arange(n)
    size = np.ones(n)
    order = np.arange(n)  # active rows in increasing id order

    ids = np.empty((n - 1, 2), dtype=np.int64)
    costs, sizes = np.empty(n - 1), np.empty(n - 1, dtype=np.int64)
    merge_a, merge_b = ids.T
    for step in range(n - 1):
        k = int(near_d[order].argmin())
        i = order[k]
        j = near_r[i]
        merge_a[step], merge_b[step] = row_id[i], row_id[j]
        costs[step], sizes[step] = dist[i, j], size[i] + size[j]

        keep = order != j
        keep[k] = False
        order = order[keep]
        nm = size[order]
        new_d = ((size[i] + nm) * dist[i, order]
                 + (size[j] + nm) * dist[j, order]
                 - nm * dist[i, j]) / (size[i] + size[j] + nm)
        dist[i, order] = new_d
        dist[order, i] = new_d
        size[i] += size[j]
        row_id[i] = n + step
        # rows whose neighbour merged rescan, which overwrites what the
        # comparison writes there; the others compare with the new id, the
        # largest, so on equal distance the cached id stays
        neighbour = near_r[order]
        lost = (neighbour == i) | (neighbour == j)
        closer = new_d < near_d[order]
        nearer = order[closer]
        near_d[nearer] = new_d[closer]
        near_r[nearer] = i
        rescan = order[lost]
        order = np.concatenate((order, [i]))
        near_d[i] = np.inf
        if rescan.size:
            # each rescanned row's candidates, the larger ids, end ``order``
            # and include the new cluster; the first minimum is the
            # smallest id
            starts = np.searchsorted(row_id[order], row_id[rescan], side="right")
            for r, start in zip(rescan.tolist(), starts.tolist()):
                after = order[start:]
                row = dist[r].take(after)
                first = row.argmin()
                near_d[r], near_r[r] = row[first], after[first]
    return ids, costs, sizes
