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
The distance matrix is filled on every CPU the process may use, with the
same bits whatever their number. The same kernel takes a batch of
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

    Merge m joins the clusters ids[m] = (id_a, id_b), id_a < id_b, at cost
    costs[m] into the cluster n + m of sizes[m] samples.
    """

    n_samples: int
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
        n = self.n_samples
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


# the fewest differences a worker takes: timed on two CPUs, a second worker
# paid off from about 120 rows of 72 columns, 2 * 2^18 differences
THREAD_MIN_DIFFERENCES = 1 << 18


def sq_distances(samples: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all rows, (n, D) -> (n, n).

    A leading batch axis, (g, m, D) -> (g, m, m), gives each group its own
    matrix, every entry the expression of a call on that group alone.
    Each entry sums the squared attribute differences in column order, the
    order of scipy's ``cdist(..., "sqeuclidean")``, so the two agree bit for
    bit: the differences are laid out column-major and reduced over that
    outer axis, which numpy accumulates one column after the other. Rows go
    in blocks; each block fills its part of the upper triangle, and the
    lower triangle is its mirror image.

    The W workers are the CPUs the process may use, at most one per block
    and one per THREAD_MIN_DIFFERENCES differences the call computes, and
    at least one.
    Worker w takes blocks w, w + W, ..., as the early blocks are the widest.
    Each block holds about 128k / W differences, freed before the worker's
    next block, so the bytes in flight do not grow with W. Every entry is
    the same expression whichever worker computes it, so the bits do not
    depend on W. Helper threads run under the caller's ``np.geterr()``, and
    their exceptions are raised in the caller.
    """
    batched = samples.ndim == 3
    samples = samples if batched else samples[None]
    g, n, n_cols = samples.shape
    columns = np.ascontiguousarray(samples.transpose(2, 0, 1))
    out = np.empty((g, n, n))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(cpus, n_cols * g * n * (n + 1) // 2 // THREAD_MIN_DIFFERENCES))
    block = max(1, 131072 // (n_cols * g * n * workers))
    starts = range(0, n, block)
    workers = min(workers, len(starts))
    # a new thread starts with numpy's default error settings, and threading
    # only prints an uncaught exception, which would leave blocks unfilled
    settings, errors = np.geterr(), []

    def fill(worker):
        try:
            with np.errstate(**settings):
                for i in starts[worker::workers]:
                    diff = columns[:, :, i:i + block, None] - columns[:, :, None, i:]
                    diff *= diff
                    acc = diff.sum(axis=0)
                    del diff
                    out[:, i:i + block, i:] = acc
                    out[:, i:, i:i + block] = acc.transpose(0, 2, 1)
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
    return out if batched else out[0]


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


def _nearest(dist, rows, order, row_id):
    """Each row's lexicographically smallest (distance, id) among larger ids.

    ``order`` lists the active rows in increasing id order, so the first
    minimum of a row is the one with the smallest id. Rows go in blocks of
    about 128k cells. A row with no larger id gets an infinite distance.
    """
    col_id = row_id[order]
    near_d = np.empty(rows.size)
    near_r = np.empty(rows.size, dtype=np.int64)
    block = max(1, 131072 // order.size)
    for lo in range(0, rows.size, block):
        r = rows[lo:lo + block]
        sub = dist[r[:, None], order]
        sub[col_id <= row_id[r, None]] = np.inf
        k = sub.argmin(axis=1)
        near_d[lo:lo + block] = sub[np.arange(r.size), k]
        near_r[lo:lo + block] = order[k]
    return near_d, near_r


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
            return Linkage(n, *_generic_ward(samples))
    except FloatingPointError:
        raise DataError("squared distances or merge costs between the "
                        "samples overflow; rescale them") from None


def _generic_ward(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Müllner's generic algorithm on the cached nearest neighbours."""
    n = samples.shape[0]
    # one row per active cluster; the cluster born in a merge takes over
    # the row of id_a. Per row: its cluster id, size and cached neighbour,
    # the (distance, row) of the smallest (distance, id) among larger ids.
    dist = sq_distances(samples)
    row_id = np.arange(n)
    size = np.ones(n)
    order = np.arange(n)  # active rows in increasing id order
    near_d, near_r = _nearest(dist, order, order, row_id)

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
        near_d[order[closer]] = new_d[closer]
        near_r[order[closer]] = i
        rescan = order[lost]
        order = np.concatenate((order, [i]))
        near_d[i] = np.inf
        if rescan.size:
            near_d[rescan], near_r[rescan] = _nearest(dist, rescan, order, row_id)
    return ids, costs, sizes

