"""Turn each cluster of periods into a single representative profile.

Three methods are supported. Centroid takes the elementwise mean of the
member periods; medoid picks the member whose summed squared distance to
the others is smallest. The distribution method synthesizes a profile
whose value distribution matches the members': per attribute, all member
values are pooled and sorted descending (the cluster duration curve),
consecutive groups of |C_k| values are averaged down to one value per
time step, and those averages are placed at time steps in the rank order
of the centroid profile, so the largest group mean lands where the
centroid peaks. Sorting the result therefore reproduces the grouped
duration curve exactly, while the placement keeps the centroid's
chronology.

The input is the (P, T, N_a) period array and each period's cluster index
in [0, k); the output is one (k, T, N_a) array in normalized space. The
weights are the cluster sizes, ``np.bincount(assignment)``. Centroid ranks
are sorted descending and stable, ties resolving to the earlier time step;
medoid ties resolve to the lowest period index. Clusters of equal size are
computed together, one array pass per size. The medoid sums the rows of
each cluster's distance matrix in bounded chunks, of whole clusters or of
one cluster's rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

REPRESENTATION_METHODS = ("centroid", "medoid", "distribution")


def represent(periods: np.ndarray, assignment: np.ndarray, method: str) -> np.ndarray:
    """One representative profile per cluster, (P, T, N_a) -> (k, T, N_a).

    assignment[i] is period i's cluster; every cluster 0..k-1 must have a
    member, as the clusters of a cut do, else it is a DataError.
    """
    if method not in REPRESENTATION_METHODS:
        raise ConfigError(
            f"unknown representation method {method!r}, expected one of {REPRESENTATION_METHODS}")
    if assignment.shape[0] != periods.shape[0]:
        raise DataError(
            f"assignment covers {assignment.shape[0]} periods, there are {periods.shape[0]}")
    if np.any(assignment < 0):
        i = np.argmax(assignment < 0)
        raise DataError(f"period {i} has the negative cluster index {assignment[i]}")
    sizes = np.bincount(assignment)
    if not sizes.all():
        raise DataError(f"cluster {sizes.argmin()} has no member")
    steps, n_attrs = periods.shape[1:]
    # member period indices, ascending, cluster after cluster
    members = np.argsort(assignment, kind="stable")
    starts = np.cumsum(sizes) - sizes
    profiles = np.empty((sizes.size, steps, n_attrs))
    # the distinct sizes, ascending; np.unique(sizes) imports numpy.ma, 10 ms
    for size in np.flatnonzero(np.bincount(sizes)):
        group = np.flatnonzero(sizes == size)
        grouped = periods[members[starts[group, None] + np.arange(size)]]
        if method == "medoid":
            # the first minimum is the lowest period index, as members ascend
            best = _distance_sums(grouped.reshape(group.size, size, steps * n_attrs)).argmin(1)
            profiles[group] = grouped[np.arange(group.size), best]
            continue
        # reducing axis 1 sums the members in order, as a per-cluster mean does
        centroid = grouped.mean(axis=1)
        if method == "centroid":
            profiles[group] = centroid
            continue
        # per cluster and attribute, the pooled member values sorted
        # descending, then each run of |C_k| values reduced contiguously
        pooled = np.ascontiguousarray(
            grouped.reshape(group.size, size * steps, n_attrs).transpose(0, 2, 1))
        curve = -np.sort(-pooled, axis=2)
        group_means = curve.reshape(group.size, n_attrs, steps, size).mean(axis=3)
        order = np.argsort(-centroid, axis=1, kind="stable")
        placed = np.empty_like(centroid)
        np.put_along_axis(placed, order, group_means.transpose(0, 2, 1), axis=1)
        profiles[group] = placed
    return profiles


# the most differences a medoid chunk takes, 1 MB of them, counting only the
# columns that vary over the clusters of one size. On a shared two-CPU VM
# (medians of 300 interleaved calls) the 8-cluster medoid call of perfbench's
# cli-batch, clusters of 25-63 days, took 2.39, 2.19, 2.18, 2.27 and 2.22 ms
# at 2^15-2^19, whose chunk buffers peak at 0.33, 0.60, 1.14, 1.98 and 1.98 MB
MEDOID_BROADCAST = 1 << 17


def _distance_sums(rows):
    """Each member's summed squared distance to its cluster, (g, m, D) -> (g, m).

    A chunk holds whole clusters while one fits in MEDOID_BROADCAST
    differences, else a block of one cluster's rows. One broadcast
    subtraction, one square and one reduction over the columns give each
    distance its columns' sum in order, and each sum runs along one
    contiguous row of m distances, as the oracle's does. A column that holds
    one finite value in every row of the group adds +0.0 to each distance,
    so it is left out, as the kernel leaves it out, and does not count
    towards the bound. The chunks run under numpy's smallest buffer, as the
    kernel's subtraction does, for the same reason.
    """
    g, m, _ = rows.shape
    keep = ~((rows == rows[:1, :1]).all(axis=(0, 1)) & np.isfinite(rows[0, 0]))
    columns = np.ascontiguousarray(rows.transpose(2, 0, 1)[keep])
    # a singleton, or a size whose periods are all equal, varies in no column
    width = max(1, columns.shape[0]) * m  # the differences of one row
    clusters, block = min(g, MEDOID_BROADCAST // (width * m)), m
    if not clusters:  # a cluster above the bound goes in blocks of its rows
        clusters, block = 1, max(1, MEDOID_BROADCAST // width)
    sums = np.empty((g, m))
    squares = np.empty(columns.shape[0] * clusters * block * m)
    buffer_size = np.setbufsize(16)
    try:
        for c in range(0, g, clusters):
            chunk = columns[:, c:c + clusters]
            for i in range(0, m, block):
                part = chunk[:, :, i:i + block, None]
                diff = squares[:part.size * m].reshape(part.shape[:3] + (m,))
                np.subtract(part, chunk[:, :, None, :], out=diff)
                np.multiply(diff, diff, out=diff)
                np.add.reduce(diff, axis=0).sum(axis=2, out=sums[c:c + clusters, i:i + block])
    finally:
        np.setbufsize(buffer_size)
    return sums
