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
each cluster's distance matrix: small clusters take their distances in
chunks of one broadcast subtraction each, and a large cluster takes them
from the period linkage's distance kernel.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .hierarchy import sq_distances

REPRESENTATION_METHODS = ("centroid", "medoid", "distribution")


def represent(periods: np.ndarray, assignment: np.ndarray, method: str) -> np.ndarray:
    """One representative profile per cluster, (P, T, N_a) -> (k, T, N_a).

    assignment[i] is period i's cluster; every cluster 0..k-1 must have a
    member, as the clusters of a cut do.
    """
    if method not in REPRESENTATION_METHODS:
        raise ConfigError(
            f"unknown representation method {method!r}, expected one of {REPRESENTATION_METHODS}")
    if assignment.shape[0] != periods.shape[0]:
        raise DataError(
            f"assignment covers {assignment.shape[0]} periods, there are {periods.shape[0]}")
    sizes = np.bincount(assignment)
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
            best = _medoids(grouped.reshape(group.size, size, steps * n_attrs))
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


# the most differences a medoid takes in one broadcast chunk, 1 MB of them;
# a larger cluster calls the distance kernel. On a shared two-CPU VM (medians
# of 10-15 alternating unbounded medoid pathway searches), the kernel for
# every cluster took 132 and 502 ms at 365 and 1,095 days against 71 and
# 293 ms; bounds of 2^15 and 2^19 read within the spread of 2^17
MEDOID_BROADCAST = 1 << 17


def _medoids(rows):
    """Per cluster of (g, m, D) member rows, the first minimum of its distance sums.

    Each distance adds its columns in order, and each sum runs along a row
    of a C-contiguous matrix, as in the kernel and the oracle.
    """
    g, m, d = rows.shape
    if m * m * d > MEDOID_BROADCAST:
        return [sq_distances(r).sum(axis=1).argmin() for r in rows]
    columns, step = np.ascontiguousarray(rows.transpose(2, 0, 1)), MEDOID_BROADCAST // (m * m * d)
    best = []
    for c in range(0, g, step):
        diff = columns[:, c:c + step, :, None] - columns[:, c:c + step, None, :]
        diff *= diff
        best.extend(np.add.reduce(diff, axis=0).sum(axis=2).argmin(axis=1))
    return best
