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
with the lexicographically smallest (id_a, id_b), id_a < id_b, wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Merge:
    id_a: int
    id_b: int
    cost: float
    size: int


@dataclass(frozen=True)
class Linkage:
    """Deterministic merge history; cut at any cluster count it reached."""

    n_samples: int
    merges: tuple[Merge, ...]

    def cut(self, k: int) -> "ClusterResult":
        """Partition into k clusters by replaying the first n - k merges."""
        n = self.n_samples
        if not 1 <= k <= n:
            raise ConfigError(f"k={k} out of range [1, {n}]")
        n_merges = n - k
        parent = np.arange(n + n_merges)
        for m, merge in enumerate(self.merges[:n_merges]):
            parent[merge.id_a] = n + m
            parent[merge.id_b] = n + m
        roots = np.empty(n, dtype=np.int64)
        for i in range(n):
            r = i
            while parent[r] != r:
                r = parent[r]
            roots[i] = r
        # label clusters 0..k-1 in order of first appearance
        labels: dict[int, int] = {}
        assignment = np.empty(n, dtype=np.int64)
        for i, r in enumerate(roots):
            assignment[i] = labels.setdefault(int(r), len(labels))
        sizes = np.bincount(assignment, minlength=k)
        return ClusterResult(k=k, assignment=assignment, sizes=sizes)


@dataclass(frozen=True)
class ClusterResult:
    """Per-sample cluster index in [0, k) plus the cluster sizes |C_k|.

    Clusters are numbered by first appearance in sample order, so the
    labelling is reproducible.
    """

    k: int
    assignment: np.ndarray
    sizes: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.assignment.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster)


def sq_distances(samples: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all rows, shape (n, n).

    Each entry sums the squared attribute differences in column order, the
    order of scipy's ``cdist(..., "sqeuclidean")``, so the two agree bit for
    bit: the differences are laid out column-major and reduced over that
    outer axis, which numpy accumulates one column after the other. Rows go
    in blocks of about 128k differences; each block fills its part of the
    upper triangle, and the lower triangle is its mirror image.
    """
    n, n_cols = samples.shape
    columns = np.ascontiguousarray(samples.T)
    out = np.empty((n, n))
    block = max(1, 131072 // (n_cols * n))
    for i in range(0, n, block):
        diff = columns[:, i:i + block, None] - columns[:, None, i:]
        diff *= diff
        acc = diff.sum(axis=0)
        out[i:i + block, i:] = acc
        out[i:, i:i + block] = acc.T
    return out


def ward_linkage(samples: np.ndarray) -> Linkage:
    """Build the full merge history (n - 1 merges) for the given samples."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    if not np.all(np.isfinite(samples)):
        raise DataError("samples contain non-finite values")
    n = samples.shape[0]
    if n == 0:
        raise DataError("no samples to cluster")
    n_merges = n - 1
    total = n + n_merges

    size = np.zeros(total, dtype=np.float64)
    size[:n] = 1.0
    # full symmetric Lance-Williams distances among active clusters
    dist = np.full((total, total), np.inf)
    dist[:n, :n] = sq_distances(samples)
    # search matrix: upper triangle of active pairs, inf elsewhere
    search = np.full((total, total), np.inf)
    iu = np.triu_indices(n, k=1)
    search[:n, :n][iu] = dist[:n, :n][iu]

    merges = []
    for step in range(n_merges):
        flat = int(np.argmin(search))
        i, j = divmod(flat, total)
        q = n + step
        size[q] = size[i] + size[j]
        merges.append(Merge(id_a=i, id_b=j, cost=float(dist[i, j]), size=int(size[q])))

        others = np.flatnonzero(size[:q] > 0)
        others = others[(others != i) & (others != j)]
        nm = size[others]
        new_d = ((size[i] + nm) * dist[i, others]
                 + (size[j] + nm) * dist[j, others]
                 - nm * dist[i, j]) / (size[i] + size[j] + nm)
        dist[q, others] = new_d
        dist[others, q] = new_d
        search[i, :] = np.inf
        search[:, i] = np.inf
        search[j, :] = np.inf
        search[:, j] = np.inf
        # inactive clusters keep an inf distance to q
        search[:q, q] = dist[:q, q]
        size[i] = size[j] = 0.0
    return Linkage(n_samples=n, merges=tuple(merges))


def ward_cluster(samples: np.ndarray, k: int) -> ClusterResult:
    """Cluster samples into k groups under Ward's criterion."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k={k} out of range [1, {n}]")
    return ward_linkage(samples).cut(k)


def medoid_of(samples: np.ndarray, members) -> int:
    """Member index minimizing the summed squared distance to all members.

    Ties resolve to the lowest sample index.
    """
    members = np.asarray(sorted(int(m) for m in members), dtype=np.int64)
    if members.size == 0:
        raise ConfigError("member set is empty")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    pts = samples[members]
    sums = sq_distances(pts).sum(axis=1)
    return int(members[int(np.argmin(sums))])
