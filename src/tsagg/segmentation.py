"""Merge adjacent time steps inside a period into variable-length segments.

Each time step of a period profile is one multi-attribute sample. Ward
clustering restricted to neighbouring steps (chain connectivity) only ever
merges two adjacent runs of steps, so its whole merge history is the order
in which it removes the steps - 1 boundaries between consecutive steps
(adjacent-only merges as in Pineda & Morales 2018, "Chronological
time-period clustering"). Cutting at s segments keeps the s - 1 boundaries
removed last. A segment takes the arithmetic mean of its member steps per
attribute, which conserves the period total. Boundaries are chosen per
period, so two representatives of the same set may be split differently.

Merge costs follow the hierarchy module's conventions: two adjacent runs
a and b cost n_a n_b / (n_a + n_b) * |mean_a - mean_b|^2 (half the
doubled scale reported there, which orders candidates the same), computed
from run sizes and sums. Run ids are 0..n-1 for the steps and n+m for the
run created by merge m; among equal costs the smallest (id_a, id_b),
id_a < id_b, wins. Each boundary keeps its cost and tie key, and a merge
re-costs only the two beside the merged run, by the same expression: a
merge of k profiles of n steps is O(k n) work.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count


def _sq_norms(diff):
    """Row-wise ``diff @ diff`` by the oracle's BLAS dot; an elementwise sum rounds apart ties."""
    return (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]


def segment_linkage(profiles: np.ndarray) -> np.ndarray:
    """Chain-constrained Ward merge order of k profiles at once.

    profiles has shape (k, steps, N_a). Returns ranks of shape
    (k, steps - 1): ranks[c, b] is the merge at which the boundary between
    steps b and b + 1 of profile c is removed. A merge re-costs only the
    two boundaries beside the merged run: O(k * steps) work per merge.
    """
    profiles = np.asarray(profiles, dtype=np.float64)
    k, n, n_attrs = profiles.shape
    # the k * n steps in one flat array. A run [l..r] keeps its size, sum and
    # id at l, and link[l] = r, link[r] = l. Boundary q lies between steps q
    # and q + 1; a profile's last step has none
    size = np.ones(k * n)
    sums = profiles.reshape(k * n, n_attrs).copy()
    ids = np.tile(np.arange(n), k)
    link = np.arange(k * n)
    row_start, done = np.arange(0, k * n, n), 4 * n * n
    cost, key = np.full(k * n, np.inf), np.full(k * n, done)
    ranks = np.empty(k * n, dtype=np.int64)
    # single steps are their own means, and 1 * 1 / (1 + 1) * sq is 0.5 * sq
    cost.reshape(k, n)[:, :-1] = 0.5 * _sq_norms(profiles[:, :-1] - profiles[:, 1:])
    key.reshape(k, n)[:, :-1] = np.arange(n - 1) * 2 * n + np.arange(1, n)
    for m in range(n - 1):
        grid = cost.reshape(k, n)
        tied = grid == grid.min(axis=1, keepdims=True)
        q = row_start + np.where(tied, key.reshape(k, n), done).argmin(axis=1)
        ranks[q], cost[q], key[q] = m, np.inf, done
        left, right = link[q], link[q + 1]
        size[left] += size[q + 1]
        sums[left] += sums[q + 1]
        ids[left] = n + m
        link[left], link[right] = right, left
        # only the boundaries beside the new run change, where they exist
        q = np.concatenate([left[left > row_start] - 1,
                            right[right < row_start + n - 1]])
        a, b = link[q], q + 1
        diff = sums[a] / size[a, None] - sums[b] / size[b, None]
        cost[q] = size[a] * size[b] / (size[a] + size[b]) * _sq_norms(diff)
        key[q] = np.minimum(ids[a], ids[b]) * 2 * n + np.maximum(ids[a], ids[b])
    return ranks.reshape(k, n)[:, :-1].copy()


def cut_layout(profiles: np.ndarray, ranks: np.ndarray,
               n_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut k merge orders at n_segments: chronological lengths (k, s) and means (k, s, N_a).

    A rank row is a permutation of 0..steps-2, so each row of lengths tiles the period.
    """
    profiles = np.asarray(profiles, dtype=np.float64)
    k, steps, n_attrs = profiles.shape
    n_segments = check_count(n_segments, "n_segments", steps)
    _, bounds = np.nonzero(ranks >= steps - n_segments)
    edges = np.zeros((k, n_segments + 1), dtype=np.int64)
    edges[:, 1:-1] = bounds.reshape(k, n_segments - 1) + 1
    edges[:, -1] = steps
    starts, lengths = edges[:, :-1], np.diff(edges, axis=1)
    # gathering equal-length runs and reducing axis 1 sums each run in the
    # same order as profile[a:b].mean(axis=0); np.add.reduceat does not
    values = np.empty((k, n_segments, n_attrs))
    for length in np.flatnonzero(np.bincount(lengths.ravel())):
        c, j = np.nonzero(lengths == length)
        window = starts[c, j, None] + np.arange(length)
        values[c, j] = profiles[c[:, None], window].mean(axis=1)
    return lengths, values

