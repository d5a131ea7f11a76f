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
id_a < id_b, wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .representation import RepresentativeSet


@dataclass(frozen=True)
class SegmentLayout:
    """Segments of k periods, in chronological order within each period.

    lengths has shape (k, s) and holds each segment's step count; every
    row sums to the period length. values has shape (k, s, N_a) and holds
    the segment means in normalized units.
    """

    lengths: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k, s = self.lengths.shape
        if self.values.shape[:2] != (k, s):
            raise DataError(
                f"values of shape {self.values.shape} for lengths of shape {(k, s)}")
        totals = self.lengths.sum(axis=1)
        if np.any(self.lengths < 1) or np.any(totals != totals[0]):
            raise DataError("segments do not tile the period")

    @property
    def n_segments(self) -> int:
        return self.lengths.shape[1]


def segment_linkage(profiles: np.ndarray) -> np.ndarray:
    """Chain-constrained Ward merge order of k profiles at once.

    profiles has shape (k, steps, N_a). Returns ranks of shape
    (k, steps - 1): ranks[c, b] is the merge at which the boundary between
    steps b and b + 1 of profile c is removed.
    """
    profiles = np.asarray(profiles, dtype=np.float64)
    k, n, _ = profiles.shape
    rows = np.arange(k)
    # every step carries the size, sum and id of the run it belongs to
    size = np.ones((k, n))
    sums = profiles.copy()
    ids = np.tile(np.arange(n), (k, 1))
    ranks = np.full((k, n - 1), -1, dtype=np.int64)
    for m in range(n - 1):
        n_a, n_b = size[:, :-1], size[:, 1:]
        means = sums / size[:, :, None]
        diff = means[:, :-1] - means[:, 1:]
        # matmul takes the same BLAS dot as the oracle's `diff @ diff`, so
        # exact ties stay exact; an elementwise sum rounds differently
        sq = (diff[:, :, None, :] @ diff[:, :, :, None])[:, :, 0, 0]
        cost = np.where(ranks < 0, n_a * n_b / (n_a + n_b) * sq, np.inf)
        id_a = np.minimum(ids[:, :-1], ids[:, 1:])
        id_b = np.maximum(ids[:, :-1], ids[:, 1:])
        tied = cost == cost.min(axis=1, keepdims=True)
        b = np.where(tied, id_a * 2 * n + id_b, 4 * n * n).argmin(axis=1)
        ranks[rows, b] = m
        member = (ids == ids[rows, b, None]) | (ids == ids[rows, b + 1, None])
        size = np.where(member, (size[rows, b] + size[rows, b + 1])[:, None], size)
        sums = np.where(member[:, :, None],
                        (sums[rows, b] + sums[rows, b + 1])[:, None, :], sums)
        ids[member] = n + m
    return ranks


def cut_layout(profiles: np.ndarray, ranks: np.ndarray, n_segments: int) -> SegmentLayout:
    """Cut k merge orders at n_segments and average each run of steps."""
    profiles = np.asarray(profiles, dtype=np.float64)
    k, steps, n_attrs = profiles.shape
    if not 1 <= n_segments <= steps:
        raise ConfigError(f"n_segments={n_segments} out of range [1, {steps}]")
    _, bounds = np.nonzero(ranks >= steps - n_segments)
    edges = np.zeros((k, n_segments + 1), dtype=np.int64)
    edges[:, 1:-1] = bounds.reshape(k, n_segments - 1) + 1
    edges[:, -1] = steps
    starts, lengths = edges[:, :-1], np.diff(edges, axis=1)
    # gathering equal-length runs and reducing axis 1 sums each run in the
    # same order as profile[a:b].mean(axis=0); np.add.reduceat does not
    values = np.empty((k, n_segments, n_attrs))
    for length in np.unique(lengths):
        c, j = np.nonzero(lengths == length)
        window = starts[c, j, None] + np.arange(length)
        values[c, j] = profiles[c[:, None], window].mean(axis=1)
    return SegmentLayout(lengths=lengths, values=values)


def segment_representatives(reps: RepresentativeSet, n_segments: int) -> RepresentativeSet:
    """Segment every representative period independently."""
    layout = cut_layout(reps.profiles, segment_linkage(reps.profiles), n_segments)
    return replace(reps, segments=layout)
