"""Shared helpers for building test inputs."""

from __future__ import annotations

import numpy as np

from tsagg import core
from tsagg.segmentation import cut_layout, segment_linkage


def periods_of(values, steps, norm="minmax"):
    """The library's normalized (P, T, N_a) periods, with generated attribute names."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    names = [f"attr{i}" for i in range(values.shape[1])]
    return core.build_frame(values, names, steps, norm)[0]


def merge_list(linkage):
    """A linkage's merge arrays as [(id_a, id_b, cost, size)], the oracles' form."""
    return list(zip(*linkage.ids.T.tolist(), linkage.costs.tolist(),
                    linkage.sizes.tolist()))


def random_matrix(rng, n_steps, n_attrs, spread=1.0):
    return spread * rng.standard_normal((n_steps, n_attrs))


def segment_one(profile, n_segments):
    """Chain-segment one profile (steps, or steps x N_a) into (lengths, values) of k=1."""
    profile = np.asarray(profile, dtype=np.float64)
    profiles = profile.reshape(1, profile.shape[0], -1)
    return cut_layout(profiles, segment_linkage(profiles), n_segments)


def chain_partition(profile, n_segments):
    """Per-step segment labels 0..n_segments-1 of one chain-segmented profile."""
    lengths = segment_one(profile, n_segments)[0][0]
    return np.repeat(np.arange(n_segments), lengths)
