"""Full-length reconstruction and accuracy indicators.

The reconstruction replaces every original step by the value its cluster
representative (after segmentation, the containing segment) assigns to
that in-period position, yielding a matrix of the original shape. Errors
are measured in normalized space: a pooled RMSE over all attributes and
steps, a chronological RMSE per attribute, and a duration-curve RMSE per
attribute where both series are sorted descending before comparison so
only the value distribution matters.
"""

from __future__ import annotations

import numpy as np

from .core import PeriodFrame
from .errors import DataError
from .hierarchy import ClusterResult
from .segmentation import SegmentLayout


def reconstruct(frame: PeriodFrame, clusters: ClusterResult,
                layout: SegmentLayout) -> np.ndarray:
    """Expand segmented representatives back to the full horizon, (N_t, N_a)."""
    if clusters.n_samples != frame.n_periods:
        raise DataError(
            f"assignment covers {clusters.n_samples} periods, frame has {frame.n_periods}")
    if layout.lengths.shape[0] != clusters.k:
        raise DataError(f"{layout.lengths.shape[0]} representatives for {clusters.k} clusters")
    expanded = np.repeat(layout.values.reshape(-1, frame.n_attributes),
                         layout.lengths.ravel(), axis=0)
    rec = expanded.reshape(clusters.k, -1, frame.n_attributes)[clusters.assignment]
    return rec.reshape(frame.n_periods * frame.steps_per_period, frame.n_attributes)


def _check_shapes(original: np.ndarray, aggregated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    original = np.asarray(original, dtype=np.float64)
    aggregated = np.asarray(aggregated, dtype=np.float64)
    if original.ndim == 1:
        original = original.reshape(-1, 1)
    if aggregated.ndim == 1:
        aggregated = aggregated.reshape(-1, 1)
    if original.shape != aggregated.shape:
        raise DataError(
            f"shape mismatch: original {original.shape}, aggregated {aggregated.shape}")
    return original, aggregated


def rmse_tot(original: np.ndarray, aggregated: np.ndarray) -> float:
    """Pooled RMSE over all attributes and time steps."""
    original, aggregated = _check_shapes(original, aggregated)
    diff = aggregated - original
    return float(np.sqrt(np.mean(diff * diff)))


def attribute_rmse(original: np.ndarray, aggregated: np.ndarray) -> np.ndarray:
    """Chronological RMSE per attribute."""
    original, aggregated = _check_shapes(original, aggregated)
    diff = aggregated - original
    return np.sqrt(np.mean(diff * diff, axis=0))


def duration_curve_rmse(original: np.ndarray, aggregated: np.ndarray) -> np.ndarray:
    """Per-attribute RMSE between descending-sorted value curves."""
    original, aggregated = _check_shapes(original, aggregated)
    diff = -np.sort(-aggregated, axis=0) + np.sort(-original, axis=0)
    return np.sqrt(np.mean(diff * diff, axis=0))


def build_report(original: np.ndarray, aggregated: np.ndarray,
                 attribute_names, total_steps: int | None = None) -> dict:
    """Accuracy summary of a reconstruction, as the ``metrics.json`` dict.

    total_steps is the aggregated size (typical periods x segments); it and
    reduction_ratio are None for externally supplied reconstructions whose
    configuration is unknown.
    """
    original, aggregated = _check_shapes(original, aggregated)
    names = list(attribute_names)
    if len(names) != original.shape[1]:
        raise DataError(f"{len(names)} names for {original.shape[1]} attributes")
    chron = attribute_rmse(original, aggregated)
    duration = duration_curve_rmse(original, aggregated)
    return {
        "rmse_tot": rmse_tot(original, aggregated),
        "chronological_rmse": {n: float(v) for n, v in zip(names, chron)},
        "duration_curve_rmse": {n: float(v) for n, v in zip(names, duration)},
        "total_steps": total_steps,
        "reduction_ratio": (None if total_steps is None
                            else 1.0 - total_steps / original.shape[0]),
    }
