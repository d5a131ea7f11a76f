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

from .errors import DataError


def reconstruct(lengths: np.ndarray, values: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Expand segmented representatives back to the full horizon, (P * T, N_a).

    Period i takes row assignment[i] of the segment lengths (k, s) and means
    (k, s, N_a); every lengths row must be positive and sum to the period length.
    """
    lengths, values, assignment = map(np.asarray, (lengths, values, assignment))
    for name, array in (("lengths", lengths), ("assignment", assignment)):
        if array.dtype.kind not in "iu":
            raise DataError(f"{name} of dtype {array.dtype} is not an integer array")
    if lengths.ndim != 2 or values.ndim != 3 or values.shape[:2] != lengths.shape:
        raise DataError(f"values of shape {values.shape} for lengths of shape {lengths.shape}")
    if assignment.ndim != 1:
        raise DataError(f"assignment of shape {assignment.shape} is not one index per period")
    k, n_attrs = len(lengths), values.shape[2]
    totals = lengths.sum(axis=1)
    if np.any(lengths < 1) or np.any(totals != totals[0]):
        raise DataError("segments do not tile the period")
    if assignment.size and not 0 <= assignment.min() <= assignment.max() < k:
        raise DataError(f"assignment refers to clusters outside [0, {k})")
    expanded = np.repeat(values.reshape(-1, n_attrs), lengths.ravel(), axis=0)
    return expanded.reshape(k, -1, n_attrs)[assignment].reshape(-1, n_attrs)


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
    if original.size == 0:
        raise DataError(f"empty data: shape {original.shape}")
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
    configuration is unknown. An overflow is a DataError naming the
    attribute with the largest error, the first one if several overflow.
    """
    original, aggregated = _check_shapes(original, aggregated)
    names = list(attribute_names)
    if len(names) != original.shape[1]:
        raise DataError(f"{len(names)} names for {original.shape[1]} attributes")
    with np.errstate(over="ignore"):
        total = rmse_tot(original, aggregated)
        chron = attribute_rmse(original, aggregated)
        duration = duration_curve_rmse(original, aggregated)
    worst = np.maximum(chron, duration)
    if not (np.isfinite(total) and np.isfinite(worst).all()):
        raise DataError(f"squared differences of attribute {names[worst.argmax()]!r} overflow")
    return {
        "rmse_tot": total,
        "chronological_rmse": {n: float(v) for n, v in zip(names, chron)},
        "duration_curve_rmse": {n: float(v) for n, v in zip(names, duration)},
        "total_steps": total_steps,
        "reduction_ratio": (None if total_steps is None
                            else 1.0 - total_steps / original.shape[0]),
    }
