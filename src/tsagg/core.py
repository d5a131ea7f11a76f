"""Raw and normalized time-series data model.

A dataset is a plain matrix of N_t time steps by N_a attributes. Before
clustering, attributes are rescaled to comparable ranges (min-max or
z-normalization) by a per-attribute offset and scale, and the normalized
matrix is cut into one read-only (P, T, N_a) array of P periods of T steps.
Its row view ``periods.reshape(P, T * N_a)`` makes each period one point in
a T·N_a-dimensional space, where whole periods are compared.

Column layout of a row is frozen: the value of attribute ``a`` at in-period
step ``t`` sits at column ``t * N_a + a`` (step-major, attribute-minor).
This is exactly C-order reshaping of the N_t x N_a matrix, so the mapping
is lossless and reproducible bit for bit, and ``periods.reshape(-1, N_a)``
gives the normalized matrix back.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, as_integer

NORMALIZATION_METHODS = ("minmax", "znorm")


def validate_and_build(values, names) -> tuple[np.ndarray, tuple[str, ...]]:
    """Validate a raw matrix and its attribute names.

    Returns the values as a read-only (N_t, N_a) float array in original
    units and the names as a tuple. Rejects empty data, non-finite entries
    (naming row and column), and duplicate attribute names.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataError(f"values must be 2-dimensional, got ndim={arr.ndim}")
    n_steps, n_attrs = arr.shape
    if n_steps < 1 or n_attrs < 1:
        raise DataError(f"empty data: shape {arr.shape}")
    names = tuple(str(n) for n in names)
    if len(names) != n_attrs:
        raise DataError(
            f"{len(names)} attribute names for {n_attrs} columns")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate attribute names: {dupes}")
    if not np.all(np.isfinite(arr)):
        t, a = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(
            f"non-finite value at row {t}, column {a} ({names[a]!r})")
    arr.setflags(write=False)
    return arr, names


def normalize(x: np.ndarray, method: str = "minmax",
              names=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rescale every attribute of a validated (N_t, N_a) matrix.

    Returns (normalized, offset, scale), normalized = (x - offset) / scale
    per attribute. minmax maps each non-constant attribute onto exactly
    [0, 1]; znorm centers it to mean 0 with sample standard deviation 1
    (ddof=1). A constant attribute gets scale 1 and its value as offset, so
    it normalizes to zeros and adds nothing to distances. An attribute whose
    range or spread overflows is a DataError that names it, or its index.
    """
    if method not in NORMALIZATION_METHODS:
        raise ConfigError(
            f"unknown normalization method {method!r}, expected one of {NORMALIZATION_METHODS}")
    with np.errstate(all="ignore"):
        constant = x.max(axis=0) == x.min(axis=0)
        if method == "minmax":
            offset = x.min(axis=0)
            scale = x.max(axis=0) - offset
        else:
            offset = x.mean(axis=0)
            scale = x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1])
    offset = np.where(constant, x[0, :], offset)
    # scale can also underflow to zero for near-constant attributes; a unit
    # scale keeps the output finite (and exactly zero for true constants)
    scale = np.where(constant | (scale == 0.0), 1.0, scale)
    return rescale(x, offset, scale, names), offset, scale


def rescale(x: np.ndarray, offset: np.ndarray, scale: np.ndarray, names=None) -> np.ndarray:
    """(x - offset) / scale per column; a non-finite offset, scale or result is a DataError."""
    with np.errstate(all="ignore"):
        out = (x - offset) / scale
    finite = np.isfinite(out).all(axis=0) & np.isfinite(offset) & np.isfinite(scale)
    if not finite.all():
        name = (names or range(finite.size))[np.argmin(finite)]
        raise DataError(f"attribute {name!r} does not normalize to finite values")
    return out


def denormalize(values: np.ndarray, offset: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Invert :func:`normalize`, x = normalized * scale + offset.

    A value that overflows takes the largest float of its sign, and every
    finite value keeps its bits. A minmax scale rounded up can carry a
    column's top value past the largest float on the way back, but only
    where that top value is the largest float, the column's own bound.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != offset.shape[0]:
        raise DataError(
            f"expected (n, {offset.shape[0]}) matrix, got shape {values.shape}")
    with np.errstate(all="ignore"):
        out = values * scale + offset
    top = np.finfo(np.float64).max
    return np.clip(out, -top, top, out=out)


def to_periods(normalized: np.ndarray, steps: int, drop_trailing: bool = False) -> np.ndarray:
    """Cut a normalized (N_t, N_a) matrix into a read-only (P, T, N_a) array.

    steps (T) must divide N_t; with drop_trailing the remainder steps are
    discarded.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2:
        raise DataError(f"normalized matrix must be 2-dimensional, got ndim={normalized.ndim}")
    n_steps, steps = normalized.shape[0], as_integer(steps, "steps_per_period")
    if not 1 <= steps <= n_steps:
        raise ConfigError(f"steps_per_period={steps} out of range for {n_steps} steps")
    remainder = n_steps % steps
    if remainder and not drop_trailing:
        raise ConfigError(
            f"{n_steps} steps not divisible by period length {steps} "
            f"(remainder {remainder}); pass drop_trailing to discard")
    periods = normalized[:n_steps - remainder].reshape(
        n_steps // steps, steps, normalized.shape[1]).copy()
    periods.setflags(write=False)
    return periods


def build_frame(values, names, steps: int, normalization: str = "minmax",
                drop_trailing: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate, normalize and cut a raw (N_t, N_a) matrix into periods.

    Returns (periods, offset, scale): the (P, T, N_a) array and the
    per-attribute transform :func:`denormalize` inverts.
    """
    x, names = validate_and_build(values, names)
    normalized, offset, scale = normalize(x, normalization, names)
    return to_periods(normalized, steps, drop_trailing), offset, scale
