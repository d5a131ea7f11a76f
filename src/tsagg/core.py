"""Raw and normalized time-series data model.

A dataset is a plain matrix of N_t time steps by N_a attributes. Before
clustering, attributes are rescaled to comparable ranges (min-max or
z-normalization) and the normalized matrix is reshaped into one sample row
per period, so that whole periods can be compared as points in a
(steps_per_period * N_a)-dimensional space.

Column layout of a period row is frozen: the value of attribute ``a`` at
in-period step ``t`` sits at column ``t * N_a + a`` (step-major,
attribute-minor). This is exactly C-order reshaping of the N_t x N_a
matrix, so the mapping is lossless and reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

NORMALIZATION_METHODS = ("minmax", "znorm")


@dataclass(frozen=True)
class NormParams:
    """Per-attribute affine transform: normalized = (x - offset) / scale.

    Constant attributes get scale 1 and offset equal to their value, so
    they normalize to all-zeros and contribute nothing to distances.
    """

    method: str
    offset: np.ndarray
    scale: np.ndarray

    @property
    def n_attributes(self) -> int:
        return self.offset.shape[0]


@dataclass(frozen=True)
class PeriodFrame:
    """Normalized data reshaped to one sample row per period.

    rows has shape (n_periods, steps_per_period * N_a) in the documented
    step-major column layout. dropped_steps records how many trailing
    steps were discarded when the horizon was not divisible.
    """

    n_periods: int
    steps_per_period: int
    rows: np.ndarray
    norm_params: NormParams
    dropped_steps: int = 0

    @property
    def n_attributes(self) -> int:
        return self.norm_params.n_attributes

    def unrolled(self) -> np.ndarray:
        """Undo the period reshaping, back to (N_t, N_a)."""
        return self.rows.reshape(self.n_periods * self.steps_per_period,
                                 self.n_attributes)


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


def normalize(x: np.ndarray, method: str = "minmax") -> tuple[np.ndarray, NormParams]:
    """Rescale every attribute of a validated (N_t, N_a) matrix.

    Returns the normalized matrix and the params. minmax maps each
    non-constant attribute onto exactly [0, 1]; znorm centers it to mean 0
    with sample standard deviation 1 (ddof=1).
    """
    if method not in NORMALIZATION_METHODS:
        raise ConfigError(
            f"unknown normalization method {method!r}, expected one of {NORMALIZATION_METHODS}")
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
    params = NormParams(method=method, offset=offset, scale=scale)
    return (x - offset) / scale, params


def denormalize(values: np.ndarray, params: NormParams) -> np.ndarray:
    """Invert :func:`normalize`: x = normalized * scale + offset."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != params.n_attributes:
        raise DataError(
            f"expected (n, {params.n_attributes}) matrix, got shape {values.shape}")
    return values * params.scale + params.offset


def to_periods(normalized: np.ndarray, steps_per_period: int,
               norm_params: NormParams, drop_trailing: bool = False) -> PeriodFrame:
    """Reshape a normalized (N_t, N_a) matrix into period sample rows.

    steps_per_period must divide N_t; with drop_trailing the remainder
    steps are discarded and counted in the frame's dropped_steps.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2:
        raise DataError(f"normalized matrix must be 2-dimensional, got ndim={normalized.ndim}")
    n_steps = normalized.shape[0]
    if not 1 <= steps_per_period <= n_steps:
        raise ConfigError(
            f"steps_per_period={steps_per_period} out of range for {n_steps} steps")
    remainder = n_steps % steps_per_period
    if remainder and not drop_trailing:
        raise ConfigError(
            f"{n_steps} steps not divisible by period length {steps_per_period} "
            f"(remainder {remainder}); pass drop_trailing to discard")
    if remainder:
        normalized = normalized[:n_steps - remainder, :]
    n_periods = normalized.shape[0] // steps_per_period
    rows = normalized.reshape(n_periods, steps_per_period * normalized.shape[1]).copy()
    rows.setflags(write=False)
    return PeriodFrame(n_periods=n_periods, steps_per_period=steps_per_period,
                       rows=rows, norm_params=norm_params,
                       dropped_steps=int(remainder))


def build_frame(values, names, steps_per_period: int, normalization: str = "minmax",
                drop_trailing: bool = False) -> PeriodFrame:
    """Validate, normalize and reshape a raw (N_t, N_a) matrix into period rows."""
    normalized, params = normalize(validate_and_build(values, names)[0], normalization)
    return to_periods(normalized, steps_per_period, params, drop_trailing)
