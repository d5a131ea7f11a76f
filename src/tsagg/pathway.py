"""Steepest-descent search over (typical periods, segments) configurations.

Both counts can grow along a roughly geometric grid (ratio ~sqrt(2));
starting from a single period with a single segment, each iteration
evaluates the two grid successors and steps in the direction with the
smallest RMSE change per added total time step,

    min( [RMSE(p+, s) - RMSE(p, s)] / (s * (p+ - p)),
         [RMSE(p, s+) - RMSE(p, s)] / (p * (s+ - s)) ).

Ratios keep their sign: a direction whose RMSE rises (possible for the
medoid and distribution methods) stays eligible and simply loses to any
descent. When one dimension is exhausted only the other is considered.
The search stops when both are exhausted or when the total step count has
surpassed the optional cap (the surpassing state is kept in the trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PeriodFrame
from .errors import ConfigError
from .hierarchy import ClusterResult, Linkage, ward_linkage
from .metrics import reconstruct, rmse_tot
from .representation import RepresentativeSet, represent
from .segmentation import cut_layout, segment_linkage

MORE_PERIODS = "more_periods"
MORE_SEGMENTS = "more_segments"


@dataclass(frozen=True)
class PathwayState:
    """One evaluated configuration."""

    p: int
    s: int
    total_steps: int
    rmse: float


@dataclass(frozen=True)
class Move:
    """A taken step: chosen direction plus both candidate descent ratios.

    A ratio is None when that dimension was already exhausted.
    """

    direction: str
    ratio_periods: float | None
    ratio_segments: float | None


@dataclass(frozen=True)
class PathwayTrace:
    """Visited states in order; moves[i] led from states[i] to states[i+1]."""

    states: tuple[PathwayState, ...]
    moves: tuple[Move, ...]

    @property
    def final(self) -> PathwayState:
        return self.states[-1]


def build_grid(max_value: int) -> list[int]:
    """Candidate counts 1, round(sqrt(2)^i), ..., capped at max_value.

    Deduplicated, strictly increasing, always ending at max_value.
    """
    if max_value < 1:
        raise ConfigError(f"max_value must be >= 1, got {max_value}")
    grid = []
    i = 0
    while True:
        v = round(math.sqrt(2) ** i)
        if v >= max_value:
            break
        if not grid or v > grid[-1]:
            grid.append(v)
        i += 1
    grid.append(max_value)
    return grid


class ConfigEvaluator:
    """Caches the pipeline stages shared between configurations.

    The period linkage is built once; cluster cuts, representatives, and
    the segment merge order of all representatives (one (p, steps - 1)
    rank array) are cached per typical-period count, and full evaluations
    per (p, s). All stages are deterministic, so cached results are
    identical to recomputed ones.
    """

    def __init__(self, frame: PeriodFrame, method: str):
        self.frame = frame
        self.method = method
        self.period_linkage: Linkage = ward_linkage(frame.rows)
        self._original = frame.unrolled()
        self._clusters: dict[int, ClusterResult] = {}
        self._reps: dict[int, RepresentativeSet] = {}
        self._seg_ranks: dict[int, np.ndarray] = {}
        self._states: dict[tuple[int, int], PathwayState] = {}

    def clusters(self, p: int) -> ClusterResult:
        if p not in self._clusters:
            self._clusters[p] = self.period_linkage.cut(p)
        return self._clusters[p]

    def representatives(self, p: int) -> RepresentativeSet:
        if p not in self._reps:
            self._reps[p] = represent(self.frame, self.clusters(p), self.method)
        return self._reps[p]

    def reconstruction(self, p: int, s: int) -> tuple[ClusterResult, RepresentativeSet,
                                                       np.ndarray]:
        """Clusters, segmented representatives and full-length reconstruction."""
        if not 1 <= p <= self.frame.n_periods:
            raise ConfigError(f"p={p} out of range [1, {self.frame.n_periods}]")
        if not 1 <= s <= self.frame.steps_per_period:
            raise ConfigError(f"s={s} out of range [1, {self.frame.steps_per_period}]")
        clusters, reps = self.clusters(p), self.representatives(p)
        if p not in self._seg_ranks:
            self._seg_ranks[p] = segment_linkage(reps.profiles)
        reps = replace(reps, segments=cut_layout(reps.profiles, self._seg_ranks[p], s))
        return clusters, reps, reconstruct(self.frame, clusters, reps)

    def evaluate(self, p: int, s: int) -> PathwayState:
        key = (p, s)
        if key not in self._states:
            _, _, rec = self.reconstruction(p, s)
            self._states[key] = PathwayState(
                p=p, s=s, total_steps=p * s,
                rmse=rmse_tot(self._original, rec))
        return self._states[key]


def pathway_search(evaluator: ConfigEvaluator,
                   max_total_steps: int | None = None) -> PathwayTrace:
    """Trace the steepest-descent pathway from (1, 1) toward full resolution."""
    frame = evaluator.frame
    grid_p = build_grid(frame.n_periods)
    grid_s = build_grid(frame.steps_per_period)
    ip = 0
    i_s = 0
    states = [evaluator.evaluate(1, 1)]
    moves = []
    while True:
        current = states[-1]
        if max_total_steps is not None and current.total_steps > max_total_steps:
            break
        can_p = ip + 1 < len(grid_p)
        can_s = i_s + 1 < len(grid_s)
        if not (can_p or can_s):
            break
        ratio_p = ratio_s = None
        cand_p = cand_s = None
        if can_p:
            cand_p = evaluator.evaluate(grid_p[ip + 1], current.s)
            ratio_p = (cand_p.rmse - current.rmse) / (
                current.s * (grid_p[ip + 1] - current.p))
        if can_s:
            cand_s = evaluator.evaluate(current.p, grid_s[i_s + 1])
            ratio_s = (cand_s.rmse - current.rmse) / (
                current.p * (grid_s[i_s + 1] - current.s))
        # ties go to segments; a lone candidate wins by default
        if can_s and (not can_p or ratio_s <= ratio_p):
            states.append(cand_s)
            moves.append(Move(MORE_SEGMENTS, ratio_p, ratio_s))
            i_s += 1
        else:
            states.append(cand_p)
            moves.append(Move(MORE_PERIODS, ratio_p, ratio_s))
            ip += 1
    return PathwayTrace(states=tuple(states), moves=tuple(moves))


def select_config(trace: PathwayTrace, budget: int) -> PathwayState:
    """Last traced state whose total step count fits the budget."""
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    chosen = None
    for state in trace.states:
        if state.total_steps <= budget:
            chosen = state
    if chosen is None:
        raise ConfigError("trace holds no state within the budget")
    return chosen
