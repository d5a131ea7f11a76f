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

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hierarchy import Linkage, ward_linkage
from .metrics import reconstruct, rmse_tot
from .representation import represent
from .segmentation import SegmentLayout, cut_layout, segment_linkage

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
    """Caches the pipeline stages shared between configurations, per node.

    ``periods`` is the (P, T, N_a) array of normalized periods. Its period
    linkage is built once on the (P, T·N_a) row view and cut once per
    typical-period count. Most clusters of a cut are dendrogram nodes an
    earlier cut had, so one store holds a representative profile and a
    segment merge order (a rank row of ``segment_linkage``) per node.
    ``prepare(counts)`` cuts at each new count, runs ``represent`` per cut on
    its new nodes, then ``segment_linkage`` once on all of them. (p, s)
    gathers its rows from the store and is cached. Both stages treat each
    cluster alone, members ascending, so rows are the same bytes.
    """

    def __init__(self, periods: np.ndarray, method: str):
        n_periods, steps, n_attrs = periods.shape
        self.periods = periods
        self.method = method
        self.period_linkage: Linkage = ward_linkage(periods.reshape(n_periods, -1))
        self._original = periods.reshape(-1, n_attrs)
        self._cuts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # node id -> row of the node store, -1 until the node is computed
        self._row = np.full(2 * n_periods - 1, -1, dtype=np.int64)
        self._profiles = np.empty((0, steps, n_attrs))
        self._ranks = np.empty((0, steps - 1), dtype=np.int64)
        self._states: dict[tuple[int, int], PathwayState] = {}

    def prepare(self, counts: list[int]) -> None:
        """Cut at every new typical-period count and store the new nodes."""
        start, batch = self._profiles.shape[0], []
        for p in counts:
            if p in self._cuts:
                continue
            assignment, nodes = self.period_linkage.cut(p)
            new = np.flatnonzero(self._row[nodes] < 0)
            # a cut whose nodes are all new is its own sub-clustering: no copy
            periods, sub = self.periods, assignment
            if 0 < new.size < nodes.size:
                # the member periods of the new nodes, ascending, clustered by node
                label = np.full(nodes.size, -1)
                label[new] = np.arange(new.size)
                members = np.flatnonzero(label[assignment] >= 0)
                periods, sub = periods[members], label[assignment[members]]
            if new.size:
                profiles = represent(periods, sub, self.method)
                self._row[nodes[new]] = start + sum(map(len, batch)) + np.arange(new.size)
                batch.append(profiles)
            self._cuts[p] = assignment, nodes
        if batch:
            self._profiles = np.concatenate([self._profiles, *batch])
            self._ranks = np.concatenate([self._ranks, segment_linkage(self._profiles[start:])])

    def reconstruction(self, p: int, s: int) -> tuple[np.ndarray, SegmentLayout, np.ndarray]:
        """Cluster assignment, segmented representatives and full-length reconstruction."""
        n_periods, steps = self.periods.shape[:2]
        if not 1 <= p <= n_periods:
            raise ConfigError(f"p={p} out of range [1, {n_periods}]")
        if not 1 <= s <= steps:
            raise ConfigError(f"s={s} out of range [1, {steps}]")
        self.prepare([p])
        assignment, nodes = self._cuts[p]
        rows = self._row[nodes]
        layout = cut_layout(self._profiles[rows], self._ranks[rows], s)
        return assignment, layout, reconstruct(layout, assignment)

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
    """Trace the steepest-descent pathway from (1, 1) toward full resolution.

    One ``segment_linkage`` call first links the nodes of every p it can
    reach: the whole grid when unbounded, otherwise the grid up to
    max_total_steps and the next count, a candidate of a state within it.
    """
    n_periods, steps = evaluator.periods.shape[:2]
    grid_p = build_grid(n_periods)
    grid_s = build_grid(steps)
    reachable = grid_p if max_total_steps is None else (
        grid_p[:bisect.bisect_right(grid_p, max_total_steps) + 1])
    evaluator.prepare(reachable)
    ip = i_s = 0
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
    chosen = [state for state in trace.states if state.total_steps <= budget]
    if not chosen:
        raise ConfigError("trace holds no state within the budget")
    return chosen[-1]
