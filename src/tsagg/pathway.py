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
The trace is a tuple of ``PathwayState``, one per visited configuration,
each carrying the move that reached it. A search follows one representation
method on a ``ConfigEvaluator``, which serves every method of its dataset.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_count
from .hierarchy import Linkage, ward_linkage
from .metrics import reconstruct, rmse_tot
from .representation import represent
from .segmentation import cut_layout, segment_linkage

MORE_PERIODS = "more_periods"
MORE_SEGMENTS = "more_segments"


@dataclass(frozen=True)
class PathwayState:
    """One step of the pathway: a configuration, its RMSE and the move to it.

    The move is the chosen direction and both candidate descent ratios; a
    ratio is None when that dimension was already exhausted. The first
    state has no move: no direction and no ratios.
    """

    p: int
    s: int
    rmse: float
    direction: str = ""
    ratio_periods: float | None = None
    ratio_segments: float | None = None

    @property
    def total_steps(self) -> int:
        return self.p * self.s


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

    One evaluator per dataset serves every representation method: it links
    ``periods``, the (P, T, N_a) normalized periods, once on their (P, T·N_a)
    row view and cuts once per typical-period count, and neither depends on
    the method. Most clusters of a cut are dendrogram nodes an earlier cut
    had, so a store per method holds a representative profile and a segment
    merge order (a rank row of ``segment_linkage``) per node id.
    ``prepare(counts, method)`` runs ``represent`` per cut on the method's
    new nodes, then ``segment_linkage`` once on all of them. (p, s, method)
    gathers its rows from that store. Both stages treat each cluster alone,
    members ascending, so rows are the same bytes.
    """

    def __init__(self, periods: np.ndarray):
        if np.ndim(periods) != 3 or 0 in np.shape(periods):
            raise DataError(f"periods must be a (P, T, N_a) array, got shape {np.shape(periods)}")
        self.periods = periods
        self.period_linkage: Linkage = ward_linkage(periods.reshape(len(periods), -1))
        self._cuts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # per method, rows by dendrogram node id; a row holds data once its node is done
        self._nodes: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def prepare(self, counts: list[int], method: str) -> None:
        """Cut at every new typical-period count and store the method's new nodes.

        Cuts and nodes are committed only once every stage has returned: a
        call that fails keeps no cut and marks no node done.
        """
        n_nodes, steps, n_attrs = 2 * len(self.periods) - 1, *self.periods.shape[1:]
        old, profiles, ranks = self._nodes.get(method) or (
            np.zeros(n_nodes, dtype=bool), np.empty((n_nodes, steps, n_attrs)),
            np.empty((n_nodes, steps - 1), dtype=np.int64))
        done, cuts = old.copy(), {}
        for p in sorted({check_count(p, "p", len(self.periods)) for p in counts}):
            cuts[p] = assignment, nodes = self._cuts.get(p) or self.period_linkage.cut(p)
            new = np.flatnonzero(~done[nodes])
            if new.size:
                # the member periods of the new nodes, ascending, clustered by node
                label = np.full(nodes.size, -1)
                label[new] = np.arange(new.size)
                members = np.flatnonzero(label[assignment] >= 0)
                profiles[nodes[new]] = represent(self.periods[members],
                                                 label[assignment[members]], method)
                done[nodes[new]] = True
        new = np.flatnonzero(done & ~old)
        if new.size:
            ranks[new] = segment_linkage(profiles[new])
        self._nodes[method] = done, profiles, ranks
        self._cuts.update(cuts)

    def reconstruction(self, p: int, s: int, method: str) -> tuple[np.ndarray, ...]:
        """Cluster assignment, segment lengths and means, and full-length reconstruction."""
        p, s = check_count(p, "p", len(self.periods)), check_count(s, "s", self.periods.shape[1])
        self.prepare([p], method)
        assignment, nodes = self._cuts[p]
        _, profiles, ranks = self._nodes[method]
        lengths, values = cut_layout(profiles[nodes], ranks[nodes], s)
        return assignment, lengths, values, reconstruct(lengths, values, assignment)

    def evaluate(self, p: int, s: int, method: str) -> float:
        """RMSE_tot of (p, s) under ``method`` against the normalized periods."""
        rec = self.reconstruction(p, s, method)[3]
        return rmse_tot(self.periods.reshape(rec.shape), rec)


def pathway_search(evaluator: ConfigEvaluator, method: str,
                   max_total_steps: int | None = None) -> tuple[PathwayState, ...]:
    """Trace the steepest-descent pathway of ``method`` from (1, 1) toward full resolution.

    Returns the visited states in order, each with the move that reached it.
    One ``segment_linkage`` call first links the nodes of every p it can
    reach: the whole grid when unbounded, otherwise the grid up to
    max_total_steps and the next count, a candidate of a state within it.
    """
    n_periods, steps = evaluator.periods.shape[:2]
    grid_p = build_grid(n_periods)
    grid_s = build_grid(steps)
    reachable = grid_p if max_total_steps is None else (
        grid_p[:bisect.bisect_right(grid_p, max_total_steps) + 1])
    evaluator.prepare(reachable, method)
    ip = i_s = 0
    trace = [PathwayState(1, 1, evaluator.evaluate(1, 1, method))]
    while True:
        p, s, rmse = trace[-1].p, trace[-1].s, trace[-1].rmse
        if max_total_steps is not None and p * s > max_total_steps:
            break
        can_p = ip + 1 < len(grid_p)
        can_s = i_s + 1 < len(grid_s)
        if not (can_p or can_s):
            break
        ratio_p = ratio_s = None
        if can_p:
            rmse_p = evaluator.evaluate(grid_p[ip + 1], s, method)
            ratio_p = (rmse_p - rmse) / (s * (grid_p[ip + 1] - p))
        if can_s:
            rmse_s = evaluator.evaluate(p, grid_s[i_s + 1], method)
            ratio_s = (rmse_s - rmse) / (p * (grid_s[i_s + 1] - s))
        # ties go to segments; a lone candidate wins by default
        if can_s and (not can_p or ratio_s <= ratio_p):
            i_s, direction, rmse = i_s + 1, MORE_SEGMENTS, rmse_s
        else:
            ip, direction, rmse = ip + 1, MORE_PERIODS, rmse_p
        trace.append(PathwayState(grid_p[ip], grid_s[i_s], rmse, direction, ratio_p, ratio_s))
    return tuple(trace)


def select_config(trace: tuple[PathwayState, ...], budget: int) -> PathwayState:
    """Last traced state whose total step count fits the budget."""
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    chosen = [state for state in trace if state.total_steps <= budget]
    if not chosen:
        raise ConfigError("trace holds no state within the budget")
    return chosen[-1]
