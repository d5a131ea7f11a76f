import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsagg.errors import ConfigError
from tsagg.pathway import (
    MORE_PERIODS,
    MORE_SEGMENTS,
    ConfigEvaluator,
    Move,
    PathwayState,
    PathwayTrace,
    build_grid,
    pathway_search,
    select_config,
)

from helpers import build_frame


def small_frame(seed=0, n_periods=16, steps=12, n_attrs=1):
    rng = np.random.default_rng(seed)
    return build_frame(rng.standard_normal((n_periods * steps, n_attrs)), steps)


def search(frame, method, max_total_steps=None):
    return pathway_search(ConfigEvaluator(frame, method), max_total_steps)


class TestBuildGrid:
    def test_max_24(self):
        assert build_grid(24) == [1, 2, 3, 4, 6, 8, 11, 16, 23, 24]

    def test_max_1(self):
        assert build_grid(1) == [1]

    def test_invalid(self):
        with pytest.raises(ConfigError):
            build_grid(0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000))
    def test_strictly_increasing_and_capped(self, max_value):
        grid = build_grid(max_value)
        assert grid[0] == 1
        assert grid[-1] == max_value
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestEvaluateConfig:
    def test_identity_is_zero(self):
        frame = small_frame()
        for method in ("centroid", "medoid", "distribution"):
            state = ConfigEvaluator(frame, method).evaluate(
                frame.n_periods, frame.steps_per_period)
            assert state.rmse == 0.0

    def test_coarsest_centroid_matches_dispersion(self):
        frame = small_frame(seed=1, n_attrs=2)
        state = ConfigEvaluator(frame, "centroid").evaluate(1, 1)
        x = frame.unrolled()
        expected = np.sqrt(np.mean((x - x.mean(axis=0)) ** 2))
        assert abs(state.rmse - expected) < 1e-12

    def test_cached_result_is_identical(self):
        frame = small_frame(seed=2)
        evaluator = ConfigEvaluator(frame, "distribution")
        first = evaluator.evaluate(4, 3)
        second = evaluator.evaluate(4, 3)
        assert first is second

    def test_out_of_range(self):
        frame = small_frame()
        evaluator = ConfigEvaluator(frame, "centroid")
        with pytest.raises(ConfigError):
            evaluator.evaluate(0, 1)
        with pytest.raises(ConfigError):
            evaluator.evaluate(1, 99)


class TestPathwaySearch:
    def test_total_steps_strictly_increase(self):
        trace = search(small_frame(seed=3), "centroid")
        totals = [s.total_steps for s in trace.states]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_unbounded_ends_at_full_resolution(self):
        frame = small_frame(seed=4)
        for method in ("centroid", "medoid", "distribution"):
            trace = search(frame, method)
            assert trace.final.p == frame.n_periods
            assert trace.final.s == frame.steps_per_period
            assert trace.final.rmse == 0.0

    def test_chosen_direction_has_smaller_ratio(self):
        trace = search(small_frame(seed=5, n_attrs=2), "distribution")
        for move in trace.moves:
            if move.ratio_periods is None or move.ratio_segments is None:
                continue
            chosen = (move.ratio_segments if move.direction == MORE_SEGMENTS
                      else move.ratio_periods)
            other = (move.ratio_periods if move.direction == MORE_SEGMENTS
                     else move.ratio_segments)
            assert chosen <= other

    def test_centroid_rmse_non_increasing(self):
        trace = search(small_frame(seed=6), "centroid")
        rmses = [s.rmse for s in trace.states]
        assert all(b <= a + 1e-9 for a, b in zip(rmses, rmses[1:]))

    def test_cap_of_one_stops_after_first_move(self):
        trace = search(small_frame(seed=7), "centroid", max_total_steps=1)
        assert trace.states[0].p == 1 and trace.states[0].s == 1
        assert len(trace.states) <= 2

    def test_cap_keeps_surpassing_state(self):
        trace = search(small_frame(seed=8), "centroid", max_total_steps=20)
        totals = [s.total_steps for s in trace.states]
        assert totals[-1] > 20 or (trace.final.p == 16 and trace.final.s == 12)
        assert all(t <= 20 for t in totals[:-1])

    def test_intraday_structure_prefers_segments_first(self):
        # identical strong daily shape, weak day-to-day change
        rng = np.random.default_rng(9)
        shape = np.sin(np.linspace(0, np.pi, 12)) ** 2
        days = shape[None, :] * (1 + 0.02 * rng.standard_normal((30, 1)))
        frame = build_frame(days.reshape(-1), 12)
        trace = search(frame, "centroid")
        assert trace.moves[0].direction == MORE_SEGMENTS

    def test_aperiodic_structure_prefers_periods_first(self):
        # day-level steps, flat within each day
        rng = np.random.default_rng(10)
        levels = np.cumsum(rng.standard_normal(30))
        days = np.repeat(levels[:, None], 12, axis=1)
        days += 0.01 * rng.standard_normal(days.shape)
        frame = build_frame(days.reshape(-1), 12)
        trace = search(frame, "centroid")
        assert trace.moves[0].direction == MORE_PERIODS


class TestSelectConfig:
    def test_budget_covers_final(self):
        trace = search(small_frame(seed=11), "centroid")
        assert select_config(trace, 10 ** 9) == trace.final

    def test_budget_one_returns_start(self):
        trace = search(small_frame(seed=12), "centroid")
        state = select_config(trace, 1)
        assert (state.p, state.s) == (1, 1)

    def test_last_state_within_budget(self):
        trace = search(small_frame(seed=13), "centroid")
        budget = 24
        state = select_config(trace, budget)
        assert state.total_steps <= budget
        after = trace.states.index(state) + 1
        if after < len(trace.states):
            assert trace.states[after].total_steps > budget

    def test_exact_budget_hit(self):
        # a trace visiting 12 periods x 8 segments fills a 96-step budget exactly
        states = [PathwayState(1, 1, 1, 0.5), PathwayState(1, 8, 8, 0.3),
                  PathwayState(12, 8, 96, 0.1), PathwayState(12, 16, 192, 0.05)]
        moves = [Move(MORE_SEGMENTS, 0.1, -0.2), Move(MORE_PERIODS, -0.3, -0.1),
                 Move(MORE_SEGMENTS, None, -0.05)]
        trace = PathwayTrace(states=tuple(states), moves=tuple(moves))
        assert select_config(trace, 96) == states[2]

    def test_invalid_budget(self):
        trace = search(small_frame(seed=14), "centroid")
        with pytest.raises(ConfigError):
            select_config(trace, 0)
