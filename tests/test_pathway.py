import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from tsagg import pathway
from tsagg.errors import ConfigError
from tsagg.hierarchy import ward_linkage
from tsagg.metrics import reconstruct, rmse_tot
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
from tsagg.representation import REPRESENTATION_METHODS, represent
from tsagg.segmentation import cut_layout, segment_linkage

from helpers import merge_list, periods_of
from reference import naive_nodes


def small_periods(seed=0, n_periods=16, steps=12, n_attrs=1):
    rng = np.random.default_rng(seed)
    return periods_of(rng.standard_normal((n_periods * steps, n_attrs)), steps)


def search(periods, method, max_total_steps=None):
    return pathway_search(ConfigEvaluator(periods, method), max_total_steps)


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
        periods = small_periods()
        for method in ("centroid", "medoid", "distribution"):
            state = ConfigEvaluator(periods, method).evaluate(16, 12)
            assert state.rmse == 0.0

    def test_coarsest_centroid_matches_dispersion(self):
        periods = small_periods(seed=1, n_attrs=2)
        state = ConfigEvaluator(periods, "centroid").evaluate(1, 1)
        x = periods.reshape(-1, 2)
        expected = np.sqrt(np.mean((x - x.mean(axis=0)) ** 2))
        assert abs(state.rmse - expected) < 1e-12

    def test_cached_result_is_identical(self):
        evaluator = ConfigEvaluator(small_periods(seed=2), "distribution")
        first = evaluator.evaluate(4, 3)
        second = evaluator.evaluate(4, 3)
        assert first is second

    def test_failed_representation_stores_nothing(self):
        evaluator = ConfigEvaluator(small_periods(), "mean")
        for _ in range(2):
            with pytest.raises(ConfigError, match="unknown representation"):
                evaluator.evaluate(4, 3)

    def test_out_of_range(self):
        evaluator = ConfigEvaluator(small_periods(), "centroid")
        with pytest.raises(ConfigError):
            evaluator.evaluate(0, 1)
        with pytest.raises(ConfigError):
            evaluator.evaluate(1, 99)


@st.composite
def tie_heavy_periods(draw):
    """0..2 integer periods repeated 1-4 times in shuffled order.

    Sometimes one attribute is constant.
    """
    steps = draw(st.integers(1, 6))
    n_attrs = draw(st.integers(1, 3))
    pool = draw(arrays(np.int64, (draw(st.integers(1, 6)), steps, n_attrs),
                       elements=st.integers(0, 2)))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(pool), max_size=len(pool)))
    periods = np.repeat(pool, repeats, axis=0).astype(np.float64)
    periods = periods[draw(st.permutations(range(len(periods))))]
    if draw(st.booleans()):
        periods[:, :, draw(st.integers(0, n_attrs - 1))] = draw(st.integers(0, 2))
    return periods_of(periods.reshape(-1, n_attrs), steps)


class TestNodeCache:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_periods(), st.sampled_from(REPRESENTATION_METHODS), st.data())
    def test_matches_fresh_pipeline(self, periods, method, data):
        n_periods, steps, n_attrs = periods.shape
        # configurations in a drawn order, then back: repeats and smaller p
        visits = data.draw(st.lists(
            st.tuples(st.integers(1, n_periods), st.integers(1, steps)),
            min_size=1, max_size=6))
        evaluator = ConfigEvaluator(periods, method)
        linkage = ward_linkage(periods.reshape(n_periods, -1))
        for p, s in visits + visits[::-1]:
            assignment, _ = linkage.cut(p)
            fresh = represent(periods, assignment, method)
            layout = cut_layout(fresh, segment_linkage(fresh), s)
            expected = reconstruct(layout, assignment)
            got_assignment, got_layout, rec = evaluator.reconstruction(p, s)
            assert_array_equal(got_assignment, assignment)
            assert_array_equal(got_layout.lengths, layout.lengths)
            assert_array_equal(got_layout.values, layout.values)
            assert_array_equal(rec, expected)
            assert evaluator.evaluate(p, s).rmse == rmse_tot(periods.reshape(-1, n_attrs),
                                                             expected)

    def test_segment_linkage_sees_each_node_once(self, monkeypatch):
        periods = small_periods(seed=15, n_periods=60, steps=24, n_attrs=2)
        batches = []

        def counting(profiles):
            batches.append(len(profiles))
            return segment_linkage(profiles)

        monkeypatch.setattr(pathway, "segment_linkage", counting)
        trace = search(periods, "distribution")
        # an unbounded search ends at full resolution, so it cut at every grid
        # p, and it prepared all of them before its first evaluation
        assert trace.final.p == 60
        assert len(batches) == 1
        grid = build_grid(60)
        merges = merge_list(ward_linkage(periods.reshape(60, -1)))
        nodes = set().union(*(naive_nodes(60, merges, p).tolist() for p in grid))
        assert sum(batches) == len(nodes) < sum(grid)

    @settings(max_examples=80, deadline=None)
    @given(tie_heavy_periods(), st.sampled_from(REPRESENTATION_METHODS), st.data())
    def test_budgeted_search_prepares_every_evaluated_p(self, periods, method, data):
        # budgets just below, at and above a grid value
        budget = data.draw(st.sampled_from(build_grid(periods.shape[0]))) + data.draw(
            st.sampled_from((-1, 0, 1)))
        prepare, evaluate = ConfigEvaluator.prepare, ConfigEvaluator.evaluate
        prepared, evaluated = [], []

        def lazy(self, counts):
            # a no-op for the search's batch; reconstruction(p, s) still prepares p alone
            if len(counts) == 1:
                prepare(self, counts)

        def recording_prepare(self, counts):
            prepared.append(list(counts))
            prepare(self, counts)

        def recording_evaluate(self, p, s):
            evaluated.append(p)
            return evaluate(self, p, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ConfigEvaluator, "prepare", lazy)
            expected = search(periods, method, budget)
            mp.setattr(ConfigEvaluator, "prepare", recording_prepare)
            mp.setattr(ConfigEvaluator, "evaluate", recording_evaluate)
            assert search(periods, method, budget) == expected
        assert set(evaluated) <= set(prepared[0])


class TestPathwaySearch:
    def test_total_steps_strictly_increase(self):
        trace = search(small_periods(seed=3), "centroid")
        totals = [s.total_steps for s in trace.states]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_unbounded_ends_at_full_resolution(self):
        periods = small_periods(seed=4)
        for method in ("centroid", "medoid", "distribution"):
            trace = search(periods, method)
            assert trace.final.p == 16
            assert trace.final.s == 12
            assert trace.final.rmse == 0.0

    def test_chosen_direction_has_smaller_ratio(self):
        trace = search(small_periods(seed=5, n_attrs=2), "distribution")
        for move in trace.moves:
            if move.ratio_periods is None or move.ratio_segments is None:
                continue
            chosen = (move.ratio_segments if move.direction == MORE_SEGMENTS
                      else move.ratio_periods)
            other = (move.ratio_periods if move.direction == MORE_SEGMENTS
                     else move.ratio_segments)
            assert chosen <= other

    def test_centroid_rmse_non_increasing(self):
        trace = search(small_periods(seed=6), "centroid")
        rmses = [s.rmse for s in trace.states]
        assert all(b <= a + 1e-9 for a, b in zip(rmses, rmses[1:]))

    def test_cap_of_one_stops_after_first_move(self):
        trace = search(small_periods(seed=7), "centroid", max_total_steps=1)
        assert trace.states[0].p == 1 and trace.states[0].s == 1
        assert len(trace.states) <= 2

    def test_cap_keeps_surpassing_state(self):
        trace = search(small_periods(seed=8), "centroid", max_total_steps=20)
        totals = [s.total_steps for s in trace.states]
        assert totals[-1] > 20 or (trace.final.p == 16 and trace.final.s == 12)
        assert all(t <= 20 for t in totals[:-1])

    def test_intraday_structure_prefers_segments_first(self):
        # identical strong daily shape, weak day-to-day change
        rng = np.random.default_rng(9)
        shape = np.sin(np.linspace(0, np.pi, 12)) ** 2
        days = shape[None, :] * (1 + 0.02 * rng.standard_normal((30, 1)))
        trace = search(periods_of(days.reshape(-1), 12), "centroid")
        assert trace.moves[0].direction == MORE_SEGMENTS

    def test_aperiodic_structure_prefers_periods_first(self):
        # day-level steps, flat within each day
        rng = np.random.default_rng(10)
        levels = np.cumsum(rng.standard_normal(30))
        days = np.repeat(levels[:, None], 12, axis=1)
        days += 0.01 * rng.standard_normal(days.shape)
        trace = search(periods_of(days.reshape(-1), 12), "centroid")
        assert trace.moves[0].direction == MORE_PERIODS


class TestSelectConfig:
    def test_budget_covers_final(self):
        trace = search(small_periods(seed=11), "centroid")
        assert select_config(trace, 10 ** 9) == trace.final

    def test_budget_one_returns_start(self):
        trace = search(small_periods(seed=12), "centroid")
        state = select_config(trace, 1)
        assert (state.p, state.s) == (1, 1)

    def test_last_state_within_budget(self):
        trace = search(small_periods(seed=13), "centroid")
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
        trace = search(small_periods(seed=14), "centroid")
        with pytest.raises(ConfigError):
            select_config(trace, 0)
