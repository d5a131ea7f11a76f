import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from tsagg import pathway
from tsagg.errors import ConfigError, DataError
from tsagg.hierarchy import ward_linkage
from tsagg.metrics import reconstruct, rmse_tot
from tsagg.pathway import (
    MORE_PERIODS,
    MORE_SEGMENTS,
    ConfigEvaluator,
    PathwayState,
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
    return pathway_search(ConfigEvaluator(periods), method, max_total_steps)


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
        evaluator = ConfigEvaluator(periods)
        for method in ("centroid", "medoid", "distribution"):
            rmse = evaluator.evaluate(16, 12, method)
            assert rmse == 0.0

    def test_coarsest_centroid_matches_dispersion(self):
        periods = small_periods(seed=1, n_attrs=2)
        rmse = ConfigEvaluator(periods).evaluate(1, 1, "centroid")
        x = periods.reshape(-1, 2)
        expected = np.sqrt(np.mean((x - x.mean(axis=0)) ** 2))
        assert abs(rmse - expected) < 1e-12

    def test_failed_representation_stores_nothing(self):
        evaluator = ConfigEvaluator(small_periods())
        for _ in range(2):
            with pytest.raises(ConfigError, match="unknown representation"):
                evaluator.evaluate(4, 3, "mean")

    def test_out_of_range(self):
        evaluator = ConfigEvaluator(small_periods())
        with pytest.raises(ConfigError):
            evaluator.evaluate(0, 1, "centroid")
        with pytest.raises(ConfigError):
            evaluator.evaluate(1, 99, "centroid")

    @pytest.mark.parametrize("counts", [(2.0, 2), (2.5, 2), (2, 2.0), (2, 2.5)])
    def test_counts_are_checked_before_the_cut_cache(self, counts):
        # the warm evaluator has cut 2 cached, under a key that 2.0 equals
        periods = small_periods(n_periods=10, steps=3, n_attrs=2)
        fresh, warm = ConfigEvaluator(periods), ConfigEvaluator(periods)
        expected = warm.evaluate(2, 2, "centroid")
        messages = []
        for evaluator in (fresh, warm):
            with pytest.raises(ConfigError, match="is not an integer") as caught:
                evaluator.evaluate(*counts, "centroid")
            messages.append(str(caught.value))
            assert evaluator.evaluate(np.int64(2), np.int64(2), "centroid") == expected
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_prepare_checks_counts_before_the_cut_cache(self, p):
        evaluator = ConfigEvaluator(small_periods(n_periods=10, steps=3, n_attrs=2))
        evaluator.prepare([2], "centroid")
        with pytest.raises(ConfigError, match="is not an integer"):
            evaluator.prepare([3, p], "centroid")

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 3, 2, 1), (2, 0, 1)])
    def test_periods_must_be_three_dimensional(self, shape):
        with pytest.raises(DataError, match="periods must be a"):
            ConfigEvaluator(np.zeros(shape))


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
    @given(tie_heavy_periods(), st.data())
    def test_matches_fresh_pipeline(self, periods, data):
        n_periods, steps, n_attrs = periods.shape
        # configurations and methods in a drawn order, then back: repeats,
        # smaller p, and cuts that another method made first
        visits = data.draw(st.lists(
            st.tuples(st.integers(1, n_periods), st.integers(1, steps),
                      st.sampled_from(REPRESENTATION_METHODS)),
            min_size=1, max_size=8))
        linkages = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathway, "ward_linkage",
                       lambda samples: linkages.append(1) or ward_linkage(samples))
            evaluator = ConfigEvaluator(periods)
        linkage = ward_linkage(periods.reshape(n_periods, -1))
        for p, s, method in visits + visits[::-1]:
            assignment, _ = linkage.cut(p)
            fresh = represent(periods, assignment, method)
            lengths, values = cut_layout(fresh, segment_linkage(fresh), s)
            expected = reconstruct(lengths, values, assignment)
            got_assignment, got_lengths, got_values, rec = evaluator.reconstruction(p, s, method)
            assert_array_equal(got_assignment, assignment)
            assert_array_equal(got_lengths, lengths)
            assert_array_equal(got_values, values)
            assert_array_equal(rec, expected)
            assert evaluator.evaluate(p, s, method) == rmse_tot(periods.reshape(-1, n_attrs),
                                                                expected)
        assert len(linkages) == 1

    def test_segment_linkage_sees_each_node_once(self, monkeypatch):
        periods = small_periods(seed=15, n_periods=60, steps=24, n_attrs=2)
        batches = []

        def counting(profiles):
            batches.append(len(profiles))
            return segment_linkage(profiles)

        monkeypatch.setattr(pathway, "segment_linkage", counting)
        grid = build_grid(60)
        merges = merge_list(ward_linkage(periods.reshape(60, -1)))
        nodes = set().union(*(naive_nodes(60, merges, p).tolist() for p in grid))
        # each method on one evaluator links its own nodes, once
        evaluator = ConfigEvaluator(periods)
        for method in REPRESENTATION_METHODS:
            batches.clear()
            trace = pathway_search(evaluator, method)
            # an unbounded search ends at full resolution, so it cut at every grid
            # p, and it prepared all of them before its first evaluation
            assert trace[-1].p == 60
            assert len(batches) == 1
            assert sum(batches) == len(nodes) < sum(grid)

    def test_failed_prepare_stores_nothing(self, monkeypatch):
        periods = small_periods(seed=2)
        # the later methods fail on a cut that an earlier method already made
        evaluator = ConfigEvaluator(periods)
        calls = []

        def failing_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("represent failed")
            return represent(*args)

        for method in REPRESENTATION_METHODS:
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(pathway, "represent", failing_second)
                with pytest.raises(RuntimeError, match="represent failed"):
                    evaluator.prepare([2, 4], method)
            assert len(calls) == 2
            fresh = ConfigEvaluator(periods)
            for s in (1, 5, 12):
                got = evaluator.reconstruction(2, s, method)
                expected = fresh.reconstruction(2, s, method)
                # assignment, lengths, values and reconstruction
                for got_array, expected_array in zip(got, expected, strict=True):
                    assert_array_equal(got_array, expected_array)

    @settings(max_examples=80, deadline=None)
    @given(tie_heavy_periods(), st.sampled_from(REPRESENTATION_METHODS), st.data())
    def test_budgeted_search_prepares_every_evaluated_p(self, periods, method, data):
        # budgets just below, at and above a grid value
        budget = data.draw(st.sampled_from(build_grid(periods.shape[0]))) + data.draw(
            st.sampled_from((-1, 0, 1)))
        prepare, evaluate = ConfigEvaluator.prepare, ConfigEvaluator.evaluate
        prepared, evaluated = [], []

        def lazy(self, counts, method):
            # a no-op for the search's batch; reconstruction(p, s) still prepares p alone
            if len(counts) == 1:
                prepare(self, counts, method)

        def recording_prepare(self, counts, method):
            prepared.append(list(counts))
            prepare(self, counts, method)

        def recording_evaluate(self, p, s, method):
            evaluated.append(p)
            return evaluate(self, p, s, method)

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
        totals = [s.total_steps for s in trace]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_unbounded_ends_at_full_resolution(self):
        periods = small_periods(seed=4)
        for method in ("centroid", "medoid", "distribution"):
            trace = search(periods, method)
            assert trace[-1].p == 16
            assert trace[-1].s == 12
            assert trace[-1].rmse == 0.0

    def test_chosen_direction_has_smaller_ratio(self):
        trace = search(small_periods(seed=5, n_attrs=2), "distribution")
        for state in trace[1:]:
            if state.ratio_periods is None or state.ratio_segments is None:
                continue
            chosen = (state.ratio_segments if state.direction == MORE_SEGMENTS
                      else state.ratio_periods)
            other = (state.ratio_periods if state.direction == MORE_SEGMENTS
                     else state.ratio_segments)
            assert chosen <= other

    def test_centroid_rmse_non_increasing(self):
        trace = search(small_periods(seed=6), "centroid")
        rmses = [s.rmse for s in trace]
        assert all(b <= a + 1e-9 for a, b in zip(rmses, rmses[1:]))

    def test_cap_of_one_stops_after_first_move(self):
        trace = search(small_periods(seed=7), "centroid", max_total_steps=1)
        assert trace[0].p == 1 and trace[0].s == 1
        assert len(trace) <= 2

    def test_cap_keeps_surpassing_state(self):
        trace = search(small_periods(seed=8), "centroid", max_total_steps=20)
        totals = [s.total_steps for s in trace]
        assert totals[-1] > 20 or (trace[-1].p == 16 and trace[-1].s == 12)
        assert all(t <= 20 for t in totals[:-1])

    def test_intraday_structure_prefers_segments_first(self):
        # identical strong daily shape, weak day-to-day change
        rng = np.random.default_rng(9)
        shape = np.sin(np.linspace(0, np.pi, 12)) ** 2
        days = shape[None, :] * (1 + 0.02 * rng.standard_normal((30, 1)))
        trace = search(periods_of(days.reshape(-1), 12), "centroid")
        assert trace[1].direction == MORE_SEGMENTS

    def test_aperiodic_structure_prefers_periods_first(self):
        # day-level steps, flat within each day
        rng = np.random.default_rng(10)
        levels = np.cumsum(rng.standard_normal(30))
        days = np.repeat(levels[:, None], 12, axis=1)
        days += 0.01 * rng.standard_normal(days.shape)
        trace = search(periods_of(days.reshape(-1), 12), "centroid")
        assert trace[1].direction == MORE_PERIODS


class TestSelectConfig:
    def test_budget_covers_final(self):
        trace = search(small_periods(seed=11), "centroid")
        assert select_config(trace, 10 ** 9) == trace[-1]

    def test_budget_one_returns_start(self):
        trace = search(small_periods(seed=12), "centroid")
        state = select_config(trace, 1)
        assert (state.p, state.s) == (1, 1)

    def test_last_state_within_budget(self):
        trace = search(small_periods(seed=13), "centroid")
        budget = 24
        state = select_config(trace, budget)
        assert state.total_steps <= budget
        after = trace.index(state) + 1
        if after < len(trace):
            assert trace[after].total_steps > budget

    def test_exact_budget_hit(self):
        # a trace visiting 12 periods x 8 segments fills a 96-step budget exactly
        trace = (PathwayState(1, 1, 0.5), PathwayState(1, 8, 0.3, MORE_SEGMENTS, 0.1, -0.2),
                 PathwayState(12, 8, 0.1, MORE_PERIODS, -0.3, -0.1),
                 PathwayState(12, 16, 0.05, MORE_SEGMENTS, None, -0.05))
        assert select_config(trace, 96) == trace[2]

    def test_no_state_within_budget(self):
        trace = (PathwayState(1, 2, 0.5), PathwayState(2, 2, 0.3, MORE_PERIODS, -0.1, None))
        with pytest.raises(ConfigError, match="trace holds no state within the budget"):
            select_config(trace, 1)

    def test_invalid_budget(self):
        trace = search(small_periods(seed=14), "centroid")
        with pytest.raises(ConfigError):
            select_config(trace, 0)
