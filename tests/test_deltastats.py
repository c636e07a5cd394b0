"""Tests for hourly lift estimates and streaming aggregation.

The numeric fixtures (0.0608 / 8.1616e-5, 0.0200408, 0.025 / 8.125e-5) are
hand-derived from the closed-form estimator definitions and double-checked
against a Monte-Carlo simulation of the group-mean ratio.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zotune.deltastats import (
    DegenerateBaseError,
    DeltaStat,
    DuplicateRoundError,
    EstimateRecord,
    GroupReading,
    NoDataError,
    TaylorMode,
    aggregate,
    hourly_delta_stat,
)

REL = 1e-12


def reading(cid=1, metric="x1", rnd=0, mean=100.0, var=400.0, size=1000):
    return GroupReading(
        candidate_id=cid,
        metric=metric,
        round=rnd,
        sample_mean=mean,
        sample_var=var,
        group_size=size,
    )


class TestGroupReading:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            reading(var=-1.0)

    def test_zero_group_rejected(self):
        with pytest.raises(ValueError):
            reading(size=0)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            reading(rnd=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            reading(mean=bad)
        with pytest.raises(ValueError):
            reading(var=bad)


class TestDeltaStat:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            DeltaStat(mean=0.0, var=-1e-9, weight=1.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            DeltaStat(mean=0.0, var=0.0, weight=0.0)


class TestHourlyDeltaStat:
    """Frozen hand-derived values for both estimator modes."""

    def test_crossed_mode_worked_example(self):
        test = reading(mean=102.0, var=400.0, size=1000)
        control = reading(cid=0, mean=100.0, var=400.0, size=1000)
        stat = hourly_delta_stat(test, control, TaylorMode.CROSSED)
        assert stat.mean == pytest.approx(0.0608, rel=REL)
        assert stat.var == pytest.approx(8.1616e-5, rel=REL)
        assert stat.weight == 1000.0

    def test_delta_method_worked_example(self):
        test = reading(mean=102.0, var=400.0, size=1000)
        control = reading(cid=0, mean=100.0, var=400.0, size=1000)
        stat = hourly_delta_stat(test, control, TaylorMode.DELTA_METHOD)
        assert stat.mean == pytest.approx(0.0200408, rel=1e-9)
        assert stat.var == pytest.approx(8.1616e-5, rel=1e-9)

    def test_identical_deterministic_groups(self):
        for mode in TaylorMode:
            test = reading(mean=50.0, var=0.0, size=10)
            control = reading(cid=0, mean=50.0, var=0.0, size=999)
            stat = hourly_delta_stat(test, control, mode)
            assert stat.mean == 0.0
            assert stat.var == 0.0

    def test_modes_share_variance_at_equal_sizes(self):
        test = reading(mean=103.0, var=250.0, size=2000)
        control = reading(cid=0, mean=99.0, var=300.0, size=2000)
        a = hourly_delta_stat(test, control, TaylorMode.CROSSED)
        b = hourly_delta_stat(test, control, TaylorMode.DELTA_METHOD)
        assert a.var == pytest.approx(b.var, rel=REL)

    def test_mode_accepts_string_value(self):
        test = reading(mean=102.0, var=400.0, size=1000)
        control = reading(cid=0, mean=100.0, var=400.0, size=1000)
        stat = hourly_delta_stat(test, control, "crossed")
        assert stat.mean == pytest.approx(0.0608, rel=REL)

    def test_degenerate_control_mean(self):
        test = reading(mean=1.0)
        control = reading(cid=0, mean=0.0)
        with pytest.raises(DegenerateBaseError):
            hourly_delta_stat(test, control)

    def test_metric_mismatch_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            hourly_delta_stat(reading(metric="x1"), reading(cid=0, metric="x2"))

    def test_round_mismatch_rejected(self):
        with pytest.raises(ValueError, match="round"):
            hourly_delta_stat(reading(rnd=1), reading(cid=0, rnd=2))

    def test_monte_carlo_consistency_delta_method(self):
        """The estimator tracks the simulated ratio's first two moments."""
        rng = np.random.default_rng(7)
        n_hours = 200_000
        n, n0 = 1000, 1000
        mu, sd = 102.0, 20.0
        mu0, sd0 = 100.0, 20.0
        test_means = rng.normal(mu, sd / math.sqrt(n), size=n_hours)
        ctrl_means = rng.normal(mu0, sd0 / math.sqrt(n0), size=n_hours)
        ratios = test_means / ctrl_means - 1.0
        stat = hourly_delta_stat(
            reading(mean=mu, var=sd**2, size=n),
            reading(cid=0, mean=mu0, var=sd0**2, size=n0),
            TaylorMode.DELTA_METHOD,
        )
        assert stat.mean == pytest.approx(float(np.mean(ratios)), rel=0.05)
        assert stat.var == pytest.approx(float(np.var(ratios)), rel=0.10)

    @given(
        kappa=st.floats(min_value=1e-3, max_value=1e3),
        m=st.floats(min_value=10.0, max_value=200.0),
        m0=st.floats(min_value=10.0, max_value=200.0),
        v=st.floats(min_value=0.0, max_value=1e3),
        v0=st.floats(min_value=0.0, max_value=1e3),
        n=st.integers(min_value=1, max_value=10_000),
        n0=st.integers(min_value=1, max_value=10_000),
        mode=st.sampled_from(list(TaylorMode)),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, kappa, m, m0, v, v0, n, n0, mode):
        """Rescaling raw readings by kappa leaves the lift stat unchanged."""
        base = hourly_delta_stat(
            reading(mean=m, var=v, size=n),
            reading(cid=0, mean=m0, var=v0, size=n0),
            mode,
        )
        scaled = hourly_delta_stat(
            reading(mean=kappa * m, var=kappa**2 * v, size=n),
            reading(cid=0, mean=kappa * m0, var=kappa**2 * v0, size=n0),
            mode,
        )
        assert scaled.mean == pytest.approx(base.mean, rel=1e-9, abs=1e-12)
        assert scaled.var == pytest.approx(base.var, rel=1e-9, abs=1e-15)


class TestAggregate:
    def test_worked_example(self):
        pairs = [
            (DeltaStat(mean=0.01, var=4e-4, weight=1000), 1000),
            (DeltaStat(mean=0.03, var=1e-4, weight=3000), 3000),
        ]
        agg = aggregate(pairs)
        assert agg.mean == pytest.approx(0.025, rel=REL)
        assert agg.var == pytest.approx(8.125e-5, rel=REL)
        assert agg.weight == 4000.0

    def test_single_entry_is_identity(self):
        stat = DeltaStat(mean=0.017, var=3.3e-5, weight=123)
        agg = aggregate([(stat, 123)])
        assert agg.mean == stat.mean
        assert agg.var == stat.var

    def test_equal_pair_halves_variance(self):
        stat = DeltaStat(mean=0.02, var=6e-5, weight=500)
        agg = aggregate([(stat, 500), (stat, 500)])
        assert agg.mean == pytest.approx(0.02, rel=REL)
        assert agg.var == pytest.approx(3e-5, rel=REL)

    def test_empty_sequence_rejected(self):
        with pytest.raises(NoDataError):
            aggregate([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            aggregate([(DeltaStat(mean=0.0, var=0.0, weight=1.0), 0)])


class TestEstimateRecord:
    def test_absorb_into_empty_equals_stat(self):
        rec = EstimateRecord()
        stat = DeltaStat(mean=0.01, var=1e-4, weight=1000)
        rec.absorb(1, "x1", 0, stat)
        agg = rec.aggregate(1, "x1")
        assert agg.mean == stat.mean
        assert agg.var == stat.var

    def test_gaps_are_fine(self):
        rec = EstimateRecord()
        stats = {
            1: DeltaStat(mean=0.01, var=1e-4, weight=1000),
            2: DeltaStat(mean=0.02, var=2e-4, weight=500),
            5: DeltaStat(mean=0.03, var=3e-4, weight=2000),
        }
        for rnd, stat in stats.items():
            rec.absorb(7, "x1", rnd, stat)
        batch = aggregate([(s, s.weight) for s in stats.values()])
        agg = rec.aggregate(7, "x1")
        assert agg.mean == pytest.approx(batch.mean, rel=REL)
        assert agg.var == pytest.approx(batch.var, rel=REL)
        assert rec.rounds_absorbed(7, "x1") == 3

    def test_duplicate_round_is_conflict_and_no_op(self):
        rec = EstimateRecord()
        first = DeltaStat(mean=0.01, var=1e-4, weight=1000)
        rec.absorb(1, "x1", 2, first)
        before = rec.aggregate(1, "x1")
        with pytest.raises(DuplicateRoundError):
            rec.absorb(1, "x1", 2, DeltaStat(mean=9.9, var=9.9, weight=9))
        after = rec.aggregate(1, "x1")
        assert after == before
        assert len(rec) == 1

    def test_same_round_different_metric_or_candidate_ok(self):
        rec = EstimateRecord()
        stat = DeltaStat(mean=0.0, var=0.0, weight=1)
        rec.absorb(1, "x1", 0, stat)
        rec.absorb(1, "x2", 0, stat)
        rec.absorb(2, "x1", 0, stat)
        assert len(rec) == 3

    def test_hourly_sorted_by_round(self):
        rec = EstimateRecord()
        for rnd in (5, 1, 3):
            rec.absorb(1, "x1", rnd, DeltaStat(mean=rnd, var=0.0, weight=1))
        rounds = [rnd for rnd, _ in rec.hourly(1, "x1")]
        assert rounds == [1, 3, 5]

    def test_candidates_with_data_requires_all_metrics(self):
        rec = EstimateRecord()
        stat = DeltaStat(mean=0.0, var=0.0, weight=1)
        rec.absorb(1, "x1", 0, stat)
        rec.absorb(1, "x2", 0, stat)
        rec.absorb(2, "x1", 0, stat)
        assert rec.candidates_with_data(("x1", "x2")) == [1]
        assert rec.candidates_with_data(("x1",)) == [1, 2]

    def test_aggregate_missing_key_is_none(self):
        rec = EstimateRecord()
        assert rec.aggregate(42, "x1") is None

    @given(
        stats=st.lists(
            st.tuples(
                st.floats(min_value=-0.5, max_value=0.5),
                st.floats(min_value=0.0, max_value=1e-2),
                st.integers(min_value=1, max_value=100_000),
            ),
            min_size=1,
            max_size=8,
        ),
        perm_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_streaming_matches_batch_under_permutation(self, stats, perm_seed):
        entries = [
            (rnd, DeltaStat(mean=m, var=v, weight=n))
            for rnd, (m, v, n) in enumerate(stats)
        ]
        order = list(range(len(entries)))
        np.random.default_rng(perm_seed).shuffle(order)
        rec = EstimateRecord()
        for i in order:
            rnd, stat = entries[i]
            rec.absorb(1, "x1", rnd, stat)
        streamed = rec.aggregate(1, "x1")
        batch = aggregate([(s, s.weight) for _, s in entries])
        assert streamed.mean == pytest.approx(batch.mean, rel=REL, abs=1e-15)
        assert streamed.var == pytest.approx(batch.var, rel=REL, abs=1e-18)
        assert streamed.weight == pytest.approx(batch.weight, rel=REL)

    def test_all_absorb_orders_give_same_aggregate(self):
        entries = [
            (0, DeltaStat(mean=0.011, var=2.5e-4, weight=700)),
            (1, DeltaStat(mean=-0.004, var=1.1e-4, weight=1900)),
            (2, DeltaStat(mean=0.029, var=9.0e-5, weight=250)),
            (3, DeltaStat(mean=0.002, var=4.2e-4, weight=1300)),
        ]
        reference = None
        for perm in itertools.permutations(entries):
            rec = EstimateRecord()
            for rnd, stat in perm:
                rec.absorb(1, "x1", rnd, stat)
            agg = rec.aggregate(1, "x1")
            if reference is None:
                reference = agg
            else:
                assert agg.mean == pytest.approx(reference.mean, rel=REL)
                assert agg.var == pytest.approx(reference.var, rel=REL)
