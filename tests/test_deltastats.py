"""Tests for hourly lift estimates and streaming aggregation.

The numeric fixtures (0.0608 / 8.1616e-5, 0.0200408, 0.025 / 8.125e-5) are
hand-derived from the closed-form estimator definitions and double-checked
against a Monte-Carlo simulation of the group-mean ratio.
"""

import copy
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for fields in ((bad, 0.0, 1.0), (0.0, bad, 1.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError):
                DeltaStat(*fields)


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

    @pytest.mark.parametrize("mode", list(TaylorMode))
    def test_overflowing_estimate_is_degenerate(self, mode):
        # m**2 overflows (Python raises); the tiny control's products give inf.
        for test, control in (
            (reading(mean=1e200), reading(cid=0, mean=1.0)),
            (reading(mean=100.0), reading(cid=0, mean=1e-5, var=1e300)),
        ):
            with pytest.raises(DegenerateBaseError, match="finite"):
                hourly_delta_stat(test, control, mode)

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


class _LazyEstimateRecord:
    """The record as it was before aggregates were formed at absorb: running
    sums only, each aggregate built when read."""

    def __init__(self):
        self._series = {}

    def absorb(self, candidate_id, metric, round_no, stat):
        key = (int(candidate_id), str(metric))
        round_no = int(round_no)
        series = self._series.get(key)
        if series is None:
            series = {"by_round": {}, "sum_w": 0.0, "sum_wm": 0.0, "sum_w2v": 0.0}
        elif round_no in series["by_round"]:
            raise DuplicateRoundError("already absorbed")
        sums = (
            series["sum_w"] + stat.weight,
            series["sum_wm"] + stat.weight * stat.mean,
            series["sum_w2v"] + stat.weight * stat.weight * stat.var,
        )
        if not all(map(math.isfinite, sums)):
            raise DegenerateBaseError("would overflow the running sums")
        self._series[key] = series
        series["by_round"][round_no] = stat
        series["sum_w"], series["sum_wm"], series["sum_w2v"] = sums

    def aggregate(self, candidate_id, metric):
        series = self._series.get((int(candidate_id), str(metric)))
        if series is None or series["sum_w"] == 0.0:
            return None
        return DeltaStat(
            mean=series["sum_wm"] / series["sum_w"],
            var=series["sum_w2v"] / series["sum_w"] ** 2,
            weight=series["sum_w"],
        )


_rows = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["x1", "x2"]),
        st.integers(min_value=0, max_value=4),
        st.one_of(
            st.floats(min_value=-0.5, max_value=0.5),
            st.sampled_from([1e150, -1e300, 1e-300]),
        ),
        st.one_of(
            st.floats(min_value=0.0, max_value=1e-2),
            st.sampled_from([0.0, 1e-300, 1e300]),
        ),
        st.one_of(
            st.integers(min_value=1, max_value=100_000).map(float),
            st.sampled_from([1e154, 7e153, 1e-170, 1e-200, 1e300]),
        ),
    ),
    max_size=40,
)


@pytest.mark.bitwise
class TestAbsorbTimeAggregateReference:
    """Forming each aggregate at absorb changes no bit of what is read."""

    @given(rows=_rows)
    @settings(max_examples=300, deadline=None)
    def test_matches_lazy_record(self, rows):
        """Any absorb sequence, duplicates and refused rows included, gives
        the aggregates of the lazy record; a row is refused
        exactly when the lazy record refuses it or could not read its key's
        aggregate afterwards."""
        new, lazy = EstimateRecord(), _LazyEstimateRecord()
        keys = set()
        for cid, metric, rnd, m, v, w in rows:
            stat = DeltaStat(mean=m, var=v, weight=w)
            keys.add((cid, metric))
            try:
                new.absorb(cid, metric, rnd, stat)
            except DuplicateRoundError:
                with pytest.raises(DuplicateRoundError):
                    lazy.absorb(cid, metric, rnd, stat)
            except DegenerateBaseError:
                trial = copy.deepcopy(lazy)
                try:
                    trial.absorb(cid, metric, rnd, stat)
                except DegenerateBaseError:
                    pass  # a running sum overflows
                else:
                    with pytest.raises((ArithmeticError, ValueError)):
                        trial.aggregate(cid, metric)
            else:
                lazy.absorb(cid, metric, rnd, stat)
            for key in keys:
                got, want = new.aggregate(*key), lazy.aggregate(*key)
                if want is None:
                    assert got is None
                else:
                    assert (got.mean, got.var, got.weight) == (want.mean, want.var, want.weight)


class TestEstimateRecord:
    def test_absorb_into_empty_equals_stat(self):
        rec = EstimateRecord()
        stat = DeltaStat(mean=0.01, var=1e-4, weight=1000)
        rec.absorb(1, "x1", 0, stat)
        agg = rec.aggregate(1, "x1")
        assert agg.mean == stat.mean
        assert agg.var == stat.var

    def test_running_sum_overflow_refused_and_record_unchanged(self):
        """A finite hour whose weighted variance overflows its running sum
        (n**2 * var = 1e6 * 4e303) is refused; nothing is absorbed."""
        rec = EstimateRecord()
        first = DeltaStat(mean=0.01, var=1e-4, weight=1000)
        rec.absorb(1, "x1", 0, first)
        huge = DeltaStat(mean=1e153, var=4e303, weight=1000)
        for cid in (1, 2):
            with pytest.raises(DegenerateBaseError, match="running sums"):
                rec.absorb(cid, "x1", 1, huge)
        assert rec.aggregate(1, "x1") == first
        assert rec.aggregate(2, "x1") is None
        rec.absorb(1, "x1", 1, first)  # the round is still free
        assert rec.aggregate(1, "x1") == aggregate([(first, 1000), (first, 1000)])

    @pytest.mark.parametrize(
        "weights",
        [(1e154, 1e154), (1e-200,)],
        ids=["squared-weight-overflows", "squared-weight-underflows"],
    )
    def test_unformable_aggregate_refused_and_record_unchanged(self, weights):
        """Every running sum stays finite, but the aggregate's ``sum_w**2``
        does not: two hours of weight 1e154 square to 4e308 (Python's
        ``float ** 2`` raises), and 1e-200 squares to zero.  The last hour is
        refused and nothing of it is absorbed."""
        rec = EstimateRecord()
        kept = [DeltaStat(mean=0.01, var=1e-4, weight=w) for w in weights[:-1]]
        for rnd, stat in enumerate(kept):
            rec.absorb(1, "x1", rnd, stat)
        last = DeltaStat(mean=0.01, var=1e-4, weight=weights[-1])
        with pytest.raises(DegenerateBaseError, match="aggregate"):
            rec.absorb(1, "x1", len(kept), last)
        expected = aggregate([(s, s.weight) for s in kept]) if kept else None
        assert rec.aggregate(1, "x1") == expected
        free = DeltaStat(mean=0.01, var=1e-4, weight=1000)
        rec.absorb(1, "x1", len(kept), free)  # the round is still free

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
        assert agg.weight == 3500

    def test_duplicate_round_is_conflict_and_no_op(self):
        rec = EstimateRecord()
        first = DeltaStat(mean=0.01, var=1e-4, weight=1000)
        rec.absorb(1, "x1", 2, first)
        before = rec.aggregate(1, "x1")
        with pytest.raises(DuplicateRoundError):
            rec.absorb(1, "x1", 2, DeltaStat(mean=9.9, var=9.9, weight=9))
        after = rec.aggregate(1, "x1")
        assert after == before

    def test_same_round_different_metric_or_candidate_ok(self):
        rec = EstimateRecord()
        stat = DeltaStat(mean=0.0, var=0.0, weight=1)
        rec.absorb(1, "x1", 0, stat)
        rec.absorb(1, "x2", 0, stat)
        rec.absorb(2, "x1", 0, stat)
        for key in ((1, "x1"), (1, "x2"), (2, "x1")):
            assert rec.aggregate(*key) == stat

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
