"""Tests for the round loop, traffic planning, and file-backed persistence."""

import hashlib
import json
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zotune.deltastats import TaylorMode
from zotune.problem import (
    AT_LEAST,
    ConstraintSpec,
    HyperParam,
    LinearExpr,
    TuningProblem,
)
from zotune.scheduler import (
    BucketInit,
    ColdStartError,
    InboundBatch,
    RestoreError,
    RoundPlan,
    Scheduler,
    SchedulerConfig,
)
from zotune import scheduler as scheduler_module
from zotune.deltastats import GroupReading
from zotune.gp import FitFailureError, GpSurrogate
from zotune.harness import ExperimentConfig, SingleRun
from zotune.optimizer import beliefs, propose, select

BOUNDS = ((0.0, 1.0), (0.0, 1.0))
METRICS = ("x1", "x2")


def make_problem(constraints=()):
    return TuningProblem(
        metrics=METRICS,
        objective=LinearExpr((1.0, 0.5)),
        constraints=constraints,
        base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
    )


def make_sched(seed=0, init=None, store_dir=None, **cfg_kwargs):
    config = SchedulerConfig(
        init=init or BucketInit(mode="random", size=5),
        **cfg_kwargs,
    )
    return Scheduler.bootstrap(
        make_problem(), config, np.random.default_rng(seed), store_dir=store_dir
    )


def batch_for(cid, origin, arrival, lifts=(0.02, 0.01), var=4.0, n=1000, base=100.0):
    """One candidate's feedback: test means lifted over a control of ``base``."""
    readings = []
    for metric, lift in zip(METRICS, lifts):
        test = GroupReading(
            candidate_id=cid, metric=metric, round=origin,
            sample_mean=base * (1.0 + lift), sample_var=var, group_size=n,
        )
        ctrl = GroupReading(
            candidate_id=0, metric=metric, round=origin,
            sample_mean=base, sample_var=var, group_size=n,
        )
        readings.append((test, ctrl))
    return InboundBatch(origin_round=origin, arrival_round=arrival, readings=tuple(readings))


class TestRoundPlan:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RoundPlan(round=1, control_fraction=0.2, assignments=((1, 0.5), (2, 0.5)))

    def test_valid_plan(self):
        plan = RoundPlan(round=1, control_fraction=0.2, assignments=((1, 0.5), (2, 0.3)))
        fractions = dict(plan.assignments)
        assert fractions[1] == 0.5
        assert fractions.get(99, 0.0) == 0.0
        assert tuple(fractions) == (1, 2)

    def test_unsorted_ids_rejected(self):
        with pytest.raises(ValueError):
            RoundPlan(round=1, control_fraction=0.2, assignments=((2, 0.4), (1, 0.4)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            RoundPlan(round=1, control_fraction=0.2, assignments=((1, 0.4), (1, 0.4)))

    def test_control_fraction_bounds(self):
        with pytest.raises(ValueError):
            RoundPlan(round=0, control_fraction=0.0, assignments=((1, 1.0),))
        with pytest.raises(ValueError):
            RoundPlan(round=0, control_fraction=1.0, assignments=())

    def test_dict_roundtrip(self):
        plan = RoundPlan(round=3, control_fraction=0.2, assignments=((1, 0.5), (4, 0.3)))
        assert RoundPlan.from_dict(plan.to_dict()) == plan


class TestInboundBatch:
    def test_arrival_before_origin_rejected(self):
        with pytest.raises(ValueError):
            batch_for(1, origin=5, arrival=4)

    def test_readings_must_carry_origin_round(self):
        good = batch_for(1, origin=2, arrival=5)
        with pytest.raises(ValueError):
            InboundBatch(origin_round=3, arrival_round=5, readings=good.readings)

    def test_pair_must_name_one_metric(self):
        (test, _), (_, other_ctrl) = batch_for(1, origin=2, arrival=5).readings
        with pytest.raises(ValueError, match="metric mismatch"):
            InboundBatch(origin_round=2, arrival_round=5, readings=((test, other_ctrl),))

    def test_dict_roundtrip(self):
        batch = batch_for(7, origin=2, arrival=6, lifts=(0.031, -0.004))
        back = InboundBatch.from_dict(batch.to_dict())
        assert back == batch


class TestBootstrap:
    def test_grid_init_lays_full_grid(self):
        sched = make_sched(init=BucketInit(mode="grid", nodes_per_dim=10))
        bucket = sched.bucket
        assert len(bucket) == 100
        thetas = {hp.theta for hp in bucket}
        assert (0.0, 0.0) in thetas and (1.0, 1.0) in thetas
        assert all(hp.id >= 1 for hp in bucket)
        assert sched.next_id == 101

    def test_random_init_deterministic_by_seed(self):
        a = make_sched(seed=5, init=BucketInit(mode="random", size=8))
        b = make_sched(seed=5, init=BucketInit(mode="random", size=8))
        assert tuple(hp.theta for hp in a.bucket) == tuple(hp.theta for hp in b.bucket)

    def test_base_is_not_in_bucket(self):
        sched = make_sched()
        assert all(hp.id != sched.problem.base.id for hp in sched.bucket)


class TestInitialPlan:
    def test_uniform_split(self):
        sched = make_sched(init=BucketInit(mode="random", size=4))
        plan = sched.initial_plan()
        assert plan.round == 0
        for cid, frac in plan.assignments:
            assert frac == pytest.approx(0.8 / 4)
        total = plan.control_fraction + sum(f for _, f in plan.assignments)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        sched = make_sched()
        assert sched.initial_plan() == sched.initial_plan()
        assert sched.round == 0


class TestRunRound:
    def test_cold_start_error_without_exposure(self):
        sched = make_sched()
        with pytest.raises(ColdStartError):
            sched.run_round()

    def test_no_data_reemits_uniform_without_consuming_rng(self):
        sched = make_sched()
        first = sched.initial_plan()
        state_before = json.dumps(sched.rng.bit_generator.state, sort_keys=True)
        plan = sched.run_round()  # nothing has arrived yet
        state_after = json.dumps(sched.rng.bit_generator.state, sort_keys=True)
        assert state_before == state_after
        assert plan.round == 1
        assert plan.assignments == tuple(
            (cid, frac) for cid, frac in first.assignments
        )
        assert sched.last_selection is None

    def test_selection_after_feedback(self):
        sched = make_sched(proposal_prob=0.0, select_count=50)
        sched.initial_plan()
        batches = [
            batch_for(1, 0, 1, lifts=(0.05, 0.01), var=0.0),
            batch_for(2, 0, 1, lifts=(0.01, 0.01), var=0.0),
        ]
        plan = sched.run_round(batches)
        assert sched.last_selection is not None
        assert sched.last_selection.winners == (1,) * 50
        assert dict(plan.assignments)[1] == pytest.approx(0.8)

    def test_traffic_split_two_to_one(self):
        """Units {a: 2, b: 1} at control 0.2 give 0.5333... and 0.2666..."""
        sched = make_sched()
        plan = sched._plan_from_units(1, Counter({1: 2, 2: 1}))
        fractions = dict(plan.assignments)
        assert fractions[1] == pytest.approx(0.8 * 2 / 3, rel=1e-12)
        assert fractions[2] == pytest.approx(0.8 / 3, rel=1e-12)

    def test_proposal_grows_bucket_with_unit_traffic(self):
        sched = make_sched(proposal_prob=1.0, select_count=3, proposal_samples=16)
        sched.initial_plan()
        before = len(sched.bucket)
        new_id = sched.next_id
        plan = sched.run_round([batch_for(1, 0, 1, var=0.0)])
        assert len(sched.bucket) == before + 1
        assert sched.created_round(new_id) == 1
        # zero-variance winners all land on candidate 1: units {1: 3, new: 1}
        fractions = dict(plan.assignments)
        assert fractions[1] == pytest.approx(0.8 * 3 / 4)
        assert fractions[new_id] == pytest.approx(0.8 / 4)

    def test_p_zero_keeps_bucket_constant(self):
        sched = make_sched(proposal_prob=0.0, select_count=10)
        sched.initial_plan()
        size = len(sched.bucket)
        for r in range(1, 6):
            sched.run_round([batch_for(1, r - 1, r, var=0.0)])
        assert len(sched.bucket) == size

    def test_bucket_bounded_by_initial_plus_rounds(self):
        sched = make_sched(proposal_prob=1.0, select_count=5, proposal_samples=8)
        sched.initial_plan()
        t = 4
        for r in range(1, t + 1):
            sched.run_round([batch_for(1, r - 1, r, var=0.0)])
        assert len(sched.bucket) <= 5 + t

    def test_plans_conserve_traffic(self):
        sched = make_sched(proposal_prob=1.0, select_count=7, proposal_samples=8)
        plans = [sched.initial_plan()]
        for r in range(1, 5):
            plans.append(sched.run_round([batch_for(1, r - 1, r)]))
        for plan in plans:
            total = plan.control_fraction + sum(f for _, f in plan.assignments)
            assert abs(total - 1.0) <= 1e-12

    def test_seed_determinism_full_run(self):
        def run(seed):
            sched = make_sched(seed=seed, proposal_prob=1.0, select_count=20, proposal_samples=16)
            plans = [sched.initial_plan()]
            for r in range(1, 6):
                plans.append(sched.run_round([batch_for(1, r - 1, r), batch_for(2, r - 1, r, lifts=(0.01, 0.03))]))
            return plans, tuple(hp.theta for hp in sched.bucket)

        a_plans, a_bucket = run(11)
        b_plans, b_bucket = run(11)
        assert a_plans == b_plans
        assert a_bucket == b_bucket


def _sequential_round(sched, inbound=()):
    """``run_round`` in the one-thread order: select, draw ``u``, and only
    then fit and propose."""
    round_no = sched.round + 1
    sched.ingest(inbound)
    eligible = [
        hp for hp in sched.bucket
        if all(sched.record.aggregate(hp.id, m) is not None for m in sched.problem.metrics)
    ]
    if not eligible:
        plan = sched._plan_from_units(round_no, Counter(sched._bucket.keys()))
        sched.last_selection = None
    else:
        cfg = sched.config
        sel = select(
            *beliefs(eligible, sched.record, sched.problem), sched.problem,
            cfg.select_count, sched.rng,
        )
        sched.last_selection = sel
        units = Counter(sel.winners)
        if sched.rng.random() < cfg.proposal_prob:
            surrogate = GpSurrogate.fit(eligible, sel.mu, sel.var)
            newcomer = propose(
                surrogate, sched.problem, cfg.proposal_samples,
                sched.problem.base.bounds, sched.rng, new_id=sched.next_id,
            ).proposed
            sched._bucket[newcomer.id] = newcomer
            sched._created_round[newcomer.id] = round_no
            sched._next_id += 1
            units[newcomer.id] += 1
        plan = sched._plan_from_units(round_no, units)
    sched._round = round_no
    sched._last_plan = plan
    return plan


def _feedback(plan, rng, mean=None):
    """Feedback for every candidate of ``plan``, arriving the next round:
    random lifts, or raw test means of ``mean``."""
    batches = []
    for cid, _ in plan.assignments:
        if mean is None:
            lifts, base = tuple(rng.normal(0.0, 0.02, size=2)), 100.0
        else:
            lifts, base = (0.0, 0.0), mean
        batches.append(batch_for(cid, plan.round, plan.round + 1, lifts=lifts, base=base))
    return batches


@pytest.mark.bitwise
class TestFitBesideSelection:
    """``run_round`` fits the GP on a helper thread while it draws the
    selection; every result, and the stream, equal the one-thread order."""

    def assert_same_state(self, live, ref):
        assert live.bucket == ref.bucket
        assert live.next_id == ref.next_id
        assert live.round == ref.round
        assert live.last_plan == ref.last_plan
        assert live.rng.bit_generator.state == ref.rng.bit_generator.state
        a, b = live.last_selection, ref.last_selection
        assert (a is None) == (b is None)
        if a is not None:
            assert a.winners == b.winners
            assert a.candidate_ids == b.candidate_ids
            assert a.infeasible_rounds == b.infeasible_rounds
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.var, b.var)

    def run_beside_reference(self, p, rounds):
        """Drive ``run_round`` and the one-thread reference side by side on
        200 candidates; returns the number of rounds that proposed."""
        init = BucketInit(mode="random", size=200)
        live = make_sched(seed=21, init=init, proposal_prob=p, proposal_samples=200)
        ref = make_sched(seed=21, init=init, proposal_prob=p, proposal_samples=200)
        live_plan, ref_plan = live.initial_plan(), ref.initial_plan()
        live_fb, ref_fb = np.random.default_rng(5), np.random.default_rng(5)
        threads = threading.active_count()
        proposals = 0
        for _ in range(rounds):
            next_id = ref.next_id
            live_plan = live.run_round(_feedback(live_plan, live_fb))
            assert threading.active_count() == threads
            ref_plan = _sequential_round(ref, _feedback(ref_plan, ref_fb))
            assert live_plan == ref_plan
            self.assert_same_state(live, ref)
            proposals += ref.next_id - next_id
        return proposals

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.0])
    def test_matches_sequential_reference(self, p):
        low, high = {1.0: (6, 6), 0.5: (1, 5), 0.0: (0, 0)}[p]
        assert low <= self.run_beside_reference(p, 6) <= high

    def test_matches_sequential_reference_under_frequent_switches(self):
        """A 10 us switch interval hands the GIL back and forth between the
        fit and the draws many times per round; nothing changes."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert self.run_beside_reference(1.0, 3) == 3
        finally:
            sys.setswitchinterval(interval)

    def test_fit_failure_raised_exactly_when_the_round_proposes(self):
        """Raw targets of 1e200 overflow the signal variance: the fit fails
        every round, and the round raises only when ``u < p``."""
        init = BucketInit(mode="random", size=200)
        kw = dict(init=init, proposal_prob=0.5, normalization="raw", proposal_samples=50)
        live, ref = make_sched(seed=8, **kw), make_sched(seed=8, **kw)
        feedback = _feedback(live.initial_plan(), None, mean=1e200)
        assert _feedback(ref.initial_plan(), None, mean=1e200) == feedback
        threads = threading.active_count()
        outcomes = []
        for _ in range(8):
            try:
                plan = live.run_round(feedback)
            except FitFailureError as exc:
                assert threading.active_count() == threads
                assert "signal variance" in str(exc)
                with pytest.raises(FitFailureError, match="signal variance"):
                    _sequential_round(ref, feedback)
                outcomes.append("raised")
            else:
                assert threading.active_count() == threads
                assert plan == _sequential_round(ref, feedback)
                outcomes.append("planned")
            self.assert_same_state(live, ref)
            feedback = []
        assert set(outcomes) == {"raised", "planned"}

    def test_selection_error_joins_the_fit(self, monkeypatch):
        def failing_select(*args, **kwargs):
            raise RuntimeError("selection failed")

        sched = make_sched(proposal_prob=1.0, select_count=5, proposal_samples=8)
        sched.initial_plan()
        monkeypatch.setattr(scheduler_module, "select", failing_select)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="selection failed"):
            sched.run_round([batch_for(1, 0, 1)])
        assert threading.active_count() == threads


class TestIngest:
    def test_duplicates_skipped_first_write_wins(self):
        sched = make_sched()
        sched.initial_plan()
        batch = batch_for(1, 0, 1, lifts=(0.02, 0.01))
        assert sched.ingest([batch]) == 2  # one row per metric
        agg_before = sched.record.aggregate(1, "x1")
        changed = batch_for(1, 0, 1, lifts=(0.9, 0.9))
        assert sched.ingest([changed]) == 0
        assert sched.record.aggregate(1, "x1") == agg_before

    def test_unknown_candidate_or_metric_dropped(self):
        """Rows for a candidate outside the bucket or a metric outside the
        problem are dropped: neither the record nor the store sees them."""
        sched = make_sched()
        sched.initial_plan()
        test, ctrl = batch_for(1, 0, 1).readings[0]
        unknown_metric = InboundBatch(origin_round=0, arrival_round=1, readings=(
            (replace(test, metric="zz"), replace(ctrl, metric="zz")),
        ))
        assert sched.ingest([batch_for(99, 0, 1), unknown_metric, batch_for(2, 0, 1)]) == 2
        assert sched.record.aggregate(99, "x1") is None
        assert sched.record.aggregate(1, "zz") is None
        assert [(t.candidate_id, t.metric) for t, _ in sched._raw_log] == [(2, "x1"), (2, "x2")]

    def test_order_independence_of_aggregates(self):
        batches = [
            batch_for(1, r, r + 3, lifts=(0.01 * r, 0.005 * r), var=2.0 + r)
            for r in range(5)
        ]
        a = make_sched()
        a.initial_plan()
        a.ingest(batches)
        b = make_sched()
        b.initial_plan()
        b.ingest(list(reversed(batches)))
        for metric in METRICS:
            agg_a = a.record.aggregate(1, metric)
            agg_b = b.record.aggregate(1, metric)
            assert agg_a.mean == pytest.approx(agg_b.mean, rel=1e-12)
            assert agg_a.var == pytest.approx(agg_b.var, rel=1e-12)

    def test_raw_normalization_uses_test_stats(self):
        sched = make_sched(normalization="raw")
        sched.initial_plan()
        sched.ingest([batch_for(1, 0, 1, lifts=(0.02, 0.01), var=4.0, n=1000)])
        agg = sched.record.aggregate(1, "x1")
        assert agg.mean == pytest.approx(102.0)
        assert agg.var == pytest.approx(4.0 / 1000)

    def test_delta_normalization_uses_ratio(self):
        sched = make_sched(taylor_mode=TaylorMode.DELTA_METHOD)
        sched.initial_plan()
        sched.ingest([batch_for(1, 0, 1, lifts=(0.02, 0.01), var=0.0)])
        agg = sched.record.aggregate(1, "x1")
        assert agg.mean == pytest.approx(0.02, rel=1e-9)

    def test_non_finite_lifts_dropped_and_loop_continues(self):
        """Finite readings whose lift overflows are dropped like a zero
        control; the batch is not aborted and the next round selects."""
        sched = make_sched(seed=3, select_count=10, proposal_samples=8)
        sched.initial_plan()
        sched.run_round([batch_for(cid, 0, 1) for cid in (1, 2, 3)])

        def row(cid, metric, mean, ctrl_mean=100.0, ctrl_var=4.0):
            return (
                GroupReading(candidate_id=cid, metric=metric, round=1,
                             sample_mean=mean, sample_var=4.0, group_size=1000),
                GroupReading(candidate_id=0, metric=metric, round=1,
                             sample_mean=ctrl_mean, sample_var=ctrl_var,
                             group_size=1000),
            )

        batches = [
            InboundBatch(origin_round=1, arrival_round=2, readings=(
                row(1, "x1", 102.0),                                # valid
                row(1, "x2", 1e200),                                # m**2 overflows
            )),
            InboundBatch(origin_round=1, arrival_round=2, readings=(
                row(2, "x1", 102.0, ctrl_mean=1e-5, ctrl_var=1e300),  # inf lift
                row(2, "x2", 101.0),                                # valid
            )),
        ]
        assert sched.ingest(batches) == 2
        assert [(t.candidate_id, t.metric) for t, _ in sched._raw_log[-2:]] == [(1, "x1"), (2, "x2")]
        sched.run_round([])
        assert sched.last_selection is not None


    def test_running_sum_overflow_dropped_and_loop_continues(self):
        """A finite lift whose weighted variance overflows the running sum
        (test mean 1e153 over a control of 1.0) is dropped, and the next
        round still selects."""
        sched = make_sched(seed=3, select_count=10, proposal_samples=8)
        sched.initial_plan()
        sched.run_round([batch_for(cid, 0, 1) for cid in (1, 2, 3)])
        overflow = batch_for(1, 1, 2, lifts=(1e153 - 1.0, 0.01), base=1.0)
        assert sched.ingest([overflow, batch_for(2, 1, 2)]) == 3
        assert [(t.candidate_id, t.metric) for t, _ in sched._raw_log[-3:]] == [
            (1, "x2"), (2, "x1"), (2, "x2"),
        ]
        sched.run_round([])
        assert sched.last_selection is not None

    def test_aggregate_overflow_dropped_and_loop_continues(self):
        """Two hours of 10**154 users keep every running sum finite, but
        their squared weight sum overflows the aggregate: the second hour is
        dropped, and every later round still selects."""
        sched = make_sched(seed=3, select_count=10, proposal_samples=8)
        sched.initial_plan()
        sched.run_round([batch_for(cid, 0, 1) for cid in (1, 2, 3)])
        huge = [batch_for(1, rnd, 3, n=10**154) for rnd in (1, 2)]
        assert sched.ingest(huge) == 2  # round 1's rows, one per metric
        for metric in METRICS:
            assert sched.record.aggregate(1, metric).weight == 1e154 + 1000.0
        for _ in range(3):
            sched.run_round([])
            assert sched.last_selection is not None


# Row kinds offered to ingest: (test mean, control mean, group size).
_ROW_KINDS = {
    "valid": (101.0, 100.0, 1000),
    "zero-control": (101.0, 0.0, 1000),
    "lift-overflow": (1e200, 100.0, 1000),
    "sum-overflow": (1e153, 1.0, 1000),
    "weight-overflow": (101.0, 100.0, 10**154),
}


def _kind_pair(cid, metric, rnd, kind, jitter):
    test_mean, ctrl_mean, n = _ROW_KINDS[kind]
    return (
        GroupReading(candidate_id=cid, metric=metric, round=rnd,
                     sample_mean=test_mean * (1.0 + jitter), sample_var=4.0, group_size=n),
        GroupReading(candidate_id=0, metric=metric, round=rnd,
                     sample_mean=ctrl_mean, sample_var=4.0, group_size=n),
    )


# Candidates 1-3 of a five-candidate bucket and 99 outside it, the problem's
# metrics and "zz" outside them, three origin rounds: keys repeat often.
_any_batch = st.builds(
    lambda origin, delay, rows: InboundBatch(
        origin_round=origin, arrival_round=origin + delay,
        readings=tuple(_kind_pair(cid, m, origin, kind, j) for cid, m, kind, j in rows),
    ),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 99]),
            st.sampled_from(METRICS + ("zz",)),
            st.sampled_from(sorted(_ROW_KINDS)),
            st.floats(min_value=-0.05, max_value=0.05),
        ),
        max_size=4,
    ),
)


class TestOneAbsorbPath:
    """``ingest`` and ``restore`` share one absorb step."""

    @given(
        calls=st.lists(st.lists(_any_batch, max_size=6), max_size=4),
        normalization=st.sampled_from(["delta", "raw"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_ingest_keeps_what_restore_replays(self, calls, normalization):
        """Whatever batches arrive, ``ingest`` never raises, counts exactly
        the rows it logs and logs none of an unknown key; the store restores
        to an equal log and equal aggregates, and persists again to the same
        bytes."""
        sched = make_sched(normalization=normalization)
        for batches in calls:
            logged = len(sched._raw_log)
            assert sched.ingest(batches) == len(sched._raw_log) - logged
        bucket_ids = {hp.id for hp in sched.bucket}
        assert all(t.candidate_id in bucket_ids and t.metric in METRICS for t, _ in sched._raw_log)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a"), Path(tmp, "b")
            sched.persist(str(first))
            restored = Scheduler.restore(str(first), new_store_dir=str(second))
            assert restored._raw_log == sched._raw_log
            for hp in sched.bucket:
                for metric in METRICS:
                    assert restored.record.aggregate(hp.id, metric) == (
                        sched.record.aggregate(hp.id, metric)
                    )
            restored.persist()
            for name in ("manifest.json", "hyperparams.csv", "metrics.csv"):
                assert (second / name).read_bytes() == (first / name).read_bytes()


class TestPersistence:
    def run_some_rounds(self, store_dir=None, rounds=4, seed=3):
        sched = make_sched(
            seed=seed, proposal_prob=1.0, select_count=10,
            proposal_samples=8, store_dir=store_dir,
        )
        sched.initial_plan()
        for r in range(1, rounds + 1):
            sched.run_round(
                [
                    batch_for(1, r - 1, r, lifts=(0.02, 0.01)),
                    batch_for(2, r - 1, r, lifts=(0.01, 0.03)),
                ]
            )
        return sched

    def read_all(self, store_dir):
        return {
            p.name: p.read_bytes() for p in sorted(Path(store_dir).iterdir())
        }

    def test_persist_restore_persist_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        sched = self.run_some_rounds()
        sched.persist(str(first))
        restored = Scheduler.restore(str(first), new_store_dir=str(second))
        restored.persist(str(second))
        assert self.read_all(first) == self.read_all(second)

    def test_restore_continues_identically(self, tmp_path):
        batches = lambda r: [
            batch_for(1, r - 1, r, lifts=(0.02, 0.01)),
            batch_for(2, r - 1, r, lifts=(0.01, 0.03)),
        ]
        # uninterrupted run, 8 rounds
        full = make_sched(seed=9, proposal_prob=1.0, select_count=10, proposal_samples=8)
        full.initial_plan()
        full_plans = [full.run_round(batches(r)) for r in range(1, 9)]

        # interrupted at round 4
        half = make_sched(seed=9, proposal_prob=1.0, select_count=10, proposal_samples=8)
        half.initial_plan()
        for r in range(1, 5):
            half.run_round(batches(r))
        half.persist(str(tmp_path / "ckpt"))
        resumed = Scheduler.restore(str(tmp_path / "ckpt"))
        resumed.store_dir = None
        resumed_plans = [resumed.run_round(batches(r)) for r in range(5, 9)]
        assert resumed_plans == full_plans[4:]
        assert tuple(hp.theta for hp in resumed.bucket) == tuple(
            hp.theta for hp in full.bucket
        )

    def test_missing_file_fails(self, tmp_path):
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        (store / "metrics.csv").unlink()
        with pytest.raises(RestoreError):
            Scheduler.restore(str(store))

    def test_corrupt_manifest_fails(self, tmp_path):
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        (store / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(RestoreError):
            Scheduler.restore(str(store))

    def test_version_mismatch_fails(self, tmp_path):
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        manifest["format_version"] = 999
        (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RestoreError):
            Scheduler.restore(str(store))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("config"),
            lambda m: m["config"].pop("init"),
            lambda m: m.update(round="abc"),
            lambda m: m["config"].update(select_count="x"),
            lambda m: m["problem"].pop("base"),
            lambda m: m.update(last_plan={"round": 1}),
        ],
        ids=[
            "no-config", "config-key-missing", "round-not-int",
            "select-count-not-int", "problem-without-base", "partial-last-plan",
        ],
    )
    def test_malformed_manifest_fails(self, tmp_path, edit):
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        path = store / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RestoreError, match="manifest"):
            Scheduler.restore(str(store))

    @pytest.mark.parametrize(
        "line, edit",
        [
            (0, lambda f: ["candidate_id"] + f[1:] + ["extra"]),  # bad header
            (1, lambda f: f[:-1]),                               # truncated row
            (1, lambda f: f + ["7"]),                            # extra field
            (1, lambda f: f[:3] + ["abc"] + f[4:]),              # unparseable
            (1, lambda f: f[:3] + ["nan"] + f[4:]),              # NaN mean
            (1, lambda f: f[:4] + ["inf"] + f[5:]),              # infinite var
            (1, lambda f: f[:4] + ["-1.0"] + f[5:]),             # negative var
            (1, lambda f: f[:5] + ["0"] + f[6:]),                # empty group
            (1, lambda f: f[:6] + ["0.0"] + f[7:]),              # degenerate control
            (1, lambda f: f[:3] + ["1e200"] + f[4:]),            # lift overflows
            (1, lambda f: f[:6] + ["1e-05", "1e300"] + f[8:]),   # infinite lift
            (1, lambda f: f[:3] + ["1e153"] + f[4:6] + ["1.0"] + f[7:]),  # sum overflows
            ((1, 5), lambda f: f[:5] + [str(10**154)] + f[6:]),  # aggregate overflows
            (None, None),                                        # duplicate key
            (1, lambda f: ["99"] + f[1:]),                       # unknown candidate
            (1, lambda f: f[:1] + ["zz"] + f[2:]),               # unknown metric
        ],
        ids=[
            "header", "truncated", "extra", "unparseable", "nan", "inf",
            "negative-var", "empty-group", "degenerate", "overflow",
            "infinite-lift", "sum-overflow", "weight-overflow", "duplicate",
            "unknown-id", "unknown-metric",
        ],
    )
    def test_malformed_metrics_row_fails(self, tmp_path, line, edit):
        """``line`` is one line to edit, a tuple of lines (rows 1 and 5 are
        candidate 1's ``x1`` in rounds 0 and 1), or None to repeat row 1."""
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        path = store / "metrics.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        if line is None:
            lines.append(lines[1])
        else:
            for i in line if isinstance(line, tuple) else (line,):
                lines[i] = ",".join(edit(lines[i].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RestoreError, match="metrics.csv"):
            Scheduler.restore(str(store))

    def test_truncated_hyperparams_row_fails(self, tmp_path):
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        path = store / "hyperparams.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].split(",")[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RestoreError, match="hyperparams.csv"):
            Scheduler.restore(str(store))

    def test_store_dir_autopersists_each_round(self, tmp_path):
        store = tmp_path / "live"
        sched = self.run_some_rounds(store_dir=str(store), rounds=2)
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["round"] == sched.round == 2


class TestRawReplay:
    """The store keeps the raw readings only; restore replays them."""

    def run_with_degenerate_row(self, normalization):
        sched = make_sched(
            seed=4, select_count=10, proposal_samples=8, normalization=normalization
        )
        sched.initial_plan()
        for r in range(1, 6):
            batches = [
                batch_for(1, r - 1, r, lifts=(0.013 * r, -0.007), var=3.0 + r),
                batch_for(2, r - 1, r, lifts=(0.021, 0.004 * r), var=5.0 / r, n=700 + r),
            ]
            if r >= 3:  # late arrivals, out of origin order
                batches.append(batch_for(3, r - 3, r, lifts=(0.1 / r, 0.03), n=900))
            sched.run_round(batches)
        absorbed = sched.ingest([batch_for(4, 2, 6, base=0.0)])
        assert absorbed == (2 if normalization == "raw" else 0)
        return sched

    def assert_same_record(self, live, restored):
        assert restored._raw_log == live._raw_log
        for hp in live.bucket:
            for metric in METRICS:
                assert restored.record.aggregate(hp.id, metric) == live.record.aggregate(
                    hp.id, metric
                )

    @pytest.mark.parametrize("normalization", ["delta", "raw"])
    def test_restored_record_equals_live(self, tmp_path, normalization):
        live = self.run_with_degenerate_row(normalization)
        live.persist(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hyperparams.csv", "manifest.json", "metrics.csv",
        ]
        rows = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
        control_means = {line.split(",")[6] for line in rows[1:]}
        # The hour with a zero control mean is dropped from the lift record
        # and from the raw log alike; raw normalization keeps it.
        assert ("0.0" in control_means) == (normalization == "raw")
        restored = Scheduler.restore(str(tmp_path))
        self.assert_same_record(live, restored)
        assert (restored.record.aggregate(4, "x1") is not None) == (normalization == "raw")

    def test_legacy_derived_tables_are_ignored(self, tmp_path):
        live = self.run_with_degenerate_row("delta")
        live.persist(str(tmp_path))
        # Stores written before the derived tables were dropped carry them
        # too; nothing reads them.
        (tmp_path / "deltas_hourly.csv").write_text(
            "candidate_id,metric,round,mean,var,weight\n1,x1,0,9.0,9.0,9.0\n",
            encoding="utf-8",
        )
        (tmp_path / "deltas_agg.csv").write_text(
            "candidate_id,metric,mean,var,weight\n1,x1,9.0,9.0,9.0\n", encoding="utf-8"
        )
        restored = Scheduler.restore(str(tmp_path))
        self.assert_same_record(live, restored)
        assert restored.rng.bit_generator.state == live.rng.bit_generator.state


@pytest.mark.bitwise
class TestFrozenStore:
    # SHA-256 of manifest.json, hyperparams.csv and metrics.csv, concatenated
    # in that order, after SingleRun(42, ...) runs 20 rounds and persists.
    # Recorded while the store still wrote the derived hourly and aggregate
    # tables, with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; identical
    # with OPENBLAS_NUM_THREADS=1.
    DIGESTS = {
        "full": "31467f5c804bedad3ff9eabb12f0614ec63eec89c61bfeadeca3db35d0dfd889",
        "raw-metric": "c2436080fdf659979a27e88ce3a649cf3c99590683f5c2691cbcf89beff7cbe9",
    }

    @pytest.mark.parametrize("variant", ["full", "raw-metric"])
    def test_store_bytes_are_frozen(self, tmp_path, variant):
        run = SingleRun(42, ExperimentConfig(variant=variant, seeds=(42,)))
        run.run_to(20)
        run.sched.persist(str(tmp_path))
        names = ["manifest.json", "hyperparams.csv", "metrics.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        blob = b"".join((tmp_path / name).read_bytes() for name in names)
        assert hashlib.sha256(blob).hexdigest() == self.DIGESTS[variant]

        restored = Scheduler.restore(str(tmp_path))
        assert restored._raw_log == run.sched._raw_log
        for hp in run.sched.bucket:
            for metric in run.sched.problem.metrics:
                assert restored.record.aggregate(hp.id, metric) == (
                    run.sched.record.aggregate(hp.id, metric)
                )
