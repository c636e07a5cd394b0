"""Tests for the round loop, traffic planning, and file-backed persistence."""

import functools
import hashlib
import json
import math
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

import spec
from zotune.deltastats import TaylorMode
from zotune.problem import HyperParam, LinearExpr, TuningProblem
from zotune.scheduler import (
    METRICS_HEADER,
    BucketInit,
    InboundBatch,
    RestoreError,
    RoundPlan,
    Scheduler,
    SchedulerConfig,
)
from zotune import codec
from zotune import gp as gp_module
from zotune import optimizer as optimizer_module
from zotune import scheduler as scheduler_module
from zotune.deltastats import Reading
from zotune.gp import FitFailureError
from zotune.harness import ExperimentConfig, SingleRun

BOUNDS = ((0.0, 1.0), (0.0, 1.0))
METRICS = ("x1", "x2")


def make_problem(constraints=()):
    return TuningProblem(
        metrics=METRICS,
        objective=LinearExpr((1.0, 0.5)),
        constraints=constraints,
        base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
    )


def make_sched(seed=0, init=None, **cfg_kwargs):
    config = SchedulerConfig(
        init=init or BucketInit(mode="random", size=5),
        **cfg_kwargs,
    )
    return Scheduler.bootstrap(make_problem(), config, np.random.default_rng(seed))


def batch_for(cid, origin, arrival, lifts=(0.02, 0.01), var=4.0, n=1000, base=100.0):
    """One candidate's feedback: test means lifted over a control of ``base``."""
    readings = tuple(
        Reading(cid, metric, origin, base * (1.0 + lift), var, n, base, var, n)
        for metric, lift in zip(METRICS, lifts)
    )
    return InboundBatch(origin_round=origin, arrival_round=arrival, readings=readings)


def reseal(store):
    """Set ``manifest.json``'s table digests to the tables now on disk and
    seal the manifest again, as a writer that wrote bad rows or a bad
    manifest would have, so that a test's edit reaches the checks that parse
    the rows and decode the manifest.  Rows are counted by line, which holds
    for tables without a quoted line break.  The seal is the SHA-256 of the
    manifest without its ``sha256`` key, as JSON with sorted keys and no
    whitespace."""
    path = Path(store) / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for name in ("hyperparams", "metrics"):
        data = (Path(store) / f"{name}.csv").read_bytes()
        manifest[name] = {
            "rows": data.count(b"\n") - 1,
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    manifest.pop("sha256", None)
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("ascii")
    manifest["sha256"] = hashlib.sha256(body).hexdigest()
    path.write_text(json.dumps(manifest), encoding="utf-8")


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

    @pytest.mark.parametrize(
        "frac, match",
        [
            (math.nan, "non-finite fraction"),
            (math.inf, "non-finite fraction"),
            (-math.inf, "non-finite fraction"),
            (0.0, "nonpositive fraction"),
            (-0.1, "nonpositive fraction"),
        ],
    )
    def test_bad_fraction_rejected(self, frac, match):
        """NaN passes both ``frac <= 0`` and a ``> tol`` sum check."""
        with pytest.raises(ValueError, match=match):
            RoundPlan(round=1, control_fraction=0.2, assignments=((1, frac),))

    def test_control_fraction_bounds(self):
        with pytest.raises(ValueError):
            RoundPlan(round=0, control_fraction=0.0, assignments=((1, 1.0),))
        with pytest.raises(ValueError):
            RoundPlan(round=0, control_fraction=1.0, assignments=())


class TestInboundBatch:
    def test_arrival_before_origin_rejected(self):
        with pytest.raises(ValueError):
            batch_for(1, origin=5, arrival=4)

    def test_readings_must_carry_origin_round(self):
        good = batch_for(1, origin=2, arrival=5)
        with pytest.raises(ValueError):
            InboundBatch(origin_round=3, arrival_round=5, readings=good.readings)

    @pytest.mark.parametrize("element", [(1, 2), "row", None], ids=["pair", "str", "none"])
    def test_elements_must_be_readings(self, element):
        """Anything but a ``Reading`` is refused by name, a pair of them too."""
        reading = batch_for(1, origin=0, arrival=1).readings[0]
        for readings in ((element,), (reading, element), ((reading, reading),)):
            with pytest.raises(ValueError, match="InboundBatch.readings: expected Reading"):
                InboundBatch(origin_round=0, arrival_round=1, readings=readings)


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

    @pytest.mark.parametrize("base_id", [3])
    def test_base_id_clashing_with_candidate_ids_refused(self, base_id):
        """Candidates are numbered 1..size; a base id among them is refused
        before any round runs."""
        base = HyperParam(id=base_id, theta=(0.5, 0.5), bounds=BOUNDS)
        problem = replace(make_problem(), base=base)
        config = SchedulerConfig(init=BucketInit(mode="random", size=5))
        with pytest.raises(ValueError):
            Scheduler.bootstrap(problem, config, np.random.default_rng(0))

    def test_next_id_is_above_the_base_and_the_bucket(self, helper):
        """The next id is derived, so a base id above the bucket's moves it
        and no proposal can take an id in use."""
        base = HyperParam(id=9, theta=(0.5, 0.5), bounds=BOUNDS)
        config = SchedulerConfig(init=BucketInit(mode="random", size=5), proposal_samples=8)
        sched = Scheduler.bootstrap(
            replace(make_problem(), base=base), config, np.random.default_rng(0)
        )
        assert sched.next_id == 10
        sched.run_round([batch_for(1, 0, 1)], helper=helper)
        assert [hp.id for hp in sched.bucket] == [1, 2, 3, 4, 5, 10]
        assert sched.next_id == 11


class TestConstruction:
    """Construction refuses a state that no call sequence reaches."""

    @pytest.mark.parametrize(
        "edit",
        [lambda created: created.pop(1), lambda created: created.update({999: 0})],
        ids=["missing-id", "extra-id"],
    )
    def test_created_rounds_not_the_buckets_refused(self, edit, helper):
        sched = make_sched(seed=42)
        for r in range(1, 4):
            sched.run_round([batch_for(1, r - 1, r)], helper=helper)
        parts = dict(
            bucket={hp.id: hp for hp in sched.bucket},
            created_round={hp.id: sched.created_round(hp.id) for hp in sched.bucket},
            round_no=sched.round,
            last_plan=sched.last_plan,
        )
        Scheduler(sched.problem, sched.config, sched.rng, **parts)
        edit(parts["created_round"])
        with pytest.raises(ValueError, match="created rounds"):
            Scheduler(sched.problem, sched.config, sched.rng, **parts)


class TestInitialPlan:
    def test_uniform_split(self):
        sched = make_sched(init=BucketInit(mode="random", size=4))
        plan = sched.last_plan
        assert plan.round == 0
        for cid, frac in plan.assignments:
            assert frac == pytest.approx(0.8 / 4)
        total = plan.control_fraction + sum(f for _, f in plan.assignments)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestRunRound:
    def test_no_data_reemits_uniform_without_consuming_rng(self, helper):
        """Straight after ``bootstrap``, with no data, a round re-emits hour
        0's uniform plan as its own and draws nothing."""
        sched = make_sched()
        first = sched.last_plan
        state_before = json.dumps(sched.rng.bit_generator.state, sort_keys=True)
        plan = sched.run_round(helper=helper)  # nothing has arrived yet
        state_after = json.dumps(sched.rng.bit_generator.state, sort_keys=True)
        assert state_before == state_after
        assert plan == replace(first, round=1) == sched.last_plan
        assert sched.round == 1 and sched.last_selection is None

    def test_idle_ingests_and_advances_the_round_without_drawing(self, helper):
        """An idle hour absorbs its feedback and counts on the clock; it
        draws nothing and leaves the last plan in force, and the next
        decision's plan carries its own hour."""
        sched = make_sched(select_count=10, proposal_samples=8)
        first = sched.last_plan
        state = sched.rng.bit_generator.state
        sched.idle([batch_for(1, 0, 1)])
        assert sched.round == 1
        assert len(sched._raw_log) == 2
        assert sched.rng.bit_generator.state == state
        assert sched.last_plan == first and sched.last_selection is None
        sched.idle()
        assert sched.run_round([batch_for(2, 1, 3)], helper=helper).round == 3
        assert sched.last_selection is not None
        sched.idle()
        assert sched.round == 4 and sched.last_selection is None

    def test_selection_after_feedback(self, helper):
        sched = make_sched(proposal_prob=0.0, select_count=50)
        batches = [
            batch_for(1, 0, 1, lifts=(0.05, 0.01), var=0.0),
            batch_for(2, 0, 1, lifts=(0.01, 0.01), var=0.0),
        ]
        plan = sched.run_round(batches, helper=helper)
        assert sched.last_selection is not None
        assert sched.last_selection.winners == (1,) * 50
        assert dict(plan.assignments)[1] == pytest.approx(0.8)

    def test_traffic_split_two_to_one(self):
        """Units {a: 2, b: 1} at control 0.2 give 0.5333... and 0.2666..."""
        sched = make_sched()
        plan = scheduler_module._plan(sched.config, 1, Counter({1: 2, 2: 1}))
        fractions = dict(plan.assignments)
        assert fractions[1] == pytest.approx(0.8 * 2 / 3, rel=1e-12)
        assert fractions[2] == pytest.approx(0.8 / 3, rel=1e-12)

    def test_proposal_grows_bucket_with_unit_traffic(self, helper):
        sched = make_sched(proposal_prob=1.0, select_count=3, proposal_samples=16)
        before = len(sched.bucket)
        new_id = sched.next_id
        plan = sched.run_round([batch_for(1, 0, 1, var=0.0)], helper=helper)
        assert len(sched.bucket) == before + 1
        assert sched.created_round(new_id) == 1
        # zero-variance winners all land on candidate 1: units {1: 3, new: 1}
        fractions = dict(plan.assignments)
        assert fractions[1] == pytest.approx(0.8 * 3 / 4)
        assert fractions[new_id] == pytest.approx(0.8 / 4)

    def test_p_zero_keeps_bucket_constant(self, helper):
        sched = make_sched(proposal_prob=0.0, select_count=10)
        size = len(sched.bucket)
        for r in range(1, 6):
            sched.run_round([batch_for(1, r - 1, r, var=0.0)], helper=helper)
        assert len(sched.bucket) == size

    def test_bucket_bounded_by_initial_plus_rounds(self, helper):
        sched = make_sched(proposal_prob=1.0, select_count=5, proposal_samples=8)
        t = 4
        for r in range(1, t + 1):
            sched.run_round([batch_for(1, r - 1, r, var=0.0)], helper=helper)
        assert len(sched.bucket) <= 5 + t

    def test_plans_conserve_traffic(self, helper):
        sched = make_sched(proposal_prob=1.0, select_count=7, proposal_samples=8)
        plans = [sched.last_plan]
        for r in range(1, 5):
            plans.append(sched.run_round([batch_for(1, r - 1, r)], helper=helper))
        for plan in plans:
            total = plan.control_fraction + sum(f for _, f in plan.assignments)
            assert abs(total - 1.0) <= 1e-12

    def test_seed_determinism_full_run(self, helper):
        def run(seed):
            sched = make_sched(seed=seed, proposal_prob=1.0, select_count=20, proposal_samples=16)
            plans = [sched.last_plan]
            for r in range(1, 6):
                batches = [batch_for(1, r - 1, r), batch_for(2, r - 1, r, lifts=(0.01, 0.03))]
                plans.append(sched.run_round(batches, helper=helper))
            return plans, tuple(hp.theta for hp in sched.bucket)

        a_plans, a_bucket = run(11)
        b_plans, b_bucket = run(11)
        assert a_plans == b_plans
        assert a_bucket == b_bucket

    @pytest.mark.parametrize(
        "job, side",
        [
            ("scoring", "helper"),
            ("kernels", "helper"),
            ("kernels", "caller"),
            ("solve", "helper"),
            ("solve", "caller"),
        ],
    )
    def test_an_error_on_either_thread_leaves_the_round(
        self, monkeypatch, job, side, helper
    ):
        """A selection block's scoring, a prediction's kernel half or one
        metric's solve fails on ``side``: the error leaves ``run_round``,
        through ``result()`` from the helper, and the helper, which the round
        does not own, still takes calls.  Without a fit to run
        first, the idle helper scores the one selection block; a prediction
        builds the second half of the kernel rows and solves metric 1 on the
        helper, and the rest on the caller."""
        if job == "scoring":
            target, name = optimizer_module, "_thompson_winners"
            applies = lambda *args: True
        elif job == "kernels":   # the fit builds the upper triangle only
            target, name = gp_module, "_scaled_kernels"
            applies = lambda *args, upper=False, **rest: not upper
        else:                    # the fit solves one column, a prediction q
            target, name = gp_module, "_trsm"
            applies = lambda chol, b, *rest: b.shape[1] > 1
        real = getattr(target, name)
        on_side = {"helper": "zotune-helper", "caller": threading.main_thread().name}[side]
        failed = []

        def failing(*args, **kwargs):
            if applies(*args, **kwargs) and threading.current_thread().name == on_side:
                failed.append(job)
                raise RuntimeError(f"{job} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, failing)
        p = 0.0 if job == "scoring" else 1.0
        sched = make_sched(proposal_prob=p, select_count=5, proposal_samples=8)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{job} failed"):
            sched.run_round(_feedback(sched.last_plan, np.random.default_rng(3)), helper=helper)
        assert failed == [job]
        assert threading.active_count() == threads
        assert helper.submit(abs, -7).result() == 7


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
    """``run_round`` fits the GP, scores the selection's draws and shares
    the prediction on the helper thread it is given while it draws, round
    after round on the same helper; every result, and the stream, equal the
    spec's one-thread loop."""

    def assert_same_state(self, live, ref):
        assert [(hp.id, hp.theta) for hp in live.bucket] == [
            (hp.id, hp.theta) for _, hp in sorted(ref.bucket.items())
        ]
        assert live.next_id == ref.next_id
        assert live.round == ref.round
        assert live.last_plan == ref.last_plan
        assert live.rng.bit_generator.state == ref.rng.bit_generator.state
        sel = live.last_selection
        assert (sel and (sel.winners, sel.infeasible_rounds)) == ref.last_selection

    def make_pair(self, seed, **cfg_kwargs):
        """A scheduler and the spec's loop, from generators seeded alike."""
        live = make_sched(seed=seed, **cfg_kwargs)
        return live, spec.Loop(live.problem, live.config, np.random.default_rng(seed))

    def run_beside_reference(self, helper, p, rounds):
        """Drive ``run_round`` and the spec side by side on 200 candidates;
        returns the number of rounds that proposed."""
        init = BucketInit(mode="random", size=200)
        live, ref = self.make_pair(21, init=init, proposal_prob=p, proposal_samples=200)
        live_plan, ref_plan = live.last_plan, ref.last_plan
        live_fb, ref_fb = np.random.default_rng(5), np.random.default_rng(5)
        threads = threading.active_count()
        proposals = 0
        for _ in range(rounds):
            next_id = ref.next_id
            live_plan = live.run_round(_feedback(live_plan, live_fb), helper=helper)
            assert threading.active_count() == threads
            ref_plan = ref.run_round(_feedback(ref_plan, ref_fb))
            assert live_plan == ref_plan
            self.assert_same_state(live, ref)
            proposals += ref.next_id - next_id
        return proposals

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.0])
    def test_matches_sequential_reference(self, p, helper):
        low, high = {1.0: (6, 6), 0.5: (1, 5), 0.0: (0, 0)}[p]
        assert low <= self.run_beside_reference(helper, p, 6) <= high

    def test_matches_sequential_reference_under_frequent_switches(self, helper):
        """A 10 us switch interval hands the GIL back and forth between the
        fit and the draws many times per round; nothing changes."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert self.run_beside_reference(helper, 1.0, 3) == 3
        finally:
            sys.setswitchinterval(interval)

    def test_fit_failure_raised_exactly_when_the_round_proposes(self, helper):
        """Raw targets of 1e200 overflow the signal variance: the fit fails
        every round, and the round raises only when ``u < p``."""
        init = BucketInit(mode="random", size=200)
        kw = dict(init=init, proposal_prob=0.5, normalization="raw", proposal_samples=50)
        live, ref = self.make_pair(8, **kw)
        feedback = _feedback(live.last_plan, None, mean=1e200)
        assert _feedback(ref.last_plan, None, mean=1e200) == feedback
        threads = threading.active_count()
        outcomes = []
        for _ in range(8):
            try:
                plan = live.run_round(feedback, helper=helper)
            except FitFailureError as exc:
                assert threading.active_count() == threads
                assert "signal variance" in str(exc)
                with pytest.raises(FitFailureError, match="signal variance"):
                    ref.run_round(feedback)
                outcomes.append("raised")
            else:
                assert threading.active_count() == threads
                assert plan == ref.run_round(feedback)
                outcomes.append("planned")
            self.assert_same_state(live, ref)
            feedback = []
        assert set(outcomes) == {"raised", "planned"}

    def test_selection_error_leaves_the_fit_to_the_helper(self, monkeypatch, helper):
        """The round raises with its fit still queued or running; the fit
        finishes on the helper, and the round starts no thread."""
        def failing_select(*args, **kwargs):
            raise RuntimeError("selection failed")

        sched = make_sched(proposal_prob=1.0, select_count=5, proposal_samples=8)
        monkeypatch.setattr(scheduler_module, "select", failing_select)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="selection failed"):
            sched.run_round([batch_for(1, 0, 1)], helper=helper)
        assert threading.active_count() == threads


class TestIngest:
    def test_duplicates_skipped_first_write_wins(self):
        sched = make_sched()
        batch = batch_for(1, 0, 1, lifts=(0.02, 0.01))
        assert sched.ingest([batch]) == 2  # one row per metric
        agg_before = sched.record.aggregate(1, "x1")
        changed = batch_for(1, 0, 1, lifts=(0.9, 0.9))
        assert sched.ingest([changed]) == 0
        assert sched.record.aggregate(1, "x1") == agg_before

    def test_rows_from_a_later_round_dropped(self):
        """A row stamped with a round after the current one is dropped and
        does not take its key: the real rows of that round, when it comes,
        are absorbed."""
        sched = make_sched()
        for _ in range(3):
            sched.idle()
        assert sched.ingest([batch_for(1, 10, 11, lifts=(0.9, 0.9))]) == 0
        assert sched._raw_log == []
        for _ in range(7):
            sched.idle()
        assert sched.round == 10
        assert sched.ingest([batch_for(1, 10, 11)]) == 2
        assert sched.record.aggregate(1, "x1").mean == pytest.approx(0.02, rel=1e-3)

    def test_unknown_candidate_or_metric_dropped(self):
        """Rows for a candidate outside the bucket or a metric outside the
        problem are dropped: neither the record nor the store sees them."""
        sched = make_sched()
        reading = batch_for(1, 0, 1).readings[0]
        unknown_metric = InboundBatch(origin_round=0, arrival_round=1, readings=(
            replace(reading, metric="zz"),
        ))
        batches = [batch_for(99, 0, 1), unknown_metric, batch_for(2, 0, 1)]
        assert sched.ingest(batches) == 2
        assert sched.record.aggregate(99, "x1") is None
        assert sched.record.aggregate(1, "zz") is None
        assert [(r.candidate_id, r.metric) for r in sched._raw_log] == [(2, "x1"), (2, "x2")]

    def test_order_independence_of_aggregates(self):
        batches = [
            batch_for(1, r, r + 3, lifts=(0.01 * r, 0.005 * r), var=2.0 + r)
            for r in range(5)
        ]
        a = make_sched()
        for _ in range(4):
            a.idle()
        a.ingest(batches)
        b = make_sched()
        for _ in range(4):
            b.idle()
        b.ingest(list(reversed(batches)))
        for metric in METRICS:
            agg_a = a.record.aggregate(1, metric)
            agg_b = b.record.aggregate(1, metric)
            assert agg_a.mean == pytest.approx(agg_b.mean, rel=1e-12)
            assert agg_a.var == pytest.approx(agg_b.var, rel=1e-12)

    def test_raw_normalization_uses_test_stats(self):
        sched = make_sched(normalization="raw")
        sched.ingest([batch_for(1, 0, 1, lifts=(0.02, 0.01), var=4.0, n=1000)])
        agg = sched.record.aggregate(1, "x1")
        assert agg.mean == pytest.approx(102.0)
        assert agg.var == pytest.approx(4.0 / 1000)

    def test_delta_normalization_uses_ratio(self):
        sched = make_sched(taylor_mode=TaylorMode.DELTA_METHOD)
        sched.ingest([batch_for(1, 0, 1, lifts=(0.02, 0.01), var=0.0)])
        agg = sched.record.aggregate(1, "x1")
        assert agg.mean == pytest.approx(0.02, rel=1e-9)

    def test_non_finite_lifts_dropped_and_loop_continues(self, helper):
        """Finite readings whose lift overflows are dropped like a zero
        control; the batch is not aborted and the next round selects."""
        sched = make_sched(seed=3, select_count=10, proposal_samples=8)
        sched.run_round([batch_for(cid, 0, 1) for cid in (1, 2, 3)], helper=helper)

        def row(cid, metric, mean, ctrl_mean=100.0, ctrl_var=4.0):
            return Reading(cid, metric, 1, mean, 4.0, 1000, ctrl_mean, ctrl_var, 1000)

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
        assert [(r.candidate_id, r.metric) for r in sched._raw_log[-2:]] == [(1, "x1"), (2, "x2")]
        sched.run_round([], helper=helper)
        assert sched.last_selection is not None


    def test_running_sum_overflow_dropped_and_loop_continues(self, helper):
        """A finite lift whose weighted variance overflows the running sum
        (test mean 1e153 over a control of 1.0) is dropped, and the next
        round still selects."""
        sched = make_sched(seed=3, select_count=10, proposal_samples=8)
        sched.run_round([batch_for(cid, 0, 1) for cid in (1, 2, 3)], helper=helper)
        overflow = batch_for(1, 1, 2, lifts=(1e153 - 1.0, 0.01), base=1.0)
        assert sched.ingest([overflow, batch_for(2, 1, 2)]) == 3
        assert [(r.candidate_id, r.metric) for r in sched._raw_log[-3:]] == [
            (1, "x2"), (2, "x1"), (2, "x2"),
        ]
        sched.run_round([], helper=helper)
        assert sched.last_selection is not None

    def test_aggregate_overflow_dropped_and_loop_continues(self, helper):
        """Two hours of 10**154 users keep every running sum finite, but
        their squared weight sum overflows the aggregate: the second hour is
        dropped, and every later round still selects."""
        sched = make_sched(seed=3, select_count=10, proposal_samples=8)
        sched.run_round([batch_for(cid, 0, 1) for cid in (1, 2, 3)], helper=helper)
        sched.idle()    # hour 2, so both hours below are past
        huge = [batch_for(1, rnd, 3, n=10**154) for rnd in (1, 2)]
        assert sched.ingest(huge) == 2  # round 1's rows, one per metric
        for metric in METRICS:
            assert sched.record.aggregate(1, metric).weight == 1e154 + 1000.0
        for _ in range(3):
            sched.run_round([], helper=helper)
            assert sched.last_selection is not None


# Row kinds offered to ingest: (test mean, control mean, group size).
_ROW_KINDS = {
    "valid": (101.0, 100.0, 1000),
    "zero-control": (101.0, 0.0, 1000),
    "lift-overflow": (1e200, 100.0, 1000),
    "sum-overflow": (1e153, 1.0, 1000),
    "weight-overflow": (101.0, 100.0, 10**154),
}


def _kind_row(cid, metric, rnd, kind, jitter):
    test_mean, ctrl_mean, n = _ROW_KINDS[kind]
    return Reading(cid, metric, rnd, test_mean * (1.0 + jitter), 4.0, n, ctrl_mean, 4.0, n)


# Candidates 1-3 of a five-candidate bucket and 99 outside it; the
# problem's metrics and "zz" outside them; three origin rounds: keys repeat
# often.
_any_batch = st.builds(
    lambda origin, delay, rows: InboundBatch(
        origin_round=origin, arrival_round=origin + delay,
        readings=tuple(_kind_row(cid, m, origin, kind, j) for cid, m, kind, j in rows),
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
            assert all(r.round <= sched.round for r in sched._raw_log[logged:])
            sched.idle()
        bucket_ids = {hp.id for hp in sched.bucket}
        assert all(r.candidate_id in bucket_ids and r.metric in METRICS for r in sched._raw_log)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a"), Path(tmp, "b")
            sched.persist(str(first))
            restored = Scheduler.restore(str(first))
            assert restored._raw_log == sched._raw_log
            for hp in sched.bucket:
                for metric in METRICS:
                    assert restored.record.aggregate(hp.id, metric) == (
                        sched.record.aggregate(hp.id, metric)
                    )
            restored.persist(str(second))
            for name in ("manifest.json", "hyperparams.csv", "metrics.csv"):
                assert (second / name).read_bytes() == (first / name).read_bytes()


class TestPersistence:
    def run_some_rounds(self, helper, rounds=4, seed=3):
        sched = make_sched(seed=seed, proposal_prob=1.0, select_count=10, proposal_samples=8)
        for r in range(1, rounds + 1):
            sched.run_round(
                [
                    batch_for(1, r - 1, r, lifts=(0.02, 0.01)),
                    batch_for(2, r - 1, r, lifts=(0.01, 0.03)),
                ],
                helper=helper,
            )
        return sched

    def read_all(self, store_dir):
        return {
            p.name: p.read_bytes() for p in sorted(Path(store_dir).iterdir())
        }

    def test_persist_restore_persist_byte_identical(self, tmp_path, helper):
        first = tmp_path / "a"
        second = tmp_path / "b"
        sched = self.run_some_rounds(helper)
        sched.persist(str(first))
        restored = Scheduler.restore(str(first))
        restored.persist(str(second))
        assert self.read_all(first) == self.read_all(second)

    def test_restore_continues_identically(self, tmp_path, helper):
        batches = lambda r: [
            batch_for(1, r - 1, r, lifts=(0.02, 0.01)),
            batch_for(2, r - 1, r, lifts=(0.01, 0.03)),
        ]
        # uninterrupted run, 8 rounds
        full = make_sched(seed=9, proposal_prob=1.0, select_count=10, proposal_samples=8)
        full_plans = [full.run_round(batches(r), helper=helper) for r in range(1, 9)]

        # interrupted at round 4
        half = make_sched(seed=9, proposal_prob=1.0, select_count=10, proposal_samples=8)
        for r in range(1, 5):
            half.run_round(batches(r), helper=helper)
        half.persist(str(tmp_path / "ckpt"))
        resumed = Scheduler.restore(str(tmp_path / "ckpt"))
        resumed_plans = [resumed.run_round(batches(r), helper=helper) for r in range(5, 9)]
        assert resumed_plans == full_plans[4:]
        assert tuple(hp.theta for hp in resumed.bucket) == tuple(
            hp.theta for hp in full.bucket
        )

    def test_float_count_refused_before_it_can_be_persisted(self):
        """A manifest of ``select_count=5.0`` would be one restore refuses."""
        with pytest.raises(ValueError, match="SchedulerConfig.select_count: expected int"):
            SchedulerConfig(select_count=5.0)

    def test_bool_real_refused_before_it_can_be_persisted(self):
        """A manifest of ``proposal_prob=true`` would be one restore refuses."""
        with pytest.raises(ValueError, match="SchedulerConfig.proposal_prob: expected float"):
            SchedulerConfig(proposal_prob=True)

    def test_missing_file_fails(self, tmp_path, helper):
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        (store / "metrics.csv").unlink()
        with pytest.raises(RestoreError):
            Scheduler.restore(str(store))

    def test_corrupt_manifest_fails(self, tmp_path, helper):
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        (store / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(RestoreError):
            Scheduler.restore(str(store))

    def test_version_mismatch_fails(self, tmp_path, helper):
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        # Version 1 stored `exposed` and `next_id`, version 2 no table
        # digests and version 3 no seal.
        for version in (1, 2, 3, 999):
            manifest["format_version"] = version
            (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            with pytest.raises(RestoreError, match="manifest.json: .*seal"):
                Scheduler.restore(str(store))
            reseal(store)
            with pytest.raises(RestoreError, match=f"version {version}"):
                Scheduler.restore(str(store))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("config"),
            lambda m: m["config"].pop("init"),
            lambda m: m.update(round="abc"),
            lambda m: m["config"].update(select_count="x"),
            lambda m: m["problem"].pop("base"),
            lambda m: m["problem"]["objective"].update(form="quadratic"),
            lambda m: m.update(last_plan={"round": 1}),
            lambda m: m["last_plan"]["assignments"][0].__setitem__(1, math.nan),
        ],
        ids=[
            "no-config", "config-key-missing", "round-not-int",
            "select-count-not-int", "problem-without-base", "quadratic-objective",
            "partial-last-plan", "nan-plan-fraction",
        ],
    )
    def test_malformed_manifest_fails(self, tmp_path, edit, helper):
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        path = store / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RestoreError, match="manifest.json: .*seal"):
            Scheduler.restore(str(store))
        reseal(store)
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
            (1, lambda f: f[:2] + ["5"] + f[3:]),                # after the store's round 4
        ],
        ids=[
            "header", "truncated", "extra", "unparseable", "nan", "inf",
            "negative-var", "empty-group", "degenerate", "overflow",
            "infinite-lift", "sum-overflow", "weight-overflow", "duplicate",
            "unknown-id", "unknown-metric", "future-round",
        ],
    )
    def test_malformed_metrics_row_fails(self, tmp_path, line, edit, helper):
        """``line`` is one line to edit, a tuple of lines (rows 1 and 5 are
        candidate 1's ``x1`` in rounds 0 and 1), or None to repeat row 1."""
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        path = store / "metrics.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        if line is None:
            lines.append(lines[1])
        else:
            for i in line if isinstance(line, tuple) else (line,):
                lines[i] = ",".join(edit(lines[i].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RestoreError, match="metrics.csv: ([0-9]+ bytes|SHA-256)"):
            Scheduler.restore(str(store))
        reseal(store)
        with pytest.raises(RestoreError, match="metrics.csv"):
            Scheduler.restore(str(store))

    def test_truncated_hyperparams_row_fails(self, tmp_path, helper):
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        path = store / "hyperparams.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].split(",")[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reseal(store)
        with pytest.raises(RestoreError, match="hyperparams.csv line 2"):
            Scheduler.restore(str(store))

    def test_hyperparams_header_of_another_dimension_fails(self, tmp_path, helper):
        """Each theta column of the header must be one of the problem's."""
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        path = store / "hyperparams.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "candidate_id,created_round,theta0,theta1"
        lines[0] += ",theta2"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reseal(store)
        with pytest.raises(RestoreError, match="hyperparams.csv: header"):
            Scheduler.restore(str(store))

    def test_manifest_newer_than_the_bucket_fails(self, tmp_path, helper):
        """A crash after a proposing round's manifest and before its
        ``hyperparams.csv`` leaves a last plan that gives the newcomer
        traffic; restoring it would hand the newcomer's id out again."""
        old, new = tmp_path / "old", tmp_path / "new"
        sched = self.run_some_rounds(helper)
        sched.persist(str(old))
        sched.run_round([batch_for(1, 4, 5)], helper=helper)
        sched.persist(str(new))
        assert sched.bucket[-1].id in dict(sched.last_plan.assignments)
        (old / "manifest.json").write_bytes((new / "manifest.json").read_bytes())
        with pytest.raises(RestoreError, match="hyperparams.csv: [0-9]+ bytes"):
            Scheduler.restore(str(old))
        reseal(old)
        with pytest.raises(RestoreError, match="outside the bucket"):
            Scheduler.restore(str(old))

    @pytest.mark.parametrize("cut", [0, 1, 2], ids=["first", "second", "third"])
    def test_a_persist_cut_short_restores_the_older_store_or_fails(
        self, tmp_path, monkeypatch, cut
    ):
        """A ``no-proposal`` run is persisted at round 9 and again, over it,
        at round 10, with the ``cut``-th of persist's three writes failing
        before it opens its file.  Restore then gives round 9's round,
        generator state and plan with every row that store held, or raises
        ``RestoreError``; never round 10 without its rows."""
        run = SingleRun(42, ExperimentConfig(variant="no-proposal", seeds=(42,), bucket_size=20))
        run.run_to(10)
        store = str(tmp_path)
        run.sched.persist(store)
        first = run.sched
        state = (first.round, first.rng.bit_generator.state, first.last_plan)
        rows = list(first._raw_log)
        run.run_to(11)
        assert len(run.sched._raw_log) > len(rows)
        writes = []

        def cut_short(write):
            def spy(path, *args, **kwargs):
                writes.append(path)
                if len(writes) == cut + 1:
                    raise OSError("no space left on device")
                write(path, *args, **kwargs)

            return spy

        monkeypatch.setattr(codec, "save", cut_short(codec.save))
        monkeypatch.setattr(codec, "save_table", cut_short(codec.save_table))
        with pytest.raises(OSError, match="no space left"):
            run.sched.persist(store)
        monkeypatch.undo()
        try:
            restored = Scheduler.restore(store)
        except RestoreError:
            return
        assert (restored.round, restored.rng.bit_generator.state, restored.last_plan) == state
        assert restored._raw_log[: len(rows)] == rows

    def test_store_written_at_bootstrap_round_trips(self, tmp_path):
        """A store persisted before any round holds hour 0's plan; it
        restores to an equal state and persists to the same bytes."""
        first, second = tmp_path / "a", tmp_path / "b"
        sched = make_sched(seed=6)
        sched.persist(str(first))
        restored = Scheduler.restore(str(first))
        for attr in ("round", "next_id", "last_plan", "bucket"):
            assert getattr(restored, attr) == getattr(sched, attr)
        assert restored.rng.bit_generator.state == sched.rng.bit_generator.state
        assert all(restored.created_round(hp.id) == 0 for hp in restored.bucket)
        restored.persist(str(second))
        assert self.read_all(second) == self.read_all(first)

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("manifest.json", lambda m: m["last_plan"].update(round=7)),
            ("manifest.json", lambda m: m["config"].update(control_fraction=0.3)),
            ("hyperparams.csv", lambda rows: rows[1].__setitem__(1, "9")),
            ("hyperparams.csv", lambda rows: rows[1].__setitem__(1, "-1")),
            (None, None),
        ],
        ids=[
            "plan-after-the-round", "plan-of-another-control-fraction",
            "created-after-the-round", "created-before-round-0", "empty-bucket",
        ],
    )
    def test_unreachable_state_fails(self, tmp_path, name, edit, helper):
        """States that no sequence of ``bootstrap``, ``run_round`` and
        ``idle`` reaches from a store at round 4; ``None`` empties the
        bucket, the readings and the last plan."""
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        manifest_path, bucket_path = store / "manifest.json", store / "hyperparams.csv"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        rows = [line.split(",") for line in bucket_path.read_text(encoding="utf-8").splitlines()]
        if name is None:
            manifest["last_plan"]["assignments"] = []
            rows = rows[:1]
            (store / "metrics.csv").write_text(",".join(METRICS_HEADER) + "\n", encoding="utf-8")
        else:
            edit(manifest if name == "manifest.json" else rows)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        bucket_path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        reseal(store)
        with pytest.raises(RestoreError, match="manifest"):
            Scheduler.restore(str(store))

    @pytest.mark.parametrize("name", ["hyperparams.csv", "metrics.csv"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: b"\xff" + text,
            lambda text: text + b"1,\xff\n",
            lambda text: text + b"1," + b"9" * 200_000 + b"\n",   # past csv's field limit
        ],
        ids=["not-utf8-header", "not-utf8-row", "oversized-cell"],
    )
    def test_unreadable_table_fails(self, tmp_path, name, edit, helper):
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        (store / name).write_bytes(edit((store / name).read_bytes()))
        reseal(store)
        with pytest.raises(RestoreError, match=name):
            Scheduler.restore(str(store))

    def test_repeated_hyperparams_id_fails(self, tmp_path, helper):
        """A second row for one id would silently replace the first's theta."""
        store = tmp_path / "s"
        self.run_some_rounds(helper).persist(str(store))
        path = store / "hyperparams.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[2].startswith("2,")
        lines.append("2," + lines[3].split(",", 1)[1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reseal(store)
        with pytest.raises(RestoreError, match=f"hyperparams.csv line {len(lines)}: candidate 2"):
            Scheduler.restore(str(store))


@functools.cache
def _persisted_store():
    """The files of a ``full`` run (seed 42, 20 candidates) persisted at
    round 11, and the scheduler that wrote them."""
    run = SingleRun(42, ExperimentConfig(variant="full", seeds=(42,), bucket_size=20))
    run.run_to(12)
    with tempfile.TemporaryDirectory() as tmp:
        run.sched.persist(tmp)
        files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    return files, run.sched


def _restored_equals(restored, sched):
    """Whether ``restored`` holds ``sched``'s round, generator state,
    bucket, created rounds, last plan, settings and every reading."""
    return (
        restored.round == sched.round
        and restored.rng.bit_generator.state == sched.rng.bit_generator.state
        and restored.bucket == sched.bucket
        and [restored.created_round(hp.id) for hp in restored.bucket]
        == [sched.created_round(hp.id) for hp in sched.bucket]
        and restored.last_plan == sched.last_plan
        and (restored.config, restored.problem) == (sched.config, sched.problem)
        and restored._raw_log == sched._raw_log
    )


@st.composite
def corruptions(draw):
    """One file of the persisted store and its bytes after one of five
    corruptions: cut at any byte, one character changed, or, in a table, a
    line deleted, duplicated or swapped with another."""
    files, _ = _persisted_store()
    name = draw(st.sampled_from(["hyperparams.csv", "metrics.csv", "manifest.json"]))
    data = files[name]
    lines = data.splitlines(keepends=True)
    kinds = ["cut", "change"] if name == "manifest.json" else [
        "cut", "delete", "duplicate", "swap", "change",
    ]
    kind = draw(st.sampled_from(kinds))
    if kind == "cut":
        return name, data[: draw(st.integers(0, len(data) - 1))]
    if kind == "change":
        at = draw(st.integers(0, len(data) - 1))
        char = draw(st.sampled_from(b'0123456789.,-e\nx": ').filter(lambda c: c != data[at]))
        return name, data[:at] + bytes([char]) + data[at + 1 :]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        lines[i], lines[j] = lines[j], lines[i]
    return name, b"".join(lines)


class TestTornStore:
    """Restore decodes the manifest only once its seal holds, and parses a
    table only once its bytes are the ones the manifest records, so a file
    cut short or edited is refused, never restored with another round, fewer
    rows or a changed reading."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(round=12),
            lambda m: m["rng_state"]["state"].update(state=m["rng_state"]["state"]["state"] + 1),
            lambda m: m.pop("sha256"),
        ],
        ids=["round", "generator-state", "unsealed"],
    )
    def test_an_edited_manifest_fails(self, tmp_path, edit):
        """A manifest dated an hour later, or with another generator state,
        is valid JSON of the right types, and a manifest without its seal is
        what format 3 wrote; restore refuses all three by the seal alone."""
        files, sched = _persisted_store()
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        assert Scheduler.restore(str(tmp_path)).round == sched.round == 11
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        edit(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RestoreError, match="manifest.json: .*seal"):
            Scheduler.restore(str(tmp_path))

    @pytest.mark.parametrize("name", ["hyperparams.csv", "metrics.csv"])
    @pytest.mark.parametrize(
        "cut",
        [lambda data: data[: data.rindex(b"\n", 0, -1) + 1], lambda data: data[:-2]],
        ids=["at-a-line-boundary", "in-the-last-number"],
    )
    def test_a_table_cut_short_fails(self, tmp_path, name, cut):
        """A cut at a line boundary leaves whole rows; a cut inside the last
        number, ``…,200000`` read as ``…,20000``, a changed reading."""
        files, _ = _persisted_store()
        for file, data in files.items():
            (tmp_path / file).write_bytes(cut(data) if file == name else data)
        refused = f"{name}: [0-9]+ bytes, expected {len(files[name])}"
        with pytest.raises(RestoreError, match=refused):
            Scheduler.restore(str(tmp_path))

    @given(corruption=corruptions())
    @settings(max_examples=100, deadline=None)
    def test_a_corrupted_table_fails_or_restores_the_same_scheduler(self, corruption):
        name, data = corruption
        files, sched = _persisted_store()
        with tempfile.TemporaryDirectory() as tmp:
            for file, content in files.items():
                (Path(tmp) / file).write_bytes(data if file == name else content)
            try:
                restored = Scheduler.restore(tmp)
            except RestoreError as exc:
                assert name in str(exc)
            else:
                assert _restored_equals(restored, sched)


class TestRawReplay:
    """The store keeps the raw readings only; restore replays them."""

    def run_with_degenerate_row(self, helper, normalization):
        sched = make_sched(
            seed=4, select_count=10, proposal_samples=8, normalization=normalization
        )
        for r in range(1, 6):
            batches = [
                batch_for(1, r - 1, r, lifts=(0.013 * r, -0.007), var=3.0 + r),
                batch_for(2, r - 1, r, lifts=(0.021, 0.004 * r), var=5.0 / r, n=700 + r),
            ]
            if r >= 3:  # late arrivals, out of origin order
                batches.append(batch_for(3, r - 3, r, lifts=(0.1 / r, 0.03), n=900))
            sched.run_round(batches, helper=helper)
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
    def test_restored_record_equals_live(self, tmp_path, normalization, helper):
        live = self.run_with_degenerate_row(helper, normalization)
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

    def test_legacy_derived_tables_are_ignored(self, tmp_path, helper):
        live = self.run_with_degenerate_row(helper, "delta")
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
    # SHA-256 of each file after SingleRun(42, ...) runs 20 rounds and
    # persists, with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.  The two
    # tables hash as they did while the store still wrote the derived hourly
    # and aggregate tables, and as their concatenation with manifest format
    # 2 recorded (a0249f22… for `full`, a1672f8f… for `raw-metric`).  Only
    # the manifest was re-recorded: when format 3 added the tables' digests,
    # and when format 4 added its seal (format 3's were 920f945f… for
    # `full` and 05839b12… for `raw-metric`).
    DIGESTS = {
        "full": {
            "manifest.json": "bb3b7d0c9ab5bd135f8664fb8a260efcdd8a2f1ba74a3dbac40b184731b1c6ee",
            "hyperparams.csv": "a17c92be5b70fb75f102dfc94d416fc13f7b65a16f3c6924e6bf911926722097",
            "metrics.csv": "6af83699b9b3b83f6a8c50d8784c6761a249a6eda08b78aff7b78f42b468f14f",
        },
        "raw-metric": {
            "manifest.json": "8564d62b5f34aea1ff02c278aeb64fa04d44727e9dc1c9580606ffa9166c2ca2",
            "hyperparams.csv": "95b7e492c2047416990245589202095cc312848f9bfd8bab617f7597a32e4448",
            "metrics.csv": "eec824b2abc41d3db8d025178c879aebbc62c67e24488295cb38bac8e4b8f89e",
        },
    }

    @pytest.mark.parametrize("variant", ["full", "raw-metric"])
    def test_store_bytes_are_frozen(self, tmp_path, variant):
        run = SingleRun(42, ExperimentConfig(variant=variant, seeds=(42,)))
        run.run_to(20)
        run.sched.persist(str(tmp_path))
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert digests == self.DIGESTS[variant]

        restored = Scheduler.restore(str(tmp_path))
        assert restored._raw_log == run.sched._raw_log
        for hp in run.sched.bucket:
            for metric in run.sched.problem.metrics:
                assert restored.record.aggregate(hp.id, metric) == (
                    run.sched.record.aggregate(hp.id, metric)
                )
