"""Tests for the round loop, traffic planning, and file-backed persistence."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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
from zotune.deltastats import GroupReading
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
        assert plan.fraction_of(1) == 0.5
        assert plan.fraction_of(99) == 0.0
        assert plan.candidate_ids() == (1, 2)

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

    def test_explicit_init_verbatim(self):
        vectors = ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))
        sched = make_sched(init=BucketInit(mode="explicit", vectors=vectors))
        assert tuple(hp.theta for hp in sched.bucket) == vectors

    def test_random_init_deterministic_by_seed(self):
        a = make_sched(seed=5, init=BucketInit(mode="random", size=8))
        b = make_sched(seed=5, init=BucketInit(mode="random", size=8))
        assert tuple(hp.theta for hp in a.bucket) == tuple(hp.theta for hp in b.bucket)

    def test_empty_explicit_rejected(self):
        with pytest.raises(ValueError):
            BucketInit(mode="explicit", vectors=())

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
        assert plan.fraction_of(1) == pytest.approx(0.8)

    def test_traffic_split_two_to_one(self):
        """Units {a: 2, b: 1} at control 0.2 give 0.5333... and 0.2666..."""
        sched = make_sched()
        plan = sched._plan_from_units(1, Counter({1: 2, 2: 1}))
        assert plan.fraction_of(1) == pytest.approx(0.8 * 2 / 3, rel=1e-12)
        assert plan.fraction_of(2) == pytest.approx(0.8 / 3, rel=1e-12)

    def test_proposal_grows_bucket_with_unit_traffic(self):
        sched = make_sched(proposal_prob=1.0, select_count=3, proposal_samples=16)
        sched.initial_plan()
        before = len(sched.bucket)
        new_id = sched.next_id
        plan = sched.run_round([batch_for(1, 0, 1, var=0.0)])
        assert len(sched.bucket) == before + 1
        assert sched.created_round(new_id) == 1
        # zero-variance winners all land on candidate 1: units {1: 3, new: 1}
        assert plan.fraction_of(1) == pytest.approx(0.8 * 3 / 4)
        assert plan.fraction_of(new_id) == pytest.approx(0.8 / 4)

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
            (None, None),                                        # duplicate key
        ],
        ids=[
            "header", "truncated", "extra", "unparseable", "nan", "inf",
            "negative-var", "empty-group", "degenerate", "duplicate",
        ],
    )
    def test_malformed_metrics_row_fails(self, tmp_path, line, edit):
        store = tmp_path / "s"
        self.run_some_rounds().persist(str(store))
        path = store / "metrics.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        if line is None:
            lines.append(lines[1])
        else:
            lines[line] = ",".join(edit(lines[line].split(",")))
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
        assert len(restored.record) == len(live.record)
        for hp in live.bucket:
            for metric in METRICS:
                assert restored.record.aggregate(hp.id, metric) == live.record.aggregate(
                    hp.id, metric
                )
                assert restored.record.hourly(hp.id, metric) == live.record.hourly(
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
        assert restored.record.rounds_absorbed(4, "x1") == (1 if normalization == "raw" else 0)

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
        assert len(restored.record) == len(run.sched.record)
        for hp in run.sched.bucket:
            for metric in run.sched.problem.metrics:
                assert restored.record.aggregate(hp.id, metric) == (
                    run.sched.record.aggregate(hp.id, metric)
                )
