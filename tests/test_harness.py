"""Tests for multi-seed campaigns, reports, comparisons, and the CLI."""

import csv
import hashlib
import json
import math
import tempfile
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zotune import cli, codec
from zotune.cli import build_parser, main
from zotune.deltastats import TaylorMode
from zotune.harness import (
    DEFAULT_SEED_POOL,
    DEFAULT_SEEDS,
    VARIANTS,
    Comparison,
    ExperimentConfig,
    HarnessConfigError,
    RoundRow,
    RunReport,
    SeedTrajectory,
    SingleRun,
    compare_variants,
    delta_problem_from_env,
    emit_series,
    rounds_to_threshold,
    run_experiment,
    run_single,
)
from zotune.problem import AT_LEAST
from zotune.scheduler import SchedulerConfig
from zotune.simenv import CONTROL_ID, EnvKnobs, SimEnv

# Small-but-live loop settings so campaign tests stay fast.
TINY = dict(
    seeds=(3, 7),
    rounds=6,
    select_count=50,
    proposal_samples=40,
    bucket_size=10,
    users=20_000,
)


def _number_forms(value, real):
    """``value`` as given and as the numpy scalar of its kind, and also as an
    ``int`` or a ``bool`` where it equals one."""
    forms = [value, np.float64(value) if real else np.int64(value)]
    if float(value).is_integer():
        forms += [int(value), np.int64(value)]
    if value in (0, 1):
        forms.append(bool(value))
    return forms


@st.composite
def mixed_config_kwargs(draw):
    """Valid values of the config's real, count and tuple fields, each in a
    form a caller might pass: an int for a real, a numpy scalar, a bool
    where it equals the value, a list for a tuple."""
    reals = {
        "proposal_prob": (0.0, 0.5, 1.0), "control_fraction": (0.2, 0.5),
        "xi_mean": (0.0, 1.0), "xi_sd": (0.0, 1.0), "sigma": (0.5, 1.0),
        "env_threshold": (0.5, 1.0), "threshold_fraction": (0.5, 1.0),
    }
    counts = {
        "select_count": (1, 50), "proposal_samples": (1, 40), "fixed_delay": (0, 1, 3),
        "bucket_size": (1, 10), "users": (1, 20_000), "draws_per_step": (2, 20),
    }
    tuples = {
        "seeds": ((3,), (7,), (3, 7)),
        "env_weights": ((1.0, 2.0, 3.0, 4.0), (0.3, 1.2, 0.1, 0.7)),
        "base_theta": ((0.0, 1.0), (0.5, 0.5)),
    }
    kwargs = {}
    for name in draw(st.sets(st.sampled_from([*reals, *counts, *tuples]))):
        if name in tuples:
            values = draw(st.sampled_from(tuples[name]))
            items = [draw(st.sampled_from(_number_forms(v, name != "seeds"))) for v in values]
            kwargs[name] = draw(st.sampled_from([tuple, list]))(items)
        else:
            value = draw(st.sampled_from((reals | counts)[name]))
            kwargs[name] = draw(st.sampled_from(_number_forms(value, name in reals)))
    return kwargs


# The same settings as flags, for one seed.
TINY_FLAGS = [
    "--seeds", "3", "--rounds", "3", "--select-count", "50",
    "--proposal-samples", "40", "--bucket-size", "10", "--users", "20000",
]


def tiny_config(**overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def synthetic_report(variant="full", gains_by_seed=None, violation=0.0):
    """Build a report from explicit per-seed gain sequences."""
    gains_by_seed = gains_by_seed or {1: (0.0, 0.01, 0.02), 2: (0.0, 0.03, 0.04)}
    rounds = len(next(iter(gains_by_seed.values())))
    trajectories = tuple(
        SeedTrajectory(
            seed=seed,
            base_violation=violation,
            rows=tuple(
                RoundRow(round=r, winner_id=seed, gain=g, violation=violation)
                for r, g in enumerate(gains)
            ),
        )
        for seed, gains in gains_by_seed.items()
    )
    cfg = ExperimentConfig(variant=variant, seeds=tuple(gains_by_seed), rounds=rounds)
    return RunReport(
        variant=variant, rounds=rounds, config=cfg.to_dict(), trajectories=trajectories
    )


class TestExperimentConfig:
    def test_defaults_are_the_desk_setup(self):
        cfg = ExperimentConfig()
        assert cfg.variant == "full"
        assert cfg.seeds == DEFAULT_SEEDS
        assert cfg.rounds == 30
        assert cfg.select_count == 1000
        assert cfg.proposal_samples == 600
        assert cfg.fixed_delay == 3

    def test_unknown_variant_rejected(self):
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(variant="bogus")

    def test_empty_seeds_rejected(self):
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(seeds=(1, 1))

    def test_negative_rounds_rejected(self):
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(rounds=-1)
        for rounds in (4.0, True):          # neither round-trips through the codec
            with pytest.raises(HarnessConfigError, match="ExperimentConfig.rounds: expected int"):
                ExperimentConfig(rounds=rounds)

    @pytest.mark.parametrize(
        "knob, where",
        [
            ({"seeds": (3.7, 7)}, r"seeds\[0\]"),
            ({"seeds": (True, 7)}, r"seeds\[0\]"),
            ({"proposal_prob": True}, "proposal_prob"),
            ({"sigma": True}, "sigma"),
        ],
        ids=["fractional-seed", "bool-seed", "bool-proposal-prob", "bool-sigma"],
    )
    def test_lossy_value_refused_by_name(self, knob, where):
        """A cast ran seed 3.7 as seed 3; a ``True`` ran, but its stored config
        could not be read back, so its checkpoint could not resume."""
        with pytest.raises(HarnessConfigError, match=f"ExperimentConfig.{where}: expected"):
            ExperimentConfig(**knob)

    def test_integer_too_large_for_a_float_refused(self):
        """``float(10**400)`` raises OverflowError, which is no config error."""
        with pytest.raises(HarnessConfigError, match="ExperimentConfig.sigma: .* too large"):
            ExperimentConfig.from_dict({**ExperimentConfig().to_dict(), "sigma": 10**400})

    @settings(max_examples=40, deadline=None)
    @given(kwargs=mixed_config_kwargs())
    @example(kwargs={"sigma": 1, "proposal_prob": 1})
    @example(kwargs={"proposal_prob": True})
    def test_a_config_is_built_in_its_stored_form(self, kwargs):
        """A config that builds stores what it runs: its JSON reads back byte
        for byte, and a 2-hour run saves, resumes and saves the same bytes."""
        try:
            cfg = ExperimentConfig(**{**TINY, "rounds": 2, **kwargs})
        except HarnessConfigError:
            return
        stored = json.dumps(cfg.to_dict(), sort_keys=True)
        reread = ExperimentConfig.from_dict(cfg.to_dict())
        assert json.dumps(reread.to_dict(), sort_keys=True) == stored
        run = SingleRun(cfg.seeds[0], cfg)
        run.run_to(2)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            run.save_checkpoint(str(first))
            SingleRun.resume(str(first)).save_checkpoint(str(second))
            saved = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
            assert saved == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
            for name in saved:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_threshold_fraction_bounds(self):
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(threshold_fraction=0.0)
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(threshold_fraction=1.5)

    def test_dict_roundtrip(self):
        cfg = tiny_config(variant="synchronous", env_weights=(1.0, 2.0, 3.0, 4.0))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_taylor_mode_enum_roundtrip(self):
        cfg = ExperimentConfig(taylor_mode=TaylorMode.CROSSED)
        assert cfg.taylor_mode == "crossed"
        assert cfg.to_dict()["taylor_mode"] == "crossed"
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig().to_dict()["taylor_mode"] == "delta-method"
        tiny = tiny_config(taylor_mode=TaylorMode.CROSSED)
        run = SingleRun(3, ExperimentConfig.from_dict(tiny.to_dict()))
        assert run.sched.config.taylor_mode is TaylorMode.CROSSED

    def test_env_fields_are_the_env_knobs(self):
        """The report keeps its own names for the env knobs; the set stays one."""
        every = ExperimentConfig(
            sigma=0.5, users=1000, draws_per_step=20, env_weights=(1.0, 2.0, 3.0, 4.0),
            env_threshold=0.5, base_theta=(0.5, 0.5),
        )
        knobs = [f.name for f in fields(EnvKnobs)]
        assert set(every.env_overrides()) == set(knobs)
        spec = SingleRun(1, ExperimentConfig()).env.spec
        assert [getattr(spec, name) for name in knobs] == list(astuple(EnvKnobs()))

    def test_default_loop_is_the_scheduler_default(self):
        assert SingleRun(1, ExperimentConfig()).sched.config == SchedulerConfig()

    def test_unknown_taylor_mode_rejected(self):
        with pytest.raises(HarnessConfigError, match="taylor_mode"):
            ExperimentConfig(taylor_mode="TaylorMode.CROSSED")

    @pytest.mark.parametrize(
        "knob",
        [
            {"proposal_prob": 1.5},
            {"select_count": 0},
            {"proposal_samples": 0},
            {"control_fraction": 1.0},
            {"bucket_init": "hex"},
            {"bucket_size": 0},
            {"bucket_init": "grid", "grid_nodes": 0},
            {"select_count": 50.0},
            {"proposal_samples": 40.0},
            {"bucket_size": 10.0},
            {"grid_nodes": 4.0},
            {"select_count": True},
        ],
        ids=lambda knob: ",".join(f"{k}={v}" for k, v in knob.items()),
    )
    def test_bad_loop_knob_rejected_when_built(self, knob):
        """Even where the variant would override the knob (``no-proposal``
        runs with proposal_prob 0)."""
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(variant="no-proposal", **knob)

    @pytest.mark.parametrize(
        "knob",
        [
            {"xi_sd": math.nan},
            {"xi_mean": math.inf},
            {"sigma": math.nan},
            {"env_threshold": math.nan},
            {"env_weights": (0.3, math.nan, 0.1, 0.7)},
            {"draws_per_step": 1},
            {"users": 20000.5},
            {"fixed_delay": 1.5},
            {"draws_per_step": 50.0},
            {"users": True},
        ],
        ids=lambda knob: ",".join(f"{k}={v}" for k, v in knob.items()),
    )
    def test_bad_env_knob_rejected_when_built(self, knob):
        """The environment's own check, run before any landscape is built."""
        with pytest.raises(HarnessConfigError):
            ExperimentConfig(**knob)

    def test_from_dict_rejects_unknown_keys(self):
        d = ExperimentConfig().to_dict()
        d["frobnicate"] = 1
        with pytest.raises(HarnessConfigError, match="frobnicate"):
            ExperimentConfig.from_dict(d)


class TestSeedPool:
    def test_pool_has_fifty_unique_seeds(self):
        assert len(DEFAULT_SEED_POOL) == 50
        assert len(set(DEFAULT_SEED_POOL)) == 50

    def test_default_seeds_are_the_first_ten(self):
        assert DEFAULT_SEEDS == DEFAULT_SEED_POOL[:10]


class TestVariantToggles:
    """A variant's toggles: ``scheduler_config()`` and ``SingleRun.synchronous``."""

    @staticmethod
    def toggles(cfg):
        sched_cfg = cfg.scheduler_config()
        run = SingleRun(3, cfg)
        assert run.sched.config == sched_cfg
        return sched_cfg.normalization, run.synchronous, sched_cfg.proposal_prob

    def test_full(self):
        assert self.toggles(tiny_config(variant="full")) == ("delta", False, 1.0)

    def test_raw_metric_switches_normalization_only(self):
        assert self.toggles(tiny_config(variant="raw-metric")) == ("raw", False, 1.0)

    def test_synchronous_waits_for_feedback(self):
        assert self.toggles(tiny_config(variant="synchronous")) == ("delta", True, 1.0)

    def test_no_proposal_zeroes_proposal_probability(self):
        cfg = tiny_config(variant="no-proposal", proposal_prob=0.7)
        assert self.toggles(cfg) == ("delta", False, 0.0)


class TestDeltaProblemFromEnv:
    def test_objective_weights_scale_with_base_means(self):
        env = SimEnv.build(11)
        problem = delta_problem_from_env(env)
        b = env.base_means()
        w = env.spec.weights
        assert problem.metrics == env.spec.metrics
        assert problem.objective.weights == pytest.approx((w[0] * b[0], w[1] * b[1]))

    def test_guardrail_threshold_is_shifted_by_base_value(self):
        env = SimEnv.build(11)
        problem = delta_problem_from_env(env)
        b = env.base_means()
        w = env.spec.weights
        (constraint,) = problem.constraints
        assert constraint.direction == AT_LEAST
        assert constraint.g.weights == pytest.approx((w[2] * b[0], w[3] * b[1]))
        assert constraint.threshold == pytest.approx(
            env.spec.threshold - (w[2] * b[0] + w[3] * b[1])
        )

    def test_base_candidate_is_the_control(self):
        env = SimEnv.build(11)
        problem = delta_problem_from_env(env)
        assert problem.base.id == CONTROL_ID
        assert problem.base.theta == env.spec.base_theta


class TestSeedTrajectory:
    def test_finals_read_the_last_row(self):
        t = SeedTrajectory(
            seed=1,
            base_violation=0.2,
            rows=(
                RoundRow(round=0, winner_id=None, gain=0.0, violation=0.2),
                RoundRow(round=1, winner_id=4, gain=0.05, violation=0.01),
            ),
        )
        assert t.final_gain() == 0.05
        assert t.final_violation() == 0.01

    def test_empty_trajectory_reports_zero_gain_and_base_violation(self):
        t = SeedTrajectory(seed=1, base_violation=0.2, rows=())
        assert t.final_gain() == 0.0
        assert t.final_violation() == 0.2


class TestRunReport:
    def test_series_and_summary_statistics(self):
        report = synthetic_report(
            gains_by_seed={1: (0.0, 0.02), 2: (0.0, 0.04)}, violation=0.1
        )
        gains = report.gain_series()
        assert len(gains) == 2
        assert gains[1][0] == pytest.approx(0.03)
        # se of {0.02, 0.04}: sd = 0.0141.., / sqrt(2)
        assert gains[1][1] == pytest.approx(0.01)
        gm, gs = report.final_gain_summary()
        assert (gm, gs) == pytest.approx((0.03, 0.01))
        vm, vs = report.final_violation_summary()
        assert (vm, vs) == pytest.approx((0.1, 0.0))

    def test_single_seed_summary_has_zero_se(self):
        report = synthetic_report(gains_by_seed={5: (0.01, 0.02)})
        assert report.final_gain_summary() == pytest.approx((0.02, 0.0))

    def test_file_roundtrip(self, tmp_path):
        report = synthetic_report()
        path = tmp_path / "report.json"
        report.save(str(path))
        assert RunReport.load(str(path)) == report

    def test_rows_must_number_the_rounds(self, tmp_path):
        report = synthetic_report()
        short = replace(report.trajectories[0], rows=report.trajectories[0].rows[:-1])
        with pytest.raises(ValueError, match="rows do not number the 3 rounds"):
            replace(report, trajectories=(short, *report.trajectories[1:]))
        d = report.to_dict()
        d["trajectories"][1]["rows"][0][0] = 1
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(HarnessConfigError, match=r"seed 2\)"):
            RunReport.load(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        d = synthetic_report().to_dict()
        d["format_version"] = 999
        path = tmp_path / "report.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(HarnessConfigError, match="version 999"):
            RunReport.load(str(path))


class TestCampaignRuns:
    def test_zero_rounds_yields_empty_trajectory(self):
        cfg = tiny_config(seeds=(3,), rounds=0)
        report = run_experiment(cfg)
        (t,) = report.trajectories
        assert t.rows == ()
        assert t.final_gain() == 0.0
        assert t.final_violation() == t.base_violation
        assert report.gain_series() == []

    def test_run_experiment_writes_nothing(self, tmp_path):
        out = tmp_path / "o"
        run_experiment(tiny_config(seeds=(3,), rounds=2, out_dir=str(out)))
        assert not out.exists()

    def test_run_single_is_deterministic(self):
        cfg = tiny_config(seeds=(3,))
        assert run_single(3, cfg) == run_single(3, cfg)

    def test_rows_cover_every_round_in_order(self):
        traj = run_single(3, tiny_config())
        assert [r.round for r in traj.rows] == list(range(TINY["rounds"]))

    def test_no_proposal_keeps_bucket_frozen(self):
        run = SingleRun(3, tiny_config(variant="no-proposal"))
        run.run_to(TINY["rounds"])
        assert len(run.sched.bucket) == TINY["bucket_size"]

    def test_full_variant_grows_bucket_via_proposals(self):
        run = SingleRun(3, tiny_config())
        run.run_to(TINY["rounds"])
        assert len(run.sched.bucket) > TINY["bucket_size"]

    def test_synchronous_variant_decides_less_often(self):
        sync = run_single(3, tiny_config(variant="synchronous", rounds=10))
        full = run_single(3, tiny_config(rounds=10))
        undecided = lambda t: sum(1 for r in t.rows if r.winner_id is None)
        assert undecided(sync) > undecided(full)

    def test_idle_rounds_repeat_the_last_row(self):
        """Synchronous rounds that only ingest carry the previous row forward."""
        run = SingleRun(3, tiny_config(variant="synchronous", rounds=12))
        idle = []
        for r in range(12):
            run.run_to(r + 1)
            if run.sched.last_plan.round != r:
                idle.append(r)
        assert any(run.rows[r - 1].winner_id is not None for r in idle)
        for r in idle:
            assert run.rows[r] == run.rows[r - 1]._replace(round=r)

    def test_synchronous_clock_is_the_wall_hour(self):
        """Seed 42 over 30 hours: the scheduler's round is the hour after
        every hour, idle or not, and every plan carries the hour that
        emitted it."""
        run = SingleRun(42, ExperimentConfig(variant="synchronous", seeds=(42,)))
        plans = []
        for r in range(30):
            run.run_to(r + 1)
            assert run.sched.round == r
            if not plans or run.sched.last_plan is not plans[-1]:
                plans.append(run.sched.last_plan)
                assert plans[-1].round == r
        assert 1 < len(plans) < 30

    @pytest.mark.parametrize("seed", [3.7, True])
    def test_seed_must_be_an_int(self, seed):
        """A cast would run seed 3.7 as seed 3, and ``True`` as seed 1."""
        with pytest.raises(ValueError, match="seed: expected int"):
            SingleRun(seed, tiny_config(seeds=(3,)))

    @pytest.mark.parametrize("upto", [2.5, True])
    def test_run_to_takes_an_int(self, upto):
        """A cast would run ``run_to(2.5)`` to hour 2."""
        run = SingleRun(3, tiny_config(seeds=(3,)))
        with pytest.raises(ValueError, match="upto: expected int"):
            run.run_to(upto)
        assert run.rows == []

    def test_run_to_never_runs_backwards(self):
        run = SingleRun(3, tiny_config(seeds=(3,)))
        run.run_to(5)
        rows = list(run.rows)
        with pytest.raises(ValueError, match="round 5"):
            run.run_to(2)
        assert run.rows == rows and run.next_round == 5
        run.run_to(5)
        assert [r.round for r in run.rows] == [0, 1, 2, 3, 4]

    def test_report_carries_seed_order(self):
        report = run_experiment(tiny_config())
        assert report.seeds == TINY["seeds"]


@pytest.mark.bitwise
class TestFrozenTrajectory:
    # Recorded before the GP kernel-sharing rework, with Python 3.11.7,
    # numpy 2.4.6 and scipy 1.17.1; identical with OPENBLAS_NUM_THREADS=1
    # and with the default thread count.  A change to any random stream or
    # to any floating-point result along the loop changes this digest.
    FULL_42_40_DIGEST = "d2c2a55fa51d1b7eddf425c64e9bca7189a0ce6b2cf60caf372e8a99ea187298"

    def test_full_variant_digest_is_frozen(self):
        report = run_experiment(
            ExperimentConfig(variant="full", seeds=(42, 40), rounds=30)
        )
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.FULL_42_40_DIGEST


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg = tiny_config(seeds=(3,), rounds=8)
        straight = SingleRun(3, cfg)
        straight.run_to(8)

        broken = SingleRun(3, cfg)
        broken.run_to(4)
        broken.save_checkpoint(str(tmp_path / "ckpt"))
        resumed = SingleRun.resume(str(tmp_path / "ckpt"))
        resumed.run_to(8)

        assert resumed.trajectory() == straight.trajectory()

    def test_resume_from_before_hour_0_matches_uninterrupted_run(self, tmp_path):
        """A checkpoint saved before any hour ran holds no rows and the
        store exactly as ``bootstrap`` wrote it."""
        cfg = tiny_config(seeds=(3,), rounds=5)
        straight = SingleRun(3, cfg)
        straight.run_to(5)

        SingleRun(3, cfg).save_checkpoint(str(tmp_path / "ckpt"))
        resumed = SingleRun.resume(str(tmp_path / "ckpt"))
        assert resumed.rows == [] and resumed.sched.round == 0
        resumed.run_to(5)

        assert resumed.trajectory() == straight.trajectory()

    @pytest.mark.parametrize("moved", ["pending", "env_rng_state"])
    def test_resume_refuses_hour_0_feedback_without_its_row(self, tmp_path, moved):
        """A ``run.json`` with no rows beside a fresh store, but holding hour
        0's feedback in flight or the noise stream after hour 0, does not
        resume: no hour has run, so neither can have moved."""
        cfg = tiny_config(seeds=(3,), rounds=4)
        after_hour_0 = SingleRun(3, cfg)
        after_hour_0.run_to(1)
        SingleRun(3, cfg).save_checkpoint(str(tmp_path))
        path = tmp_path / "run.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        if moved == "pending":
            data["pending"] = [codec.to_dict(after_hour_0.pending[0])]
        else:
            data["env_rng_state"] = after_hour_0.env.rng_state
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(HarnessConfigError, match="checkpoint"):
            SingleRun.resume(str(tmp_path))

    def test_resume_with_crossed_taylor_mode(self, tmp_path):
        cfg = tiny_config(seeds=(3,), rounds=6, taylor_mode=TaylorMode.CROSSED)
        straight = SingleRun(3, cfg)
        straight.run_to(6)

        broken = SingleRun(3, cfg)
        broken.run_to(3)
        broken.save_checkpoint(str(tmp_path / "ckpt"))
        resumed = SingleRun.resume(str(tmp_path / "ckpt"))
        assert resumed.cfg == cfg
        assert resumed.sched.config.taylor_mode is TaylorMode.CROSSED
        resumed.run_to(6)

        assert resumed.trajectory() == straight.trajectory()

    def test_resume_rejects_unknown_version(self, tmp_path):
        cfg = tiny_config(seeds=(3,), rounds=4)
        run = SingleRun(3, cfg)
        run.run_to(2)
        run.save_checkpoint(str(tmp_path / "ckpt"))
        state_path = tmp_path / "ckpt" / "run.json"
        state = json.loads(state_path.read_text())
        # version 2 stored the landscape in env.json, version 3 next_round,
        # version 4 each feedback row as a test and a control reading
        for version in (2, 3, 4, 99):
            state["format_version"] = version
            state_path.write_text(json.dumps(state))
            with pytest.raises(HarnessConfigError, match=f"version {version}"):
                SingleRun.resume(str(tmp_path / "ckpt"))

    @pytest.mark.bitwise
    def test_checkpoint_stores_each_fact_once(self, tmp_path):
        """A checkpoint holds ``run.json`` and the scheduler store, not the
        landscape; resume rebuilds that from the seed, and saving the
        resumed run writes every file byte for byte again."""
        run = SingleRun(3, tiny_config(seeds=(3,), rounds=8))
        run.run_to(5)
        first, second = tmp_path / "a", tmp_path / "b"
        run.save_checkpoint(str(first))
        assert sorted(p.name for p in first.iterdir()) == ["run.json", "scheduler"]
        resumed = SingleRun.resume(str(first))
        resumed.save_checkpoint(str(second))

        def files(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        assert len(files(first)) == 4
        assert files(second) == files(first)
        assert resumed.env.spec == run.env.spec
        assert resumed.env.rng_state == run.env.rng_state

    @pytest.mark.parametrize(
        "other_seed, other_overrides",
        [(7, {}), (3, {"select_count": 40})],
        ids=["another-seed", "another-config"],
    )
    def test_resume_refuses_another_runs_scheduler_store(
        self, tmp_path, other_seed, other_overrides
    ):
        """With the two checkpoints' ``scheduler/`` directories swapped,
        neither resumes: each store's problem or config is not the one its
        ``run.json`` builds."""
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        for seed, overrides, directory in ((3, {}, ours), (other_seed, other_overrides, theirs)):
            run = SingleRun(seed, tiny_config(seeds=(seed,), rounds=4, **overrides))
            run.run_to(2)
            run.save_checkpoint(str(directory))
        (ours / "scheduler").rename(tmp_path / "swap")
        (theirs / "scheduler").rename(ours / "scheduler")
        (tmp_path / "swap").rename(theirs / "scheduler")
        for directory in (ours, theirs):
            with pytest.raises(HarnessConfigError, match="another run"):
                SingleRun.resume(str(directory))

    def test_resume_refuses_a_store_of_another_hour(self, tmp_path):
        """A checkpoint saved at hour 5 whose ``scheduler/`` was then
        overwritten by the same run's hour-8 store, as a crash between the
        store and ``run.json`` leaves it, does not resume."""
        run = SingleRun(3, tiny_config(seeds=(3,), rounds=8))
        run.run_to(5)
        run.save_checkpoint(str(tmp_path))
        run.run_to(8)
        run.sched.persist(str(tmp_path / "scheduler"))
        with pytest.raises(HarnessConfigError, match="5 rows.*round 7"):
            SingleRun.resume(str(tmp_path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("rows"),
            lambda d: d["pending"][0].pop("arrival_round"),
            lambda d: d["config"].update(rounds="x"),
            lambda d: d.pop("env_rng_state"),
            lambda d: d["env_rng_state"].update(bit_generator="MT19937"),
            # the rows stop a round short of the scheduler store
            lambda d: d["rows"].pop(),
            lambda d: d["rows"].reverse(),
        ],
        ids=[
            "no-rows", "pending-without-arrival", "rounds-not-int",
            "no-env-rng-state", "env-rng-state-of-another-generator",
            "rows-short-of-next-round", "rows-misnumbered",
        ],
    )
    def test_malformed_checkpoint_fails(self, tmp_path, edit):
        run = SingleRun(3, tiny_config(seeds=(3,), rounds=4))
        run.run_to(2)
        run.save_checkpoint(str(tmp_path))
        path = tmp_path / "run.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(HarnessConfigError, match="checkpoint"):
            SingleRun.resume(str(tmp_path))


class TestEmitSeries:
    def test_series_and_summary_files_have_expected_shape(self, tmp_path):
        reports = [
            synthetic_report("full"),
            synthetic_report("raw-metric", gains_by_seed={1: (0.0, 0.0, 0.0), 2: (0.0, 0.0, 0.0)}),
        ]
        paths = emit_series(reports, str(tmp_path))
        assert [Path(p).name for p in paths] == [
            "series_full.csv",
            "series_raw-metric.csv",
            "summary.csv",
        ]
        series = Path(paths[0]).read_text().splitlines()
        assert series[0] == "round,mean_gain,se_gain,mean_violation,se_violation"
        assert len(series) == 1 + 3
        summary = Path(paths[2]).read_text().splitlines()
        assert summary[0] == (
            "variant,gain_pct_mean,gain_pct_se,violation_mean,violation_se,n_seeds"
        )
        assert len(summary) == 1 + 2

    def test_reemission_is_byte_identical(self, tmp_path):
        report = synthetic_report()
        (path, _) = emit_series([report], str(tmp_path))
        first = Path(path).read_bytes()
        emit_series([report], str(tmp_path))
        assert Path(path).read_bytes() == first

    # SHA-256 of the series, summary and comparison CSVs below, recorded
    # before the two float formatters were merged into one.
    CSV_DIGEST = "7024013941f85d9a2454ee6a4ec9ec2a557922d9220b7b0d45564b596146a5a7"

    def test_csv_bytes_are_frozen(self, tmp_path):
        full = synthetic_report("full", gains_by_seed={1: (0.0, 0.1 / 3), 2: (0.0, 0.2)})
        flat = synthetic_report(
            "no-proposal", gains_by_seed={1: (0.0, 1e-17), 2: (0.0, -0.01)}, violation=0.25
        )
        paths = emit_series([full, flat], str(tmp_path))
        compare_variants([full, flat]).to_csv(str(tmp_path / "cmp.csv"))
        blob = b"".join(Path(p).read_bytes() for p in paths + [str(tmp_path / "cmp.csv")])
        assert b",inf," in blob  # no-proposal never reaches the target
        assert hashlib.sha256(blob).hexdigest() == self.CSV_DIGEST

    def test_a_variant_with_a_comma_reads_back_as_one_cell(self, tmp_path):
        """``RunReport.load`` takes any variant string, so a table cell may
        hold a comma or a quote; ``csv.reader`` reads back what was written."""
        full = synthetic_report("full")
        mine = replace(synthetic_report("raw-metric"), variant='mine, "tuned"')
        paths = emit_series([full, mine], str(tmp_path))
        cmp = compare_variants([full, mine])
        cmp.to_csv(str(tmp_path / "cmp.csv"))

        def read(path):
            with open(path, encoding="utf-8", newline="") as fh:
                return list(csv.reader(fh))

        assert read(paths[1])[1:] == [
            [str(r), *map(repr, gain), *map(repr, violation)]
            for r, (gain, violation) in enumerate(
                zip(mine.gain_series(), mine.violation_series())
            )
        ]
        gm, gs = mine.final_gain_summary()
        vm, vs = mine.final_violation_summary()
        assert read(paths[2])[2] == [
            'mine, "tuned"', repr(gm * 100.0), repr(gs * 100.0), repr(vm), repr(vs), "2"
        ]
        row = cmp.row('mine, "tuned"')
        assert read(tmp_path / "cmp.csv")[2] == [
            'mine, "tuned"', repr(row.final_gain_mean), repr(row.final_gain_se),
            repr(row.final_violation_mean), repr(row.final_violation_se),
            repr(row.rounds_to_threshold), str(row.paired_wins_by_reference),
        ]

    def test_empty_report_emits_header_only(self, tmp_path):
        report = RunReport(
            variant="full",
            rounds=0,
            config=ExperimentConfig(rounds=0).to_dict(),
            trajectories=(SeedTrajectory(seed=1, base_violation=0.0, rows=()),),
        )
        paths = emit_series([report], str(tmp_path))
        lines = Path(paths[0]).read_text().splitlines()
        assert lines == ["round,mean_gain,se_gain,mean_violation,se_violation"]


class TestComparison:
    def test_threshold_speed_and_paired_wins(self):
        full = synthetic_report(
            "full", gains_by_seed={1: (0.0, 0.05, 0.1), 2: (0.0, 0.05, 0.1)}
        )
        slow = synthetic_report(
            "synchronous", gains_by_seed={1: (0.0, 0.0, 0.09), 2: (0.0, 0.0, 0.09)}
        )
        cmp = compare_variants([full, slow], reference="full")
        # target = 0.8 * 0.1; full reaches 0.08 at round 2, slow at round 2.
        assert cmp.target_gain == pytest.approx(0.08)
        assert cmp.row("full").rounds_to_threshold == 2
        assert cmp.row("synchronous").rounds_to_threshold == 2
        assert cmp.row("full").paired_wins_by_reference is None
        assert cmp.row("synchronous").paired_wins_by_reference == 2

    def test_never_reaching_target_reports_inf(self):
        full = synthetic_report("full", gains_by_seed={1: (0.0, 0.1), 2: (0.0, 0.1)})
        flat = synthetic_report(
            "no-proposal", gains_by_seed={1: (0.0, 0.01), 2: (0.0, 0.01)}
        )
        cmp = compare_variants([full, flat])
        assert math.isinf(cmp.row("no-proposal").rounds_to_threshold)

    def test_self_comparison_is_a_wash(self):
        a = synthetic_report("full")
        b = synthetic_report("raw-metric")  # same numbers, different label
        cmp = compare_variants([a, b], reference="full")
        assert cmp.row("raw-metric").paired_wins_by_reference == 0
        assert cmp.row("full").final_gain_mean == cmp.row("raw-metric").final_gain_mean
        assert (
            cmp.row("full").rounds_to_threshold
            == cmp.row("raw-metric").rounds_to_threshold
        )

    def test_mismatched_seeds_rejected(self):
        a = synthetic_report("full")
        b = synthetic_report("raw-metric", gains_by_seed={9: (0.0, 0.1), 8: (0.0, 0.1)})
        with pytest.raises(HarnessConfigError, match="seeds"):
            compare_variants([a, b])

    def test_duplicate_variants_rejected(self):
        with pytest.raises(HarnessConfigError, match="duplicate"):
            compare_variants([synthetic_report("full"), synthetic_report("full")])

    def test_default_reference_is_full_else_the_first(self):
        reports = [synthetic_report("raw-metric"), synthetic_report("full")]
        assert compare_variants(reports).reference == "full"
        assert compare_variants(reports[:1] + [synthetic_report("no-proposal")]).reference == (
            "raw-metric"
        )

    def test_unknown_reference_rejected(self):
        with pytest.raises(HarnessConfigError, match="'fulll' is not one of"):
            compare_variants(
                [synthetic_report("full"), synthetic_report("raw-metric")], reference="fulll"
            )

    @pytest.mark.parametrize("fraction", [5.0, 0.0, -1.0, math.nan])
    def test_threshold_fraction_outside_0_1_rejected(self, fraction):
        reports = [synthetic_report("full"), synthetic_report("no-proposal")]
        with pytest.raises(HarnessConfigError, match="threshold_fraction"):
            compare_variants(reports, threshold_fraction=fraction)

    def test_a_report_without_threshold_fraction_reads_the_default(self):
        reports = [
            replace(synthetic_report(variant), config={}) for variant in ("full", "no-proposal")
        ]
        cmp = compare_variants(reports)
        assert cmp.threshold_fraction == ExperimentConfig.threshold_fraction

    def test_single_report_rejected(self):
        with pytest.raises(HarnessConfigError, match="two"):
            compare_variants([synthetic_report("full")])

    def test_csv_roundtrip_shape(self, tmp_path):
        cmp = compare_variants(
            [synthetic_report("full"), synthetic_report("no-proposal")]
        )
        path = tmp_path / "cmp.csv"
        cmp.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("variant,final_gain_mean")
        assert isinstance(cmp.to_text(), str)


class TestRoundsToThreshold:
    def test_first_crossing_round(self):
        report = synthetic_report(gains_by_seed={1: (0.0, 0.5, 0.9), 2: (0.0, 0.5, 0.9)})
        assert rounds_to_threshold(report, 0.4) == 1
        assert rounds_to_threshold(report, 0.0) == 0
        assert math.isinf(rounds_to_threshold(report, 2.0))


class TestCli:
    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--variant", "raw-metric", "--rounds", "4"])
        assert args.variant == "raw-metric"
        args = parser.parse_args(["ablate", "--variants", "full", "no-proposal"])
        assert args.variants == ["full", "no-proposal"]
        args = parser.parse_args(["compare", "a.json", "b.json"])
        assert args.reports == ["a.json", "b.json"]

    def test_run_writes_report_and_series(self, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(
            [
                "run", "--seeds", "3", "--rounds", "3",
                "--select-count", "50", "--proposal-samples", "40",
                "--bucket-size", "10", "--users", "20000",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "report_full.json").exists()
        assert (out / "series_full.csv").exists()
        assert (out / "summary.csv").exists()
        assert "final_gain" in capsys.readouterr().out

    def test_config_file_overrides_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rounds": 2, "seeds": [7]}))
        out = tmp_path / "results"
        rc = main(
            [
                "run", "--seeds", "1", "2", "--rounds", "9",
                "--select-count", "50", "--proposal-samples", "40",
                "--bucket-size", "10", "--users", "20000",
                "--config", str(cfg_path), "--out", str(out),
            ]
        )
        assert rc == 0
        report = RunReport.load(str(out / "report_full.json"))
        assert report.rounds == 2
        assert report.seeds == (7,)

    def test_compare_command_reads_saved_reports(self, tmp_path, capsys):
        a, b = synthetic_report("full"), synthetic_report("no-proposal")
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(str(pa))
        b.save(str(pb))
        out_csv = tmp_path / "cmp.csv"
        rc = main(["compare", str(pa), str(pb), "--out", str(out_csv)])
        assert rc == 0
        assert out_csv.exists()
        assert "no-proposal" in capsys.readouterr().out

    def test_compare_refuses_an_unknown_reference(self, tmp_path, capsys):
        paths = []
        for variant in ("full", "no-proposal"):
            paths.append(str(tmp_path / f"{variant}.json"))
            synthetic_report(variant).save(paths[-1])
        out_csv = tmp_path / "cmp.csv"
        rc = main(["compare", *paths, "--reference", "typo", "--out", str(out_csv)])
        assert rc == 1
        assert "'typo' is not one of" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("fraction", ["5", "0", "-1", "nan"])
    def test_compare_refuses_a_threshold_fraction_outside_0_1(self, tmp_path, capsys, fraction):
        paths = []
        for variant in ("full", "no-proposal"):
            paths.append(str(tmp_path / f"{variant}.json"))
            synthetic_report(variant).save(paths[-1])
        out_csv = tmp_path / "cmp.csv"
        rc = main(
            ["compare", *paths, "--threshold-fraction", fraction, "--out", str(out_csv)]
        )
        assert rc == 1
        assert "threshold_fraction must lie in (0, 1]" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_compare_refuses_a_report_short_of_its_rounds(self, tmp_path, capsys):
        paths = [str(tmp_path / "full.json"), str(tmp_path / "no-proposal.json")]
        synthetic_report("full").save(paths[0])
        d = synthetic_report("no-proposal").to_dict()
        d["trajectories"][0]["rows"].pop()
        Path(paths[1]).write_text(json.dumps(d), encoding="utf-8")
        out_csv = tmp_path / "cmp.csv"
        rc = main(["compare", *paths, "--out", str(out_csv)])
        assert rc == 1
        assert "rows do not number the 3 rounds" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("stored", [True, "0.5"], ids=["bool", "str"])
    def test_compare_refuses_a_stored_threshold_fraction_that_is_not_a_real(
        self, tmp_path, capsys, stored
    ):
        """Every other stored real refuses both; ``float()`` would read them
        as 1.0 and 0.5."""
        paths = [str(tmp_path / "full.json"), str(tmp_path / "no-proposal.json")]
        d = synthetic_report("full").to_dict()
        d["config"]["threshold_fraction"] = stored
        Path(paths[0]).write_text(json.dumps(d), encoding="utf-8")
        synthetic_report("no-proposal").save(paths[1])
        out_csv = tmp_path / "cmp.csv"
        rc = main(["compare", *paths, "--out", str(out_csv)])
        assert rc == 1
        assert "error: report 'full' threshold_fraction: expected float" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_missing_report_file_exits_nonzero(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "nope.json"), str(tmp_path / "nah.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"frobnicate": 1}))
        rc = main(["run", "--rounds", "1", "--config", str(cfg_path)])
        assert rc == 1
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [{"rounds": "x"}, {"seeds": 5}, [{"rounds": 1}]],
        ids=["rounds-str", "seeds-int", "array-for-object"],
    )
    def test_mistyped_config_value_exits_nonzero(self, tmp_path, capsys, fields):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fields))
        rc = main(["run", "--rounds", "1", "--config", str(cfg_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_value_too_large_for_a_float_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text('{"sigma": 1' + "0" * 400 + "}")
        rc = main(["run", "--seeds", "3", "--rounds", "1", "--config", str(cfg_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_ablate_refuses_config_setting_variant(self, tmp_path, monkeypatch, capsys):
        """A config file's ``variant`` would replace every ablated variant."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"variant": "full", "rounds": 1}))
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        rc = main(
            ["ablate", "--variants", "full", "no-proposal", "--config", str(cfg_path)]
        )
        assert rc == 1
        assert ran == []
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--variants", "full", "full"], "duplicate variants"),
            (["--variants", "full", "raw-metric", "--reference", "typo"], "'typo' is not one of"),
        ],
        ids=["repeated-variant", "unknown-reference"],
    )
    def test_ablate_refuses_before_any_run(self, tmp_path, capsys, flags, error):
        out = tmp_path / "o"
        rc = main(["ablate", *flags, "--rounds", "3", "--n-seeds", "1", "--out", str(out)])
        assert rc == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--variant", "no-proposal"],
            ["ablate", "--variants", "no-proposal", "full"],
        ],
        ids=["run", "ablate"],
    )
    def test_bad_loop_knob_refused_before_any_run(self, tmp_path, capsys, command):
        """``no-proposal`` turns proposals off, but a bad ``-p`` is still refused."""
        out = tmp_path / "o"
        rc = main([*command, "-p", "1.5", *TINY_FLAGS, "--out", str(out)])
        assert rc == 1
        assert "proposal_prob must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_env_knob_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        def run(cfg):
            raise AssertionError("a campaign ran")

        monkeypatch.setattr(cli, "run_experiment", run)
        out = tmp_path / "o"
        rc = main(["run", "--xi-sd", "nan", *TINY_FLAGS, "--out", str(out)])
        assert rc == 1
        assert "xi_sd must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_writes_each_file_once(self, tmp_path, monkeypatch):
        written = []
        for name in ("save", "save_table"):
            def spy(path, *rest, _write=getattr(codec, name)):
                written.append(Path(path).name)
                return _write(path, *rest)

            monkeypatch.setattr(codec, name, spy)
        variants = ["full", "raw-metric", "no-proposal"]
        out = tmp_path / "o"
        assert main(["ablate", "--variants", *variants, *TINY_FLAGS, "--out", str(out)]) == 0
        files = [
            *(f"report_{v}.json" for v in variants),
            *(f"series_{v}.csv" for v in variants),
            "summary.csv",
            "comparison.csv",
        ]
        assert sorted(written) == sorted(files)
        assert sorted(p.name for p in out.iterdir()) == sorted(files)

    def test_a_failed_campaign_keeps_only_the_reports_before_it(self, tmp_path, monkeypatch):
        def run(cfg):
            if cfg.variant == "no-proposal":
                raise HarnessConfigError("campaign failed")
            return synthetic_report(cfg.variant)

        monkeypatch.setattr(cli, "run_experiment", run)
        out = tmp_path / "o"
        assert main(["ablate", "--variants", "no-proposal", "full", "--out", str(out)]) == 1
        assert not out.exists()
        assert main(["ablate", "--variants", "full", "no-proposal", "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["report_full.json"]

    def test_ablate_prints_the_run_line_per_variant(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", *TINY_FLAGS, "--out", str(out)]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert main(["ablate", "--variants", "full", "no-proposal", *TINY_FLAGS]) == 0
        ablate_lines = capsys.readouterr().out.splitlines()
        assert run_lines == [ablate_lines[0], f"wrote {out / 'report_full.json'}"]
        assert ablate_lines[1].startswith("no-proposal: seeds=1 rounds=3 final_gain=")

    def test_n_seeds_out_of_range_exits_nonzero(self):
        assert main(["run", "--n-seeds", "99"]) == 1

    def test_ablate_compares_variants(self, tmp_path, capsys):
        out = tmp_path / "ablation"
        out.mkdir()
        rc = main(
            [
                "ablate", "--variants", "full", "no-proposal",
                "--seeds", "3", "--rounds", "3",
                "--select-count", "50", "--proposal-samples", "40",
                "--bucket-size", "10", "--users", "20000",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "comparison.csv").exists()
        assert "reference=full" in capsys.readouterr().out
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["full", "no-proposal"]


class TestCliConfig:
    """Flags set ``ExperimentConfig`` fields and default to its defaults."""

    def run_configs(self, monkeypatch, tmp_path, argv):
        """The configs ``main(argv)`` runs, with ``tmp_path`` as the working
        directory so that a relative ``--out`` lands there."""
        monkeypatch.chdir(tmp_path)
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return synthetic_report(cfg.variant)

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(argv) == 0
        return seen

    def test_no_flags_build_the_default_config(self, monkeypatch, tmp_path):
        assert self.run_configs(monkeypatch, tmp_path, ["run"]) == [ExperimentConfig()]

    @pytest.mark.parametrize(
        "flags, field, value",
        [
            (["--variant", "raw-metric"], "variant", "raw-metric"),
            (["--seeds", "4", "2"], "seeds", (4, 2)),
            (["--n-seeds", "3"], "seeds", DEFAULT_SEED_POOL[:3]),
            (["--rounds", "7"], "rounds", 7),
            (["-T", "7"], "rounds", 7),
            (["--select-count", "9"], "select_count", 9),
            (["-K", "9"], "select_count", 9),
            (["--proposal-samples", "11"], "proposal_samples", 11),
            (["-N", "11"], "proposal_samples", 11),
            (["--proposal-prob", "0.5"], "proposal_prob", 0.5),
            (["-p", "0.5"], "proposal_prob", 0.5),
            (["--control-fraction", "0.3"], "control_fraction", 0.3),
            (["--taylor-mode", "crossed"], "taylor_mode", "crossed"),
            (["--tau", "5"], "fixed_delay", 5),
            (["--fixed-delay", "5"], "fixed_delay", 5),
            (["--xi-mean", "0.5"], "xi_mean", 0.5),
            (["--xi-sd", "2.5"], "xi_sd", 2.5),
            (["--init", "grid"], "bucket_init", "grid"),
            (["--bucket-size", "12"], "bucket_size", 12),
            (["--grid-nodes", "4"], "grid_nodes", 4),
            (["--sigma", "0.3"], "sigma", 0.3),
            (["--users", "5000"], "users", 5000),
            (["--draws", "20"], "draws_per_step", 20),
            (["--out", "results"], "out_dir", "results"),
        ],
    )
    def test_each_flag_sets_its_field(self, monkeypatch, tmp_path, flags, field, value):
        (cfg,) = self.run_configs(monkeypatch, tmp_path, ["run"] + flags)
        assert cfg == replace(ExperimentConfig(), **{field: value})

    def test_ablate_sets_each_variant(self, monkeypatch, tmp_path):
        configs = self.run_configs(
            monkeypatch, tmp_path, ["ablate", "--variants", "full", "no-proposal", "-T", "4"]
        )
        assert configs == [
            ExperimentConfig(variant="full", rounds=4),
            ExperimentConfig(variant="no-proposal", rounds=4),
        ]
