"""Tests for multi-seed campaigns, reports, comparisons, and the CLI."""

import hashlib
import json
import math
from pathlib import Path

import pytest

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
    variant_toggles,
)
from zotune.problem import AT_LEAST
from zotune.simenv import CONTROL_ID, SimEnv

# Small-but-live loop settings so campaign tests stay fast.
TINY = dict(
    seeds=(3, 7),
    rounds=6,
    select_count=50,
    proposal_samples=40,
    bucket_size=10,
    users=20_000,
)


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

    def test_unknown_taylor_mode_rejected(self):
        with pytest.raises(HarnessConfigError, match="taylor_mode"):
            ExperimentConfig(taylor_mode="TaylorMode.CROSSED")

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
    def test_full(self):
        norm, sync, p = variant_toggles(ExperimentConfig(variant="full"))
        assert (norm, sync, p) == ("delta", False, 1.0)

    def test_raw_metric_switches_normalization_only(self):
        norm, sync, p = variant_toggles(ExperimentConfig(variant="raw-metric"))
        assert (norm, sync, p) == ("raw", False, 1.0)

    def test_synchronous_waits_for_feedback(self):
        norm, sync, p = variant_toggles(ExperimentConfig(variant="synchronous"))
        assert (norm, sync, p) == ("delta", True, 1.0)

    def test_no_proposal_zeroes_proposal_probability(self):
        norm, sync, p = variant_toggles(
            ExperimentConfig(variant="no-proposal", proposal_prob=0.7)
        )
        assert (norm, sync, p) == ("delta", False, 0.0)


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

    def test_dict_roundtrip(self):
        report = synthetic_report()
        again = RunReport.from_dict(report.to_dict())
        assert again == report

    def test_file_roundtrip(self, tmp_path):
        report = synthetic_report()
        path = tmp_path / "report.json"
        report.save(str(path))
        assert RunReport.load(str(path)) == report

    def test_version_mismatch_rejected(self):
        d = synthetic_report().to_dict()
        d["format_version"] = 999
        with pytest.raises(HarnessConfigError):
            RunReport.from_dict(d)


class TestCampaignRuns:
    def test_zero_rounds_yields_empty_trajectory(self):
        cfg = tiny_config(seeds=(3,), rounds=0)
        report = run_experiment(cfg)
        (t,) = report.trajectories
        assert t.rows == ()
        assert t.final_gain() == 0.0
        assert t.final_violation() == t.base_violation
        assert report.gain_series() == []

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

    def test_report_carries_seed_order(self):
        report = run_experiment(tiny_config())
        assert report.seeds == TINY["seeds"]


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
        state["format_version"] = 99
        state_path.write_text(json.dumps(state))
        with pytest.raises(HarnessConfigError):
            SingleRun.resume(str(tmp_path / "ckpt"))


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
