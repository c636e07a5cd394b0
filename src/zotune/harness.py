"""Multi-seed experiment campaigns over the synthetic environment.

A campaign runs one study variant across several seeds, reporting for every
round the ground-truth gain and guardrail shortfall of that round's modal
winner (the candidate that took the most Thompson repetitions, ties to the
lowest id).  Variants toggle independent pieces of the full loop:

    full          lift normalization, asynchronous rounds, proposals on
    raw-metric    test-group statistics used as-is (no control division)
    synchronous   decisions wait until no dispatched feedback is in flight
    no-proposal   the candidate bucket is frozen at its initial contents

Reports aggregate trajectories across seeds (mean and standard error per
round), serialize to JSON, and feed the comparison and series-emission
helpers.  Single runs can checkpoint to disk mid-campaign and resume to an
identical trajectory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .deltastats import TaylorMode
from .problem import (
    AT_LEAST,
    ConstraintSpec,
    HyperParam,
    LinearExpr,
    TuningProblem,
)
from .scheduler import (
    BucketInit,
    InboundBatch,
    Scheduler,
    SchedulerConfig,
    _fmt,
)
from .simenv import BOX, CONTROL_ID, SimEnv

REPORT_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 1

VARIANTS = ("full", "raw-metric", "synchronous", "no-proposal")

# Historical pool of study seeds; campaigns default to the first ten.
DEFAULT_SEED_POOL = (
    42, 40, 22, 35, 0, 1, 130, 3, 131, 5,
    4, 135, 145, 146, 148, 149, 61, 151, 21, 28,
    156, 29, 33, 163, 165, 41, 171, 172, 43, 46,
    180, 52, 182, 82, 183, 185, 187, 150, 189, 193,
    66, 197, 83, 84, 85, 98, 99, 110, 111, 126,
)
DEFAULT_SEEDS = DEFAULT_SEED_POOL[:10]


class HarnessConfigError(ValueError):
    """An experiment configuration is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one campaign needs: variant, seeds, loop and env knobs."""

    variant: str = "full"
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    rounds: int = 30
    select_count: int = 1000
    proposal_samples: int = 600
    proposal_prob: float = 1.0
    control_fraction: float = 0.2
    taylor_mode: str = "delta-method"
    fixed_delay: int = 3
    xi_mean: float = 0.0
    xi_sd: float = 1.0
    bucket_init: str = "random"
    bucket_size: int = 100
    grid_nodes: int = 10
    sigma: float | None = None
    users: int | None = None
    draws_per_step: int | None = None
    env_weights: tuple[float, float, float, float] | None = None
    env_threshold: float | None = None
    base_theta: tuple[float, float] | None = None
    out_dir: str | None = None
    threshold_fraction: float = 0.8

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        try:
            object.__setattr__(self, "taylor_mode", TaylorMode(self.taylor_mode).value)
        except ValueError:
            raise HarnessConfigError(
                f"taylor_mode {self.taylor_mode!r} is not one of "
                f"{[m.value for m in TaylorMode]}"
            ) from None
        if self.variant not in VARIANTS:
            raise HarnessConfigError(
                f"variant {self.variant!r} is not one of {VARIANTS}"
            )
        if not self.seeds:
            raise HarnessConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise HarnessConfigError("seeds must be unique")
        if self.rounds < 0:
            raise HarnessConfigError("rounds must be nonnegative")
        if not 0.0 < self.threshold_fraction <= 1.0:
            raise HarnessConfigError("threshold_fraction must lie in (0, 1]")

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "seeds": list(self.seeds),
            "rounds": self.rounds,
            "select_count": self.select_count,
            "proposal_samples": self.proposal_samples,
            "proposal_prob": self.proposal_prob,
            "control_fraction": self.control_fraction,
            "taylor_mode": self.taylor_mode,
            "fixed_delay": self.fixed_delay,
            "xi_mean": self.xi_mean,
            "xi_sd": self.xi_sd,
            "bucket_init": self.bucket_init,
            "bucket_size": self.bucket_size,
            "grid_nodes": self.grid_nodes,
            "sigma": self.sigma,
            "users": self.users,
            "draws_per_step": self.draws_per_step,
            "env_weights": list(self.env_weights) if self.env_weights else None,
            "env_threshold": self.env_threshold,
            "base_theta": list(self.base_theta) if self.base_theta else None,
            "out_dir": self.out_dir,
            "threshold_fraction": self.threshold_fraction,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        kwargs = dict(d)
        if kwargs.get("seeds") is not None:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        if kwargs.get("env_weights") is not None:
            kwargs["env_weights"] = tuple(kwargs["env_weights"])
        if kwargs.get("base_theta") is not None:
            kwargs["base_theta"] = tuple(kwargs["base_theta"])
        known = set(cls.__dataclass_fields__)
        unknown = set(kwargs) - known
        if unknown:
            raise HarnessConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


def variant_toggles(cfg: ExperimentConfig) -> tuple[str, bool, float]:
    """Resolve a variant name to ``(normalization, synchronous, proposal_prob)``."""
    if cfg.variant == "raw-metric":
        return "raw", False, cfg.proposal_prob
    if cfg.variant == "synchronous":
        return "delta", True, cfg.proposal_prob
    if cfg.variant == "no-proposal":
        return "delta", False, 0.0
    return "delta", False, cfg.proposal_prob


def delta_problem_from_env(env: SimEnv) -> TuningProblem:
    """Express the environment's objective and guardrail on the lift scale.

    With per-metric base means ``B_k``, a linear form ``sum w_k E_k`` over
    raw means becomes ``sum (w_k B_k) lift_k`` plus a constant, so the
    argmax is unchanged and the guardrail threshold shifts by its value at
    the base.
    """
    b = env.base_means()
    w1, w2, w3, w4 = env.spec.weights
    g_base = w3 * float(b[0]) + w4 * float(b[1])
    return TuningProblem(
        metrics=env.spec.metrics,
        objective=LinearExpr((w1 * float(b[0]), w2 * float(b[1]))),
        constraints=(
            ConstraintSpec(
                g=LinearExpr((w3 * float(b[0]), w4 * float(b[1]))),
                threshold=env.spec.threshold - g_base,
                direction=AT_LEAST,
            ),
        ),
        base=HyperParam(id=CONTROL_ID, theta=env.spec.base_theta, bounds=BOX),
    )


@dataclass(frozen=True)
class RoundRow:
    """One reported round: the modal winner and its ground-truth quality."""

    round: int
    winner_id: int | None
    gain: float
    violation: float


@dataclass(frozen=True)
class SeedTrajectory:
    seed: int
    base_violation: float
    rows: tuple[RoundRow, ...]

    def final_gain(self) -> float:
        return self.rows[-1].gain if self.rows else 0.0

    def final_violation(self) -> float:
        return self.rows[-1].violation if self.rows else self.base_violation


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    if arr.size < 2:
        return mean, 0.0
    return mean, float(np.std(arr, ddof=1) / math.sqrt(arr.size))


@dataclass(frozen=True)
class RunReport:
    """A campaign's trajectories plus aggregation helpers."""

    variant: str
    rounds: int
    config: dict
    trajectories: tuple[SeedTrajectory, ...]

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(t.seed for t in self.trajectories)

    def gain_series(self) -> list[tuple[float, float]]:
        """Per-round (mean, se) of gain across seeds."""
        return [
            _mean_se([t.rows[r].gain for t in self.trajectories])
            for r in range(self.rounds)
        ]

    def violation_series(self) -> list[tuple[float, float]]:
        return [
            _mean_se([t.rows[r].violation for t in self.trajectories])
            for r in range(self.rounds)
        ]

    def final_gains(self) -> list[float]:
        return [t.final_gain() for t in self.trajectories]

    def final_violations(self) -> list[float]:
        return [t.final_violation() for t in self.trajectories]

    def final_gain_summary(self) -> tuple[float, float]:
        return _mean_se(self.final_gains())

    def final_violation_summary(self) -> tuple[float, float]:
        return _mean_se(self.final_violations())

    def to_dict(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "variant": self.variant,
            "rounds": self.rounds,
            "config": self.config,
            "trajectories": [
                {
                    "seed": t.seed,
                    "base_violation": t.base_violation,
                    "rows": [
                        [r.round, r.winner_id, r.gain, r.violation] for r in t.rows
                    ],
                }
                for t in self.trajectories
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        if d.get("format_version") != REPORT_FORMAT_VERSION:
            raise HarnessConfigError(
                f"unsupported report version {d.get('format_version')!r}"
            )
        return cls(
            variant=d["variant"],
            rounds=int(d["rounds"]),
            config=d["config"],
            trajectories=tuple(
                SeedTrajectory(
                    seed=int(t["seed"]),
                    base_violation=float(t["base_violation"]),
                    rows=tuple(
                        RoundRow(
                            round=int(row[0]),
                            winner_id=None if row[1] is None else int(row[1]),
                            gain=float(row[2]),
                            violation=float(row[3]),
                        )
                        for row in t["rows"]
                    ),
                )
                for t in d["trajectories"]
            ),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class SingleRun:
    """One seed's closed loop between scheduler and environment.

    Wall rounds advance one hour at a time.  Round 0 exposes the initial
    bucket uniformly; later rounds deliver matured feedback and ask the
    scheduler for a decision (the synchronous variant instead idles while
    any dispatched batch is still in flight).  Rounds with no selection
    carry the previous report row forward.
    """

    def __init__(self, seed: int, cfg: ExperimentConfig) -> None:
        normalization, synchronous, proposal_prob = variant_toggles(cfg)
        self.seed = int(seed)
        self.cfg = cfg
        self.synchronous = synchronous
        overrides = {
            "fixed_delay": cfg.fixed_delay,
            "xi_mean": cfg.xi_mean,
            "xi_sd": cfg.xi_sd,
        }
        for name, value in (
            ("sigma", cfg.sigma),
            ("users", cfg.users),
            ("draws_per_step", cfg.draws_per_step),
            ("weights", cfg.env_weights),
            ("threshold", cfg.env_threshold),
            ("base_theta", cfg.base_theta),
        ):
            if value is not None:
                overrides[name] = value
        self.env = SimEnv.build(seed, **overrides)
        problem = delta_problem_from_env(self.env)
        sched_cfg = SchedulerConfig(
            select_count=cfg.select_count,
            proposal_samples=cfg.proposal_samples,
            proposal_prob=proposal_prob,
            control_fraction=cfg.control_fraction,
            taylor_mode=cfg.taylor_mode,
            normalization=normalization,
            init=BucketInit(
                mode=cfg.bucket_init,
                size=cfg.bucket_size,
                nodes_per_dim=cfg.grid_nodes,
            ),
        )
        self.sched = Scheduler.bootstrap(
            problem,
            sched_cfg,
            np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(2,))),
        )
        self.pending: list[InboundBatch] = []
        self.rows: list[RoundRow] = []
        self.next_round = 0
        self.base_violation = self.env.true_gain_violation(self.env.spec.base_theta)[1]
        self._last: tuple[int, float, float] | None = None

    def _bucket_thetas(self) -> dict[int, tuple[float, ...]]:
        return {hp.id: hp.theta for hp in self.sched.bucket}

    def _step_round(self, r: int) -> None:
        decided = False
        if r == 0:
            plan = self.sched.initial_plan()
        else:
            arrived = [b for b in self.pending if b.arrival_round <= r]
            self.pending = [b for b in self.pending if b.arrival_round > r]
            if self.synchronous and self.pending:
                self.sched.ingest(arrived)
                plan = None
            else:
                plan = self.sched.run_round(arrived)
                decided = self.sched.last_selection is not None
        if plan is not None and plan.assignments:
            self.pending.extend(self.env.step(plan, r, self._bucket_thetas()))
        if decided:
            winner = self.sched.last_selection.modal_winner()
            theta = self._bucket_thetas()[winner]
            g, v = self.env.true_gain_violation(theta)
            self._last = (winner, g, v)
        if self._last is None:
            self.rows.append(
                RoundRow(round=r, winner_id=None, gain=0.0, violation=self.base_violation)
            )
        else:
            wid, g, v = self._last
            self.rows.append(RoundRow(round=r, winner_id=wid, gain=g, violation=v))

    def run_to(self, upto: int) -> None:
        """Advance wall rounds [next_round, upto)."""
        for r in range(self.next_round, int(upto)):
            self._step_round(r)
        self.next_round = int(upto)

    def trajectory(self) -> SeedTrajectory:
        return SeedTrajectory(
            seed=self.seed,
            base_violation=self.base_violation,
            rows=tuple(self.rows),
        )

    # Checkpointing

    def save_checkpoint(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.sched.persist(os.path.join(directory, "scheduler"))
        self.env.save(os.path.join(directory, "env.json"))
        state = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "seed": self.seed,
            "next_round": self.next_round,
            "config": self.cfg.to_dict(),
            "pending": [b.to_dict() for b in self.pending],
            "rows": [[r.round, r.winner_id, r.gain, r.violation] for r in self.rows],
            "last": list(self._last) if self._last else None,
            "base_violation": self.base_violation,
        }
        with open(os.path.join(directory, "run.json"), "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def resume(cls, directory: str) -> "SingleRun":
        with open(os.path.join(directory, "run.json"), "r", encoding="utf-8") as fh:
            state = json.load(fh)
        if state.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise HarnessConfigError(
                f"unsupported checkpoint version {state.get('format_version')!r}"
            )
        cfg = ExperimentConfig.from_dict(state["config"])
        run = cls.__new__(cls)
        run.seed = int(state["seed"])
        run.cfg = cfg
        _, run.synchronous, _ = variant_toggles(cfg)
        run.env = SimEnv.load(os.path.join(directory, "env.json"))
        run.sched = Scheduler.restore(os.path.join(directory, "scheduler"))
        run.sched.store_dir = None
        run.pending = [InboundBatch.from_dict(b) for b in state["pending"]]
        run.rows = [
            RoundRow(
                round=int(r[0]),
                winner_id=None if r[1] is None else int(r[1]),
                gain=float(r[2]),
                violation=float(r[3]),
            )
            for r in state["rows"]
        ]
        run.next_round = int(state["next_round"])
        run.base_violation = float(state["base_violation"])
        run._last = tuple(state["last"]) if state["last"] else None
        if run._last is not None:
            run._last = (int(run._last[0]), float(run._last[1]), float(run._last[2]))
        return run


def run_single(seed: int, cfg: ExperimentConfig) -> SeedTrajectory:
    """Run one seed's full campaign and return its trajectory."""
    run = SingleRun(seed, cfg)
    run.run_to(cfg.rounds)
    return run.trajectory()


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run every seed of a campaign; write report and series when out_dir set."""
    trajectories = tuple(run_single(seed, cfg) for seed in cfg.seeds)
    report = RunReport(
        variant=cfg.variant,
        rounds=cfg.rounds,
        config=cfg.to_dict(),
        trajectories=trajectories,
    )
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        report.save(os.path.join(cfg.out_dir, f"report_{cfg.variant}.json"))
        emit_series([report], cfg.out_dir)
    return report


def emit_series(reports: Sequence[RunReport], out_dir: str) -> list[str]:
    """Write per-variant time series plus one cross-variant summary table.

    Series rows are ``round, mean_gain, se_gain, mean_violation,
    se_violation`` (gains as fractions); the summary reports final gains in
    percent.  Returns the written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for report in reports:
        path = os.path.join(out_dir, f"series_{report.variant}.csv")
        gains = report.gain_series()
        violations = report.violation_series()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("round,mean_gain,se_gain,mean_violation,se_violation\n")
            for r in range(report.rounds):
                gm, gs = gains[r]
                vm, vs = violations[r]
                fh.write(f"{r},{_fmt(gm)},{_fmt(gs)},{_fmt(vm)},{_fmt(vs)}\n")
        paths.append(path)
    summary = os.path.join(out_dir, "summary.csv")
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write("variant,gain_pct_mean,gain_pct_se,violation_mean,violation_se,n_seeds\n")
        for report in reports:
            gm, gs = report.final_gain_summary()
            vm, vs = report.final_violation_summary()
            fh.write(
                f"{report.variant},{_fmt(gm * 100.0)},{_fmt(gs * 100.0)},"
                f"{_fmt(vm)},{_fmt(vs)},{len(report.seeds)}\n"
            )
    paths.append(summary)
    return paths


@dataclass(frozen=True)
class ComparisonRow:
    variant: str
    final_gain_mean: float
    final_gain_se: float
    final_violation_mean: float
    final_violation_se: float
    rounds_to_threshold: float
    paired_wins_by_reference: int | None


@dataclass(frozen=True)
class Comparison:
    reference: str
    threshold_fraction: float
    target_gain: float
    rows: tuple[ComparisonRow, ...]

    def row(self, variant: str) -> ComparisonRow:
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(variant)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(
                "variant,final_gain_mean,final_gain_se,final_violation_mean,"
                "final_violation_se,rounds_to_threshold,paired_wins_by_reference\n"
            )
            for row in self.rows:
                wins = "" if row.paired_wins_by_reference is None else row.paired_wins_by_reference
                fh.write(
                    f"{row.variant},{_fmt(row.final_gain_mean)},{_fmt(row.final_gain_se)},"
                    f"{_fmt(row.final_violation_mean)},{_fmt(row.final_violation_se)},"
                    f"{_fmt(row.rounds_to_threshold)},{wins}\n"
                )

    def to_text(self) -> str:
        lines = [
            f"reference={self.reference} "
            f"target_gain={self.target_gain:.6f} "
            f"(fraction={self.threshold_fraction})",
            f"{'variant':<14} {'gain%':>10} {'se%':>8} {'violation':>11} "
            f"{'rounds_to_thr':>14} {'ref_wins':>9}",
        ]
        for row in self.rows:
            wins = "-" if row.paired_wins_by_reference is None else str(row.paired_wins_by_reference)
            rtt = "inf" if math.isinf(row.rounds_to_threshold) else f"{row.rounds_to_threshold:.0f}"
            lines.append(
                f"{row.variant:<14} {row.final_gain_mean * 100:>10.3f} "
                f"{row.final_gain_se * 100:>8.3f} {row.final_violation_mean:>11.5f} "
                f"{rtt:>14} {wins:>9}"
            )
        return "\n".join(lines)


def rounds_to_threshold(report: RunReport, target_gain: float) -> float:
    """First round whose mean gain reaches the target; inf if never."""
    for r, (mean, _) in enumerate(report.gain_series()):
        if mean >= target_gain:
            return float(r)
    return float("inf")


def compare_variants(
    reports: Sequence[RunReport],
    reference: str = "full",
    threshold_fraction: float | None = None,
) -> Comparison:
    """Cross-variant table: final quality, speed to threshold, paired wins.

    All reports must share the same seed list and round count.  The
    threshold is a fraction of the reference variant's final mean gain;
    paired wins count seeds where the reference's final gain strictly
    exceeds the variant's.
    """
    if len(reports) < 2:
        raise HarnessConfigError("comparison needs at least two reports")
    names = [r.variant for r in reports]
    if len(set(names)) != len(names):
        raise HarnessConfigError("duplicate variants in comparison")
    if reference not in names:
        reference = names[0]
    ref = next(r for r in reports if r.variant == reference)
    for r in reports:
        if r.seeds != ref.seeds:
            raise HarnessConfigError(
                f"variant {r.variant!r} has different seeds than {reference!r}"
            )
        if r.rounds != ref.rounds:
            raise HarnessConfigError(
                f"variant {r.variant!r} has different rounds than {reference!r}"
            )
    if threshold_fraction is None:
        threshold_fraction = float(ref.config.get("threshold_fraction", 0.8))
    ref_final_mean, _ = ref.final_gain_summary()
    target = threshold_fraction * ref_final_mean
    ref_finals = ref.final_gains()
    rows = []
    for r in reports:
        gm, gs = r.final_gain_summary()
        vm, vs = r.final_violation_summary()
        if r.variant == reference:
            wins = None
        else:
            finals = r.final_gains()
            wins = sum(1 for a, b in zip(ref_finals, finals) if a > b)
        rows.append(
            ComparisonRow(
                variant=r.variant,
                final_gain_mean=gm,
                final_gain_se=gs,
                final_violation_mean=vm,
                final_violation_se=vs,
                rounds_to_threshold=rounds_to_threshold(r, target),
                paired_wins_by_reference=wins,
            )
        )
    return Comparison(
        reference=reference,
        threshold_fraction=threshold_fraction,
        target_gain=target,
        rows=tuple(rows),
    )
