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
round) and feed the comparison.  A campaign writes nothing: ``RunReport.save``
and ``emit_series`` write its report and series.  Single runs can checkpoint
to disk mid-campaign and resume to an identical trajectory.  A checkpoint is
the scheduler store plus ``run.json``, which holds what the seed and config
do not fix: the environment's noise stream, feedback in flight and the rows
so far, one per wall hour run.  The landscape is not stored; resume
rebuilds it from the seed, bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields
from typing import Literal, NamedTuple, Sequence, get_args

import numpy as np

from . import codec
from .deltastats import TaylorMode
from .gp import Helper
from .problem import ConstraintSpec, HyperParam, LinearExpr, TuningProblem
from .scheduler import (
    BucketInit,
    InboundBatch,
    InitMode,
    Scheduler,
    SchedulerConfig,
)
from .simenv import BOX, CONTROL_ID, EnvKnobs, SimEnv

REPORT_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 5

Variant = Literal["full", "raw-metric", "synchronous", "no-proposal"]
VARIANTS = get_args(Variant)

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


def _check_threshold_fraction(value: float) -> None:
    """HarnessConfigError unless ``value`` lies in (0, 1]; NaN does not."""
    if not 0.0 < value <= 1.0:
        raise HarnessConfigError("threshold_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one campaign needs: variant, seeds, loop and env knobs.

    Loop and env defaults are read from ``SchedulerConfig``, ``BucketInit``
    and ``EnvKnobs``; ``None`` keeps the environment's default.
    """

    variant: Variant = "full"
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    rounds: int = 30
    select_count: int = SchedulerConfig.select_count
    proposal_samples: int = SchedulerConfig.proposal_samples
    proposal_prob: float = SchedulerConfig.proposal_prob
    control_fraction: float = SchedulerConfig.control_fraction
    taylor_mode: TaylorMode = SchedulerConfig.taylor_mode
    fixed_delay: int = EnvKnobs.fixed_delay
    xi_mean: float = EnvKnobs.xi_mean
    xi_sd: float = EnvKnobs.xi_sd
    bucket_init: InitMode = BucketInit.mode
    bucket_size: int = BucketInit.size
    grid_nodes: int = BucketInit.nodes_per_dim
    sigma: float | None = None
    users: int | None = None
    draws_per_step: int | None = None
    env_weights: tuple[float, float, float, float] | None = None
    env_threshold: float | None = None
    base_theta: tuple[float, float] | None = None
    out_dir: str | None = None
    threshold_fraction: float = 0.8

    def __post_init__(self) -> None:
        try:
            codec.conform(self)
            if not self.seeds:
                raise ValueError("at least one seed is required")
            if len(set(self.seeds)) != len(self.seeds):
                raise ValueError("seeds must be unique")
            _check_threshold_fraction(self.threshold_fraction)
            if self.rounds < 0:
                raise ValueError("rounds must be nonnegative")
            SchedulerConfig(proposal_prob=self.proposal_prob)    # also under no-proposal
            self.scheduler_config()
            EnvKnobs(**self.env_overrides())
        except ValueError as exc:
            raise HarnessConfigError(str(exc)) from None

    def scheduler_config(self) -> SchedulerConfig:
        """The campaign's loop config: the knobs as given, with ``raw``
        normalization for ``raw-metric`` and no proposals for ``no-proposal``."""
        return SchedulerConfig(
            select_count=self.select_count,
            proposal_samples=self.proposal_samples,
            proposal_prob=0.0 if self.variant == "no-proposal" else self.proposal_prob,
            control_fraction=self.control_fraction,
            taylor_mode=self.taylor_mode,
            normalization="raw" if self.variant == "raw-metric" else "delta",
            init=BucketInit(
                mode=self.bucket_init,
                size=self.bucket_size,
                nodes_per_dim=self.grid_nodes,
            ),
        )

    def env_overrides(self) -> dict:
        """The environment knobs given, by ``SimEnv.build``'s names; a
        ``None`` field is left out and keeps the environment's default."""
        overrides = {
            "fixed_delay": self.fixed_delay,
            "xi_mean": self.xi_mean,
            "xi_sd": self.xi_sd,
            "sigma": self.sigma,
            "users": self.users,
            "draws_per_step": self.draws_per_step,
            "weights": self.env_weights,
            "threshold": self.env_threshold,
            "base_theta": self.base_theta,
        }
        return {name: value for name, value in overrides.items() if value is not None}

    def to_dict(self) -> dict:
        return codec.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return codec.from_dict(cls, d)
        except codec.DecodeError as exc:
            raise HarnessConfigError(str(exc)) from None


def delta_problem_from_env(env: SimEnv) -> TuningProblem:
    """Express the environment's objective and guardrail on the lift scale.

    With per-metric base means ``B_k``, a linear form ``sum w_k E_k`` over
    raw means becomes ``sum (w_k B_k) lift_k`` plus a constant, so the
    argmax is unchanged and the guardrail threshold shifts by its value at
    the base.
    """
    b1, b2 = env.base_means().tolist()
    w1, w2, w3, w4 = env.spec.weights
    return TuningProblem(
        metrics=env.spec.metrics,
        objective=LinearExpr((w1 * b1, w2 * b2)),
        constraints=(
            ConstraintSpec(
                g=LinearExpr((w3 * b1, w4 * b2)),
                threshold=env.spec.threshold - (w3 * b1 + w4 * b2),
            ),
        ),
        base=HyperParam(id=CONTROL_ID, theta=env.spec.base_theta, bounds=BOX),
    )


class RoundRow(NamedTuple):
    """One reported round: the modal winner and its ground-truth quality."""

    round: int
    winner_id: int | None
    gain: float
    violation: float


def _check_rows(rows: Sequence[RoundRow], rounds: int, what: str) -> None:
    """ValueError unless ``rows`` number the rounds ``0 .. rounds - 1`` in order."""
    if [row.round for row in rows] != list(range(rounds)):
        raise ValueError(f"rows do not number the {rounds} rounds {what}")


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

    def __post_init__(self) -> None:
        for t in self.trajectories:
            _check_rows(t.rows, self.rounds, f"of the report (seed {t.seed})")

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
        return {"format_version": REPORT_FORMAT_VERSION, **codec.to_dict(self)}

    def save(self, path: str) -> None:
        codec.save(path, REPORT_FORMAT_VERSION, self)

    @classmethod
    def load(cls, path: str) -> "RunReport":
        try:
            return codec.load(path, REPORT_FORMAT_VERSION, cls)
        except ValueError as exc:
            raise HarnessConfigError(f"malformed report {path}: {exc}") from None


@dataclass(frozen=True)
class Checkpoint:
    """``run.json`` after its ``format_version`` key: what a run holds
    besides its scheduler store and what ``seed`` and ``config`` rebuild."""

    seed: int
    config: ExperimentConfig
    env_rng_state: dict
    pending: tuple[InboundBatch, ...]
    rows: tuple[RoundRow, ...]

    def __post_init__(self) -> None:
        _check_rows(self.rows, len(self.rows), "of the checkpoint")


class SingleRun:
    """One seed's closed loop between scheduler and environment.

    Wall rounds advance one hour at a time, and the scheduler's round is
    the last one run.  Round 0 exposes the initial bucket through the plan
    the scheduler is born with; later rounds deliver matured feedback and
    ask the scheduler for a decision (the synchronous variant instead calls
    ``idle`` while any dispatched batch is still in flight).  Rounds with no
    selection carry the previous report row forward.
    """

    def __init__(self, seed: int, cfg: ExperimentConfig) -> None:
        self.seed = codec.count(seed, "seed")
        self.cfg = cfg
        self.synchronous = cfg.variant == "synchronous"
        self.env = SimEnv.build(self.seed, **cfg.env_overrides())
        self.sched = Scheduler.bootstrap(
            delta_problem_from_env(self.env),
            cfg.scheduler_config(),
            np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(2,))),
        )
        self.pending: list[InboundBatch] = []
        self.rows: list[RoundRow] = []

    @property
    def next_round(self) -> int:
        return len(self.rows)

    @property
    def base_violation(self) -> float:
        """Ground-truth guardrail shortfall of the base configuration."""
        return self.env.true_gain_violation(self.env.spec.base_theta)[1]

    def _step_round(self, r: int, helper: Helper) -> None:
        if self.rows:
            row = self.rows[-1]._replace(round=r)
        else:
            row = RoundRow(round=r, winner_id=None, gain=0.0, violation=self.base_violation)
        if r == 0:
            plan = self.sched.last_plan
        else:
            arrived = [b for b in self.pending if b.arrival_round <= r]
            self.pending = [b for b in self.pending if b.arrival_round > r]
            if self.synchronous and self.pending:
                self.sched.idle(arrived)
                plan = None
            else:
                plan = self.sched.run_round(arrived, helper=helper)
        if plan is not None:
            thetas = {hp.id: hp.theta for hp in self.sched.bucket}
            self.pending.extend(self.env.step(plan, r, thetas))
            if self.sched.last_selection is not None:
                winner = self.sched.last_selection.modal_winner()
                g, v = self.env.true_gain_violation(thetas[winner])
                row = RoundRow(round=r, winner_id=winner, gain=g, violation=v)
        self.rows.append(row)

    def run_to(self, upto: int) -> None:
        """Advance wall rounds [next_round, upto); a round never runs twice,
        so an ``upto`` below ``next_round``, or one that is not an ``int``,
        raises ValueError.

        The call opens one ``gp.Helper`` thread that every decided round
        runs its fit, scoring and prediction on, and joins it before it
        returns or raises, so no thread outlives it.
        """
        upto = codec.count(upto, "upto")
        if upto < self.next_round:
            raise ValueError(f"run is at round {self.next_round}; cannot run to {upto}")
        with Helper() as helper:
            for r in range(self.next_round, upto):
                self._step_round(r, helper)

    def trajectory(self) -> SeedTrajectory:
        return SeedTrajectory(
            seed=self.seed,
            base_violation=self.base_violation,
            rows=tuple(self.rows),
        )

    # Checkpointing

    def save_checkpoint(self, directory: str) -> None:
        self.sched.persist(os.path.join(directory, "scheduler"))
        state = Checkpoint(
            seed=self.seed,
            config=self.cfg,
            env_rng_state=self.env.rng_state,
            pending=tuple(self.pending),
            rows=tuple(self.rows),
        )
        codec.save(os.path.join(directory, "run.json"), CHECKPOINT_FORMAT_VERSION, state)

    @classmethod
    def resume(cls, directory: str) -> "SingleRun":
        """Rebuild a run from ``save_checkpoint``'s directory: the seed and
        config build it as a fresh run does, then the stored state replaces
        the environment's noise stream, the scheduler and the run's progress.

        A malformed ``run.json``, one with no rows that holds feedback in
        flight or a moved noise stream, or a scheduler store whose problem
        or config is not the one the seed and config build, or whose hour
        is not the last row's (0 when there are none; a store saved at
        another hour), raises HarnessConfigError; a malformed scheduler
        store raises ``RestoreError``.
        """
        try:
            state = codec.load(
                os.path.join(directory, "run.json"), CHECKPOINT_FORMAT_VERSION, Checkpoint
            )
            run = cls(state.seed, state.config)
            if not state.rows and (state.pending or state.env_rng_state != run.env.rng_state):
                raise ValueError("no hour has run, yet feedback or noise has moved")
            run.env.rng_state = state.env_rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise HarnessConfigError(f"malformed checkpoint in {directory}: {exc}") from exc
        sched = Scheduler.restore(os.path.join(directory, "scheduler"))
        # Encoded, since candidates compare by id alone.
        if (codec.to_dict(sched.problem), codec.to_dict(sched.config)) != (
            codec.to_dict(run.sched.problem), codec.to_dict(run.sched.config)
        ):
            raise HarnessConfigError(f"the scheduler store in {directory} is another run's")
        if max(len(state.rows), 1) != sched.round + 1:
            raise HarnessConfigError(
                f"the checkpoint in {directory} has {len(state.rows)} rows, "
                f"but its scheduler store is at round {sched.round}"
            )
        run.sched = sched
        run.pending = list(state.pending)
        run.rows = list(state.rows)
        return run


def run_single(seed: int, cfg: ExperimentConfig) -> SeedTrajectory:
    """Run one seed's full campaign and return its trajectory."""
    run = SingleRun(seed, cfg)
    run.run_to(cfg.rounds)
    return run.trajectory()


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run every seed of a campaign and return its report; write nothing."""
    trajectories = tuple(run_single(seed, cfg) for seed in cfg.seeds)
    return RunReport(
        variant=cfg.variant,
        rounds=cfg.rounds,
        config=cfg.to_dict(),
        trajectories=trajectories,
    )


def emit_series(reports: Sequence[RunReport], out_dir: str) -> list[str]:
    """Write a ``series_<variant>.csv`` per report (gains as fractions) and one
    ``summary.csv`` (final gains in percent); return the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for report in reports:
        path = os.path.join(out_dir, f"series_{report.variant}.csv")
        series = zip(report.gain_series(), report.violation_series())
        codec.save_table(
            path,
            ["round", "mean_gain", "se_gain", "mean_violation", "se_violation"],
            ([r, *gain, *violation] for r, (gain, violation) in enumerate(series)),
        )
        paths.append(path)
    summary = os.path.join(out_dir, "summary.csv")
    codec.save_table(
        summary,
        ["variant", "gain_pct_mean", "gain_pct_se", "violation_mean", "violation_se", "n_seeds"],
        (
            [r.variant, *(x * 100.0 for x in r.final_gain_summary()),
             *r.final_violation_summary(), len(r.seeds)]
            for r in reports
        ),
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
        codec.save_table(
            path,
            [f.name for f in fields(ComparisonRow)],
            (astuple(row) for row in self.rows),
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


def comparison_reference(variants: Sequence[str], reference: str | None = None) -> str:
    """``reference``, or by default ``full`` if present, else the first of
    ``variants``; HarnessConfigError for a repeat or a reference not among them."""
    if len(set(variants)) != len(variants):
        raise HarnessConfigError("duplicate variants in comparison")
    if reference is None:
        return "full" if "full" in variants else variants[0]
    if reference not in variants:
        raise HarnessConfigError(f"reference {reference!r} is not one of {list(variants)}")
    return reference


def compare_variants(
    reports: Sequence[RunReport],
    reference: str | None = None,
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
    reference = comparison_reference([r.variant for r in reports], reference)
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
        stored = ref.config.get("threshold_fraction", ExperimentConfig.threshold_fraction)
        try:
            threshold_fraction = codec.real(stored, f"report {reference!r} threshold_fraction")
        except codec.DecodeError as exc:
            raise HarnessConfigError(str(exc)) from None
    _check_threshold_fraction(threshold_fraction)
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
