"""The bench's workloads, and the checks it runs on what zotune returns.

Everything here drives zotune through its public calls only: ``run_experiment``
and ``SingleRun`` from the harness, ``Scheduler.persist`` / ``restore`` and the
scheduler's round loop.  A ``Probe`` hooks ``Scheduler.run_round`` and
``Scheduler.ingest`` in every run, traced or not: it times each hourly
decision and checks the plan, the winner multiset and the ingest accounting.

A workload runs in units.  A unit is a fixed piece of work on seeds drawn from
the run's ``--seed``, and its report JSON hashes to a digest that must repeat
for the same seeds with the same code.  Each full-variant campaign of a unit is
a latency window: the run's latency figures are means over its windows.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from zotune.harness import VARIANTS, ExperimentConfig, RunReport, SingleRun, run_experiment
from zotune.scheduler import Scheduler

PLAN_TOL = 1e-9
RESTORE_REPEATS = 3


@dataclass
class UnitResult:
    seeds: tuple[int, ...]
    rounds: int = 0                 # wall rounds completed (simulated hours)
    seconds: float = 0.0            # time spent in timed rounds, checks excluded
    windows: list[list[float]] = field(default_factory=list)  # decisions of each full-variant campaign
    digest: str = ""
    full_finals: list[tuple[int, float, float]] = field(default_factory=list)
    restore_s: list[float] = field(default_factory=list)     # wide_bucket only
    failures: list[str] = field(default_factory=list)


def report_digest(reports: list[RunReport]) -> str:
    text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def full_finals(report: RunReport) -> list[tuple[int, float, float]]:
    """(seed, final gain, final violation) of each full-variant trajectory."""
    if report.variant != "full":
        return []
    return [(t.seed, t.final_gain(), t.final_violation()) for t in report.trajectories]


def plan_errors(sched: Scheduler, plan, next_id_before: int) -> list[str]:
    """Check a round's plan independently of ``RoundPlan``'s own validation.

    Without a selection the plan spreads traffic evenly over the bucket.  With
    one, it must split ``1 - control`` in proportion to winner units: one per
    Thompson repetition (K in all) plus one for the candidate proposed this
    round, if any.
    """
    errors = []
    cfg = sched.config
    cf = plan.control_fraction
    ids = [cid for cid, _ in plan.assignments]
    fracs = [frac for _, frac in plan.assignments]
    bucket_ids = {hp.id for hp in sched.bucket}
    if plan.round != sched.round:
        errors.append(f"plan round {plan.round} != scheduler round {sched.round}")
    if cf != cfg.control_fraction:
        errors.append(f"control fraction {cf} != configured {cfg.control_fraction}")
    if ids != sorted(set(ids)):
        errors.append("assignment ids are not sorted and unique")
    if not set(ids) <= bucket_ids:
        errors.append(f"ids outside the bucket: {sorted(set(ids) - bucket_ids)[:5]}")
    if not all(math.isfinite(f) and f > 0.0 for f in fracs):
        errors.append("a fraction is not finite and positive")
    if abs(cf + sum(fracs) - 1.0) > PLAN_TOL:
        errors.append(f"fractions sum to {cf + sum(fracs)!r}")

    sel = sched.last_selection
    proposed = sched.next_id - next_id_before
    if sel is None:
        if proposed:
            errors.append("a candidate was proposed without a selection")
        units = Counter({cid: 1 for cid in bucket_ids})
    else:
        units = Counter(sel.winners)
        if sum(units.values()) != cfg.select_count:
            errors.append(f"{sum(units.values())} winner units, K={cfg.select_count}")
        if proposed not in (0, 1) or next_id_before in units:
            errors.append(f"next_id moved by {proposed}")
        elif proposed:
            units[next_id_before] += 1
        if sum(units.values()) != cfg.select_count + proposed:
            errors.append("winner units != K + proposed")
    total = sum(units.values())
    if set(ids) != set(units):
        errors.append("plan ids differ from the winner units")
    else:
        for cid, frac in plan.assignments:
            if abs(frac - (1.0 - cf) * units[cid] / total) > PLAN_TOL:
                errors.append(f"candidate {cid} fraction {frac!r} != its unit share")
                break
    return errors


def state_errors(live: Scheduler, restored: Scheduler) -> list[str]:
    """What a restore failed to give back of the live scheduler's state."""
    errors = []
    for attr in ("round", "next_id", "last_plan"):
        if getattr(restored, attr) != getattr(live, attr):
            errors.append(f"{attr}: {getattr(restored, attr)!r} != {getattr(live, attr)!r}")
    bucket = [(hp.id, hp.theta, live.created_round(hp.id)) for hp in live.bucket]
    got = [(hp.id, hp.theta, restored.created_round(hp.id)) for hp in restored.bucket]
    if got != bucket:
        errors.append("bucket differs")
    if restored.rng.bit_generator.state != live.rng.bit_generator.state:
        errors.append("rng state differs")
    for cid, _, _ in bucket:
        for metric in live.problem.metrics:
            a = live.record.aggregate(cid, metric)
            b = restored.record.aggregate(cid, metric)
            if (a is None) != (b is None) or (
                a is not None and (a.mean, a.var, a.weight) != (b.mean, b.var, b.weight)
            ):
                errors.append(f"aggregate of candidate {cid} metric {metric!r} differs")
                return errors
    return errors


class Probe:
    """Times ``Scheduler.run_round`` and checks each round and ingest batch.

    Its hooks ride on the wrappers ``spans.install`` puts on ``run_round`` and
    ``ingest`` in every run, traced or not.  ``dropped`` returns the rows the
    program has rejected so far (duplicates plus degenerate controls), as
    counted by the traced run's wrappers; without it the accounting check can
    only bound the absorbed rows by those offered.
    """

    def __init__(self, dropped: Callable[[], int] | None = None) -> None:
        self.latencies_s: list[float] = []
        self.failures: list[str] = []
        self.rows_offered = 0
        self.rows_absorbed = 0
        self._dropped = dropped

    def before_round(self, args, kwargs):
        return args[0].next_id, time.perf_counter()

    def after_round(self, counts, args, kwargs, plan, exc, mark) -> None:
        if exc is not None:
            return
        next_id_before, start = mark
        self.latencies_s.append(time.perf_counter() - start)
        errors = plan_errors(args[0], plan, next_id_before)
        if errors:
            self.failures.append(f"round {plan.round}: " + "; ".join(errors))

    def before_ingest(self, args, kwargs):
        batches = args[1] if len(args) > 1 else kwargs["batches"]
        if not isinstance(batches, (list, tuple)):
            # Counting a one-shot iterable here would empty it for ingest.
            self.failures.append(f"ingest was given a {type(batches).__name__}, not a list")
            return None
        offered = sum(len(b.readings) for b in batches)
        return offered, self._dropped() if self._dropped else 0

    def after_ingest(self, counts, args, kwargs, absorbed, exc, mark) -> None:
        if exc is not None or mark is None:
            return
        offered, dropped_before = mark
        self.rows_offered += offered
        self.rows_absorbed += absorbed
        if self._dropped is not None:
            dropped = self._dropped() - dropped_before
            if absorbed + dropped != offered:
                self.failures.append(
                    f"ingest: {absorbed} absorbed + {dropped} dropped != {offered} offered"
                )
        elif not 0 <= absorbed <= offered:
            self.failures.append(f"ingest: {absorbed} absorbed of {offered} offered")


@dataclass
class Context:
    """What a unit needs besides its seeds."""

    probe: Probe
    store_dir: str
    quiet: Callable      # context manager that keeps the bench's checks out of the trace


def _restore_check(ctx: Context, live: Scheduler, store: str, unit: UnitResult) -> list[float]:
    """Restore ``store`` a few times, check the state, return the times."""
    times = []
    for _ in range(RESTORE_REPEATS):
        # A full collection of the bench's own heap (the live run, earlier
        # restores) would otherwise land in some restores and not others.
        gc.collect()
        start = time.perf_counter()
        restored = Scheduler.restore(store)
        times.append(time.perf_counter() - start)
    with ctx.quiet():
        errors = state_errors(live, restored)
    if errors:
        unit.failures.append(f"restore at round {live.round}: " + "; ".join(errors))
    return times


def _campaigns(ctx: Context, unit: UnitResult, configs: list[ExperimentConfig]) -> None:
    reports = []
    for cfg in configs:
        probe = ctx.probe
        first = len(probe.latencies_s)
        start = time.perf_counter()
        report = run_experiment(cfg)
        unit.seconds += time.perf_counter() - start
        unit.rounds += sum(len(t.rows) for t in report.trajectories)
        if cfg.variant == "full":
            unit.windows.append(probe.latencies_s[first:])
        unit.full_finals += full_finals(report)
        reports.append(report)
    unit.digest = report_digest(reports)


def ablation_configs(seeds: tuple[int, ...]) -> list[ExperimentConfig]:
    return [ExperimentConfig(variant=v, seeds=seeds) for v in VARIANTS] + [
        ExperimentConfig(variant="full", seeds=seeds, fixed_delay=6)
    ]


def run_ablation(ctx: Context, seeds: tuple[int, ...]) -> UnitResult:
    unit = UnitResult(seeds)
    _campaigns(ctx, unit, ablation_configs(seeds))
    return unit


def wide_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seeds=(seed,), bucket_size=1000)


def run_wide_bucket(ctx: Context, seeds: tuple[int, ...]) -> UnitResult:
    """One full-variant seed over 1000 candidates, without a store, so its
    rounds time GP and selection work.

    After the timed rounds the scheduler is persisted once, and the store is
    restored and checked against the live scheduler, untimed; the traced
    run's ``scheduler.persist`` and ``scheduler.restore`` layers time them.
    """
    unit = UnitResult(seeds)
    cfg = wide_config(seeds[0])
    store = os.path.join(ctx.store_dir, "store")
    shutil.rmtree(store, ignore_errors=True)
    first = len(ctx.probe.latencies_s)
    start = time.perf_counter()
    run = SingleRun(seeds[0], cfg)
    run.run_to(cfg.rounds)
    unit.seconds = time.perf_counter() - start
    unit.rounds = cfg.rounds
    unit.windows = [ctx.probe.latencies_s[first:]]
    run.sched.persist(store)
    unit.restore_s = _restore_check(ctx, run.sched, store, unit)
    report = RunReport(
        variant=cfg.variant, rounds=cfg.rounds, config=cfg.to_dict(),
        trajectories=(run.trajectory(),),
    )
    unit.full_finals = full_finals(report)
    unit.digest = report_digest([report])
    return unit


@dataclass(frozen=True)
class Workload:
    """``min_units`` units always run; their reports give the quality figures.

    Landscapes differ in build cost (the redraw loop) and in how much gain
    they offer, so a run spans enough seeds to keep its figures steady: at
    least eight on ``ablation``, four (116 timed decisions) on ``wide_bucket``.
    """

    name: str
    seeds_per_unit: int
    min_units: int
    first_config: Callable[[int], ExperimentConfig]    # the config set-up builds
    run_unit: Callable[[Context, tuple[int, ...]], UnitResult]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ablation", 2, 4, lambda s: ExperimentConfig(seeds=(s,)), run_ablation),
        Workload("wide_bucket", 1, 4, wide_config, run_wide_bucket),
    )
}
