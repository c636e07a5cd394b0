"""Round-by-round study driver: ingest feedback, pick winners, assign traffic.

Each round the scheduler absorbs whatever delayed feedback has arrived
(rounds never block on missing data), reruns Thompson selection over the
candidates that ``optimizer.beliefs`` finds measured on every metric,
optionally proposes one brand-new candidate through the GP surrogate, and
emits a traffic plan: a reserved control slice plus the remainder split
across winners in proportion to how many repetitions each one won.  A round
is a wall hour: an hour that waits calls ``idle``, which absorbs and
advances the one clock without drawing, so a plan's ``round`` is its hour.

A round that draws opens one ``gp.Helper`` thread, joined before
``run_round`` returns or raises; idle hours and rounds without data start
none, and no other code starts one: ``select``, ``propose``,
``predict_batch`` and ``Prediction.variance`` each run on the helper the
round passes them.  The GP fit needs only the beliefs the selection reads,
not its draws, so the helper's work is, in order: the fit, then the scoring
of each block of Thompson draws that the caller has not claimed, then the
prediction's second half of the samples and the variance solves of those the
proposal needs.  The caller keeps the generator: it draws every selection
block, ``u``, and the proposal's samples and draws, in the one-thread order
(select, draw ``u``, then fit and propose), so the random stream and every
result are that order's.  The fit's result, and its error, are taken only
in a round that proposes.

All state round-trips through a store directory so a run can be stopped and
resumed exactly; the scheduler writes it only when its caller calls
``persist(store_dir)``.  The store holds each fact once: ``manifest.json``
(round counter, rng stream, config, problem, last plan, and each table's
row count, byte length and SHA-256), ``hyperparams.csv`` (the candidate
bucket) and ``metrics.csv`` (the raw test/control readings, in ingestion
order, one ``deltastats.Reading`` per row).  The manifest is written last,
and restore refuses a table whose bytes are not the ones it describes, so
a table cut short or edited never restores (Bairavasundaram et al., "An
Analysis of Data Corruption in the Storage Stack", FAST 2008).  Hourly
lifts and their aggregates are derived from the raw readings, and the next
proposal's id from the bucket.  ``ingest`` and ``restore`` pass every
reading through one absorb step, which refuses a reading for an unknown
candidate or metric, from a later round, with no finite lift, or for a key
already absorbed, and changes nothing when it does: ``ingest`` drops a
refused reading, ``restore`` refuses the store.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Literal, get_type_hints

import numpy as np

from . import codec
from .deltastats import (
    DegenerateBaseError,
    DeltaStat,
    DuplicateRoundError,
    EstimateRecord,
    NoDataError,
    Reading,
    TaylorMode,
    hourly_delta_stat,
)
from .gp import GpSurrogate, Helper
from .optimizer import SelectionResult, beliefs, propose, select
from .problem import HyperParam, TuningProblem

FORMAT_VERSION = 3

PLAN_SUM_TOL = 1e-12

InitMode = Literal["random", "grid"]


class RestoreError(RuntimeError):
    """Stored state is missing, inconsistent, or from an unknown version."""


class UnknownKeyError(ValueError):
    """A reading names a candidate outside the bucket or a metric outside
    the problem."""


class FutureRoundError(ValueError):
    """A reading's origin round is after the scheduler's current hour."""


@dataclass(frozen=True)
class RoundPlan:
    """Traffic assignment for one round.

    ``assignments`` maps at least one candidate id to its positive, finite
    exposure fraction, sorted by id; together with ``control_fraction`` the
    fractions sum to one.
    """

    round: int
    control_fraction: float
    assignments: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        set_field, count, real = object.__setattr__, codec.count, codec.real
        set_field(self, "round", count(self.round, "RoundPlan.round"))
        where = "RoundPlan.control_fraction"
        set_field(self, "control_fraction", real(self.control_fraction, where))
        where = "RoundPlan.assignments"
        assignments = tuple((count(c, where), real(f, where)) for c, f in self.assignments)
        set_field(self, "assignments", assignments)
        if not 0.0 < self.control_fraction < 1.0:
            raise ValueError("control fraction must be strictly inside (0, 1)")
        ids = [cid for cid, _ in assignments]
        if not ids:
            raise ValueError("a plan must assign traffic to some candidate")
        if ids != sorted(set(ids)):
            raise ValueError("assignments must be sorted by unique candidate id")
        for cid, frac in assignments:
            if not math.isfinite(frac):
                raise ValueError(f"candidate {cid} has non-finite fraction {frac}")
            if frac <= 0.0:
                raise ValueError(f"candidate {cid} has nonpositive fraction")
        total = self.control_fraction + sum(frac for _, frac in assignments)
        if not abs(total - 1.0) <= PLAN_SUM_TOL:
            raise ValueError(f"fractions sum to {total}, not 1")


@dataclass(frozen=True)
class InboundBatch:
    """Delayed feedback for one candidate and one origin round.

    ``readings`` holds one ``Reading`` per metric, each of the origin round.
    """

    origin_round: int
    arrival_round: int
    readings: tuple[Reading, ...]

    def __post_init__(self) -> None:
        set_field, count = object.__setattr__, codec.count
        set_field(self, "origin_round", count(self.origin_round, "InboundBatch.origin_round"))
        set_field(self, "arrival_round", count(self.arrival_round, "InboundBatch.arrival_round"))
        set_field(self, "readings", tuple(self.readings))
        if self.arrival_round < self.origin_round:
            raise ValueError("a batch cannot arrive before its origin round")
        for reading in self.readings:
            if not isinstance(reading, Reading):
                raise ValueError(
                    f"InboundBatch.readings: expected Reading, got {type(reading).__name__}"
                )
            if reading.round != self.origin_round:
                raise ValueError("readings must carry the batch origin round")


@dataclass(frozen=True)
class BucketInit:
    """How the initial candidate bucket is built.

    ``random`` draws ``size`` configurations uniformly from the bounds box;
    ``grid`` lays ``nodes_per_dim`` nodes per dimension (endpoints
    included).
    """

    mode: InitMode = "random"
    size: int = 100
    nodes_per_dim: int = 10

    def __post_init__(self) -> None:
        codec.conform(self)
        if self.mode == "random" and self.size < 1:
            raise ValueError("random init needs a positive size")
        if self.mode == "grid" and self.nodes_per_dim < 1:
            raise ValueError("grid init needs at least one node per dimension")


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the round loop."""

    select_count: int = 1000        # Thompson repetitions per round
    proposal_samples: int = 600     # uniform samples scored per proposal
    proposal_prob: float = 1.0      # chance of proposing each decided round
    control_fraction: float = 0.2
    taylor_mode: TaylorMode = TaylorMode.DELTA_METHOD
    normalization: Literal["delta", "raw"] = "delta"    # lift vs control, or test stats as-is
    init: BucketInit = field(default_factory=BucketInit)

    def __post_init__(self) -> None:
        codec.conform(self)
        if self.select_count < 1:
            raise ValueError("select_count must be positive")
        if self.proposal_samples < 1:
            raise ValueError("proposal_samples must be positive")
        if not 0.0 <= self.proposal_prob <= 1.0:
            raise ValueError("proposal_prob must lie in [0, 1]")
        if not 0.0 < self.control_fraction < 1.0:
            raise ValueError("control_fraction must be strictly inside (0, 1)")


@dataclass(frozen=True)
class Manifest:
    """``manifest.json`` after its ``format_version`` key, with the digest of
    each table that the store's state is read from."""

    round: int
    rng_state: dict
    config: SchedulerConfig
    problem: TuningProblem
    last_plan: RoundPlan
    hyperparams: codec.TableDigest
    metrics: codec.TableDigest


def _bucket_header(problem: TuningProblem) -> list[str]:
    """``hyperparams.csv``'s header for ``problem``'s candidates."""
    return ["candidate_id", "created_round", *(f"theta{i}" for i in range(len(problem.base.theta)))]


_CELL_TYPES = get_type_hints(Reading)    # ``metrics.csv``'s columns and their types
METRICS_HEADER = list(_CELL_TYPES)
_metrics_row = attrgetter(*METRICS_HEADER)


def _hourly_stat(config: SchedulerConfig, reading: Reading) -> DeltaStat:
    """The hour's stat under ``config``'s normalization; raises
    ``DegenerateBaseError`` when the hour admits no finite lift estimate."""
    if config.normalization == "raw":
        return DeltaStat(
            mean=reading.test_mean,
            var=reading.test_var / reading.test_n,
            weight=reading.test_n,
        )
    return hourly_delta_stat(reading, config.taylor_mode)


def _plan(config: SchedulerConfig, round_no: int, units: Counter) -> RoundPlan:
    """The control's slice, and the rest in proportion to winner units."""
    cf = config.control_fraction
    total = sum(units.values())
    assignments = tuple((cid, (1.0 - cf) * units[cid] / total) for cid in sorted(units))
    return RoundPlan(round=round_no, control_fraction=cf, assignments=assignments)


def _reading(row: list[str]) -> Reading:
    """Parse one ``metrics.csv`` row; ValueError when it is malformed."""
    if len(row) != len(METRICS_HEADER):
        raise ValueError(f"expected {len(METRICS_HEADER)} fields, got {len(row)}")
    return Reading(*(parse(cell) for parse, cell in zip(_CELL_TYPES.values(), row)))


def _replay(
    path: str, header: list[str], digest: codec.TableDigest, take: Callable[[list[str]], None]
) -> None:
    """Pass each row of the table at ``path`` to ``take``; RestoreError for
    bytes other than ``digest``'s, a header other than ``header`` or a row
    that ``take`` refuses."""
    try:
        for line, row in codec.load_table(path, header, digest):
            take(row)
    except (OSError, codec.DecodeError) as exc:
        raise RestoreError(str(exc)) from None
    except (ValueError, IndexError) as exc:
        raise RestoreError(f"{os.path.basename(path)} line {line}: {exc}") from None


class Scheduler:
    """Owns the bucket, the estimate record, the rng stream, and the round loop.

    A scheduler is driven from one thread.  ``run_round`` starts one
    helper thread for the GP fit, the selection's scoring and the
    prediction, and joins it before returning or raising, so no thread
    outlives a call.

    A scheduler is born with hour 0's plan and always has a plan in force;
    construction refuses a state that no sequence of ``bootstrap``,
    ``run_round`` and ``idle`` reaches.

    Ids are fresh by construction: the base's and the bucket's are
    distinct, the last plan names bucket candidates only, and the next
    proposal takes the id above them all.
    """

    def __init__(
        self,
        problem: TuningProblem,
        config: SchedulerConfig,
        rng: np.random.Generator,
        *,
        bucket: dict[int, HyperParam],
        created_round: dict[int, int],
        round_no: int,
        last_plan: RoundPlan,
    ) -> None:
        if problem.base.id in bucket:
            raise ValueError(f"base id {problem.base.id} is also a bucket id")
        if not {cid for cid, _ in last_plan.assignments} <= bucket.keys():
            raise ValueError("the last plan gives traffic to a candidate outside the bucket")
        if last_plan.round > round_no:
            raise ValueError(f"the last plan is dated after round {round_no}")
        if last_plan.control_fraction != config.control_fraction:
            raise ValueError("the last plan's control fraction is not the config's")
        if created_round.keys() != bucket.keys():
            raise ValueError("created rounds must name exactly the bucket's candidates")
        for cid, created in created_round.items():
            if not 0 <= created <= round_no:
                raise ValueError(f"candidate {cid} is created outside rounds 0 .. {round_no}")
        self.problem = problem
        self.config = config
        self.rng = rng
        self._bucket = bucket
        self._created_round = created_round
        self.record = EstimateRecord()
        self._raw_log: list[Reading] = []
        self._round = round_no
        self._last_plan = last_plan
        self.last_selection: SelectionResult | None = None

    # Construction

    @classmethod
    def bootstrap(
        cls,
        problem: TuningProblem,
        config: SchedulerConfig,
        rng: np.random.Generator,
    ) -> "Scheduler":
        """Build the initial bucket and hour 0's plan, which exposes it uniformly."""
        bounds = problem.base.bounds
        init = config.init
        if init.mode == "grid":
            axes = [
                np.linspace(lo, hi, init.nodes_per_dim) for lo, hi in bounds
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            vectors = [
                tuple(float(m[idx]) for m in mesh)
                for idx in np.ndindex(mesh[0].shape)
            ]
        else:
            lo, hi = np.array(bounds).T
            vectors = [
                tuple(v) for v in rng.uniform(lo, hi, size=(init.size, len(bounds)))
            ]
        bucket = {
            i: HyperParam(id=i, theta=vec, bounds=bounds)
            for i, vec in enumerate(vectors, start=1)
        }
        return cls(
            problem,
            config,
            rng,
            bucket=bucket,
            created_round=dict.fromkeys(bucket, 0),
            round_no=0,
            last_plan=_plan(config, 0, Counter(bucket.keys())),
        )

    # Views

    @property
    def bucket(self) -> tuple[HyperParam, ...]:
        return tuple(self._bucket[cid] for cid in sorted(self._bucket))

    @property
    def round(self) -> int:
        return self._round

    @property
    def next_id(self) -> int:
        """The id the next proposal takes: one above every id in use."""
        return max(self.problem.base.id, *self._bucket) + 1

    def created_round(self, candidate_id: int) -> int:
        return self._created_round[candidate_id]

    @property
    def last_plan(self) -> RoundPlan:
        return self._last_plan

    # Round loop

    def _absorb(self, reading: Reading) -> None:
        """Absorb one reading into the record, then the raw log.

        Raises ``UnknownKeyError`` for a candidate outside the bucket or a
        metric outside the problem, ``FutureRoundError`` for a round after
        the current one, ``DegenerateBaseError`` for an hour with no finite
        lift or one that would overflow its key's running sums, and
        ``DuplicateRoundError`` for a key already absorbed.  A refused
        reading changes nothing.
        """
        cid, metric, round_no = reading.candidate_id, reading.metric, reading.round
        if cid not in self._bucket or metric not in self.problem.metrics:
            raise UnknownKeyError(f"candidate {cid} metric {metric!r} is not in the study")
        if round_no > self._round:
            raise FutureRoundError(f"round {round_no} is after the current hour {self._round}")
        self.record.absorb(cid, metric, round_no, _hourly_stat(self.config, reading))
        self._raw_log.append(reading)

    def ingest(self, batches: Iterable[InboundBatch]) -> int:
        """Absorb feedback rows; a refused row is dropped (first write wins).

        Rows for an unknown candidate or metric, from a later round, hours
        that admit no finite lift estimate or would overflow their key's
        running sums, and repeated keys are dropped.  Returns the number of
        rows newly absorbed.  Batches may arrive in any order and for any
        origin round up to the current one.
        """
        absorbed = 0
        for batch in batches:
            for reading in batch.readings:
                try:
                    self._absorb(reading)
                except (
                    UnknownKeyError, FutureRoundError, DegenerateBaseError, DuplicateRoundError
                ):
                    continue
                absorbed += 1
        return absorbed

    def idle(self, inbound: Iterable[InboundBatch] = ()) -> None:
        """Let one hour pass without a decision: absorb, advance the round,
        draw nothing.  The last plan stays in force."""
        self.ingest(inbound)
        self._round += 1
        self.last_selection = None

    def run_round(self, inbound: Iterable[InboundBatch] = ()) -> RoundPlan:
        """Advance one round: absorb, select, maybe propose, plan.

        Rounds never block on missing feedback.  Until some candidate has
        data on every metric the uniform exposure is re-emitted.
        """
        round_no = self._round + 1
        self.ingest(inbound)
        try:
            ids, mu, var = beliefs(self._bucket.values(), self.record, self.problem)
        except NoDataError:
            units = Counter(self._bucket.keys())
            self.last_selection = None
        else:
            eligible = [self._bucket[cid] for cid in ids.tolist()]
            cfg = self.config
            with Helper() as helper:
                # The fit goes first on the helper; its result, or its
                # error, is used only if the round proposes.
                if cfg.proposal_prob > 0.0:
                    fit = helper.submit(GpSurrogate.fit, eligible, mu, var)
                sel = select(ids, mu, var, self.problem, cfg.select_count, self.rng, helper=helper)
                u = self.rng.random()
                self.last_selection = sel
                units = Counter(sel.winners)
                if u < cfg.proposal_prob:
                    prop = propose(
                        fit.result(),
                        self.problem,
                        cfg.proposal_samples,
                        self.rng,
                        new_id=self.next_id,
                        helper=helper,
                    )
                    newcomer = prop.proposed
                    self._bucket[newcomer.id] = newcomer
                    self._created_round[newcomer.id] = round_no
                    units[newcomer.id] += 1  # one winner-unit of traffic

        self._round = round_no
        self._last_plan = _plan(self.config, round_no, units)
        return self._last_plan

    # Persistence

    def persist(self, store_dir: str) -> None:
        """Write the bucket, the raw readings and then the manifest, which
        dates the store and holds each table's digest, to ``store_dir``: a
        persist that fails before the last write leaves the older manifest
        in force, and restore refuses the tables it does not describe."""
        os.makedirs(store_dir, exist_ok=True)
        bucket = codec.save_table(
            os.path.join(store_dir, "hyperparams.csv"),
            _bucket_header(self.problem),
            (
                [cid, self._created_round[cid], *self._bucket[cid].theta]
                for cid in sorted(self._bucket)
            ),
        )
        metrics = codec.save_table(
            os.path.join(store_dir, "metrics.csv"), METRICS_HEADER, map(_metrics_row, self._raw_log)
        )
        manifest = Manifest(
            round=self._round,
            rng_state=self.rng.bit_generator.state,
            config=self.config,
            problem=self.problem,
            last_plan=self._last_plan,
            hyperparams=bucket,
            metrics=metrics,
        )
        codec.save(os.path.join(store_dir, "manifest.json"), FORMAT_VERSION, manifest)

    @classmethod
    def restore(cls, store_dir: str) -> "Scheduler":
        """Rebuild a scheduler from storage, byte-for-byte equivalent; each
        table is parsed only once its bytes match the manifest's digest."""
        try:
            manifest = codec.load(
                os.path.join(store_dir, "manifest.json"), FORMAT_VERSION, Manifest
            )
            rng = np.random.default_rng()
            rng.bit_generator.state = manifest.rng_state
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise RestoreError(f"manifest.json: {exc}") from exc

        problem = manifest.problem
        bucket: dict[int, HyperParam] = {}
        created: dict[int, int] = {}

        def take_candidate(row: list[str]) -> None:
            cid = int(row[0])
            if cid in bucket:
                raise ValueError(f"candidate {cid} is repeated")
            bucket[cid] = HyperParam(cid, tuple(map(float, row[2:])), problem.base.bounds)
            created[cid] = int(row[1])

        _replay(
            os.path.join(store_dir, "hyperparams.csv"), _bucket_header(problem),
            manifest.hyperparams, take_candidate,
        )
        try:
            sched = cls(
                problem,
                manifest.config,
                rng,
                bucket=bucket,
                created_round=created,
                round_no=manifest.round,
                last_plan=manifest.last_plan,
            )
        except ValueError as exc:
            raise RestoreError(f"manifest does not fit the bucket: {exc}") from None
        # Replaying the raw readings in file order, which is ingestion order,
        # gives bitwise the running sums that ingest built.
        _replay(
            os.path.join(store_dir, "metrics.csv"), METRICS_HEADER, manifest.metrics,
            lambda row: sched._absorb(_reading(row)),
        )
        return sched
