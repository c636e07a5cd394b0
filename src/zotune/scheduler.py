"""Round-by-round study driver: ingest feedback, pick winners, assign traffic.

Each round the scheduler absorbs whatever delayed feedback has arrived
(rounds never block on missing data), reruns Thompson selection over the
candidates that ``optimizer.beliefs`` finds measured on every metric,
optionally proposes one brand-new candidate through the GP surrogate, and
emits a traffic plan: a reserved control slice plus the remainder split
across winners in proportion to how many repetitions each one won.

The GP fit needs only the beliefs the selection reads, not its draws, so
``run_round`` starts the fit on one short-lived helper thread and draws the
selection meanwhile; the fit's LAPACK calls release the GIL.  The random
stream and every result are those of the one-thread order (select, draw
``u``, then fit and propose), and the fit's error is raised only in a round
that proposes.

All state round-trips through a store directory so a run can be stopped and
resumed exactly.  The store holds each fact once: ``manifest.json`` (round
counter, rng stream, config, problem, last plan), ``hyperparams.csv`` (the
candidate bucket) and ``metrics.csv`` (the raw test/control readings, in
ingestion order).  Hourly lifts and their aggregates are derived from the
raw readings.  ``ingest`` and ``restore`` pass every reading pair through
one absorb step, which refuses a pair for an unknown candidate or metric,
with no finite lift, or for a key already absorbed, and changes nothing when
it does: ``ingest`` drops a refused pair, ``restore`` refuses the store.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import codec
from .deltastats import (
    DegenerateBaseError,
    DeltaStat,
    DuplicateRoundError,
    EstimateRecord,
    GroupReading,
    NoDataError,
    TaylorMode,
    hourly_delta_stat,
)
from .gp import GpSurrogate
from .optimizer import SelectionResult, beliefs, propose, select
from .problem import HyperParam, TuningProblem, problem_from_dict, problem_to_dict

FORMAT_VERSION = 1

PLAN_SUM_TOL = 1e-12

NORMALIZATION_MODES = ("delta", "raw")


class ColdStartError(RuntimeError):
    """Selection was requested before the initial bucket was ever scheduled."""


class RestoreError(RuntimeError):
    """Stored state is missing, inconsistent, or from an unknown version."""


class UnknownKeyError(ValueError):
    """A reading names a candidate outside the bucket or a metric outside
    the problem."""


@dataclass(frozen=True)
class RoundPlan:
    """Traffic assignment for one round.

    ``assignments`` maps candidate ids to exposure fractions, sorted by id;
    together with ``control_fraction`` the fractions sum to one.
    """

    round: int
    control_fraction: float
    assignments: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "round", int(self.round))
        object.__setattr__(self, "control_fraction", float(self.control_fraction))
        assignments = tuple(
            (int(cid), float(frac)) for cid, frac in self.assignments
        )
        object.__setattr__(self, "assignments", assignments)
        if not 0.0 < self.control_fraction < 1.0:
            raise ValueError("control fraction must be strictly inside (0, 1)")
        ids = [cid for cid, _ in assignments]
        if ids != sorted(set(ids)):
            raise ValueError("assignments must be sorted by unique candidate id")
        for cid, frac in assignments:
            if frac <= 0.0:
                raise ValueError(f"candidate {cid} has nonpositive fraction")
        total = self.control_fraction + sum(frac for _, frac in assignments)
        if assignments and abs(total - 1.0) > PLAN_SUM_TOL:
            raise ValueError(f"fractions sum to {total}, not 1")

    def to_dict(self) -> dict:
        return codec.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RoundPlan":
        return codec.from_dict(cls, d)


@dataclass(frozen=True)
class InboundBatch:
    """Delayed feedback for one candidate and one origin round.

    ``readings`` pairs the candidate's test-group reading with the shared
    control-group reading, one pair per metric; both readings of a pair name
    the same metric and carry the origin round.
    """

    origin_round: int
    arrival_round: int
    readings: tuple[tuple[GroupReading, GroupReading], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin_round", int(self.origin_round))
        object.__setattr__(self, "arrival_round", int(self.arrival_round))
        object.__setattr__(self, "readings", tuple(self.readings))
        if self.arrival_round < self.origin_round:
            raise ValueError("a batch cannot arrive before its origin round")
        for test, ctrl in self.readings:
            if test.round != self.origin_round or ctrl.round != self.origin_round:
                raise ValueError("readings must carry the batch origin round")
            if test.metric != ctrl.metric:
                raise ValueError(
                    f"metric mismatch: test {test.metric!r} vs control {ctrl.metric!r}"
                )

    def to_dict(self) -> dict:
        return codec.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "InboundBatch":
        return codec.from_dict(cls, d)


@dataclass(frozen=True)
class BucketInit:
    """How the initial candidate bucket is built.

    ``random`` draws ``size`` configurations uniformly from the bounds box;
    ``grid`` lays ``nodes_per_dim`` nodes per dimension (endpoints
    included).
    """

    mode: str = "random"
    size: int = 100
    nodes_per_dim: int = 10

    def __post_init__(self) -> None:
        if self.mode not in ("random", "grid"):
            raise ValueError(f"unknown bucket init mode {self.mode!r}")
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
    normalization: str = "delta"    # "delta": lift vs control; "raw": test stats as-is
    init: BucketInit = field(default_factory=BucketInit)

    def __post_init__(self) -> None:
        object.__setattr__(self, "taylor_mode", TaylorMode(self.taylor_mode))
        if self.select_count < 1:
            raise ValueError("select_count must be positive")
        if self.proposal_samples < 1:
            raise ValueError("proposal_samples must be positive")
        if not 0.0 <= self.proposal_prob <= 1.0:
            raise ValueError("proposal_prob must lie in [0, 1]")
        if not 0.0 < self.control_fraction < 1.0:
            raise ValueError("control_fraction must be strictly inside (0, 1)")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(f"normalization must be one of {NORMALIZATION_MODES}")

    def to_dict(self) -> dict:
        return codec.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerConfig":
        return codec.from_dict(cls, d)


@dataclass(frozen=True)
class Manifest:
    """``manifest.json`` after its ``format_version`` key."""

    round: int
    next_id: int
    exposed: bool
    rng_state: dict
    config: SchedulerConfig
    problem: dict               # problem_to_dict's form
    last_plan: RoundPlan | None


def _fmt(x: float) -> str:
    """Shortest decimal string that parses back to the exact float."""
    return repr(float(x))


METRICS_HEADER = [
    "candidate_id", "metric", "round",
    "test_mean", "test_var", "test_n",
    "control_mean", "control_var", "control_n",
]


def _hourly_stat(
    config: SchedulerConfig, test: GroupReading, ctrl: GroupReading
) -> DeltaStat:
    """The hour's stat under ``config``'s normalization; raises
    ``DegenerateBaseError`` when the hour admits no finite lift estimate."""
    if config.normalization == "raw":
        return DeltaStat(
            mean=test.sample_mean,
            var=test.sample_var / test.group_size,
            weight=test.group_size,
        )
    return hourly_delta_stat(test, ctrl, config.taylor_mode)


def _reading_pair(row: list[str], control_id: int) -> tuple[GroupReading, GroupReading]:
    """Parse one ``metrics.csv`` row; ValueError when it is malformed."""
    if len(row) != len(METRICS_HEADER):
        raise ValueError(f"expected {len(METRICS_HEADER)} fields, got {len(row)}")
    cid, metric, round_no = int(row[0]), row[1], int(row[2])
    test = GroupReading(
        candidate_id=cid, metric=metric, round=round_no,
        sample_mean=float(row[3]), sample_var=float(row[4]), group_size=int(row[5]),
    )
    ctrl = GroupReading(
        candidate_id=control_id, metric=metric, round=round_no,
        sample_mean=float(row[6]), sample_var=float(row[7]), group_size=int(row[8]),
    )
    return test, ctrl


def _fit_into(out: list, bucket: Sequence[HyperParam], mu: np.ndarray, var: np.ndarray) -> None:
    """Append ``GpSurrogate.fit(bucket, mu, var)`` to ``out``, or the error it raised."""
    try:
        out.append(GpSurrogate.fit(bucket, mu, var))
    except Exception as exc:  # raised by the thread that reads ``out``
        out.append(exc)


class Scheduler:
    """Owns the bucket, the estimate record, the rng stream, and the round loop.

    A scheduler is driven from one thread.  ``run_round`` starts one
    short-lived helper thread for the GP fit and joins it before returning
    or raising, so no thread outlives a call.
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
        next_id: int,
        exposed: bool,
        last_plan: RoundPlan | None,
        store_dir: str | None = None,
    ) -> None:
        self.problem = problem
        self.config = config
        self.rng = rng
        self._bucket = bucket
        self._created_round = created_round
        self.record = EstimateRecord()
        self._raw_log: list[tuple[GroupReading, GroupReading]] = []
        self._round = round_no
        self._next_id = next_id
        self._exposed = exposed
        self._last_plan = last_plan
        self.store_dir = store_dir
        self.last_selection: SelectionResult | None = None

    # Construction

    @classmethod
    def bootstrap(
        cls,
        problem: TuningProblem,
        config: SchedulerConfig,
        rng: np.random.Generator | int,
        store_dir: str | None = None,
    ) -> "Scheduler":
        """Build the initial bucket and stand ready to emit the round-0 plan."""
        rng = np.random.default_rng(rng)
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
            lo = np.array([b[0] for b in bounds])
            hi = np.array([b[1] for b in bounds])
            vectors = [
                tuple(v) for v in rng.uniform(lo, hi, size=(init.size, len(bounds)))
            ]
        bucket = {}
        created = {}
        for i, vec in enumerate(vectors, start=1):
            hp = HyperParam(id=i, theta=vec, bounds=bounds)
            bucket[hp.id] = hp
            created[hp.id] = 0
        sched = cls(
            problem,
            config,
            rng,
            bucket=bucket,
            created_round=created,
            round_no=0,
            next_id=len(vectors) + 1,
            exposed=False,
            last_plan=None,
            store_dir=store_dir,
        )
        return sched

    # Views

    @property
    def bucket(self) -> tuple[HyperParam, ...]:
        return tuple(self._bucket[cid] for cid in sorted(self._bucket))

    @property
    def round(self) -> int:
        return self._round

    @property
    def next_id(self) -> int:
        return self._next_id

    def created_round(self, candidate_id: int) -> int:
        return self._created_round[candidate_id]

    @property
    def last_plan(self) -> RoundPlan | None:
        return self._last_plan

    # Round loop

    def _plan_from_units(self, round_no: int, units: Counter) -> RoundPlan:
        cf = self.config.control_fraction
        total = sum(units.values())
        assignments = tuple(
            (cid, (1.0 - cf) * units[cid] / total) for cid in sorted(units)
        )
        return RoundPlan(round=round_no, control_fraction=cf, assignments=assignments)

    def initial_plan(self) -> RoundPlan:
        """Uniform exposure of the initial bucket (round 0).  Idempotent."""
        if self._exposed and self._last_plan is not None and self._round == 0:
            return self._last_plan
        if self._round != 0:
            raise ValueError("initial plan is only available at round 0")
        plan = self._plan_from_units(0, Counter(self._bucket.keys()))
        self._exposed = True
        self._last_plan = plan
        if self.store_dir:
            self.persist(self.store_dir)
        return plan

    def _absorb(self, test: GroupReading, ctrl: GroupReading) -> None:
        """Absorb one reading pair into the record, then the raw log.

        Raises ``UnknownKeyError`` for a candidate outside the bucket or a
        metric outside the problem, ``DegenerateBaseError`` for an hour with
        no finite lift or one that would overflow its key's running sums,
        and ``DuplicateRoundError`` for a key already absorbed.  A refused
        pair changes nothing.
        """
        if test.candidate_id not in self._bucket or test.metric not in self.problem.metrics:
            raise UnknownKeyError(
                f"candidate {test.candidate_id} metric {test.metric!r} is not in the study"
            )
        stat = _hourly_stat(self.config, test, ctrl)
        self.record.absorb(test.candidate_id, test.metric, test.round, stat)
        self._raw_log.append((test, ctrl))

    def ingest(self, batches: Iterable[InboundBatch]) -> int:
        """Absorb feedback rows; a refused row is dropped (first write wins).

        Rows for an unknown candidate or metric, hours that admit no finite
        lift estimate or would overflow their key's running sums, and
        repeated keys are dropped.  Returns the number of rows newly
        absorbed.  Batches may arrive in any order and for any origin round.
        """
        absorbed = 0
        for batch in batches:
            for test, ctrl in batch.readings:
                try:
                    self._absorb(test, ctrl)
                except (UnknownKeyError, DegenerateBaseError, DuplicateRoundError):
                    continue
                absorbed += 1
        return absorbed

    def run_round(self, inbound: Iterable[InboundBatch] = ()) -> RoundPlan:
        """Advance one round: absorb, select, maybe propose, plan, persist.

        Rounds never block on missing feedback.  Until some candidate has
        data on every metric the uniform exposure is re-emitted, provided
        the initial bucket was scheduled at least once.
        """
        round_no = self._round + 1
        self.ingest(inbound)
        try:
            ids, mu, var = beliefs(self._bucket.values(), self.record, self.problem)
        except NoDataError:
            if not self._exposed:
                raise ColdStartError(
                    "no candidate has data and the initial bucket was never "
                    "scheduled; emit the initial plan first"
                ) from None
            plan = self._plan_from_units(round_no, Counter(self._bucket.keys()))
            self.last_selection = None
        else:
            eligible = [self._bucket[cid] for cid in ids.tolist()]
            # The fit runs beside the draws; its result, or its error, is
            # used only if the round proposes.
            fitted: list[GpSurrogate | Exception] = []
            helper = None
            if self.config.proposal_prob > 0.0:
                helper = threading.Thread(
                    target=_fit_into, args=(fitted, eligible, mu, var), name="zotune-gp-fit"
                )
                helper.start()
            try:
                sel = select(ids, mu, var, self.problem, self.config.select_count, self.rng)
                u = self.rng.random()
            finally:
                if helper is not None:
                    helper.join()
            self.last_selection = sel
            units = Counter(sel.winners)
            if u < self.config.proposal_prob:
                surrogate = fitted[0]
                if isinstance(surrogate, Exception):
                    raise surrogate
                prop = propose(
                    surrogate,
                    self.problem,
                    self.config.proposal_samples,
                    self.problem.base.bounds,
                    self.rng,
                    new_id=self._next_id,
                )
                newcomer = prop.proposed
                if newcomer.id in self._bucket or newcomer.id == self.problem.base.id:
                    raise ValueError(f"proposed id {newcomer.id} is not fresh")
                self._bucket[newcomer.id] = newcomer
                self._created_round[newcomer.id] = round_no
                self._next_id += 1
                units[newcomer.id] += 1  # one winner-unit of traffic
            plan = self._plan_from_units(round_no, units)

        self._round = round_no
        self._last_plan = plan
        if self.store_dir:
            self.persist(self.store_dir)
        return plan

    # Persistence

    def persist(self, store_dir: str | None = None) -> None:
        """Write the manifest, the bucket and the raw readings to disk."""
        store_dir = store_dir or self.store_dir
        if not store_dir:
            raise ValueError("no storage directory configured")
        os.makedirs(store_dir, exist_ok=True)

        manifest = Manifest(
            round=self._round,
            next_id=self._next_id,
            exposed=self._exposed,
            rng_state=self.rng.bit_generator.state,
            config=self.config,
            problem=problem_to_dict(self.problem),
            last_plan=self._last_plan,
        )
        with open(os.path.join(store_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"format_version": FORMAT_VERSION, **codec.to_dict(manifest)},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")

        dim = len(self.problem.base.theta)
        with open(os.path.join(store_dir, "hyperparams.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["candidate_id", "created_round"] + [f"theta{i}" for i in range(dim)]
            )
            for cid in sorted(self._bucket):
                hp = self._bucket[cid]
                writer.writerow(
                    [cid, self._created_round[cid]] + [_fmt(x) for x in hp.theta]
                )

        with open(os.path.join(store_dir, "metrics.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(METRICS_HEADER)
            for test, ctrl in self._raw_log:
                writer.writerow(
                    [
                        test.candidate_id, test.metric, test.round,
                        _fmt(test.sample_mean), _fmt(test.sample_var), test.group_size,
                        _fmt(ctrl.sample_mean), _fmt(ctrl.sample_var), ctrl.group_size,
                    ]
                )

    @classmethod
    def restore(cls, store_dir: str, new_store_dir: str | None = None) -> "Scheduler":
        """Rebuild a scheduler from storage, byte-for-byte equivalent.

        ``new_store_dir`` (default: the source directory) is where the
        restored scheduler will keep persisting.
        """
        def _path(name: str) -> str:
            p = os.path.join(store_dir, name)
            if not os.path.exists(p):
                raise RestoreError(f"missing storage file {name!r} in {store_dir}")
            return p

        try:
            with open(_path("manifest.json"), "r", encoding="utf-8") as fh:
                body = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RestoreError(f"corrupt manifest: {exc}") from exc
        version, body = codec.split_version(body)
        if version != FORMAT_VERSION:
            raise RestoreError(f"unsupported storage version {version!r}")
        try:
            manifest = codec.from_dict(Manifest, body)
            problem = problem_from_dict(manifest.problem)
            rng = np.random.default_rng()
            rng.bit_generator.state = manifest.rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise RestoreError(f"malformed manifest: {exc}") from exc
        config = manifest.config

        bucket: dict[int, HyperParam] = {}
        created: dict[int, int] = {}
        bounds = problem.base.bounds
        with open(_path("hyperparams.csv"), "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[:2] != ["candidate_id", "created_round"]:
                raise RestoreError("malformed hyperparams.csv header")
            for row in reader:
                try:
                    cid = int(row[0])
                    theta = tuple(float(x) for x in row[2:])
                    bucket[cid] = HyperParam(id=cid, theta=theta, bounds=bounds)
                    created[cid] = int(row[1])
                except (ValueError, IndexError) as exc:
                    raise RestoreError(
                        f"hyperparams.csv line {reader.line_num}: {exc}"
                    ) from None

        sched = cls(
            problem,
            config,
            rng,
            bucket=bucket,
            created_round=created,
            round_no=manifest.round,
            next_id=manifest.next_id,
            exposed=manifest.exposed,
            last_plan=manifest.last_plan,
            store_dir=new_store_dir or store_dir,
        )
        # Replaying the raw readings in file order, which is ingestion order,
        # gives bitwise the running sums that ingest built.
        with open(_path("metrics.csv"), "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != METRICS_HEADER:
                raise RestoreError("malformed metrics.csv header")
            for row in reader:
                try:
                    sched._absorb(*_reading_pair(row, problem.base.id))
                except ValueError as exc:
                    raise RestoreError(
                        f"metrics.csv line {reader.line_num}: {exc}"
                    ) from None
        return sched
