"""Streaming statistics for relative-lift metric signals.

Raw feedback arrives as per-group sample statistics: mean, unbiased sample
variance, and group size for a candidate's test group and for the shared
control group, one row per (candidate, metric, round).  Each row is turned
into an hourly lift estimate (test over control, minus one) with a
second-order Taylor correction for the ratio of means; hourly estimates are
then combined across rounds by group-size weighting:

    mean = sum_t N_t * m_t / sum_t N_t
    var  = sum_t N_t**2 * v_t / (sum_t N_t)**2

Aggregation is streaming and order-insensitive up to float rounding; rows
for a (candidate, metric, round) key are write-once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

DEGENERATE_MEAN_TOL = 1e-9


class DegenerateBaseError(ValueError):
    """The control-group mean is too close to zero to divide by."""


class DuplicateRoundError(ValueError):
    """A (candidate, metric, round) key was already absorbed; first write wins."""


class NoDataError(ValueError):
    """An aggregate was requested over an empty sequence."""


class TaylorMode(str, Enum):
    """Which second-order correction the hourly lift estimate uses.

    DELTA_METHOD treats each group's sample variance as a per-reading
    variance and scales it by that group's own size, giving the standard
    large-sample expansion for a ratio of sample means:

        mean = m/m0 + (v0/N0) * m/m0**3 - 1
        var  = v/(N*m0**2) + m**2*v0/(N0*m0**4)

    CROSSED applies the group variances unscaled in the mean correction and
    pairs each group's variance with the *other* group's size in the
    variance term:

        mean = m/m0 + v0*m/m0**3 - 1
        var  = (m0**2*v/N0 + m**2*v0/N) / m0**4

    Both modes agree on the variance when the two group sizes are equal.
    """

    DELTA_METHOD = "delta-method"
    CROSSED = "crossed"


@dataclass(frozen=True)
class GroupReading:
    """Sample statistics of one group for one metric in one round."""

    candidate_id: int
    metric: str
    round: int
    sample_mean: float
    sample_var: float
    group_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_mean", float(self.sample_mean))
        object.__setattr__(self, "sample_var", float(self.sample_var))
        object.__setattr__(self, "group_size", int(self.group_size))
        object.__setattr__(self, "round", int(self.round))
        if self.round < 0:
            raise ValueError("round must be nonnegative")
        if not (math.isfinite(self.sample_mean) and math.isfinite(self.sample_var)):
            raise ValueError("sample mean and variance must be finite")
        if self.sample_var < 0:
            raise ValueError("sample variance must be nonnegative")
        if self.group_size < 1:
            raise ValueError("group size must be at least 1")


@dataclass(frozen=True)
class DeltaStat:
    """A Gaussian summary (mean, var) of a lift, with its aggregation weight."""

    mean: float
    var: float
    weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "var", float(self.var))
        object.__setattr__(self, "weight", float(self.weight))
        if self.var < 0:
            raise ValueError("variance must be nonnegative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def hourly_delta_stat(
    test: GroupReading,
    control: GroupReading,
    mode: TaylorMode = TaylorMode.DELTA_METHOD,
) -> DeltaStat:
    """Hourly lift estimate of a test group against the control group.

    Both readings must describe the same metric and round.  The returned
    weight is the test group size, which later drives aggregation.
    """
    if test.metric != control.metric:
        raise ValueError(
            f"metric mismatch: test {test.metric!r} vs control {control.metric!r}"
        )
    if test.round != control.round:
        raise ValueError(
            f"round mismatch: test {test.round} vs control {control.round}"
        )
    m0 = control.sample_mean
    if abs(m0) < DEGENERATE_MEAN_TOL:
        raise DegenerateBaseError(
            f"control mean {m0} is within {DEGENERATE_MEAN_TOL} of zero"
        )
    m, v, n = test.sample_mean, test.sample_var, test.group_size
    v0, n0 = control.sample_var, control.group_size
    mode = TaylorMode(mode)
    if mode is TaylorMode.DELTA_METHOD:
        mean = m / m0 + (v0 / n0) * m / m0**3 - 1.0
        var = v / (n * m0**2) + m**2 * v0 / (n0 * m0**4)
    else:
        mean = m / m0 + v0 * m / m0**3 - 1.0
        var = (m0**2 * v / n0 + m**2 * v0 / n) / m0**4
    return DeltaStat(mean=mean, var=var, weight=float(n))


def aggregate(pairs: Iterable[tuple[DeltaStat, float]]) -> DeltaStat:
    """Weight-combine hourly stats given as ``(stat, N_t)`` pairs."""
    sum_w = 0.0
    sum_wm = 0.0
    sum_w2v = 0.0
    for stat, n_t in pairs:
        n_t = float(n_t)
        if n_t <= 0:
            raise ValueError("aggregation weight must be positive")
        sum_w += n_t
        sum_wm += n_t * stat.mean
        sum_w2v += n_t * n_t * stat.var
    if sum_w == 0.0:
        raise NoDataError("cannot aggregate an empty sequence")
    return DeltaStat(mean=sum_wm / sum_w, var=sum_w2v / sum_w**2, weight=sum_w)


@dataclass
class _Series:
    """Hourly history and running sums for one (candidate, metric) key."""

    by_round: dict[int, DeltaStat]
    sum_w: float = 0.0
    sum_wm: float = 0.0
    sum_w2v: float = 0.0


class EstimateRecord:
    """Write-once-per-round store of hourly lift stats with running aggregates.

    ``absorb`` accepts rows in any arrival order; each (candidate, metric,
    round) key is accepted exactly once and a retry raises
    ``DuplicateRoundError`` leaving the record unchanged.  A lock guards
    mutation so concurrent producers may absorb rows for distinct keys;
    readers see a consistent snapshot.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[int, str], _Series] = {}
        self._lock = threading.Lock()

    def absorb(self, candidate_id: int, metric: str, round_no: int, stat: DeltaStat) -> None:
        """Add one hourly stat; its ``weight`` is the aggregation weight N_t."""
        key = (int(candidate_id), str(metric))
        round_no = int(round_no)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _Series(by_round={})
                self._series[key] = series
            if round_no in series.by_round:
                raise DuplicateRoundError(
                    f"candidate {key[0]} metric {key[1]!r} round {round_no} "
                    "was already absorbed"
                )
            series.by_round[round_no] = stat
            series.sum_w += stat.weight
            series.sum_wm += stat.weight * stat.mean
            series.sum_w2v += stat.weight * stat.weight * stat.var

    def hourly(self, candidate_id: int, metric: str) -> list[tuple[int, DeltaStat]]:
        """Hourly stats for one key, sorted by round (ascending)."""
        with self._lock:
            series = self._series.get((int(candidate_id), str(metric)))
            if series is None:
                return []
            return sorted(series.by_round.items())

    def aggregate(self, candidate_id: int, metric: str) -> DeltaStat | None:
        """Running weighted aggregate for one key, or None if no data."""
        with self._lock:
            series = self._series.get((int(candidate_id), str(metric)))
            if series is None or series.sum_w == 0.0:
                return None
            return DeltaStat(
                mean=series.sum_wm / series.sum_w,
                var=series.sum_w2v / series.sum_w**2,
                weight=series.sum_w,
            )

    def candidates_with_data(self, metrics: Sequence[str]) -> list[int]:
        """Sorted candidate ids holding at least one round for every metric."""
        metrics = tuple(metrics)
        with self._lock:
            ids = {cid for cid, _ in self._series}
            return sorted(
                cid
                for cid in ids
                if all(
                    (cid, m) in self._series and self._series[(cid, m)].by_round
                    for m in metrics
                )
            )

    def rounds_absorbed(self, candidate_id: int, metric: str) -> int:
        with self._lock:
            series = self._series.get((int(candidate_id), str(metric)))
            return len(series.by_round) if series else 0

    def __len__(self) -> int:
        """Number of absorbed (candidate, metric, round) rows."""
        with self._lock:
            return sum(len(series.by_round) for series in self._series.values())
