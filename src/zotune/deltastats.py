"""Streaming statistics for relative-lift metric signals.

Raw feedback arrives as per-group sample statistics: mean, unbiased sample
variance, and group size for a candidate's test group and for the shared
control group, one ``Reading`` per (candidate, metric, round), whose fields
are the columns of the scheduler's ``metrics.csv``.  Each row is turned
into an hourly lift estimate (test over control, minus one) with a
second-order Taylor correction for the ratio of means; hourly estimates are
then combined across rounds by group-size weighting:

    mean = sum_t N_t * m_t / sum_t N_t
    var  = sum_t N_t**2 * v_t / (sum_t N_t)**2

Aggregation is streaming and order-insensitive up to float rounding; rows
for a (candidate, metric, round) key are write-once.  ``EstimateRecord``
keeps, per (candidate, metric) key, the rounds absorbed, the running sums
and their aggregate, formed once when a row is absorbed so reading it is a
lookup.  It keeps no per-hour stats: those derive from the raw readings,
which the scheduler stores.  A row whose sums or aggregate would not be
finite is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .codec import DecodeError, count, real

DEGENERATE_MEAN_TOL = 1e-9


class DegenerateBaseError(ValueError):
    """This hour admits no finite lift estimate.

    Raised when the control-group mean is too close to zero to divide by,
    when the lift's mean or variance would overflow to a non-finite value,
    or when absorbing the hour would overflow its key's running sums or
    their aggregate.
    """


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
class Reading:
    """One row of feedback, as ``metrics.csv`` stores it: a candidate's test
    group and the shared control group, for one metric in one round, each
    group as its sample mean, unbiased sample variance and size."""

    candidate_id: int
    metric: str
    round: int
    test_mean: float
    test_var: float
    test_n: int
    control_mean: float
    control_var: float
    control_n: int

    def __post_init__(self) -> None:
        set_field = object.__setattr__
        set_field(self, "candidate_id", count(self.candidate_id, "Reading.candidate_id"))
        if not isinstance(self.metric, str):
            raise DecodeError(f"Reading.metric: expected str, got {self.metric!r}")
        set_field(self, "round", count(self.round, "Reading.round"))
        set_field(self, "test_mean", real(self.test_mean, "Reading.test_mean"))
        set_field(self, "test_var", real(self.test_var, "Reading.test_var"))
        set_field(self, "test_n", count(self.test_n, "Reading.test_n"))
        set_field(self, "control_mean", real(self.control_mean, "Reading.control_mean"))
        set_field(self, "control_var", real(self.control_var, "Reading.control_var"))
        set_field(self, "control_n", count(self.control_n, "Reading.control_n"))
        if self.round < 0:
            raise ValueError("round must be nonnegative")
        stats = (self.test_mean, self.test_var, self.control_mean, self.control_var)
        if not all(map(math.isfinite, stats)):
            raise ValueError("sample means and variances must be finite")
        if self.test_var < 0 or self.control_var < 0:
            raise ValueError("sample variances must be nonnegative")
        if self.test_n < 1 or self.control_n < 1:
            raise ValueError("group sizes must be at least 1")


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
        if not all(map(math.isfinite, (self.mean, self.var, self.weight))):
            raise ValueError("mean, variance and weight must be finite")
        if self.var < 0:
            raise ValueError("variance must be nonnegative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def hourly_delta_stat(
    reading: Reading, mode: TaylorMode = TaylorMode.DELTA_METHOD
) -> DeltaStat:
    """Hourly lift estimate of a reading's test group against its control group.

    The returned weight is the test group size, which later drives
    aggregation.  Raises ``DegenerateBaseError`` when the hour admits no
    finite estimate: a control mean within ``DEGENERATE_MEAN_TOL`` of zero,
    or a mean or variance that overflows.
    """
    m0 = reading.control_mean
    if abs(m0) < DEGENERATE_MEAN_TOL:
        raise DegenerateBaseError(
            f"control mean {m0} is within {DEGENERATE_MEAN_TOL} of zero"
        )
    m, v, n = reading.test_mean, reading.test_var, reading.test_n
    v0, n0 = reading.control_var, reading.control_n
    mode = TaylorMode(mode)
    try:
        if mode is TaylorMode.DELTA_METHOD:
            mean = m / m0 + (v0 / n0) * m / m0**3 - 1.0
            var = v / (n * m0**2) + m**2 * v0 / (n0 * m0**4)
        else:
            mean = m / m0 + v0 * m / m0**3 - 1.0
            var = (m0**2 * v / n0 + m**2 * v0 / n) / m0**4
    except OverflowError:  # float ** raises where * and / give inf
        mean = var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DegenerateBaseError("this hour admits no finite lift estimate")
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
    """Absorbed rounds, running sums and their aggregate for one
    (candidate, metric) key."""

    rounds: set[int] = field(default_factory=set)
    sum_w: float = 0.0
    sum_wm: float = 0.0
    sum_w2v: float = 0.0
    agg: DeltaStat | None = None


class EstimateRecord:
    """Write-once-per-round running aggregates of hourly lift stats.

    ``absorb`` accepts rows in any arrival order; each (candidate, metric,
    round) key is accepted exactly once and a retry raises
    ``DuplicateRoundError`` leaving the record unchanged.  A row whose
    weighted terms would overflow the running sums, or whose new aggregate
    would not be finite, raises ``DegenerateBaseError`` and leaves the
    record unchanged too.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[int, str], _Series] = {}

    def absorb(self, candidate_id: int, metric: str, round_no: int, stat: DeltaStat) -> None:
        """Add one hourly stat; its ``weight`` is the aggregation weight N_t.
        A key that is not an ``int``, a ``str`` and an ``int`` raises
        ``DecodeError`` and leaves the record unchanged."""
        candidate_id = count(candidate_id, "candidate_id")
        round_no = count(round_no, "round_no")
        if not isinstance(metric, str):
            raise DecodeError(f"metric: expected str, got {metric!r}")
        key = (candidate_id, metric)
        series = self._series.get(key)
        if series is None:
            series = _Series()
        elif round_no in series.rounds:
            raise DuplicateRoundError(
                f"candidate {candidate_id} metric {metric!r} round {round_no} "
                "was already absorbed"
            )
        sum_w = series.sum_w + stat.weight
        sum_wm = series.sum_wm + stat.weight * stat.mean
        sum_w2v = series.sum_w2v + stat.weight * stat.weight * stat.var
        try:
            # A non-finite sum gives a non-finite field, which DeltaStat
            # refuses; float ** raises where * gives inf.
            agg = DeltaStat(mean=sum_wm / sum_w, var=sum_w2v / sum_w**2, weight=sum_w)
        except (ArithmeticError, ValueError):
            raise DegenerateBaseError(
                f"candidate {candidate_id} metric {metric!r} round {round_no} "
                "would overflow the running sums or their aggregate"
            ) from None
        self._series[key] = series
        series.rounds.add(round_no)
        series.sum_w, series.sum_wm, series.sum_w2v = sum_w, sum_wm, sum_w2v
        series.agg = agg

    def aggregate(self, candidate_id: int, metric: str) -> DeltaStat | None:
        """Running weighted aggregate for one key, or None if no data."""
        series = self._series.get((candidate_id, metric))
        return None if series is None else series.agg
