"""Constrained tuning problems over relative metric lifts.

A tuning problem fixes an ordered list of metrics, a scalar objective, and
guardrail constraints.  Objective and constraints are weighted sums of a
lift vector: the per-metric relative change of a candidate configuration
against the base configuration.  Upper-bound ("at-most") constraints are
normalized to lower-bound form at construction time by negating both the
weights and the threshold, so every downstream consumer sees a single
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from . import codec

MetricId = str

Direction = Literal["at-least", "at-most"]
AT_LEAST, AT_MOST = get_args(Direction)


class DimensionMismatchError(ValueError):
    """A lift vector's length does not match the problem's metric count."""


class UndefinedGainError(ValueError):
    """Relative gain is undefined when the base objective value is zero."""


class ConfigError(ValueError):
    """A problem has no metrics, or names one twice."""


@dataclass(frozen=True, eq=False)
class HyperParam:
    """One candidate configuration: an id, a vector, and its search box.

    Candidate identity (equality, hashing) is by ``id`` alone; the vector is
    payload.  Ids are stable for the life of a study.
    """

    id: int
    theta: tuple[float, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        real, where = codec.real, "HyperParam.bounds"
        theta = tuple(real(x, "HyperParam.theta") for x in self.theta)
        bounds = tuple((real(lo, where), real(hi, where)) for lo, hi in self.bounds)
        object.__setattr__(self, "id", codec.count(self.id, "HyperParam.id"))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "bounds", bounds)
        if len(theta) < 1:
            raise DimensionMismatchError(
                "candidate vector must have at least one dimension"
            )
        if len(bounds) != len(theta):
            raise DimensionMismatchError("bounds must match the vector dimension")
        for x, (lo, hi) in zip(theta, bounds):
            if not lo <= hi:
                raise ValueError(f"empty bound interval ({lo}, {hi})")
            if not lo <= x <= hi:
                raise ValueError(f"coordinate {x} outside bounds ({lo}, {hi})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperParam):
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)


@dataclass(frozen=True)
class LinearExpr:
    """Exact weighted sum of the lift vector; objectives and guardrails are
    all of this form.  ``form`` is the tag a stored expression carries."""

    weights: tuple[float, ...]
    form: Literal["linear"] = "linear"

    def __post_init__(self) -> None:
        codec.conform(self)
        if len(self.weights) < 1:
            raise ValueError("linear form needs at least one weight")

    @property
    def arity(self) -> int:
        return len(self.weights)

    def batch(self, deltas: np.ndarray) -> np.ndarray:
        """Evaluate on an array whose last axis is the metric axis."""
        return np.asarray(deltas, dtype=float) @ np.asarray(self.weights)


@dataclass(frozen=True)
class ConstraintSpec:
    """One guardrail: ``g(delta) >= threshold`` after direction normalization.

    ``direction`` states how the constraint was authored; ``at-most`` inputs
    are stored internally as the equivalent ``at-least`` pair ``(-g, -c)``.
    The boundary case counts as satisfied.
    """

    g: LinearExpr
    threshold: float
    direction: Direction = AT_LEAST

    def __post_init__(self) -> None:
        codec.conform(self)

    def normalized(self) -> tuple[LinearExpr, float]:
        """Return the ``at-least`` form ``(g', c')`` with ``g' >= c'``.

        Negating the weights negates every value exactly, since IEEE
        rounding is symmetric in sign.
        """
        if self.direction == AT_LEAST:
            return self.g, self.threshold
        return LinearExpr(tuple(-w for w in self.g.weights)), -self.threshold


@dataclass(frozen=True)
class TuningProblem:
    """Metrics, objective, guardrails, and the base configuration."""

    metrics: tuple[MetricId, ...]
    objective: LinearExpr
    constraints: tuple[ConstraintSpec, ...]
    base: HyperParam

    def __post_init__(self) -> None:
        codec.conform(self)
        if len(self.metrics) < 1:
            raise ConfigError("a problem needs at least one metric")
        if len(set(self.metrics)) != len(self.metrics):
            raise ConfigError("metric names must be unique within a problem")
        if self.objective.arity != len(self.metrics):
            raise DimensionMismatchError(
                f"objective consumes {self.objective.arity} lifts, "
                f"problem has {len(self.metrics)} metrics"
            )
        for i, c in enumerate(self.constraints):
            if c.g.arity != len(self.metrics):
                raise DimensionMismatchError(
                    f"constraint {i} consumes {c.g.arity} lifts, "
                    f"problem has {len(self.metrics)} metrics"
                )
        # Normalized (g, c) pairs are fixed at construction.
        object.__setattr__(
            self, "_normalized", tuple(c.normalized() for c in self.constraints)
        )

    @property
    def n_metrics(self) -> int:
        return len(self.metrics)

    def objective_batch(self, deltas: np.ndarray) -> np.ndarray:
        """Objective over an array whose last axis holds the M lifts."""
        deltas = np.asarray(deltas, dtype=float)
        if deltas.shape[-1] != self.n_metrics:
            raise DimensionMismatchError(
                f"last axis {deltas.shape[-1]} does not match {self.n_metrics} metrics"
            )
        return self.objective.batch(deltas)

    def constraint_slack_batch(self, deltas: np.ndarray) -> np.ndarray:
        """Stacked normalized slacks ``g_i(delta) - c_i``, shape ``(m, ...)``.

        Nonnegative slack on every row means feasible.  With zero
        constraints the result has shape ``(0, ...)``.
        """
        deltas = np.asarray(deltas, dtype=float)
        if deltas.shape[-1] != self.n_metrics:
            raise DimensionMismatchError(
                f"last axis {deltas.shape[-1]} does not match {self.n_metrics} metrics"
            )
        if not self._normalized:
            return np.zeros((0,) + deltas.shape[:-1])
        # One product per constraint: a single (..., M) @ (M, m) matmul takes
        # another BLAS path and changes the last bit (measured).
        return np.stack([g.batch(deltas) - c for g, c in self._normalized])


def gain(f_theta: float, f_base: float) -> float:
    """Relative objective improvement over the base, ``f/f0 - 1``."""
    if f_base == 0.0:
        raise UndefinedGainError("base objective value is zero")
    return f_theta / f_base - 1.0

