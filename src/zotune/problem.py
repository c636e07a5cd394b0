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

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MetricId = str

AT_LEAST = "at-least"
AT_MOST = "at-most"

_DIRECTIONS = (AT_LEAST, AT_MOST)


class DimensionMismatchError(ValueError):
    """A lift vector's length does not match the problem's metric count."""


class UndefinedGainError(ValueError):
    """Relative gain is undefined when the base objective value is zero."""


class ConfigError(ValueError):
    """A problem configuration file is malformed or incomplete."""


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
        theta = tuple(float(x) for x in self.theta)
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
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

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.theta, dtype=float)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperParam):
            return NotImplemented
        return self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)


@dataclass(frozen=True)
class LinearExpr:
    """Exact weighted sum of the lift vector; objectives and guardrails are
    all of this form."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) < 1:
            raise ValueError("linear form needs at least one weight")

    @property
    def arity(self) -> int:
        return len(self.weights)

    def __call__(self, delta: Sequence[float]) -> float:
        arr = np.asarray(delta, dtype=float)
        if arr.shape != (self.arity,):
            raise DimensionMismatchError(
                f"linear form of arity {self.arity} got shape {arr.shape}"
            )
        return float(np.dot(np.asarray(self.weights), arr))

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
    direction: str = AT_LEAST

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", float(self.threshold))
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")

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
        metrics = tuple(str(m) for m in self.metrics)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if len(metrics) < 1:
            raise ConfigError("a problem needs at least one metric")
        if len(set(metrics)) != len(metrics):
            raise ConfigError("metric names must be unique within a problem")
        if self.objective.arity != len(metrics):
            raise DimensionMismatchError(
                f"objective consumes {self.objective.arity} lifts, "
                f"problem has {len(metrics)} metrics"
            )
        for i, c in enumerate(self.constraints):
            if c.g.arity != len(metrics):
                raise DimensionMismatchError(
                    f"constraint {i} consumes {c.g.arity} lifts, "
                    f"problem has {len(metrics)} metrics"
                )
        # Normalized (g, c) pairs are fixed at construction.
        object.__setattr__(
            self, "_normalized", tuple(c.normalized() for c in self.constraints)
        )

    @property
    def n_metrics(self) -> int:
        return len(self.metrics)

    def _check_delta(self, delta: Sequence[float]) -> np.ndarray:
        arr = np.asarray(delta, dtype=float)
        if arr.shape != (self.n_metrics,):
            raise DimensionMismatchError(
                f"lift vector of length {arr.shape} does not match "
                f"{self.n_metrics} metrics"
            )
        return arr

    def evaluate_objective(self, delta: Sequence[float]) -> float:
        """Scalar objective value of one lift vector."""
        return float(self.objective(self._check_delta(delta)))

    def evaluate_constraints(self, delta: Sequence[float]) -> list[tuple[float, bool]]:
        """Per-constraint ``(normalized value, satisfied)`` pairs.

        Values are reported after direction normalization, so ``satisfied``
        is always ``value >= normalized threshold`` (boundary inclusive).
        """
        arr = self._check_delta(delta)
        out = []
        for g, c in self._normalized:
            v = float(g(arr))
            out.append((v, v >= c))
        return out

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
        # One product per constraint: a single (m, M) matmul may take another
        # BLAS path and change the last bit.
        return np.stack([g.batch(deltas) - c for g, c in self._normalized])


def gain(f_theta: float, f_base: float) -> float:
    """Relative objective improvement over the base, ``f/f0 - 1``."""
    if f_base == 0.0:
        raise UndefinedGainError("base objective value is zero")
    return f_theta / f_base - 1.0


def violation(g_theta: float, threshold: float) -> float:
    """Constraint shortfall ``max(threshold - g, 0)`` in normalized form."""
    return max(threshold - g_theta, 0.0)


# Configuration file round-trip.  The on-disk form is JSON; floats survive
# exactly because JSON serialization uses the shortest round-trip repr.


def _expr_to_dict(expr: LinearExpr) -> dict:
    return {"form": "linear", "weights": list(expr.weights)}


def _expr_from_dict(d: dict) -> LinearExpr:
    form = d.get("form")
    if form != "linear":
        raise ConfigError(f"unknown expression form {form!r}")
    return LinearExpr(tuple(d["weights"]))


def problem_to_dict(problem: TuningProblem) -> dict:
    return {
        "metrics": list(problem.metrics),
        "objective": _expr_to_dict(problem.objective),
        "constraints": [
            {
                "g": _expr_to_dict(c.g),
                "threshold": c.threshold,
                "direction": c.direction,
            }
            for c in problem.constraints
        ],
        "base": {
            "id": problem.base.id,
            "theta": list(problem.base.theta),
            "bounds": [list(b) for b in problem.base.bounds],
        },
    }


def problem_from_dict(d: dict) -> TuningProblem:
    try:
        base = d["base"]
        return TuningProblem(
            metrics=tuple(d["metrics"]),
            objective=_expr_from_dict(d["objective"]),
            constraints=tuple(
                ConstraintSpec(
                    g=_expr_from_dict(c["g"]),
                    threshold=c["threshold"],
                    direction=c.get("direction", AT_LEAST),
                )
                for c in d.get("constraints", ())
            ),
            base=HyperParam(
                id=int(base["id"]),
                theta=tuple(base["theta"]),
                bounds=tuple(tuple(b) for b in base["bounds"]),
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed problem configuration: {exc}") from exc


def save_problem(problem: TuningProblem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


def load_problem(path: str) -> TuningProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid problem file {path}: {exc}") from exc
    return problem_from_dict(data)
