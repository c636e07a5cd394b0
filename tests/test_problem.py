"""Tests for hyperparameter points, expressions, and tuning problems."""

import json
import math

import numpy as np
import pytest

from zotune.problem import (
    AT_LEAST,
    AT_MOST,
    ConfigError,
    ConstraintSpec,
    DimensionMismatchError,
    HyperParam,
    LinearExpr,
    TuningProblem,
    UndefinedGainError,
    gain,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    violation,
)

BOUNDS = ((0.0, 1.0), (0.0, 1.0))


def make_problem(n_constraints=1):
    constraints = tuple(
        ConstraintSpec(g=LinearExpr((0.5, 0.5)), threshold=0.1, direction=AT_LEAST)
        for _ in range(n_constraints)
    )
    return TuningProblem(
        metrics=("x1", "x2"),
        objective=LinearExpr((1.0, 2.0)),
        constraints=constraints,
        base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
    )


class TestHyperParam:
    def test_identity_is_id_only(self):
        a = HyperParam(id=3, theta=(0.1, 0.2), bounds=BOUNDS)
        b = HyperParam(id=3, theta=(0.9, 0.9), bounds=BOUNDS)
        assert a == b
        assert hash(a) == hash(b)
        assert a != HyperParam(id=4, theta=(0.1, 0.2), bounds=BOUNDS)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            HyperParam(id=1, theta=(1.5, 0.2), bounds=BOUNDS)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            HyperParam(id=1, theta=(0.5,), bounds=BOUNDS)

    def test_vector(self):
        hp = HyperParam(id=1, theta=(0.25, 0.75), bounds=BOUNDS)
        np.testing.assert_array_equal(hp.vector, [0.25, 0.75])

    def test_boundary_points_allowed(self):
        HyperParam(id=1, theta=(0.0, 1.0), bounds=BOUNDS)


class TestExpressions:
    def test_linear_value(self):
        f = LinearExpr((1.0, 2.0, 3.0))
        assert f((1.0, 1.0, 1.0)) == pytest.approx(6.0)
        assert f.arity == 3

    def test_linear_batch(self):
        f = LinearExpr((1.0, 2.0))
        batch = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(f.batch(batch), [1.0, 2.0, 3.0])

    def test_linear_batch_arbitrary_leading_shape(self):
        f = LinearExpr((1.0, 2.0))
        batch = np.ones((4, 5, 2))
        assert f.batch(batch).shape == (4, 5)

    def test_linear_arity_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LinearExpr((1.0, 2.0))((1.0, 2.0, 3.0))


class TestConstraintSpec:
    def test_at_least_normalization_is_identity(self):
        c = ConstraintSpec(g=LinearExpr((1.0, 0.0)), threshold=0.5, direction=AT_LEAST)
        g_n, thr = c.normalized()
        assert g_n((0.7, 0.0)) == pytest.approx(0.7)
        assert thr == pytest.approx(0.5)

    def test_at_most_flips_sign(self):
        c = ConstraintSpec(g=LinearExpr((1.0, 0.0)), threshold=0.5, direction=AT_MOST)
        g_n, thr = c.normalized()
        # g <= c becomes -g >= -c
        assert g_n((0.7, 0.0)) == pytest.approx(-0.7)
        assert thr == pytest.approx(-0.5)


class TestTuningProblem:
    def test_duplicate_metrics_rejected(self):
        with pytest.raises(ConfigError):
            TuningProblem(
                metrics=("x1", "x1"),
                objective=LinearExpr((1.0, 1.0)),
                constraints=(),
                base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
            )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            TuningProblem(
                metrics=("x1", "x2"),
                objective=LinearExpr((1.0,)),
                constraints=(),
                base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
            )

    def test_evaluate_objective(self):
        p = make_problem()
        assert p.evaluate_objective((1.0, 1.0)) == pytest.approx(3.0)

    def test_evaluate_constraints_includes_boundary(self):
        p = make_problem()
        results = p.evaluate_constraints((0.1, 0.1))
        assert len(results) == 1
        value, ok = results[0]
        assert value == pytest.approx(0.1)
        assert ok  # boundary counts as satisfied

    def test_evaluate_constraints_violated(self):
        p = make_problem()
        (_, ok), = p.evaluate_constraints((0.0, 0.0))
        assert not ok

    def test_constraint_slack_batch_shape(self):
        p = make_problem(n_constraints=2)
        deltas = np.zeros((7, 2))
        slack = p.constraint_slack_batch(deltas)
        assert slack.shape == (2, 7)
        np.testing.assert_allclose(slack, -0.1)

    def test_at_most_slack_is_exact_negation(self):
        g = LinearExpr((0.3, 0.7))
        rng = np.random.default_rng(0)
        deltas = rng.normal(scale=0.1, size=(50, 2))
        slack = {
            direction: TuningProblem(
                metrics=("x1", "x2"),
                objective=LinearExpr((1.0, 2.0)),
                constraints=(ConstraintSpec(g=g, threshold=0.01, direction=direction),),
                base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
            ).constraint_slack_batch(deltas)
            for direction in (AT_LEAST, AT_MOST)
        }
        # -(g - c) and (-g) - (-c) round identically.
        assert np.array_equal(slack[AT_MOST], -slack[AT_LEAST])
        assert np.array_equal(slack[AT_MOST][0], -(deltas @ np.array(g.weights)) + 0.01)

    def test_unconstrained_slack_batch(self):
        p = TuningProblem(
            metrics=("x1", "x2"),
            objective=LinearExpr((1.0, 1.0)),
            constraints=(),
            base=HyperParam(id=0, theta=(0.5, 0.5), bounds=BOUNDS),
        )
        assert p.constraint_slack_batch(np.zeros((4, 2))).shape == (0, 4)

    def test_objective_batch(self):
        p = make_problem()
        np.testing.assert_allclose(
            p.objective_batch(np.array([[1.0, 0.0], [0.0, 1.0]])), [1.0, 2.0]
        )


class TestGainViolation:
    def test_gain(self):
        assert gain(1.2, 1.0) == pytest.approx(0.2)
        assert gain(0.8, 1.0) == pytest.approx(-0.2)

    def test_gain_zero_base(self):
        with pytest.raises(UndefinedGainError):
            gain(1.0, 0.0)

    def test_violation(self):
        assert violation(0.4, 0.5) == pytest.approx(0.1)
        assert violation(0.6, 0.5) == 0.0
        assert violation(0.5, 0.5) == 0.0


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        p = make_problem(n_constraints=2)
        path = tmp_path / "problem.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.metrics == p.metrics
        assert q.base.id == p.base.id
        assert q.base.theta == p.base.theta
        assert q.evaluate_objective((0.3, 0.4)) == pytest.approx(
            p.evaluate_objective((0.3, 0.4))
        )
        assert len(q.constraints) == 2

    def test_roundtrip_exact_floats(self, tmp_path):
        w = (0.1 + 0.2, 1.0 / 3.0)
        p = TuningProblem(
            metrics=("x1", "x2"),
            objective=LinearExpr(w),
            constraints=(),
            base=HyperParam(id=0, theta=(1.0 / 7.0, 2.0 / 7.0), bounds=BOUNDS),
        )
        path = tmp_path / "p.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.objective.weights == w
        assert q.base.theta == p.base.theta

    def test_unknown_expression_kind(self, tmp_path):
        for form in ("mystery", "composed"):
            d = problem_to_dict(make_problem())
            d["objective"]["form"] = form
            with pytest.raises(ConfigError):
                problem_from_dict(d)
