"""Tests for Thompson selection and surrogate-guided proposal.

The oracles live in ``spec.py``: ``exhaustive_winner`` is one selection
repetition over deterministic lift vectors, and ``select`` draws and scores
all K repetitions as one array.
"""

import sys
import threading
import tracemalloc
from collections import Counter

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from zotune import optimizer
from zotune.deltastats import DeltaStat, EstimateRecord, NoDataError
from zotune.gp import GpSurrogate, Helper, Prediction
from zotune.optimizer import (
    ProposalResult,
    RejectedSurrogateError,
    SelectionResult,
    beliefs,
    propose,
    select,
)
from zotune.problem import (
    AT_LEAST,
    AT_MOST,
    ConstraintSpec,
    HyperParam,
    LinearExpr,
    TuningProblem,
)

BOUNDS = ((0.0, 1.0), (0.0, 1.0))


def hp(i, theta=(0.5, 0.5)):
    return HyperParam(id=i, theta=theta, bounds=BOUNDS)


def make_problem(objective, constraints=()):
    return TuningProblem(
        metrics=("x1", "x2"),
        objective=objective,
        constraints=constraints,
        base=HyperParam(id=0, theta=(0.0, 0.0), bounds=BOUNDS),
    )


def record_with(deltas):
    """Zero-variance record: {cid: (d1, d2)} absorbed once at round 0."""
    rec = EstimateRecord()
    for cid, (d1, d2) in deltas.items():
        rec.absorb(cid, "x1", 0, DeltaStat(mean=d1, var=0.0, weight=100))
        rec.absorb(cid, "x2", 0, DeltaStat(mean=d2, var=0.0, weight=100))
    return rec


class TestSelect:
    def test_three_candidate_worked_example(self, helper):
        deltas = {1: (0.05, 0.01), 2: (0.08, -0.02), 3: (0.03, 0.02)}
        rec = record_with(deltas)
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        bucket = [hp(i) for i in deltas]
        res = select(
            *beliefs(bucket, rec, problem), problem, 5, np.random.default_rng(0), helper=helper
        )
        assert res.winners == (1,) * 5
        assert res.infeasible_rounds == 0

    def test_single_candidate_no_constraints(self, helper):
        rec = record_with({7: (0.01, 0.02)})
        problem = make_problem(LinearExpr((1.0, 1.0)))
        res = select(
            *beliefs([hp(7)], rec, problem), problem, 9, np.random.default_rng(0), helper=helper
        )
        assert res.winners == (7,) * 9

    def test_all_infeasible_falls_back_to_best_slack(self, helper):
        deltas = {1: (0.10, -0.01), 2: (0.99, -0.02)}
        rec = record_with(deltas)
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        res = select(
            *beliefs([hp(1), hp(2)], rec, problem), problem, 6, np.random.default_rng(0),
            helper=helper,
        )
        assert res.winners == (1,) * 6
        assert res.infeasible_rounds == 6

    def test_exact_tie_goes_to_lowest_id(self, helper):
        deltas = {4: (0.05, 0.01), 9: (0.05, 0.01)}
        rec = record_with(deltas)
        problem = make_problem(LinearExpr((1.0, 0.0)))
        res = select(
            *beliefs([hp(9), hp(4)], rec, problem), problem, 8, np.random.default_rng(0),
            helper=helper,
        )
        assert res.winners == (4,) * 8

    def test_brute_force_equivalence_randomized(self, helper):
        """Zero-variance selection matches the loop oracle on 50 instances."""
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(0, 4))
            ids = sorted(int(i) for i in rng.choice(1000, size=n, replace=False) + 1)
            deltas = {cid: tuple(rng.normal(0, 0.05, size=2)) for cid in ids}
            objective = LinearExpr(tuple(rng.normal(0, 1, size=2)))
            problem = make_problem(objective, tuple(
                ConstraintSpec(LinearExpr(tuple(rng.normal(0, 1, size=2))), rng.normal(0, 0.02))
                for _ in range(m)
            ))
            measured = beliefs([hp(cid) for cid in ids], record_with(deltas), problem)
            res = select(*measured, problem, 3, np.random.default_rng(1), helper=helper)
            assert res.winners == (spec.exhaustive_winner(deltas, problem),) * 3

    @pytest.mark.parametrize("direction", [AT_LEAST, AT_MOST])
    def test_guardrail_met_with_zero_slack_holds(self, direction, helper):
        """Zero-variance candidate 1 sits on the guardrail x2 = 0.01 with zero
        slack and the higher objective: it wins every repetition, none infeasible."""
        deltas = {1: (0.05, 0.01), 2: (0.02, 0.03 if direction == AT_LEAST else -0.03)}
        guardrail = ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.01, direction=direction)
        problem = make_problem(LinearExpr((1.0, 0.0)), (guardrail,))
        assert problem.constraint_slack_batch(np.array(deltas[1]))[0] == 0.0
        ids, mu, var = beliefs([hp(1), hp(2)], record_with(deltas), problem)
        res = select(ids, mu, var, problem, 7, np.random.default_rng(0), helper=helper)
        assert res.winners == (1,) * 7
        assert res.infeasible_rounds == 0

    def test_monotone_focus_dominant_candidate(self, helper):
        """A 6-sigma dominant feasible candidate takes every repetition."""
        rec = EstimateRecord()
        for cid, mean in ((1, 0.0), (2, 0.0), (3, 1.0)):
            rec.absorb(cid, "x1", 0, DeltaStat(mean=mean, var=1e-6, weight=10))
            rec.absorb(cid, "x2", 0, DeltaStat(mean=1.0, var=1e-6, weight=10))
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.5, direction=AT_LEAST),),
        )
        bucket = [hp(1), hp(2), hp(3)]
        res = select(
            *beliefs(bucket, rec, problem), problem, 200, np.random.default_rng(5), helper=helper
        )
        assert res.winners == (3,) * 200
        assert res.infeasible_rounds == 0

    def test_feasibility_soundness_zero_variance(self, helper):
        rng = np.random.default_rng(77)
        for _ in range(20):
            deltas = {
                cid: tuple(rng.normal(0, 0.05, size=2)) for cid in range(1, 11)
            }
            cons = ((0.0, 1.0), float(rng.normal(0, 0.02)))
            rec = record_with(deltas)
            problem = make_problem(
                LinearExpr((1.0, 0.0)),
                (ConstraintSpec(g=LinearExpr(cons[0]), threshold=cons[1], direction=AT_LEAST),),
            )
            res = select(
                *beliefs([hp(c) for c in deltas], rec, problem), problem, 1,
                np.random.default_rng(1), helper=helper,
            )
            if res.infeasible_rounds == 0:
                d2 = deltas[res.winners[0]][1]
                assert d2 >= cons[1]

    def test_candidates_without_data_are_skipped(self, helper):
        rec = record_with({1: (0.01, 0.01)})
        problem = make_problem(LinearExpr((1.0, 1.0)))
        bucket = [hp(1), hp(2), hp(3)]  # 2 and 3 unmeasured
        ids, mu, var = beliefs(bucket, rec, problem)
        assert ids.tolist() == [1]
        assert mu.shape == var.shape == (1, 2)
        res = select(ids, mu, var, problem, 4, np.random.default_rng(0), helper=helper)
        assert set(res.winners) == {1}

    def test_partial_metric_data_not_eligible(self, helper):
        rec = record_with({1: (0.01, 0.01)})
        rec.absorb(2, "x1", 0, DeltaStat(mean=9.0, var=0.0, weight=10))
        problem = make_problem(LinearExpr((1.0, 1.0)))
        res = select(
            *beliefs([hp(1), hp(2)], rec, problem), problem, 3, np.random.default_rng(0),
            helper=helper,
        )
        assert set(res.winners) == {1}

    def test_no_data_raises(self, helper):
        problem = make_problem(LinearExpr((1.0, 1.0)))
        with pytest.raises(NoDataError):
            select(
                *beliefs([hp(1)], EstimateRecord(), problem), problem, 5, np.random.default_rng(0),
                helper=helper,
            )

    def test_winners_always_within_bucket(self, helper):
        rng = np.random.default_rng(3)
        deltas = {cid: tuple(rng.normal(0, 0.1, size=2)) for cid in range(1, 8)}
        rec = EstimateRecord()
        for cid, (d1, d2) in deltas.items():
            rec.absorb(cid, "x1", 0, DeltaStat(mean=d1, var=1e-3, weight=10))
            rec.absorb(cid, "x2", 0, DeltaStat(mean=d2, var=1e-3, weight=10))
        problem = make_problem(
            LinearExpr((1.0, 0.5)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        res = select(
            *beliefs([hp(c) for c in deltas], rec, problem), problem, 500, rng, helper=helper
        )
        assert len(res.winners) == 500
        assert set(res.winners) <= set(deltas)
        assert sum(Counter(res.winners).values()) == 500

    def test_peak_memory_is_two_draw_arrays(self, helper):
        """The draws and one array of their size are the most selection holds
        at once: slack, then objective, then the draws are dropped."""
        rng = np.random.default_rng(5)
        n, k = 150, 1000
        rec = EstimateRecord()
        for cid in range(1, n + 1):
            for metric in ("x1", "x2"):
                rec.absorb(
                    cid, metric, 0,
                    DeltaStat(mean=rng.normal(0, 0.05), var=1e-4, weight=10),
                )
        problem = make_problem(
            LinearExpr((1.0, 0.5)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        bucket = [hp(c) for c in range(1, n + 1)]
        tracemalloc.start()
        try:
            select(*beliefs(bucket, rec, problem), problem, k, rng, helper=helper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        draw_bytes = k * n * 2 * 8
        assert peak < 2.25 * draw_bytes

    def test_peak_memory_is_set_by_the_block(self, helper):
        """A 1000 x 1000 x 2 selection with one constraint holds a few blocks
        of draws at most; all its draws at once would be 16 MB."""
        bucket, (record, _), problem = random_selection_case(1000, 2, 1)
        k = 1000
        tracemalloc.start()
        try:
            select(
                *beliefs(bucket, record, problem), problem, k, np.random.default_rng(3),
                helper=helper,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = optimizer._DRAW_BLOCK * 8
        assert peak < 4 * block_bytes

    def test_deterministic_given_seed(self, helper):
        rng_deltas = np.random.default_rng(8)
        rec = EstimateRecord()
        for cid in range(1, 6):
            for metric in ("x1", "x2"):
                rec.absorb(
                    cid, metric, 0,
                    DeltaStat(mean=rng_deltas.normal(0, 0.05), var=1e-4, weight=10),
                )
        problem = make_problem(LinearExpr((1.0, 1.0)))
        bucket = [hp(c) for c in range(1, 6)]
        a = select(
            *beliefs(bucket, rec, problem), problem, 50, np.random.default_rng(99), helper=helper
        )
        b = select(
            *beliefs(bucket, rec, problem), problem, 50, np.random.default_rng(99), helper=helper
        )
        assert a.winners == b.winners

    @pytest.mark.parametrize(
        "field, value",
        [("mu", np.nan), ("mu", np.inf), ("mu", -np.inf), ("var", np.nan), ("var", np.inf)],
    )
    def test_non_finite_belief_refused(self, field, value, helper):
        """A NaN variance or an infinite mean would win every repetition."""
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        beliefs = {"mu": np.full((3, 2), 0.01), "var": np.full((3, 2), 1e-4)}
        beliefs[field][1, 0] = value
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="finite"):
            select([1, 2, 3], beliefs["mu"], beliefs["var"], problem, 200, rng, helper=helper)

    @pytest.mark.parametrize("ids", [[3, 2, 1], [1, 1, 2], [[1], [2], [3]]])
    def test_ids_not_strictly_increasing_refused(self, ids, helper):
        problem = make_problem(LinearExpr((1.0, 0.0)))
        mu, var = np.zeros((3, 2)), np.full((3, 2), 1e-4)
        with pytest.raises(ValueError, match="strictly increasing"):
            select(ids, mu, var, problem, 5, np.random.default_rng(0), helper=helper)

    def test_scoring_error_on_the_helper_propagates(self, monkeypatch, helper):
        """One block, so the idle helper scores it; its error comes back
        through ``result()`` and leaves ``select``.  The join belongs to the
        helper's owner, ``Scheduler.run_round``, which tests it there."""
        bucket, (record, _), problem = random_selection_case(37, 3, 2)
        scorers = []

        def failing_thompson_winners(draws, mu, sd, problem):
            scorers.append(threading.current_thread())
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(optimizer, "_thompson_winners", failing_thompson_winners)
        with pytest.raises(RuntimeError, match="scoring failed"):
            select(
                *beliefs(bucket, record, problem), problem, 3, np.random.default_rng(0),
                helper=helper,
            )
        assert [thread.name for thread in scorers] == ["zotune-helper"]

    def test_modal_winner_tie_breaks_low_id(self):
        res = SelectionResult(
            winners=(5, 2, 5, 2), infeasible_rounds=0,
        )
        assert res.modal_winner() == 2


def random_problem(rng, n_metrics, n_constraints, infeasible=False):
    """Random linear objective and ``at-least`` guardrails over ``n_metrics``;
    with ``infeasible`` no guardrail can hold."""
    return TuningProblem(
        metrics=tuple(f"x{j + 1}" for j in range(n_metrics)),
        objective=LinearExpr(tuple(rng.normal(0, 1, size=n_metrics))),
        constraints=tuple(
            ConstraintSpec(
                g=LinearExpr(tuple(rng.normal(0, 1, size=n_metrics))),
                threshold=1e6 if infeasible else float(rng.normal(0, 0.02)),
                direction=AT_LEAST,
            )
            for _ in range(n_constraints)
        ),
        base=HyperParam(id=0, theta=(0.0, 0.0), bounds=BOUNDS),
    )


def random_selection_case(n, n_metrics, n_constraints, infeasible=False, seed=0):
    """Bucket, the package's and the spec's records, and problem, with noisy
    beliefs over ``n_metrics``."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n_metrics, n_constraints, infeasible)
    ids = sorted(int(i) for i in rng.choice(5 * n, size=n, replace=False) + 1)
    records = (EstimateRecord(), spec.Record())
    for cid in ids:
        for metric in problem.metrics:
            stat = DeltaStat(mean=rng.normal(0, 0.05), var=rng.uniform(0, 1e-3), weight=10)
            for record in records:
                record.absorb(cid, metric, 0, stat)
    bucket = [hp(cid) for cid in ids] + [hp(5 * n + 1)]  # one unmeasured
    return bucket, records, problem


@pytest.mark.bitwise
class TestBlockedSelectionReference:
    """Drawing in blocks of repetitions, each scored on a helper thread or
    claimed by the caller, changes no bit: with an idle helper, with a
    helper held busy so that the caller scores every block, and with an
    idle helper under a 10 us switch interval, which hands the GIL back and
    forth between the draws and the scoring many times per call."""

    CASES = {
        "one-candidate": dict(n=1, n_metrics=1, n_constraints=0),
        "three-metrics": dict(n=37, n_metrics=3, n_constraints=2),
        "unconstrained": dict(n=120, n_metrics=3, n_constraints=0),
        "all-infeasible": dict(n=20, n_metrics=3, n_constraints=1, infeasible=True),
        "wide": dict(n=250, n_metrics=1, n_constraints=1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("k", [3, 1001])
    @pytest.mark.parametrize("block", [None, 4096, 7777])
    def test_matches_single_array(self, monkeypatch, helper, case, k, block):
        self.check(monkeypatch, case, k, block, helper)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("k", [3, 1001])
    @pytest.mark.parametrize("block", [None, 4096, 7777])
    def test_matches_single_array_when_the_caller_scores(
        self, monkeypatch, busy_helper, case, k, block
    ):
        scorers = _record_scorers(monkeypatch)
        self.check(monkeypatch, case, k, block, busy_helper)
        assert set(scorers) == {threading.main_thread()}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("k", [3, 1001])
    @pytest.mark.parametrize("block", [None, 4096, 7777])
    def test_matches_single_array_under_frequent_switches(
        self, monkeypatch, helper, case, k, block
    ):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self.check(monkeypatch, case, k, block, helper)
        finally:
            sys.setswitchinterval(interval)

    def check(self, monkeypatch, case, k, block, helper):
        if block is not None:
            monkeypatch.setattr(optimizer, "_DRAW_BLOCK", block)
        bucket, (record, ref_record), problem = random_selection_case(**self.CASES[case])
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        ids, mu, var = beliefs(bucket, record, problem)
        res = select(ids, mu, var, problem, k, rng, helper=helper)
        ref_ids, ref_mu, ref_var = spec.beliefs(
            [hp.id for hp in bucket], ref_record, problem.metrics
        )
        ref = spec.select(ref_ids, ref_mu, ref_var, problem, k, ref_rng)
        assert (res.winners, res.infeasible_rounds) == ref
        assert ids.tolist() == ref_ids == [hp.id for hp in bucket[:-1]]
        assert np.array_equal(mu, ref_mu) and np.array_equal(var, ref_var)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if case == "all-infeasible":
            assert res.infeasible_rounds == k


class TestThompsonWinners:
    """One block of draws scored row by row: objective x1, guardrail x2 >= 0."""

    PROBLEM = make_problem(
        LinearExpr((1.0, 0.0)),
        (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
    )

    def test_rows_without_a_feasible_draw_fall_back_alone(self):
        """Row 0 has two feasible columns, row 1 none (column 1 has the
        largest worst slack), row 2 one, below an infeasible column's
        objective."""
        z = np.array([
            [[0.1, 0.2], [0.9, -0.1], [0.5, 0.0]],
            [[0.9, -0.3], [0.1, -0.1], [0.5, -0.2]],
            [[0.2, 0.1], [0.9, -0.1], [0.5, -0.2]],
        ])
        mu, sd = np.tile([0.25, 0.0], (3, 1)), np.tile([2.0, 1.0], (3, 1))
        draws = z.copy()
        winners, infeasible, feasible = optimizer._thompson_winners(
            draws, mu, sd, self.PROBLEM
        )
        assert winners.tolist() == [2, 1, 0]
        assert (infeasible, feasible) == (1, 3)
        assert np.array_equal(draws, z * sd + mu)
        f, slack = spec.evaluate(self.PROBLEM, draws)
        assert [spec.winner(f[r], slack[:, r]) for r in range(3)] == [
            (2, True), (1, False), (0, True),
        ]

    def test_nan_slack_is_infeasible(self):
        """A NaN guardrail lift makes both the slack and the objective NaN;
        taken as feasible, its NaN objective would win the row."""
        draws = np.array([[[0.1, 0.2], [0.9, np.nan]]])
        winners, infeasible, feasible = optimizer._thompson_winners(
            draws, np.zeros((2, 2)), np.ones((2, 2)), self.PROBLEM
        )
        assert winners.tolist() == [0]
        assert (infeasible, feasible) == (0, 1)


def _record_scorers(monkeypatch):
    """Record the thread that scores each block of draws."""
    threads = []
    thompson_winners = optimizer._thompson_winners

    def spy(draws, mu, sd, problem):
        threads.append(threading.current_thread())
        return thompson_winners(draws, mu, sd, problem)

    monkeypatch.setattr(optimizer, "_thompson_winners", spy)
    return threads


def fit_linear_surrogate(rng, grid=12):
    """Nearly exact surrogate: dense zero-noise grid on a linear landscape."""
    axis = np.linspace(0.0, 1.0, grid)
    pts = np.array([(a, b) for a in axis for b in axis])
    truth = lambda p: (0.1 * p[0] + 0.05 * p[1], 0.2 - 0.1 * p[0])
    bucket = [HyperParam(id=i + 1, theta=tuple(p), bounds=BOUNDS) for i, p in enumerate(pts)]
    mu = np.array([truth(p) for p in pts])
    return GpSurrogate.fit(bucket, mu, np.zeros_like(mu)), truth


@pytest.mark.bitwise
class TestProposeReference:
    """``propose`` against ``spec.propose`` on the same fitted beliefs: the
    winner's theta, the generator's end state, and a brute count of the
    feasible samples, replayed from the same seed."""

    CASES = {
        "unconstrained": dict(n_metrics=2, n_constraints=0),
        "all-infeasible": dict(n_metrics=2, n_constraints=1, infeasible=True),
        "one-metric": dict(n_metrics=1, n_constraints=1),
        "three-metrics": dict(n_metrics=3, n_constraints=2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_spec(self, case, helper):
        rng = np.random.default_rng(41)
        problem = random_problem(rng, **self.CASES[case])
        n, n_samples, m = 40, 300, len(problem.metrics)
        bucket = [hp(i + 1, tuple(rng.uniform(size=2))) for i in range(n)]
        mu, var = rng.normal(0, 0.05, size=(n, m)), rng.uniform(0, 1e-3, size=(n, m))
        surrogate = GpSurrogate.fit(bucket, mu, var)
        ref_surrogate = spec.Surrogate(bucket, mu, var)

        run_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        res = propose(surrogate, problem, n_samples, run_rng, 77, helper=helper)
        ref, (ref_mu, ref_var) = spec.propose(ref_surrogate, problem, n_samples, ref_rng, 77)
        assert res.proposed == ref
        assert run_rng.bit_generator.state == ref_rng.bit_generator.state
        assert res.sampled_count == n_samples

        replay = np.random.default_rng(5)
        replay.uniform(size=(n_samples, 2))
        draws = ref_mu + np.sqrt(ref_var) * replay.standard_normal((n_samples, m))
        _, slack = spec.evaluate(problem, draws)
        brute = sum(all(slack[:, i] >= 0.0) for i in range(n_samples))
        assert res.feasible_count == brute
        expected = {"unconstrained": n_samples, "all-infeasible": 0}
        assert brute == expected[case] if case in expected else 0 < brute < n_samples


class TestPropose:
    def test_single_sample_returned_regardless_of_feasibility(self, helper):
        rng = np.random.default_rng(1)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=99.0, direction=AT_LEAST),),
        )
        res = propose(surrogate, problem, 1, np.random.default_rng(4), new_id=500, helper=helper)
        assert isinstance(res, ProposalResult)
        assert res.proposed.id == 500
        assert res.sampled_count == 1
        assert res.feasible_count == 0

    def test_top_fraction_on_linear_objective(self, helper):
        """The pick lands in the top 0.1% of its own sample set."""
        rng = np.random.default_rng(12)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 0.0)))
        n = 10_000
        seed = 31
        res = propose(surrogate, problem, n, np.random.default_rng(seed), new_id=900, helper=helper)
        # replay the same uniform samples to rank the pick
        replay = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
        mu = surrogate.predict_batch(replay, helper=helper).mu
        fvals = mu[:, 0]  # objective = first metric's lift
        picked_mu = surrogate.predict_batch(np.array([res.proposed.theta]), helper=helper).mu
        rank = int(np.sum(fvals > picked_mu[0, 0]))
        assert rank <= n // 1000

    def test_fixed_seed_reproducible(self, helper):
        rng = np.random.default_rng(21)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 1.0)))
        a = propose(surrogate, problem, 64, np.random.default_rng(7), new_id=900, helper=helper)
        b = propose(surrogate, problem, 64, np.random.default_rng(7), new_id=900, helper=helper)
        assert a.proposed.theta == b.proposed.theta

    def test_proposed_always_in_bounds(self, helper):
        rng = np.random.default_rng(17)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 1.0)))
        for seed in range(10):
            res = propose(
                surrogate, problem, 32, np.random.default_rng(seed), new_id=900, helper=helper
            )
            for x, (lo, hi) in zip(res.proposed.theta, BOUNDS):
                assert lo <= x <= hi

    def test_samples_the_surrogates_box(self, helper):
        box = ((-2.0, 4.0), (10.0, 10.5))
        pts = np.random.default_rng(3).uniform([-2.0, 10.0], [4.0, 10.5], size=(12, 2))
        bucket = [HyperParam(id=i + 1, theta=tuple(p), bounds=box) for i, p in enumerate(pts)]
        mu = np.random.default_rng(4).normal(0.0, 0.05, size=(12, 2))
        surrogate = GpSurrogate.fit(bucket, mu, np.zeros_like(mu))
        problem = make_problem(LinearExpr((1.0, 1.0)))
        for seed in range(5):
            res = propose(
                surrogate, problem, 32, np.random.default_rng(seed), new_id=900, helper=helper
            )
            assert res.proposed.bounds == box
            replay = np.random.default_rng(seed).uniform([-2.0, 10.0], [4.0, 10.5], size=(32, 2))
            assert res.proposed.theta in {tuple(row) for row in replay}

    def test_unfitted_surrogate_rejected(self, helper):
        problem = make_problem(LinearExpr((1.0, 1.0)))
        with pytest.raises(RejectedSurrogateError):
            propose(None, problem, 8, np.random.default_rng(0), new_id=1, helper=helper)

    def test_feasible_count_unconstrained(self, helper):
        rng = np.random.default_rng(23)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 1.0)))
        res = propose(surrogate, problem, 40, np.random.default_rng(2), new_id=900, helper=helper)
        assert res.feasible_count == 40

    @pytest.mark.parametrize("n_constraints", [0, 1, 2])
    def test_solved_count_is_the_rows_solved(self, monkeypatch, helper, n_constraints):
        """One ``variance`` call per proposal, over ``solved_count`` rows:
        at least the winner's, and here far fewer than all 600."""
        solved = []
        variance = Prediction.variance

        def spy(self, rows, **kwargs):
            solved.append(len(rows))
            return variance(self, rows, **kwargs)

        monkeypatch.setattr(Prediction, "variance", spy)
        rng = np.random.default_rng(43)
        problem = random_problem(rng, 2, n_constraints)
        bucket = [hp(i + 1, tuple(rng.uniform(size=2))) for i in range(60)]
        surrogate = GpSurrogate.fit(
            bucket, rng.normal(0, 0.05, size=(60, 2)), rng.uniform(0, 1e-3, size=(60, 2))
        )
        for seed in range(5):
            res = propose(surrogate, problem, 600, np.random.default_rng(seed), 900, helper=helper)
            assert solved == [res.solved_count]
            assert 1 <= res.solved_count < res.sampled_count == 600
            solved.clear()


@st.composite
def proposal_cases(draw):
    """A fitted surrogate's inputs and a problem: 1-3 metrics, 0-2 guardrails
    of either direction, feasible somewhere, nowhere or everywhere, with
    zero-variance beliefs, duplicated points whose large targets force the
    jitter up, and an all-zero objective that ties every sample."""
    n_metrics, n = draw(st.integers(1, 3)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.05, 1e4]))
    thetas = rng.uniform(size=(n, 2))
    thetas[: draw(st.integers(0, min(n, 40)))] = thetas[0]
    mu = scale * rng.normal(0.0, 1.0, size=(n, n_metrics))
    var = np.zeros_like(mu) if draw(st.booleans()) else rng.uniform(0, 1e-3 * scale**2, mu.shape)
    reach = draw(st.sampled_from(["somewhere", "somewhere", "nowhere", "everywhere"]))

    def weights():
        return tuple(draw(st.sampled_from([0.0, 1.0, -1.0, float(rng.normal())]))
                     for _ in range(n_metrics))

    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        direction = draw(st.sampled_from([AT_LEAST, AT_MOST]))
        threshold = {"somewhere": 0.3 * scale * rng.normal(), "nowhere": 1e12,
                     "everywhere": -1e12}[reach]
        if direction == AT_MOST:
            threshold = -threshold
        constraints.append(ConstraintSpec(g=LinearExpr(weights()), threshold=threshold,
                                          direction=direction))
    objective = (0.0,) * n_metrics if draw(st.integers(0, 3)) == 0 else weights()
    problem = TuningProblem(
        metrics=tuple(f"x{j + 1}" for j in range(n_metrics)),
        objective=LinearExpr(objective),
        constraints=tuple(constraints),
        base=HyperParam(id=0, theta=(0.0, 0.0), bounds=BOUNDS),
    )
    bucket = [hp(i + 1, tuple(t)) for i, t in enumerate(thetas)]
    return bucket, mu, var, problem, draw(st.integers(1, 700)), draw(st.integers(0, 2**32 - 1))


def straddling_case():
    """200 noisy beliefs and a guardrail at the middle of its metric: many
    samples' worst slack may take either sign, so their variances decide
    the feasible count."""
    rng = np.random.default_rng(0)
    bucket = [hp(i + 1, tuple(t)) for i, t in enumerate(rng.uniform(size=(200, 2)))]
    problem = make_problem(
        LinearExpr((1.0, 0.0)), (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0),)
    )
    return bucket, rng.normal(0, 0.05, (200, 2)), rng.uniform(0, 1e-4, (200, 2)), problem, 600, 0


@pytest.mark.bitwise
class TestPrunedProposal:
    @given(case=proposal_cases())
    @example(case=straddling_case())
    @settings(max_examples=100, deadline=None)
    def test_equals_scoring_every_exact_variance(self, case):
        """``propose`` solves only some samples' variances; its winner column,
        feasible count and generator end state are those of scoring all N
        samples with their exact variances, and each exact variance lies at
        or below its bound."""
        bucket, mu, var, problem, n_samples, seed = case
        surrogate = GpSurrogate.fit(bucket, mu, var)
        score = optimizer._thompson_winners
        winners = []

        def spy(*args):
            winners.append(score(*args))
            return winners[-1]

        with Helper() as helper, mock.patch.object(optimizer, "_thompson_winners", spy):
            rng = np.random.default_rng(seed)
            res = propose(surrogate, problem, n_samples, rng, 900, helper=helper)
        ((column,), _, feasible_count), = winners

        replay = np.random.default_rng(seed)
        thetas = replay.uniform(size=(n_samples, 2))
        with Helper() as helper:
            prediction = surrogate.predict_batch(thetas, helper=helper)
            exact = prediction.variance(np.arange(n_samples), helper=helper)
        draws = replay.standard_normal((1, n_samples, len(problem.metrics)))
        (ref_column,), _, ref_feasible = score(draws, prediction.mu, np.sqrt(exact), problem)
        assert np.all(exact <= prediction.bound)
        assert (column, feasible_count) == (ref_column, ref_feasible)
        assert res.feasible_count == ref_feasible
        assert res.proposed.theta == tuple(thetas[ref_column])
        assert rng.bit_generator.state == replay.bit_generator.state
        assert 1 <= res.solved_count <= n_samples
