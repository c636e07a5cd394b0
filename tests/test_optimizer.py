"""Tests for Thompson selection and surrogate-guided proposal.

The brute-force oracle reimplements one selection repetition as plain
loops: evaluate every candidate's (deterministic) lift vector, drop the
infeasible ones, take the argmax with lowest-id ties, fall back to the
best worst-constraint slack when nothing is feasible.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from zotune import optimizer
from zotune.deltastats import DeltaStat, EstimateRecord, NoDataError
from zotune.gp import GpSurrogate
from zotune.optimizer import (
    ProposalResult,
    RejectedSurrogateError,
    SelectionResult,
    _winner_indices,
    beliefs,
    propose,
    select,
)
from zotune.problem import (
    AT_LEAST,
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


def brute_force_winner(deltas, weights_f, constraints):
    """Oracle: one repetition over deterministic lift vectors.

    ``constraints`` is a list of (weights, threshold) in at-least form.
    Returns the winning candidate id.
    """
    best_id, best_f = None, None
    fb_id, fb_slack = None, None
    for cid in sorted(deltas):
        vec = deltas[cid]
        f = sum(w * d for w, d in zip(weights_f, vec))
        slacks = [
            sum(w * d for w, d in zip(ws, vec)) - thr for ws, thr in constraints
        ]
        min_slack = min(slacks) if slacks else 0.0
        if all(s >= 0.0 for s in slacks):
            if best_f is None or f > best_f:
                best_id, best_f = cid, f
        if fb_slack is None or min_slack > fb_slack:
            fb_id, fb_slack = cid, min_slack
    return best_id if best_id is not None else fb_id


class TestSelect:
    def test_three_candidate_worked_example(self):
        deltas = {1: (0.05, 0.01), 2: (0.08, -0.02), 3: (0.03, 0.02)}
        rec = record_with(deltas)
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        bucket = [hp(i) for i in deltas]
        res = select(*beliefs(bucket, rec, problem), problem, 5, np.random.default_rng(0))
        assert res.winners == (1,) * 5
        assert res.infeasible_rounds == 0

    def test_single_candidate_no_constraints(self):
        rec = record_with({7: (0.01, 0.02)})
        problem = make_problem(LinearExpr((1.0, 1.0)))
        res = select(*beliefs([hp(7)], rec, problem), problem, 9, np.random.default_rng(0))
        assert res.winners == (7,) * 9

    def test_all_infeasible_falls_back_to_best_slack(self):
        deltas = {1: (0.10, -0.01), 2: (0.99, -0.02)}
        rec = record_with(deltas)
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=0.0, direction=AT_LEAST),),
        )
        res = select(
            *beliefs([hp(1), hp(2)], rec, problem), problem, 6, np.random.default_rng(0),
        )
        assert res.winners == (1,) * 6
        assert res.infeasible_rounds == 6

    def test_exact_tie_goes_to_lowest_id(self):
        deltas = {4: (0.05, 0.01), 9: (0.05, 0.01)}
        rec = record_with(deltas)
        problem = make_problem(LinearExpr((1.0, 0.0)))
        res = select(
            *beliefs([hp(9), hp(4)], rec, problem), problem, 8, np.random.default_rng(0),
        )
        assert res.winners == (4,) * 8

    def test_brute_force_equivalence_randomized(self):
        """Zero-variance selection matches the loop oracle on 50 instances."""
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 51))
            m = int(rng.integers(0, 4))
            ids = sorted(
                int(i) for i in rng.choice(1000, size=n, replace=False) + 1
            )
            deltas = {
                cid: tuple(rng.normal(0, 0.05, size=2)) for cid in ids
            }
            weights_f = tuple(rng.normal(0, 1, size=2))
            cons = [
                (tuple(rng.normal(0, 1, size=2)), float(rng.normal(0, 0.02)))
                for _ in range(m)
            ]
            rec = record_with(deltas)
            problem = make_problem(
                LinearExpr(weights_f),
                tuple(
                    ConstraintSpec(g=LinearExpr(ws), threshold=thr, direction=AT_LEAST)
                    for ws, thr in cons
                ),
            )
            bucket = [hp(cid) for cid in ids]
            res = select(*beliefs(bucket, rec, problem), problem, 3, np.random.default_rng(1))
            expected = brute_force_winner(deltas, weights_f, cons)
            assert res.winners == (expected,) * 3

    def test_monotone_focus_dominant_candidate(self):
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
        res = select(*beliefs(bucket, rec, problem), problem, 200, np.random.default_rng(5))
        assert res.winners == (3,) * 200
        assert res.infeasible_rounds == 0

    def test_feasibility_soundness_zero_variance(self):
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
                np.random.default_rng(1),
            )
            if res.infeasible_rounds == 0:
                d2 = deltas[res.winners[0]][1]
                assert d2 >= cons[1]

    def test_candidates_without_data_are_skipped(self):
        rec = record_with({1: (0.01, 0.01)})
        problem = make_problem(LinearExpr((1.0, 1.0)))
        bucket = [hp(1), hp(2), hp(3)]  # 2 and 3 unmeasured
        res = select(*beliefs(bucket, rec, problem), problem, 4, np.random.default_rng(0))
        assert set(res.winners) == {1}
        assert res.candidate_ids == (1,)
        assert res.mu.shape == res.var.shape == (1, 2)

    def test_partial_metric_data_not_eligible(self):
        rec = record_with({1: (0.01, 0.01)})
        rec.absorb(2, "x1", 0, DeltaStat(mean=9.0, var=0.0, weight=10))
        problem = make_problem(LinearExpr((1.0, 1.0)))
        res = select(
            *beliefs([hp(1), hp(2)], rec, problem), problem, 3, np.random.default_rng(0),
        )
        assert set(res.winners) == {1}

    def test_no_data_raises(self):
        problem = make_problem(LinearExpr((1.0, 1.0)))
        with pytest.raises(NoDataError):
            select(
                *beliefs([hp(1)], EstimateRecord(), problem), problem, 5, np.random.default_rng(0),
            )

    def test_winners_always_within_bucket(self):
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
        res = select(*beliefs([hp(c) for c in deltas], rec, problem), problem, 500, rng)
        assert len(res.winners) == 500
        assert set(res.winners) <= set(deltas)
        assert sum(Counter(res.winners).values()) == 500

    def test_peak_memory_is_two_draw_arrays(self):
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
            select(*beliefs(bucket, rec, problem), problem, k, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        draw_bytes = k * n * 2 * 8
        assert peak < 2.25 * draw_bytes

    def test_peak_memory_is_set_by_the_block(self):
        """A 1000 x 1000 x 2 selection with one constraint holds a few blocks
        of draws at most; all its draws at once would be 16 MB."""
        bucket, record, problem = random_selection_case(1000, 2, 1)
        k = 1000
        tracemalloc.start()
        try:
            select(
                *beliefs(bucket, record, problem), problem, k, np.random.default_rng(3),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = optimizer._DRAW_BLOCK * 8
        assert peak < 4 * block_bytes

    def test_deterministic_given_seed(self):
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
        a = select(*beliefs(bucket, rec, problem), problem, 50, np.random.default_rng(99))
        b = select(*beliefs(bucket, rec, problem), problem, 50, np.random.default_rng(99))
        assert a.winners == b.winners

    def test_modal_winner_tie_breaks_low_id(self):
        res = SelectionResult(
            winners=(5, 2, 5, 2), candidate_ids=(2, 5), mu=np.zeros((2, 1)),
            var=np.zeros((2, 1)), infeasible_rounds=0,
        )
        assert res.modal_winner() == 2


def _reference_select(bucket, record, problem, k_repetitions, rng):
    """Selection as one array: a belief per candidate, then all K
    repetitions drawn and scored at once."""
    eligible = sorted(
        cid for cid in {hp.id for hp in bucket}
        if all(record.aggregate(cid, m) is not None for m in problem.metrics)
    )
    aggs = [[record.aggregate(cid, m) for m in problem.metrics] for cid in eligible]
    mu = np.array([[a.mean for a in row] for row in aggs])
    var = np.array([[a.var for a in row] for row in aggs])
    draws = rng.standard_normal((k_repetitions,) + mu.shape)
    draws *= np.sqrt(var)
    draws += mu
    slack = problem.constraint_slack_batch(draws)
    fvals = problem.objective_batch(draws)
    winner_cols, infeasible = _winner_indices(fvals, slack)
    ids = np.array(eligible)
    return tuple(int(i) for i in ids[winner_cols]), infeasible, mu, var


def random_selection_case(n, n_metrics, n_constraints, infeasible=False, seed=0):
    """Bucket, record and problem with noisy beliefs over ``n_metrics``."""
    rng = np.random.default_rng(seed)
    metrics = tuple(f"x{j + 1}" for j in range(n_metrics))
    problem = TuningProblem(
        metrics=metrics,
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
    ids = sorted(int(i) for i in rng.choice(5 * n, size=n, replace=False) + 1)
    record = EstimateRecord()
    for cid in ids:
        for metric in metrics:
            record.absorb(
                cid, metric, 0,
                DeltaStat(mean=rng.normal(0, 0.05), var=rng.uniform(0, 1e-3), weight=10),
            )
    bucket = [hp(cid) for cid in ids] + [hp(5 * n + 1)]  # one unmeasured
    return bucket, record, problem


@pytest.mark.bitwise
class TestBlockedSelectionReference:
    """Drawing and scoring in blocks of repetitions changes no bit."""

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
    def test_matches_single_array(self, monkeypatch, case, k, block):
        if block is not None:
            monkeypatch.setattr(optimizer, "_DRAW_BLOCK", block)
        bucket, record, problem = random_selection_case(**self.CASES[case])
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        res = select(*beliefs(bucket, record, problem), problem, k, rng)
        winners, infeasible, mu, var = _reference_select(bucket, record, problem, k, ref_rng)
        assert res.winners == winners
        assert res.infeasible_rounds == infeasible
        assert np.array_equal(res.mu, mu) and np.array_equal(res.var, var)
        assert res.candidate_ids == tuple(hp.id for hp in bucket[:-1])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if case == "all-infeasible":
            assert infeasible == k


def fit_linear_surrogate(rng, grid=12):
    """Nearly exact surrogate: dense zero-noise grid on a linear landscape."""
    axis = np.linspace(0.0, 1.0, grid)
    pts = np.array([(a, b) for a in axis for b in axis])
    truth = lambda p: (0.1 * p[0] + 0.05 * p[1], 0.2 - 0.1 * p[0])
    bucket = [HyperParam(id=i + 1, theta=tuple(p), bounds=BOUNDS) for i, p in enumerate(pts)]
    mu = np.array([truth(p) for p in pts])
    return GpSurrogate.fit(bucket, mu, np.zeros_like(mu)), truth


class TestPropose:
    def test_single_sample_returned_regardless_of_feasibility(self):
        rng = np.random.default_rng(1)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(
            LinearExpr((1.0, 0.0)),
            (ConstraintSpec(g=LinearExpr((0.0, 1.0)), threshold=99.0, direction=AT_LEAST),),
        )
        res = propose(surrogate, problem, 1, BOUNDS, np.random.default_rng(4), new_id=500)
        assert isinstance(res, ProposalResult)
        assert res.proposed.id == 500
        assert res.sampled_count == 1
        assert res.feasible_count == 0

    def test_top_fraction_on_linear_objective(self):
        """The pick lands in the top 0.1% of its own sample set."""
        rng = np.random.default_rng(12)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 0.0)))
        n = 10_000
        seed = 31
        res = propose(surrogate, problem, n, BOUNDS, np.random.default_rng(seed), new_id=900)
        # replay the same uniform samples to rank the pick
        replay = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))
        mu, _ = surrogate.predict_batch(replay)
        fvals = mu[:, 0]  # objective = first metric's lift
        picked_mu, _ = surrogate.predict_batch(np.array([res.proposed.theta]))
        rank = int(np.sum(fvals > picked_mu[0, 0]))
        assert rank <= n // 1000

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(21)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 1.0)))
        a = propose(surrogate, problem, 64, BOUNDS, np.random.default_rng(7), new_id=900)
        b = propose(surrogate, problem, 64, BOUNDS, np.random.default_rng(7), new_id=900)
        assert a.proposed.theta == b.proposed.theta

    def test_proposed_always_in_bounds(self):
        rng = np.random.default_rng(17)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 1.0)))
        for seed in range(10):
            res = propose(
                surrogate, problem, 32, BOUNDS, np.random.default_rng(seed), new_id=900
            )
            for x, (lo, hi) in zip(res.proposed.theta, BOUNDS):
                assert lo <= x <= hi

    def test_unfitted_surrogate_rejected(self):
        problem = make_problem(LinearExpr((1.0, 1.0)))
        with pytest.raises(RejectedSurrogateError):
            propose(None, problem, 8, BOUNDS, np.random.default_rng(0), new_id=1)

    def test_feasible_count_unconstrained(self):
        rng = np.random.default_rng(23)
        surrogate, _ = fit_linear_surrogate(rng)
        problem = make_problem(LinearExpr((1.0, 1.0)))
        res = propose(surrogate, problem, 40, BOUNDS, np.random.default_rng(2), new_id=900)
        assert res.feasible_count == 40
