"""Thompson-sampling winner selection and surrogate-guided proposal.

Selection runs K independent repetitions.  Each repetition draws one lift
vector per measured candidate from its aggregated Gaussian belief, keeps
the candidates whose draws satisfy every guardrail, and awards the
repetition to the feasible candidate with the highest sampled objective.
When no draw is feasible the repetition falls back to the candidate whose
draw has the largest worst-constraint slack, and is counted separately.
Winners form a multiset: a candidate picked in several repetitions later
earns proportionally more traffic.

Proposal explores the continuous box instead of the bucket: it scores N
uniformly sampled configurations through a fitted surrogate with one
Thompson draw each and returns the feasible argmax (same fallback) as a
brand-new candidate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .deltastats import EstimateRecord, NoDataError
from .gp import CandidateBelief, GpSurrogate
from .problem import HyperParam, TuningProblem


class RejectedSurrogateError(ValueError):
    """Proposal was attempted without a fitted surrogate."""


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one K-repetition selection pass.

    ``winners`` holds one candidate id per repetition (a multiset of size
    K); ``beliefs_used`` are the aggregated beliefs the draws came from, in
    candidate-id order; ``infeasible_rounds`` counts the repetitions that
    were decided by the fallback rule.
    """

    winners: tuple[int, ...]
    beliefs_used: tuple[CandidateBelief, ...]
    infeasible_rounds: int

    def multiplicity(self) -> dict[int, int]:
        """Winner multiset as ``{candidate_id: count}``."""
        return dict(Counter(self.winners))

    def modal_winner(self) -> int:
        """Highest-multiplicity winner; ties broken by lowest id."""
        counts = Counter(self.winners)
        return min(counts, key=lambda cid: (-counts[cid], cid))


@dataclass(frozen=True)
class ProposalResult:
    """Outcome of one proposal pass over uniformly sampled configurations."""

    proposed: HyperParam
    sampled_count: int
    feasible_count: int


def _winner_indices(
    fvals: np.ndarray, slack: np.ndarray
) -> tuple[np.ndarray, int]:
    """Per-repetition winner column given objective values and slacks.

    ``fvals`` is (K, n); ``slack`` is (m, K, n) of normalized constraint
    slacks.  Rows are assumed sorted by candidate id so ``argmax`` ties
    resolve to the lowest id.
    """
    if slack.shape[0] == 0:
        feasible = np.ones(fvals.shape, dtype=bool)
        min_slack = np.zeros(fvals.shape)
    else:
        feasible = np.all(slack >= 0.0, axis=0)
        min_slack = slack.min(axis=0)
    any_feasible = feasible.any(axis=1)
    masked = np.where(feasible, fvals, -np.inf)
    win_feasible = np.argmax(masked, axis=1)
    win_fallback = np.argmax(min_slack, axis=1)
    winners = np.where(any_feasible, win_feasible, win_fallback)
    infeasible = int(fvals.shape[0] - np.count_nonzero(any_feasible))
    return winners, infeasible


def select(
    bucket: Sequence[HyperParam],
    record: EstimateRecord,
    problem: TuningProblem,
    k_repetitions: int,
    rng: np.random.Generator,
) -> SelectionResult:
    """Run K Thompson repetitions over the measured candidates in the bucket.

    Candidates without aggregated data for every metric are skipped.  If no
    candidate has data the selection cannot run and ``NoDataError`` is
    raised.
    """
    if k_repetitions < 1:
        raise ValueError("selection needs at least one repetition")
    measured = record.candidates_with_data(problem.metrics)
    by_id = {hp.id: hp for hp in bucket}
    eligible = [cid for cid in measured if cid in by_id]
    if not eligible:
        raise NoDataError("no candidate in the bucket has absorbed data")

    beliefs = []
    for cid in eligible:
        aggs = [record.aggregate(cid, m) for m in problem.metrics]
        beliefs.append(
            CandidateBelief(
                candidate_id=cid,
                mu=np.array([a.mean for a in aggs]),
                sigma2=np.array([a.var for a in aggs]),
            )
        )

    mu = np.array([b.mu for b in beliefs])          # (n, M)
    sd = np.sqrt(np.array([b.sigma2 for b in beliefs]))
    draws = rng.standard_normal((k_repetitions,) + mu.shape)  # (K, n, M)
    draws *= sd
    draws += mu

    fvals = problem.objective_batch(draws)          # (K, n)
    slack = problem.constraint_slack_batch(draws)   # (m, K, n)
    winner_cols, infeasible = _winner_indices(fvals, slack)
    ids = np.array(eligible)
    return SelectionResult(
        winners=tuple(int(i) for i in ids[winner_cols]),
        beliefs_used=tuple(beliefs),
        infeasible_rounds=infeasible,
    )


def propose(
    surrogate: GpSurrogate,
    problem: TuningProblem,
    n_samples: int,
    bounds: Sequence[tuple[float, float]],
    rng: np.random.Generator,
    new_id: int,
) -> ProposalResult:
    """Pick one new configuration from N uniform samples scored by the surrogate.

    Each sample gets a predicted belief and a single Thompson draw; the
    feasible draw with the highest objective wins (fallback: largest
    worst-constraint slack).  The returned candidate carries ``new_id``,
    which must be unused.
    """
    if not isinstance(surrogate, GpSurrogate):
        raise RejectedSurrogateError("proposal requires a fitted surrogate")
    if n_samples < 1:
        raise ValueError("proposal needs at least one sample")
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if np.any(hi < lo):
        raise ValueError("empty bounds box")

    thetas = rng.uniform(lo, hi, size=(n_samples, lo.shape[0]))
    mu, var = surrogate.predict_batch(thetas)
    draws = rng.standard_normal(mu.shape)                       # (N, M)
    draws *= np.sqrt(var)
    draws += mu

    fvals = problem.objective_batch(draws)                      # (N,)
    slack = problem.constraint_slack_batch(draws)               # (m, N)
    winner_rows, _ = _winner_indices(fvals[None, :], slack[:, None, :])
    idx = int(winner_rows[0])
    if slack.shape[0] == 0:
        feasible_count = n_samples
    else:
        feasible_count = int(np.count_nonzero(np.all(slack >= 0.0, axis=0)))
    proposed = HyperParam(
        id=int(new_id), theta=tuple(thetas[idx]), bounds=bounds
    )
    return ProposalResult(
        proposed=proposed,
        sampled_count=int(n_samples),
        feasible_count=feasible_count,
    )
