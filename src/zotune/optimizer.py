"""Thompson-sampling winner selection and surrogate-guided proposal.

Selection runs K independent repetitions.  Each repetition draws one lift
vector per measured candidate from its aggregated Gaussian belief, keeps
the candidates whose draws satisfy every guardrail, and awards the
repetition to the feasible candidate with the highest sampled objective.
When no draw is feasible the repetition falls back to the candidate whose
draw has the largest worst-constraint slack, and is counted separately.
Winners form a multiset: a candidate picked in several repetitions later
earns proportionally more traffic.

``beliefs`` reads the measured candidates' aggregates into ``(n, M)``
arrays once per decision; ``select`` draws and scores them, so a caller can
hand the same read-only beliefs to the GP fit while the draws run.

The draws are one ``(K, n, M)`` standard-normal stream in C order:
repetition, then candidate in id order, then metric.  Selection draws and
scores it in blocks of whole repetitions, about 1 MiB each, so memory stays
flat in K while the draws, winners and generator state stay those of a
single ``(K, n, M)`` draw.

Proposal explores the continuous box instead of the bucket: it scores N
uniformly sampled configurations through a fitted surrogate with one
Thompson draw each and returns the feasible argmax (same fallback) as a
brand-new candidate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .deltastats import EstimateRecord, NoDataError
from .gp import GpSurrogate
from .problem import HyperParam, TuningProblem

_DRAW_BLOCK = 1 << 17  # doubles in one block of Thompson draws (1 MiB)


class RejectedSurrogateError(ValueError):
    """Proposal was attempted without a fitted surrogate."""


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of one K-repetition selection pass.

    ``winners`` holds one candidate id per repetition (a multiset of size
    K).  ``candidate_ids`` are the candidates the draws came from, in id
    order, and row ``i`` of the ``(n, M)`` arrays ``mu`` and ``var`` (the
    read-only arrays of ``beliefs``) is candidate ``candidate_ids[i]``'s
    aggregated belief.
    ``infeasible_rounds`` counts the repetitions that were decided by the
    fallback rule.
    """

    winners: tuple[int, ...]
    candidate_ids: tuple[int, ...]
    mu: np.ndarray
    var: np.ndarray
    infeasible_rounds: int

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


def beliefs(
    bucket: Iterable[HyperParam],
    record: EstimateRecord,
    problem: TuningProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregated beliefs of the bucket's measured candidates, in id order.

    Returns read-only ``(ids, mu, var)``: ``ids`` of shape ``(n,)`` and
    ``mu``, ``var`` of shape ``(n, M)``, row ``i`` belonging to candidate
    ``ids[i]``.  Candidates without aggregated data for every metric are
    skipped; if none has data, ``NoDataError`` is raised.
    """
    bucket_ids = sorted({hp.id for hp in bucket})
    mu = np.empty((len(bucket_ids), len(problem.metrics)))
    var = np.empty_like(mu)
    eligible = []
    for cid in bucket_ids:
        n = len(eligible)
        for j, metric in enumerate(problem.metrics):
            agg = record.aggregate(cid, metric)
            if agg is None:
                break
            mu[n, j] = agg.mean
            var[n, j] = agg.var
        else:
            eligible.append(cid)
    if not eligible:
        raise NoDataError("no candidate in the bucket has absorbed data")
    n = len(eligible)
    out = (np.array(eligible), mu[:n], var[:n])
    for a in out:
        a.flags.writeable = False
    return out


def select(
    candidate_ids: Sequence[int] | np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
    problem: TuningProblem,
    k_repetitions: int,
    rng: np.random.Generator,
) -> SelectionResult:
    """Run K Thompson repetitions over candidates' beliefs, as ``beliefs`` returns them.

    Row ``i`` of the ``(n, M)`` arrays ``mu`` and ``var`` belongs to
    ``candidate_ids[i]``, and the ids must be increasing, so that ties go to
    the lowest id.  The result holds ``mu`` and ``var`` themselves.
    """
    if k_repetitions < 1:
        raise ValueError("selection needs at least one repetition")
    ids = np.asarray(candidate_ids)
    if mu.ndim != 2 or mu.shape != var.shape or mu.shape[0] != ids.shape[0] or mu.size == 0:
        raise ValueError("mu and var must be nonempty (n, M) arrays aligned with the ids")
    if np.any(var < 0):
        raise ValueError("belief variances must be nonnegative")

    # The generator fills draws in C order, and each repetition's objective
    # and slacks are one product per repetition, so drawing and scoring the
    # repetitions block by block gives the draws, winners and generator
    # state of one (K, n, M) array in a fixed, small amount of memory.
    sd = np.sqrt(var)
    block = np.empty((min(k_repetitions, max(1, _DRAW_BLOCK // mu.size)),) + mu.shape)
    winner_cols = np.empty(k_repetitions, dtype=np.intp)
    infeasible = 0
    for k0 in range(0, k_repetitions, block.shape[0]):
        k1 = min(k0 + block.shape[0], k_repetitions)
        draws = rng.standard_normal(out=block[: k1 - k0])   # (k1 - k0, n, M)
        draws *= sd
        draws += mu
        slack = problem.constraint_slack_batch(draws)        # (m, k1 - k0, n)
        fvals = problem.objective_batch(draws)               # (k1 - k0, n)
        winner_cols[k0:k1], block_infeasible = _winner_indices(fvals, slack)
        infeasible += block_infeasible
    return SelectionResult(
        winners=tuple(ids[winner_cols].tolist()),
        candidate_ids=tuple(ids.tolist()),
        mu=mu,
        var=var,
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
