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
repetition, then candidate in id order, then metric.  Selection draws it in
blocks of whole repetitions into four buffers of about 256 KiB, so memory
stays flat in K while the draws, winners and generator state stay those of
a single ``(K, n, M)`` draw.  The caller keeps the generator and only
draws; each block's scoring (scale, shift, slacks, objective, winners) goes
to the round's ``gp.Helper``, which the caller opens and passes in.  The
helper scores a block while the caller draws the next, unless the caller
claims it first because the helper is still busy (say, with the GP fit).
A buffer is drawn into again only after its last scoring has finished.

Proposal explores the surrogate's continuous box instead of the bucket: it
scores N uniformly sampled configurations through a fitted surrogate with one
Thompson draw each and returns the feasible argmax (same fallback) as a
brand-new candidate.  That draw is a ``(1, N, M)`` block, scored by the same
``_thompson_winners`` as each of selection's blocks.  The prediction draws no
random numbers, so the draw can follow it with the stream unchanged, and it
gives every sample's mean but only a bound on each variance (Russo et al.,
"A Tutorial on Thompson Sampling", 2018: only the draw's winner and the
feasible count come out).  A draw ``mu + sqrt(v) z`` is monotone in ``v``,
so over ``0 <= v <= bound`` each sample's objective and slacks lie between
their values at two corners of that box.  The exact variance is solved only
for the samples that can still change the outcome: those whose worst slack
may be either sign, and those that may still win; every other sample keeps
its bound, and the winner and feasible count are those of scoring every
sample with its exact variance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .deltastats import EstimateRecord, NoDataError
from .gp import Call, GpSurrogate, Helper
from .problem import HyperParam, TuningProblem

_DRAW_BLOCK = 1 << 17  # doubles of Thompson draws in flight (1 MiB)
_BUFFERS = 4           # draw buffers sharing them


class RejectedSurrogateError(ValueError):
    """Proposal was attempted without a fitted surrogate."""


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of one K-repetition selection pass.

    ``winners`` holds one candidate id per repetition (a multiset of size
    K).  ``infeasible_rounds`` counts the repetitions that were decided by
    the fallback rule.
    """

    winners: tuple[int, ...]
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
    solved_count: int      # samples whose exact variance was solved


def _thompson_winners(
    draws: np.ndarray, mu: np.ndarray, sd: np.ndarray, problem: TuningProblem
) -> tuple[np.ndarray, int, int]:
    """Score a ``(K, n, M)`` block of standard normals as K Thompson repetitions.

    The block is scaled by ``sd`` and shifted by ``mu``, both ``(n, M)``, in
    place.  A draw is feasible when every slack is nonnegative (a NaN slack
    is not).  Each repetition goes to the feasible column with the highest
    objective, or, with none feasible, to the column with the largest worst
    slack; columns are in id order, so ``argmax`` ties go to the lowest id.
    Returns the ``(K,)`` winner columns, the number of repetitions with no
    feasible draw, and the number of feasible draws.
    """
    draws *= sd
    draws += mu
    slack = problem.constraint_slack_batch(draws)        # (m, K, n)
    fvals = problem.objective_batch(draws)               # (K, n)
    if slack.shape[0] == 0:
        return np.argmax(fvals, axis=1), 0, fvals.size
    min_slack = slack.min(axis=0)
    feasible = min_slack >= 0.0
    np.putmask(fvals, ~feasible, -np.inf)
    winners = np.argmax(fvals, axis=1)
    none = ~feasible.any(axis=1)
    infeasible = int(np.count_nonzero(none))
    if infeasible:
        winners[none] = np.argmax(min_slack[none], axis=1)
    return winners, infeasible, int(np.count_nonzero(feasible))


def _contenders(
    z: np.ndarray, mu: np.ndarray, bound: np.ndarray, problem: TuningProblem
) -> np.ndarray:
    """Rows of the samples whose exact variance can change the proposal.

    ``z`` is the ``(1, N, M)`` standard-normal draw, and each variance lies
    in ``[0, bound]``.  Each corner is scored by the operations
    ``_thompson_winners`` applies, on arrays of the same shape, so the
    intervals hold bit for bit.  A sample is left out only when its
    feasibility is certain and it cannot win: its objective is below the
    lower end of a certainly feasible sample's, or, with none certainly
    feasible, it is certainly infeasible and its worst slack is below the
    largest lower end of any sample's.  A NaN end leaves nothing out.
    """
    ends = (z * 0.0 + mu, z * np.sqrt(bound) + mu)
    low, high = np.minimum(*ends), np.maximum(*ends)

    def span(expr, values):
        """``values`` at the corners that minimize and maximize ``expr``."""
        up = np.asarray(expr.weights) >= 0.0
        return values(np.where(up, low, high)), values(np.where(up, high, low))

    f_low, f_high = span(problem.objective, problem.objective_batch)
    worst_low = worst_high = np.full(f_low.shape, np.inf)
    for i, c in enumerate(problem.constraints):
        s_low, s_high = span(c.normalized()[0], lambda d: problem.constraint_slack_batch(d)[i])
        worst_low, worst_high = np.minimum(worst_low, s_low), np.minimum(worst_high, s_high)
    certain = worst_low >= 0.0
    possible = ~(worst_high < 0.0)
    if certain.any():
        contends = possible & ~(f_high < np.max(f_low[certain]))
    else:
        contends = ~(worst_high < np.max(worst_low))
    return np.flatnonzero(possible & ~certain | contends)


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
    *,
    helper: Helper,
) -> SelectionResult:
    """Run K Thompson repetitions over candidates' beliefs, as ``beliefs`` returns them.

    Row ``i`` of the ``(n, M)`` arrays ``mu`` and ``var`` belongs to
    ``candidate_ids[i]``, and the ids must be strictly increasing, so that
    ties go to the lowest id.  Beliefs must be finite: the fallback would
    take a NaN slack as the largest.  Each drawn block is scored on
    ``helper`` while the caller draws the next.
    """
    if k_repetitions < 1:
        raise ValueError("selection needs at least one repetition")
    ids = np.asarray(candidate_ids)
    if mu.ndim != 2 or mu.shape != var.shape or mu.shape[0] != ids.shape[0] or mu.size == 0:
        raise ValueError("mu and var must be nonempty (n, M) arrays aligned with the ids")
    if ids.ndim != 1 or np.any(np.diff(ids) <= 0):
        raise ValueError("candidate ids must be strictly increasing")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
        raise ValueError("belief means and variances must be finite")
    if np.any(var < 0):
        raise ValueError("belief variances must be nonnegative")

    # The generator fills draws in C order, and each repetition's objective
    # and slacks are one product per repetition, so drawing the repetitions
    # block by block, in order, and scoring each block on its own gives the
    # draws, winners and generator state of one (K, n, M) array.  Block i
    # is drawn into buffer i mod _BUFFERS, and a buffer is drawn into again
    # only after its last scoring has finished.
    sd = np.sqrt(var)
    reps = min(k_repetitions, max(1, _DRAW_BLOCK // _BUFFERS // mu.size))
    starts = range(0, k_repetitions, reps)
    buffers = np.empty((min(_BUFFERS, len(starts)), reps) + mu.shape)
    scored: list[Call[tuple[np.ndarray, int, int]]] = []
    for i, k0 in enumerate(starts):
        if i >= _BUFFERS:
            scored[i - _BUFFERS].result()
        draws = rng.standard_normal(out=buffers[i % _BUFFERS, : k_repetitions - k0])
        scored.append(helper.submit(_thompson_winners, draws, mu, sd, problem))
    blocks = [call.result() for call in scored]
    return SelectionResult(
        winners=tuple(ids[np.concatenate([cols for cols, _, _ in blocks])].tolist()),
        infeasible_rounds=sum(infeasible for _, infeasible, _ in blocks),
    )


def propose(
    surrogate: GpSurrogate,
    problem: TuningProblem,
    n_samples: int,
    rng: np.random.Generator,
    new_id: int,
    *,
    helper: Helper,
) -> ProposalResult:
    """Pick one new configuration from N uniform samples scored by the surrogate.

    The samples are drawn from the surrogate's box.  Each sample gets a
    predicted belief and a single Thompson draw; the feasible draw with the
    highest objective wins (fallback: largest worst-constraint slack).  The
    returned candidate carries ``new_id``, which must be unused.  Only the
    samples ``_contenders`` names get their exact variance; the prediction
    and that solve share their work with ``helper``.
    """
    if not isinstance(surrogate, GpSurrogate):
        raise RejectedSurrogateError("proposal requires a fitted surrogate")
    if n_samples < 1:
        raise ValueError("proposal needs at least one sample")
    bounds = surrogate.bounds
    lo, hi = np.array(bounds).T

    thetas = rng.uniform(lo, hi, size=(n_samples, lo.shape[0]))
    prediction = surrogate.predict_batch(thetas, helper=helper)
    mu = prediction.mu
    draws = rng.standard_normal((1,) + mu.shape)                # (1, N, M)
    rows = _contenders(draws, mu, prediction.bound, problem)
    var = prediction.bound.copy()
    var[rows] = prediction.variance(rows, helper=helper)
    winner, _, feasible_count = _thompson_winners(draws, mu, np.sqrt(var), problem)
    proposed = HyperParam(
        id=int(new_id), theta=tuple(thetas[winner[0]]), bounds=bounds
    )
    return ProposalResult(
        proposed=proposed,
        sampled_count=int(n_samples),
        feasible_count=feasible_count,
        solved_count=int(rows.shape[0]),
    )
