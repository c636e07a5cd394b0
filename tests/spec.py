"""The hourly decision written the plain way: an executable specification.

What ``zotune`` decides each round, restated from its module docstrings on
one thread, with no tiles, blocks, helper threads or ctypes.  Tests run it
beside the package on the same inputs and compare with ``==`` (McKeeman,
"Differential Testing for Software", 1998).  From ``zotune`` it imports only
data types, ``aggregate`` and ``hourly_delta_stat`` (``test_spec.py`` checks
this), so it never calls the code it checks.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.blas import dtrsm

from zotune.deltastats import DegenerateBaseError, DeltaStat, DuplicateRoundError
from zotune.deltastats import aggregate, hourly_delta_stat
from zotune.gp import BASE_JITTER, MAX_JITTER, SIGNAL_VAR_FLOOR, FitFailureError
from zotune.problem import AT_LEAST, HyperParam
from zotune.scheduler import RoundPlan


class Record:
    """Hourly stats per (candidate, metric) key, in absorb order.  A row is
    refused when its round is there already, or when the aggregate with it
    would not be finite."""

    def __init__(self) -> None:
        self.hours: dict[tuple[int, str], dict[int, DeltaStat]] = {}

    def absorb(self, cid: int, metric: str, round_no: int, stat: DeltaStat) -> None:
        hours = self.hours.get((cid, metric), {})
        if round_no in hours:
            raise DuplicateRoundError(f"candidate {cid} {metric!r} round {round_no}")
        try:
            aggregate((s, s.weight) for s in [*hours.values(), stat])
        except (ArithmeticError, ValueError):
            raise DegenerateBaseError(f"candidate {cid} {metric!r} round {round_no}") from None
        self.hours[(cid, metric)] = {**hours, round_no: stat}

    def aggregate(self, cid: int, metric: str) -> DeltaStat | None:
        hours = self.hours.get((cid, metric))
        return None if hours is None else aggregate((s, s.weight) for s in hours.values())


def beliefs(bucket_ids, record: Record, metrics) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Ids of the candidates with data on every metric, in id order, and
    their aggregates' ``(n, M)`` means and variances."""
    aggs = {cid: [record.aggregate(cid, m) for m in metrics] for cid in sorted(bucket_ids)}
    ids = [cid for cid, row in aggs.items() if all(a is not None for a in row)]
    mu = np.array([[a.mean for a in aggs[cid]] for cid in ids])
    return ids, mu, np.array([[a.var for a in aggs[cid]] for cid in ids])


def _slack(c, value):
    return value - c.threshold if c.direction == AT_LEAST else c.threshold - value


def evaluate(problem, lifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective ``(...)`` and guardrail slacks ``(m, ...)`` of lift vectors
    on the last axis; a guardrail holds when its slack is at least zero."""
    f = lifts @ np.asarray(problem.objective.weights)
    slack = [_slack(c, lifts @ np.asarray(c.g.weights)) for c in problem.constraints]
    return f, np.array(slack).reshape((len(slack),) + f.shape)


def winner(f: np.ndarray, slack: np.ndarray) -> tuple[int, bool]:
    """One repetition: the column with the highest objective among those
    meeting every guardrail, else the one with the largest worst slack (ties
    to the lowest column), and whether any column met every guardrail."""
    feasible = np.flatnonzero(np.all(slack >= 0.0, axis=0))
    if feasible.size:
        return int(feasible[np.argmax(f[feasible])]), True
    return int(np.argmax(slack.min(axis=0))), False


def exhaustive_winner(lifts: dict[int, tuple[float, ...]], problem) -> int:
    """The id that wins one repetition over the fixed lift vectors ``lifts``,
    each objective and guardrail summed term by term."""
    ids = sorted(lifts)

    def value(weights, cid):
        return sum(w * d for w, d in zip(weights, lifts[cid]))

    f = np.array([value(problem.objective.weights, cid) for cid in ids])
    slack = [[_slack(c, value(c.g.weights, cid)) for cid in ids] for c in problem.constraints]
    return ids[winner(f, np.array(slack).reshape(len(slack), len(ids)))[0]]


def select(ids, mu, var, problem, k_repetitions, rng) -> tuple[tuple[int, ...], int]:
    """Winners of K Thompson repetitions and how many had no feasible draw."""
    draws = mu + np.sqrt(var) * rng.standard_normal((k_repetitions,) + mu.shape)
    f, slack = evaluate(problem, draws)
    picks = [winner(f[r], slack[:, r]) for r in range(k_repetitions)]
    return tuple(ids[col] for col, _ in picks), sum(not ok for _, ok in picks)


def median_lengthscales(x: np.ndarray) -> np.ndarray:
    """Per dimension, the median of the condensed distances; a zero median
    falls back to their mean, and a zero mean to one."""
    n, d = x.shape
    scales = np.ones(d)
    for k in range(d if n >= 2 else 0):
        dists = np.abs(x[:, k, None] - x[None, :, k])[np.triu_indices(n, 1)]
        m = np.median(dists)
        if m <= 0.0:
            m = np.mean(dists)
        scales[k] = m if m > 0.0 else 1.0
    return scales


def kernel(x1: np.ndarray, x2: np.ndarray, ls: np.ndarray, s2: float) -> np.ndarray:
    sq = ((x1[:, None, :] - x2[None, :, :]) / ls) ** 2
    return s2 * np.exp(-0.5 * sq.sum(axis=-1))


class Surrogate:
    """Per-metric GP regressors through candidates' beliefs, on inputs
    normalized to the unit box, sharing the median length scales."""

    def __init__(self, bucket: list[HyperParam], mu: np.ndarray, var: np.ndarray) -> None:
        self.bounds = bucket[0].bounds
        self.lo, hi = np.array(self.bounds).T
        self.span = np.where(hi == self.lo, 1.0, hi - self.lo)
        self.x = (np.array([hp.theta for hp in bucket]) - self.lo) / self.span
        self.ls = median_lengthscales(self.x)
        with np.errstate(over="ignore"):
            self.signal_var = np.maximum(np.mean(mu**2, axis=0), SIGNAL_VAR_FLOOR)
        if not np.all(np.isfinite(self.signal_var)):
            raise FitFailureError("signal variance must be finite")
        self.chol, self.alpha, self.jitter = [], [], []
        for k, s2 in enumerate(self.signal_var):
            kmat, jit = kernel(self.x, self.x, self.ls, s2), BASE_JITTER
            while True:
                try:
                    chol = cholesky(kmat + np.diag(var[:, k] + jit), lower=True)
                    break
                except np.linalg.LinAlgError:
                    jit *= 10.0
                    if jit > MAX_JITTER * (1 + 1e-12):
                        raise FitFailureError(f"metric {k} fails at jitter {MAX_JITTER}") from None
            self.chol.append(chol)
            self.alpha.append(cho_solve((chol, True), mu[:, k]))
            self.jitter.append(jit)

    def predict(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior ``(q, M)`` means and latent variances, clamped at zero.
        The solve is BLAS's ``dtrsm`` for any column count: ``solve_triangular``
        takes ``dtrsv`` for one column, whose bits differ."""
        xq = (thetas - self.lo) / self.span
        mu = np.empty((xq.shape[0], len(self.alpha)))
        var = np.empty_like(mu)
        for k, s2 in enumerate(self.signal_var):
            kq = kernel(xq, self.x, self.ls, s2)
            mu[:, k] = kq @ self.alpha[k]
            w = dtrsm(1.0, self.chol[k], kq.T, lower=1)
            var[:, k] = np.maximum(s2 - np.sum(w * w, axis=0), 0.0)
        return mu, var


def propose(surrogate, problem, n_samples, rng, new_id):
    """The winner of one Thompson draw over N uniform samples of the box, as
    candidate ``new_id``, and the samples' predicted ``(mu, var)``."""
    lo, hi = np.array(surrogate.bounds).T
    thetas = rng.uniform(lo, hi, size=(n_samples, lo.shape[0]))
    mu, var = surrogate.predict(thetas)
    draws = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
    idx, _ = winner(*evaluate(problem, draws))
    return HyperParam(new_id, tuple(thetas[idx]), surrogate.bounds), (mu, var)


class Loop:
    """The round loop from a bucket drawn uniformly from the base's box,
    born with hour 0's plan, which exposes that bucket uniformly.
    ``round`` counts wall hours, decided or idle.  ``last_selection`` is
    ``(winners, infeasible count)`` and ``last_proposal`` ``(candidate,
    predicted (mu, var))``, or None where the hour stopped or idled."""

    def __init__(self, problem, config, rng) -> None:
        self.problem, self.config, self.rng = problem, config, rng
        assert config.init.mode == "random", "the spec draws a random initial bucket only"
        bounds = problem.base.bounds
        thetas = rng.uniform(*np.array(bounds).T, size=(config.init.size, len(bounds)))
        self.bucket = {i: HyperParam(i, tuple(t), bounds) for i, t in enumerate(thetas, 1)}
        self.next_id, self.record = len(self.bucket) + 1, Record()
        self.last_selection = self.last_proposal = None
        self._plan(0, Counter(self.bucket.keys()))

    def _plan(self, round_no: int, units: Counter) -> RoundPlan:
        """The control's slice, and the rest in proportion to winner units."""
        cf, total = self.config.control_fraction, sum(units.values())
        shares = tuple((cid, (1.0 - cf) * units[cid] / total) for cid in sorted(units))
        self.round, self.last_plan = round_no, RoundPlan(round_no, cf, shares)
        return self.last_plan

    def ingest(self, batches) -> None:
        """Absorb each reading of a known candidate and metric, from this hour
        or before: its lift, or with ``raw`` the test group's mean and the
        variance of that mean.  Drop the rest and the rows refused."""
        for reading in (reading for batch in batches for reading in batch.readings):
            cid, metric, round_no = reading.candidate_id, reading.metric, reading.round
            if cid in self.bucket and metric in self.problem.metrics and round_no <= self.round:
                with suppress(DegenerateBaseError, DuplicateRoundError):
                    self.record.absorb(cid, metric, round_no, self._hour(reading))

    def _hour(self, reading) -> DeltaStat:
        if self.config.normalization == "raw":
            return DeltaStat(reading.test_mean, reading.test_var / reading.test_n, reading.test_n)
        return hourly_delta_stat(reading, self.config.taylor_mode)

    def idle(self, inbound=()) -> None:
        """Absorb, and let the hour pass: no draw, and the last plan stands."""
        self.ingest(inbound)
        self.round += 1
        self.last_selection = self.last_proposal = None

    def run_round(self, inbound=()) -> RoundPlan:
        """Absorb, select, draw ``u``, and only when ``u`` is below
        ``proposal_prob`` fit and propose: a fit's error is raised only in a
        round that proposes."""
        self.ingest(inbound)
        ids, mu, var = beliefs(self.bucket, self.record, self.problem.metrics)
        self.last_selection = self.last_proposal = None
        if not ids:
            return self._plan(self.round + 1, Counter(self.bucket.keys()))
        cfg = self.config
        self.last_selection = select(ids, mu, var, self.problem, cfg.select_count, self.rng)
        units = Counter(self.last_selection[0])
        if self.rng.random() < cfg.proposal_prob:
            surrogate = Surrogate([self.bucket[cid] for cid in ids], mu, var)
            self.last_proposal = propose(
                surrogate, self.problem, cfg.proposal_samples, self.rng, self.next_id
            )
            self.bucket[self.next_id] = self.last_proposal[0]
            units[self.next_id] += 1
            self.next_id += 1
        return self._plan(self.round + 1, units)
