"""End-to-end acceptance gate.

Each test checks one advertised guarantee of the package at its stated
tolerance and always writes one ``[acceptance] ... PASS/FAIL`` line to the
live terminal (bypassing pytest capture), so a full run reads as a
one-line verdict per guarantee.  Campaign-backed checks share one set of
desk-scale runs (10 seeds, 30 rounds) through a module fixture.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import spec
from zotune.deltastats import (
    DeltaStat,
    EstimateRecord,
    Reading,
    TaylorMode,
    hourly_delta_stat,
)
from zotune.gp import BASE_JITTER, GpSurrogate
from zotune.harness import (
    ExperimentConfig,
    SingleRun,
    rounds_to_threshold,
    run_experiment,
)
from zotune.optimizer import beliefs, select
from zotune.problem import ConstraintSpec, HyperParam, LinearExpr, TuningProblem

BOUNDS = ((0.0, 1.0), (0.0, 1.0))

REFERENCE_MEAN = 0.0608
REFERENCE_VAR = 8.1616e-5


@pytest.fixture
def verdict(capfd):
    """One always-visible PASS/FAIL line per guarantee, bypassing capture."""

    def _verdict(name: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(
                f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                flush=True,
            )

    return _verdict


def _reading(test_mean, control_mean, var, n):
    """One row of metric ``x1``: both groups share the variance and size."""
    return Reading(1, "x1", 0, test_mean, var, n, control_mean, var, n)


@pytest.fixture(scope="module")
def campaigns():
    """Desk-scale campaign reports for every variant plus a doubled delay."""
    out = {}
    t0 = time.perf_counter()
    out["full"] = run_experiment(ExperimentConfig(variant="full"))
    out["full_seconds"] = time.perf_counter() - t0
    for variant in ("raw-metric", "synchronous", "no-proposal"):
        out[variant] = run_experiment(ExperimentConfig(variant=variant))
    out["full_tau6"] = run_experiment(
        ExperimentConfig(variant="full", fixed_delay=6)
    )
    return out


# SHA-256 of each campaign report of the ``campaigns`` fixture, as
# ``json.dumps(report.to_dict(), sort_keys=True)``.  Recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1 before the synchronous variant's idle
# hours advanced the scheduler's clock; reports are keyed by wall hours, so
# none of them moved.
FROZEN_CAMPAIGN_DIGESTS = {
    "full": "ea74862ca46bc1a5b56194076ebb5912bb6bf2de1c40a7f38a82d3651c6322a6",
    "raw-metric": "9ed479e7c2fe875c488327fa4786f4f3ea5f5591d338a19dab3b502d9dd8748d",
    "synchronous": "891aedc8682bb759b9e5593f2dba62e163c9031cff8987bf7e5cad3682672524",
    "no-proposal": "967a02e134e08130155e855eeb9e4f97851843704689522944a4f0f3bfbf109a",
    "full_tau6": "9f7f0c84befa119d082fd1d7761ec7ce52d89e9b1d1d71b4cd046d00636be284",
}


def test_campaign_reports_are_frozen(campaigns):
    """Every gate campaign's report is bitwise the recorded one.  Not marked
    ``bitwise``: the campaigns take about 20 s, and ``-m bitwise`` is the
    quick check."""
    for name, digest in FROZEN_CAMPAIGN_DIGESTS.items():
        blob = json.dumps(campaigns[name].to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, name


def test_criterion_1_hourly_estimator_matches_simulation(verdict):
    """Estimator mean/variance vs a million simulated hours of readings."""
    t0 = time.perf_counter()
    stat = hourly_delta_stat(_reading(102.0, 100.0, 400.0, 1000), TaylorMode.DELTA_METHOD)
    rng = np.random.default_rng(12345)
    n_hours = 1_000_000
    test_means = rng.normal(102.0, math.sqrt(400.0 / 1000.0), n_hours)
    ctrl_means = rng.normal(100.0, math.sqrt(400.0 / 1000.0), n_hours)
    lifts = test_means / ctrl_means - 1.0
    mean_rel = abs(float(np.mean(lifts)) - stat.mean) / abs(stat.mean)
    var_rel = abs(float(np.var(lifts, ddof=1)) - stat.var) / stat.var
    elapsed = time.perf_counter() - t0
    ok = mean_rel <= 0.05 and var_rel <= 0.10 and elapsed < 60.0
    verdict(
        "C1 hourly-estimator-vs-simulation", ok,
        f"mean rel {mean_rel:.2%} (tol 5%), var rel {var_rel:.2%} (tol 10%), "
        f"{elapsed:.1f}s (limit 60s)",
    )
    assert mean_rel <= 0.05
    assert var_rel <= 0.10
    assert elapsed < 60.0


def test_criterion_2_reference_values_exact(verdict):
    """Crossed-mode estimator reproduces the frozen reference numbers."""
    stat = hourly_delta_stat(_reading(102.0, 100.0, 400.0, 1000), TaylorMode.CROSSED)
    mean_rel = abs(stat.mean - REFERENCE_MEAN) / REFERENCE_MEAN
    var_rel = abs(stat.var - REFERENCE_VAR) / REFERENCE_VAR
    ok = mean_rel <= 1e-12 and var_rel <= 1e-12
    verdict(
        "C2 frozen-reference-values", ok,
        f"mean rel {mean_rel:.2e}, var rel {var_rel:.2e} (tol 1e-12)",
    )
    assert mean_rel <= 1e-12
    assert var_rel <= 1e-12


def test_criterion_3_selection_matches_exhaustive_search(verdict, helper):
    """Zero-variance Thompson selection equals brute force, 100/100 times."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    agree = 0
    n_instances = 100
    for _ in range(n_instances):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(0, 4))
        ids = sorted(int(i) for i in rng.choice(900, size=n, replace=False) + 1)
        deltas = {cid: tuple(rng.normal(0, 0.05, size=2)) for cid in ids}
        problem = TuningProblem(
            metrics=("x1", "x2"),
            objective=LinearExpr(tuple(rng.normal(0, 1, size=2))),
            constraints=tuple(
                ConstraintSpec(LinearExpr(tuple(rng.normal(0, 1, size=2))), rng.normal(0, 0.02))
                for _ in range(m)
            ),
            base=HyperParam(id=0, theta=(0.0, 0.0), bounds=BOUNDS),
        )
        rec = EstimateRecord()
        for cid, (d1, d2) in deltas.items():
            rec.absorb(cid, "x1", 0, DeltaStat(mean=d1, var=0.0, weight=100))
            rec.absorb(cid, "x2", 0, DeltaStat(mean=d2, var=0.0, weight=100))
        bucket = [HyperParam(id=cid, theta=(0.5, 0.5), bounds=BOUNDS) for cid in ids]
        res = select(
            *beliefs(bucket, rec, problem), problem, 5, np.random.default_rng(1), helper=helper
        )
        if res.winners == (spec.exhaustive_winner(deltas, problem),) * 5:
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = agree == n_instances and elapsed < 10.0
    verdict(
        "C3 selection-vs-brute-force", ok,
        f"{agree}/{n_instances} instances agree, {elapsed:.1f}s (limit 10s)",
    )
    assert agree == n_instances
    assert elapsed < 10.0


def test_criterion_4_surrogate_identities(verdict, helper):
    """Noiseless interpolation, variance bounds, and far-field reversion."""
    # Interpolation through noiseless observations on a separated grid.
    pts = [(a, b) for a in (0.1, 0.5, 0.9) for b in (0.1, 0.5, 0.9)]
    bucket = [HyperParam(id=i + 1, theta=p, bounds=BOUNDS) for i, p in enumerate(pts)]
    targets = [0.02 * (i - 4) for i in range(len(pts))]
    mu = np.array(targets)[:, None]
    gp = GpSurrogate.fit(bucket, mu, np.zeros_like(mu))
    mu = gp.predict_batch(np.array(pts), helper=helper).mu
    interp_err = float(np.max(np.abs(mu[:, 0] - np.array(targets))))

    # Posterior variance within [0, signal variance + eps] at 1000 queries.
    queries = np.random.default_rng(3).uniform(0.0, 1.0, size=(1000, 2))
    qvar = gp.predict_batch(queries, helper=helper).variance(np.arange(1000), helper=helper)
    eps = 10.0 * BASE_JITTER
    var_low = float(np.min(qvar))
    var_excess = float(np.max(qvar) - gp.signal_var(0))

    # Far from all data the posterior reverts to the prior.
    big = ((0.0, 1000.0), (0.0, 1000.0))
    far_bucket = [
        HyperParam(id=1, theta=(1.0, 1.0), bounds=big),
        HyperParam(id=2, theta=(2.0, 2.0), bounds=big),
    ]
    far_gp = GpSurrogate.fit(far_bucket, np.array([[0.04], [0.06]]), np.zeros((2, 1)))
    far = far_gp.predict_batch(np.array([(900.0, 900.0)]), helper=helper)
    out_mu, out_var = far.mu, far.variance([0], helper=helper)
    far_mu = abs(float(out_mu[0, 0]))
    far_var_gap = abs(float(out_var[0, 0]) - far_gp.signal_var(0))

    ok = (
        interp_err <= 1e-6
        and var_low >= 0.0
        and var_excess <= eps
        and far_mu <= 1e-6
        and far_var_gap <= 1e-6
    )
    verdict(
        "C4 surrogate-identities", ok,
        f"interp err {interp_err:.1e} (tol 1e-6), var in [{var_low:.1e}, "
        f"s2+{var_excess:.1e}], far mu {far_mu:.1e}, far var gap {far_var_gap:.1e}",
    )
    assert interp_err <= 1e-6
    assert var_low >= 0.0
    assert var_excess <= eps
    assert far_mu <= 1e-6
    assert far_var_gap <= 1e-6


def test_criterion_5_full_campaign_learns_safely(campaigns, verdict):
    """Full variant: positive final gain (2-se), low violation, bounded time."""
    gm, gs = campaigns["full"].final_gain_summary()
    vm, _ = campaigns["full"].final_violation_summary()
    seconds = campaigns["full_seconds"]
    ok = gm - 2.0 * gs > 0.0 and vm < 0.01 and seconds < 900.0
    verdict(
        "C5 full-campaign-learns-safely", ok,
        f"gain {gm:+.5f} - 2se {2 * gs:.5f} > 0, violation {vm:.5f} < 0.01, "
        f"{seconds:.0f}s (limit 900s)",
    )
    assert gm - 2.0 * gs > 0.0
    assert vm < 0.01
    assert seconds < 900.0


def test_criterion_6a_raw_metric_gains_nothing(campaigns, verdict):
    """Raw-metric normalization ends statistically indistinguishable from 0."""
    rm, rs = campaigns["raw-metric"].final_gain_summary()
    ok = abs(rm) <= 2.0 * rs
    verdict(
        "C6a raw-metric-null-result", ok,
        f"|{rm:+.5f}| <= 2se {2 * rs:.5f}",
    )
    assert abs(rm) <= 2.0 * rs


def test_criterion_6b_synchronous_is_slower(campaigns, verdict):
    """Synchronous rounds to 80% of the full final gain: >= 1.3x the full's."""
    gm, _ = campaigns["full"].final_gain_summary()
    target = 0.8 * gm
    rt_full = rounds_to_threshold(campaigns["full"], target)
    rt_sync = rounds_to_threshold(campaigns["synchronous"], target)
    ratio = rt_sync / rt_full if rt_full > 0 else math.inf
    ok = ratio >= 1.3
    verdict(
        "C6b synchronous-needs-more-rounds", ok,
        f"{rt_sync:.0f}/{rt_full:.0f} = {ratio:.2f}x (need >= 1.3x)",
    )
    assert ratio >= 1.3


def test_criterion_6b_synchronous_reaches_threshold(campaigns):
    """C6b's ratio is inf when the synchronous variant never reaches the
    threshold, and inf passes; a synchronous run that loses its winners
    must fail somewhere, so its rounds-to-threshold must be finite."""
    gm, _ = campaigns["full"].final_gain_summary()
    assert math.isfinite(rounds_to_threshold(campaigns["synchronous"], 0.8 * gm))


def test_criterion_6c_proposals_beat_frozen_bucket(campaigns, verdict):
    """Full beats no-proposal on final gain in at least 8 of 10 paired seeds."""
    full_finals = campaigns["full"].final_gains()
    frozen_finals = campaigns["no-proposal"].final_gains()
    wins = sum(1 for a, b in zip(full_finals, frozen_finals) if a > b)
    ok = wins >= 8
    verdict(
        "C6c proposals-beat-frozen-bucket", ok,
        f"{wins}/10 paired wins (need >= 8)",
    )
    assert wins >= 8


def test_criterion_7_robust_to_doubled_delay(campaigns, verdict):
    """Doubling the feedback delay moves the final gain by < 20% relative."""
    g3, _ = campaigns["full"].final_gain_summary()
    g6, _ = campaigns["full_tau6"].final_gain_summary()
    rel = abs(g6 - g3) / abs(g3) if g3 else math.inf
    ok = rel < 0.20
    verdict(
        "C7 delay-robustness", ok,
        f"gain {g3:+.5f} -> {g6:+.5f}, rel change {rel:.1%} (tol 20%)",
    )
    assert rel < 0.20


def test_criterion_8_deterministic_and_restorable(tmp_path, verdict):
    """Same config+seed gives byte-identical files; restore replays exactly."""
    cfg = ExperimentConfig(
        seeds=(3, 7), rounds=8, select_count=200, proposal_samples=100,
        bucket_size=20, users=50_000,
    )
    report_a = run_experiment(cfg)
    report_b = run_experiment(cfg)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    report_a.save(str(path_a))
    report_b.save(str(path_b))
    bytes_equal = path_a.read_bytes() == path_b.read_bytes()

    desk = ExperimentConfig()  # full-size loop, one seed
    straight = SingleRun(desk.seeds[0], desk)
    straight.run_to(desk.rounds)
    broken = SingleRun(desk.seeds[0], desk)
    broken.run_to(12)
    broken.save_checkpoint(str(tmp_path / "ckpt"))
    resumed = SingleRun.resume(str(tmp_path / "ckpt"))
    resumed.run_to(desk.rounds)
    restore_equal = resumed.trajectory() == straight.trajectory()

    ok = bytes_equal and restore_equal
    verdict(
        "C8 determinism-and-restore", ok,
        f"reports byte-identical: {bytes_equal}, "
        f"restore replays trajectory: {restore_equal}",
    )
    assert bytes_equal
    assert restore_equal
