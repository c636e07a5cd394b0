"""Tests for candidate beliefs and the per-metric GP surrogate."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from zotune.gp import (
    BASE_JITTER,
    MAX_JITTER,
    SIGNAL_VAR_FLOOR,
    CandidateBelief,
    FitFailureError,
    GpSurrogate,
    RejectedInputError,
    sample_delta,
)
from zotune.problem import HyperParam

BOUNDS = ((0.0, 1.0), (0.0, 1.0))


def hp(i, theta, bounds=BOUNDS):
    return HyperParam(id=i, theta=theta, bounds=bounds)


def belief(i, mu, sigma2=None):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if sigma2 is None:
        sigma2 = np.zeros_like(mu)
    return CandidateBelief(candidate_id=i, mu=mu, sigma2=sigma2)


class TestCandidateBelief:
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            CandidateBelief(candidate_id=1, mu=[0.0], sigma2=[-1e-9])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CandidateBelief(candidate_id=1, mu=[0.0, 1.0], sigma2=[0.0])


class TestSampleDelta:
    def test_zero_variance_returns_mu_exactly(self):
        b = belief(1, [0.03, -0.01], [0.0, 0.0])
        draw = sample_delta(b, np.random.default_rng(0))
        np.testing.assert_array_equal(draw, b.mu)

    def test_standard_normal_moments(self):
        b = belief(1, [0.0], [1.0])
        rng = np.random.default_rng(123)
        draws = np.array([sample_delta(b, rng)[0] for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert 0.97 < draws.var() < 1.03

    def test_fixed_seed_reproducible(self):
        b = belief(1, [0.1, 0.2], [0.5, 0.25])
        a = sample_delta(b, np.random.default_rng(42))
        c = sample_delta(b, np.random.default_rng(42))
        np.testing.assert_array_equal(a, c)

    def test_independent_metrics(self):
        """Per-metric draws use exactly one normal each, in metric order."""
        b = belief(1, [1.0, 2.0], [4.0, 9.0])
        rng = np.random.default_rng(7)
        expect = np.array([1.0, 2.0]) + np.array([2.0, 3.0]) * np.random.default_rng(
            7
        ).standard_normal(2)
        np.testing.assert_allclose(sample_delta(b, rng), expect)


class TestFitAndPredict:
    def test_single_noiseless_point_interpolates(self):
        bucket = [hp(1, (0.3, 0.7))]
        beliefs = [belief(1, [0.05], [0.0])]
        gp = GpSurrogate.fit(bucket, beliefs)
        out = gp.predict((0.3, 0.7))
        assert out.mu[0] == pytest.approx(0.05, abs=1e-6)
        assert out.sigma2[0] <= BASE_JITTER * 1.01

    def test_interpolation_on_well_separated_grid(self):
        pts = [(a, b) for a in (0.1, 0.5, 0.9) for b in (0.1, 0.5, 0.9)]
        bucket = [hp(i + 1, p) for i, p in enumerate(pts)]
        targets = [0.02 * (i - 4) for i in range(len(pts))]
        beliefs = [belief(i + 1, [t], [0.0]) for i, t in enumerate(targets)]
        gp = GpSurrogate.fit(bucket, beliefs)
        mu, var = gp.predict_batch(np.array(pts))
        np.testing.assert_allclose(mu[:, 0], targets, atol=1e-6)
        assert np.all(var >= 0.0)

    def test_far_field_reverts_to_prior(self):
        big = ((0.0, 1000.0), (0.0, 1000.0))
        bucket = [hp(1, (1.0, 1.0), big), hp(2, (2.0, 2.0), big)]
        beliefs = [belief(1, [0.04], [0.0]), belief(2, [0.06], [0.0])]
        gp = GpSurrogate.fit(bucket, beliefs)
        s2 = gp.signal_var(0)
        out = gp.predict((900.0, 900.0))
        assert abs(out.mu[0]) < 1e-6
        assert abs(out.sigma2[0] - s2) < 1e-6

    def test_symmetric_targets_cancel_at_midpoint(self):
        bucket = [hp(1, (0.2, 0.5)), hp(2, (0.8, 0.5))]
        beliefs = [belief(1, [0.03], [0.0]), belief(2, [-0.03], [0.0])]
        gp = GpSurrogate.fit(bucket, beliefs)
        out = gp.predict((0.5, 0.5))
        assert abs(out.mu[0]) < 1e-9

    def test_linear_ground_truth_within_hull(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, size=(20, 2))
        truth = lambda p: 0.1 + 0.05 * p[0] + 0.03 * p[1]
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        beliefs = [belief(i + 1, [truth(p)], [0.0]) for i, p in enumerate(pts)]
        gp = GpSurrogate.fit(bucket, beliefs)
        centroid = pts.mean(axis=0)
        queries = [centroid] + [0.5 * centroid + 0.5 * p for p in pts[:5]]
        for q in queries:
            out = gp.predict(tuple(q))
            assert out.mu[0] == pytest.approx(truth(q), rel=0.02)

    def test_variance_bounds_at_random_queries(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, size=(15, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        beliefs = [
            belief(i + 1, [rng.normal(0, 0.05)], [rng.uniform(0, 1e-4)])
            for i in range(len(pts))
        ]
        gp = GpSurrogate.fit(bucket, beliefs)
        queries = rng.uniform(0.0, 1.0, size=(1000, 2))
        _, var = gp.predict_batch(queries)
        assert np.all(var >= 0.0)
        assert np.all(var <= gp.signal_var(0) + 1e-4 + 1e-12)

    def test_submodularity_of_noiseless_observations(self):
        """Extra data never increases predictive variance (fixed kernel)."""
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, size=(10, 2))
        kw = dict(lengthscales=np.array([0.3, 0.3]), signal_var=0.01)
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        beliefs = [belief(i + 1, [rng.normal(0, 0.05)], [0.0]) for i in range(10)]
        small = GpSurrogate.fit(bucket[:9], beliefs[:9], **kw)
        full = GpSurrogate.fit(bucket, beliefs, **kw)
        queries = rng.uniform(0.0, 1.0, size=(100, 2))
        _, var_small = small.predict_batch(queries)
        _, var_full = full.predict_batch(queries)
        assert np.all(var_full <= var_small + 1e-10)

    def test_per_metric_independence(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 1.0, size=(8, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        y1 = rng.normal(0, 0.05, size=8)
        y2 = rng.normal(0, 0.05, size=8)
        mk = lambda second: [
            belief(i + 1, [y1[i], second[i]], [1e-5, 1e-5]) for i in range(8)
        ]
        gp_a = GpSurrogate.fit(bucket, mk(y2))
        gp_b = GpSurrogate.fit(bucket, mk(y2[::-1].copy()))
        queries = rng.uniform(0.0, 1.0, size=(50, 2))
        mu_a, var_a = gp_a.predict_batch(queries)
        mu_b, var_b = gp_b.predict_batch(queries)
        np.testing.assert_array_equal(mu_a[:, 0], mu_b[:, 0])
        np.testing.assert_array_equal(var_a[:, 0], var_b[:, 0])

    def test_fit_predict_deterministic(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0.0, 1.0, size=(12, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        beliefs = [
            belief(i + 1, [rng.normal(0, 0.05), rng.normal(0, 0.02)], [1e-5, 1e-5])
            for i in range(12)
        ]
        queries = rng.uniform(0.0, 1.0, size=(20, 2))
        a = GpSurrogate.fit(bucket, beliefs).predict_batch(queries)
        b = GpSurrogate.fit(bucket, beliefs).predict_batch(queries)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_contradictory_duplicates_absorbed(self):
        bucket = [hp(1, (0.5, 0.5)), hp(2, (0.5, 0.5))]
        beliefs = [belief(1, [0.1], [1e-4]), belief(2, [-0.1], [1e-4])]
        gp = GpSurrogate.fit(bucket, beliefs)
        out = gp.predict((0.5, 0.5))
        assert np.isfinite(out.mu[0])
        assert abs(out.mu[0]) < 0.1  # shrinks toward the prior between the two

    def test_out_of_bounds_query_rejected(self):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], [belief(1, [0.05], [0.0])])
        with pytest.raises(RejectedInputError):
            gp.predict((1.5, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], [belief(1, [0.05], [0.0])])
        with pytest.raises(RejectedInputError):
            gp.predict((bad, 0.5))
        with pytest.raises(RejectedInputError):
            gp.predict_batch(np.array([[0.5, 0.5], [0.5, bad]]))

    def test_wrong_dimension_query_rejected(self):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], [belief(1, [0.05], [0.0])])
        with pytest.raises(RejectedInputError):
            gp.predict_batch(np.zeros((3, 5)))

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            GpSurrogate.fit([], [])

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            GpSurrogate.fit([hp(1, (0.5, 0.5))], [])

    def test_mixed_bounds_rejected(self):
        other = ((0.0, 2.0), (0.0, 2.0))
        with pytest.raises(ValueError):
            GpSurrogate.fit(
                [hp(1, (0.5, 0.5)), hp(2, (0.5, 0.5), other)],
                [belief(1, [0.0], [0.0]), belief(2, [0.0], [0.0])],
            )

    def test_predict_returns_belief_without_id(self):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], [belief(1, [0.05], [0.0])])
        out = gp.predict((0.4, 0.4))
        assert isinstance(out, CandidateBelief)
        assert out.candidate_id is None

    def test_jitter_escalation_fits_hard_duplicates(self):
        """Many exact duplicates with zero noise still factorize."""
        bucket = [hp(i + 1, (0.5, 0.5)) for i in range(30)]
        beliefs = [belief(i + 1, [0.05], [0.0]) for i in range(30)]
        gp = GpSurrogate.fit(bucket, beliefs)
        out = gp.predict((0.5, 0.5))
        assert out.mu[0] == pytest.approx(0.05, rel=1e-3)

    def test_fit_failure_raised_beyond_max_jitter(self):
        """A kernel poisoned by non-finite targets cannot be factorized."""
        bucket = [hp(1, (0.2, 0.2)), hp(2, (0.8, 0.8))]
        bad = CandidateBelief(candidate_id=1, mu=[np.nan], sigma2=[0.0])
        with pytest.raises(FitFailureError):
            GpSurrogate.fit(bucket, [bad, belief(2, [0.05], [0.0])])

    def test_overflowing_targets_raise_fit_failure(self):
        """Finite targets whose square overflows give no signal variance."""
        bucket = [hp(1, (0.2, 0.2)), hp(2, (0.8, 0.8))]
        beliefs = [belief(1, [1e200], [0.0]), belief(2, [-1e200], [0.0])]
        with pytest.raises(FitFailureError, match="signal variance"):
            GpSurrogate.fit(bucket, beliefs)


def _reference_fit_predict(thetas, bounds, mus, noises, queries):
    """The surrogate as first written: per-metric 3-D broadcast kernels, a
    dense ``np.diag`` noise matrix and the ``triu_indices`` median."""
    lo = np.array([b[0] for b in bounds])
    span = np.array([b[1] - b[0] for b in bounds])
    span[span == 0.0] = 1.0
    x = (thetas - lo) / span
    n, d = x.shape
    ls = np.ones(d)
    if n >= 2:
        iu = np.triu_indices(n, k=1)
        for k in range(d):
            dists = np.abs(x[:, k][:, None] - x[:, k][None, :])[iu]
            m = float(np.median(dists))
            if m <= 0.0:
                m = float(np.mean(dists))
            if m <= 0.0:
                m = 1.0
            ls[k] = m

    def kernel(x1, x2, s2):
        sq = ((x1[:, None, :] - x2[None, :, :]) / ls) ** 2
        return s2 * np.exp(-0.5 * sq.sum(axis=-1))

    xq = (queries - lo) / span
    s2_all = np.maximum(np.mean(mus**2, axis=0), SIGNAL_VAR_FLOOR)
    mu = np.empty((len(queries), mus.shape[1]))
    var = np.empty_like(mu)
    jitters = []
    for k in range(mus.shape[1]):
        s2 = float(s2_all[k])
        kmat = kernel(x, x, s2)
        jit = BASE_JITTER
        while True:
            try:
                chol, _ = cho_factor(kmat + np.diag(noises[:, k] + jit), lower=True)
                break
            except np.linalg.LinAlgError:
                jit *= 10.0
                assert jit <= MAX_JITTER * (1 + 1e-12)
        chol = np.tril(chol)
        alpha = cho_solve((chol, True), mus[:, k])
        kq = kernel(xq, x, s2)
        mu[:, k] = kq @ alpha
        w = solve_triangular(chol, kq.T, lower=True)
        var[:, k] = np.maximum(s2 - np.sum(w * w, axis=0), 0.0)
        jitters.append(jit)
    return mu, var, s2_all, ls, jitters


def _assert_matches_reference(thetas, bounds, mus, noises, queries):
    bucket = [hp(i + 1, tuple(t), bounds) for i, t in enumerate(thetas)]
    beliefs = [belief(i + 1, mus[i], noises[i]) for i in range(len(thetas))]
    gp = GpSurrogate.fit(bucket, beliefs)
    mu, var = gp.predict_batch(queries)
    ref_mu, ref_var, ref_s2, ref_ls, ref_jit = _reference_fit_predict(
        thetas, bounds, mus, noises, queries
    )
    assert np.array_equal(mu, ref_mu)
    assert np.array_equal(var, ref_var)
    for k in range(mus.shape[1]):
        assert gp.signal_var(k) == ref_s2[k]
        assert np.array_equal(gp.lengthscales(k), ref_ls)
        assert gp.jitter(k) == ref_jit[k]
    return gp


class TestBitwiseReference:
    """Shared unit kernel, in-place diagonal and streamed median change no bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 50, 300])
    def test_matches_reference(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        bounds = tuple((-1.0 + k, 2.0 + 3.0 * k) for k in range(d))
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        thetas = rng.uniform(lo, hi, size=(n, d))
        mus = rng.normal(0.0, 0.05, size=(n, 3))
        noises = rng.uniform(0.0, 1e-4, size=(n, 3))
        noises[::4] = 0.0
        queries = rng.uniform(lo, hi, size=(200, d))
        _assert_matches_reference(thetas, bounds, mus, noises, queries)

    def test_duplicates_escalate_jitter_identically(self):
        """20 exact duplicates, noiseless; metric 0's targets are large enough
        (signal variance ~1e10) that the base jitter cannot factorize it."""
        rng = np.random.default_rng(7)
        thetas = np.full((30, 2), 0.5)
        thetas[20:] = rng.uniform(0.0, 1.0, size=(10, 2))
        mus = np.column_stack(
            [1e5 * (1.0 + 0.01 * rng.standard_normal(30)), np.full(30, 0.05)]
        )
        noises = np.zeros((30, 2))
        queries = rng.uniform(0.0, 1.0, size=(50, 2))
        gp = _assert_matches_reference(thetas, BOUNDS, mus, noises, queries)
        assert gp.jitter(0) > BASE_JITTER
        assert gp.jitter(1) == BASE_JITTER
