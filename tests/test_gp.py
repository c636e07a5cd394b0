"""Tests for the per-metric GP surrogate."""

import contextlib
import ctypes
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, cholesky, cython_blas, cython_lapack, solve_triangular

import spec
from zotune import gp as gp_module
from zotune.gp import BASE_JITTER, MAX_JITTER, FitFailureError, GpSurrogate, RejectedInputError
from zotune.problem import HyperParam

BOUNDS = ((0.0, 1.0), (0.0, 1.0))


def hp(i, theta, bounds=BOUNDS):
    return HyperParam(id=i, theta=theta, bounds=bounds)


def predict(gp, queries, helper):
    """Every query's mean and exact latent variance: ``variance`` of all rows."""
    prediction = gp.predict_batch(queries, helper=helper)
    return prediction.mu, prediction.variance(np.arange(len(prediction.mu)), helper=helper)


def column(values):
    """One metric's values as an ``(n, 1)`` array."""
    return np.asarray(values, dtype=float).reshape(-1, 1)


class TestFitAndPredict:
    def test_single_noiseless_point_interpolates(self, helper):
        bucket = [hp(1, (0.3, 0.7))]
        gp = GpSurrogate.fit(bucket, column([0.05]), column([0.0]))
        mu, var = predict(gp, np.array([(0.3, 0.7)]), helper)
        assert mu[0, 0] == pytest.approx(0.05, abs=1e-6)
        assert var[0, 0] <= BASE_JITTER * 1.01

    def test_interpolation_on_well_separated_grid(self, helper):
        pts = [(a, b) for a in (0.1, 0.5, 0.9) for b in (0.1, 0.5, 0.9)]
        bucket = [hp(i + 1, p) for i, p in enumerate(pts)]
        targets = [0.02 * (i - 4) for i in range(len(pts))]
        gp = GpSurrogate.fit(bucket, column(targets), column([0.0] * len(targets)))
        mu, var = predict(gp, np.array(pts), helper)
        np.testing.assert_allclose(mu[:, 0], targets, atol=1e-6)
        assert np.all(var >= 0.0)

    def test_far_field_reverts_to_prior(self, helper):
        big = ((0.0, 1000.0), (0.0, 1000.0))
        bucket = [hp(1, (1.0, 1.0), big), hp(2, (2.0, 2.0), big)]
        gp = GpSurrogate.fit(bucket, column([0.04, 0.06]), column([0.0, 0.0]))
        s2 = gp.signal_var(0)
        mu, var = predict(gp, np.array([(900.0, 900.0)]), helper)
        assert abs(mu[0, 0]) < 1e-6
        assert abs(var[0, 0] - s2) < 1e-6

    def test_symmetric_targets_cancel_at_midpoint(self, helper):
        bucket = [hp(1, (0.2, 0.5)), hp(2, (0.8, 0.5))]
        gp = GpSurrogate.fit(bucket, column([0.03, -0.03]), column([0.0, 0.0]))
        mu, _ = predict(gp, np.array([(0.5, 0.5)]), helper)
        assert abs(mu[0, 0]) < 1e-9

    def test_linear_ground_truth_within_hull(self, helper):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, size=(20, 2))
        truth = lambda p: 0.1 + 0.05 * p[0] + 0.03 * p[1]
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        mu = column([truth(p) for p in pts])
        gp = GpSurrogate.fit(bucket, mu, np.zeros_like(mu))
        centroid = pts.mean(axis=0)
        queries = [centroid] + [0.5 * centroid + 0.5 * p for p in pts[:5]]
        for q in queries:
            mu, _ = predict(gp, np.array([q]), helper)
            assert mu[0, 0] == pytest.approx(truth(q), rel=0.02)

    def test_variance_bounds_at_random_queries(self, helper):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, size=(15, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        draws = [(rng.normal(0, 0.05), rng.uniform(0, 1e-4)) for _ in range(len(pts))]
        mu, var = (column(v) for v in zip(*draws))
        gp = GpSurrogate.fit(bucket, mu, var)
        queries = rng.uniform(0.0, 1.0, size=(1000, 2))
        _, var = predict(gp, queries, helper)
        assert np.all(var >= 0.0)
        assert np.all(var <= gp.signal_var(0) + 1e-4 + 1e-12)

    def test_submodularity_of_noiseless_observations(self, monkeypatch, helper):
        """Extra data never increases predictive variance (fixed kernel).

        The length scales are pinned, and the tenth target is the root mean
        square of the first nine, so both fits share one signal variance."""
        monkeypatch.setattr(gp_module, "_median_lengthscales", lambda x: np.array([0.3, 0.3]))
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, size=(10, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        y = np.array([rng.normal(0, 0.05) for _ in range(10)])
        y[9] = np.sqrt(np.mean(y[:9] ** 2))
        mu = column(y)
        var = np.zeros_like(mu)
        small = GpSurrogate.fit(bucket[:9], mu[:9], var[:9])
        full = GpSurrogate.fit(bucket, mu, var)
        assert small.signal_var(0) == full.signal_var(0)
        queries = rng.uniform(0.0, 1.0, size=(100, 2))
        _, var_small = predict(small, queries, helper)
        _, var_full = predict(full, queries, helper)
        assert np.all(var_full <= var_small + 1e-10)

    def test_per_metric_independence(self, helper):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 1.0, size=(8, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        y1 = rng.normal(0, 0.05, size=8)
        y2 = rng.normal(0, 0.05, size=8)
        var = np.full((8, 2), 1e-5)
        gp_a = GpSurrogate.fit(bucket, np.column_stack([y1, y2]), var)
        gp_b = GpSurrogate.fit(bucket, np.column_stack([y1, y2[::-1]]), var)
        queries = rng.uniform(0.0, 1.0, size=(50, 2))
        mu_a, var_a = predict(gp_a, queries, helper)
        mu_b, var_b = predict(gp_b, queries, helper)
        np.testing.assert_array_equal(mu_a[:, 0], mu_b[:, 0])
        np.testing.assert_array_equal(var_a[:, 0], var_b[:, 0])

    def test_fit_predict_deterministic(self, helper):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0.0, 1.0, size=(12, 2))
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(pts)]
        mu = np.array([[rng.normal(0, 0.05), rng.normal(0, 0.02)] for _ in range(12)])
        var = np.full((12, 2), 1e-5)
        queries = rng.uniform(0.0, 1.0, size=(20, 2))
        a = predict(GpSurrogate.fit(bucket, mu, var), queries, helper)
        b = predict(GpSurrogate.fit(bucket, mu, var), queries, helper)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_contradictory_duplicates_absorbed(self, helper):
        bucket = [hp(1, (0.5, 0.5)), hp(2, (0.5, 0.5))]
        gp = GpSurrogate.fit(bucket, column([0.1, -0.1]), column([1e-4, 1e-4]))
        mu, _ = predict(gp, np.array([(0.5, 0.5)]), helper)
        assert np.isfinite(mu[0, 0])
        assert abs(mu[0, 0]) < 0.1  # shrinks toward the prior between the two

    def test_out_of_bounds_query_rejected(self, helper):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], column([0.05]), column([0.0]))
        with pytest.raises(RejectedInputError):
            gp.predict_batch(np.array([(1.5, 0.5)]), helper=helper)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad, helper):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], column([0.05]), column([0.0]))
        with pytest.raises(RejectedInputError):
            gp.predict_batch(np.array([(bad, 0.5)]), helper=helper)
        with pytest.raises(RejectedInputError):
            gp.predict_batch(np.array([[0.5, 0.5], [0.5, bad]]), helper=helper)

    def test_wrong_dimension_query_rejected(self, helper):
        gp = GpSurrogate.fit([hp(1, (0.5, 0.5))], column([0.05]), column([0.0]))
        with pytest.raises(RejectedInputError):
            gp.predict_batch(np.zeros((3, 5)), helper=helper)

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            GpSurrogate.fit([], np.empty((0, 1)), np.empty((0, 1)))

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            GpSurrogate.fit([hp(1, (0.5, 0.5))], np.empty((0, 1)), np.empty((0, 1)))

    @pytest.mark.parametrize(
        "mu, var",
        [
            (np.zeros((1, 2)), np.zeros((1, 1))),     # mu and var disagree
            (np.zeros(1), np.zeros(1)),               # not (n, M)
        ],
        ids=["shapes-differ", "one-dimensional"],
    )
    def test_malformed_belief_arrays_rejected(self, mu, var):
        with pytest.raises(ValueError):
            GpSurrogate.fit([hp(1, (0.5, 0.5))], mu, var)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            GpSurrogate.fit([hp(1, (0.5, 0.5))], column([0.05]), column([-1e-9]))

    def test_mixed_bounds_rejected(self):
        other = ((0.0, 2.0), (0.0, 2.0))
        with pytest.raises(ValueError):
            GpSurrogate.fit(
                [hp(1, (0.5, 0.5)), hp(2, (0.5, 0.5), other)],
                column([0.0, 0.0]),
                column([0.0, 0.0]),
            )

    def test_jitter_escalation_fits_hard_duplicates(self, helper):
        """Many exact duplicates with zero noise still factorize."""
        bucket = [hp(i + 1, (0.5, 0.5)) for i in range(30)]
        gp = GpSurrogate.fit(bucket, column([0.05] * 30), column([0.0] * 30))
        mu, _ = predict(gp, np.array([(0.5, 0.5)]), helper)
        assert mu[0, 0] == pytest.approx(0.05, rel=1e-3)

    @pytest.mark.parametrize(
        "thetas, targets, match",
        [
            (((0.2, 0.2), (0.8, 0.8)), [np.nan, 0.05], "must be finite"),
            (((0.5, 0.5), (0.5, 0.5)), [1e10, 1e10], f"even at jitter {MAX_JITTER}"),
        ],
        ids=["non-finite-target", "singular-at-max-jitter"],
    )
    def test_fit_failure_raised_beyond_max_jitter(self, thetas, targets, match):
        """Non-finite targets are refused; two noiseless duplicates with a
        signal variance of 1e20 stay singular at every jitter up to the cap,
        since 1e20 + 1e-4 rounds to 1e20."""
        bucket = [hp(i + 1, theta) for i, theta in enumerate(thetas)]
        with pytest.raises(FitFailureError, match=match):
            GpSurrogate.fit(bucket, column(targets), column([0.0, 0.0]))

    def test_overflowing_targets_raise_fit_failure(self):
        """Finite targets whose square overflows give no signal variance."""
        bucket = [hp(1, (0.2, 0.2)), hp(2, (0.8, 0.8))]
        with pytest.raises(FitFailureError, match="signal variance"):
            GpSurrogate.fit(bucket, column([1e200, -1e200]), column([0.0, 0.0]))

    def test_overflowing_diagonal_raises_fit_failure(self):
        """A finite signal variance (4.9e307) plus a finite noise (1.5e308)
        overflows the kernel diagonal: a failed fit, not a numpy warning or
        scipy's finiteness error."""
        bucket = [hp(1, (0.2, 0.2)), hp(2, (0.5, 0.5)), hp(3, (0.8, 0.8))]
        mu = column([7e153, 7e153, -7e153])
        var = column([1.5e308, 0.0, 0.0])
        with pytest.raises(FitFailureError, match="diagonal"):
            GpSurrogate.fit(bucket, mu, var)

    def test_fit_peak_is_one_matrix_per_metric(self):
        """The kernel is built in tiles straight into each metric's matrix,
        which LAPACK factorizes in place: no ``n x n`` unit kernel and no
        copy exists beside the two matrices."""
        rng = np.random.default_rng(17)
        n = 800
        bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(rng.uniform(size=(n, 2)))]
        mu = rng.normal(0.0, 0.05, size=(n, 2))
        var = rng.uniform(0.0, 1e-4, size=(n, 2))
        tracemalloc.start()
        try:
            GpSurrogate.fit(bucket, mu, var)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * n * n * 8


def _assert_matches_reference(thetas, bounds, mus, noises, queries, helper):
    bucket = [hp(i + 1, tuple(t), bounds) for i, t in enumerate(thetas)]
    gp = GpSurrogate.fit(bucket, mus, noises)
    mu, var = predict(gp, queries, helper)
    ref = spec.Surrogate(bucket, mus, noises)
    ref_mu, ref_var = ref.predict(queries)
    assert np.array_equal(mu, ref_mu)
    assert np.array_equal(var, ref_var)
    for k in range(mus.shape[1]):
        assert gp.signal_var(k) == ref.signal_var[k]
        assert np.array_equal(gp.lengthscales(k), ref.ls)
        assert gp.jitter(k) == ref.jitter[k]
    return gp


@pytest.mark.bitwise
class TestBitwiseReference:
    """Shared tiled unit kernel, triangle-only fit, in-place diagonal and
    streamed median give the spec's surrogate bit for bit; n = 777 and 1030
    span several kernel tiles with a ragged last one."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 50, 300, 777, 1030])
    def test_matches_reference(self, d, n, helper):
        rng = np.random.default_rng(100 * d + n)
        bounds = tuple((-1.0 + k, 2.0 + 3.0 * k) for k in range(d))
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        thetas = rng.uniform(lo, hi, size=(n, d))
        mus = rng.normal(0.0, 0.05, size=(n, 3))
        noises = rng.uniform(0.0, 1e-4, size=(n, 3))
        noises[::4] = 0.0
        queries = rng.uniform(lo, hi, size=(200, d))
        _assert_matches_reference(thetas, bounds, mus, noises, queries, helper)

    def test_duplicates_escalate_jitter_identically(self, helper):
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
        gp = _assert_matches_reference(thetas, BOUNDS, mus, noises, queries, helper)
        assert gp.jitter(0) > BASE_JITTER
        assert gp.jitter(1) == BASE_JITTER

    def test_multi_tile_duplicates_rebuild_the_triangle_identically(self, helper):
        """300 exact duplicates among 800 points, noiseless: each of metric
        0's failed factorizations (signal variance ~1e8) overwrites its
        multi-tile triangle, which is rebuilt up to the jitter cap."""
        rng = np.random.default_rng(7)
        thetas = np.full((800, 2), 0.5)
        thetas[300:] = rng.uniform(0.0, 1.0, size=(500, 2))
        mus = np.column_stack(
            [1e4 * (1.0 + 0.01 * rng.standard_normal(800)), np.full(800, 0.05)]
        )
        noises = np.zeros((800, 2))
        queries = rng.uniform(0.0, 1.0, size=(50, 2))
        gp = _assert_matches_reference(thetas, BOUNDS, mus, noises, queries, helper)
        assert gp.jitter(0) == pytest.approx(MAX_JITTER)
        assert gp.jitter(1) == BASE_JITTER


def _spd_with_garbage_above(n, rng):
    """A Fortran-ordered SPD matrix whose strict upper triangle holds NaN,
    which a lower factorization and its solves must never read."""
    x = rng.uniform(size=(n, 3))
    a = np.exp(-np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1) / 0.1)
    a = np.asfortranarray(a + 1e-3 * np.eye(n))
    a.T[np.tril_indices(n, -1)] = np.nan
    return a


@pytest.mark.bitwise
class TestLapackBinding:
    """The GIL-free LAPACK calls give scipy's bits, and refuse operands
    LAPACK would misread."""

    @pytest.mark.parametrize("n", [1, 2, 50, 300, 1030])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        a = _spd_with_garbage_above(n, rng)
        ref = cholesky(a.copy(order="F"), lower=True, check_finite=False)
        chol = a.copy(order="F")
        assert gp_module._potrf(chol) == 0
        assert np.array_equal(np.tril(chol), ref)
        assert np.all(np.isnan(chol[np.triu_indices(n, 1)]))

        b = rng.normal(size=n)
        alpha = b.copy().reshape(n, 1)
        gp_module._trsm(chol, alpha)
        gp_module._trsm(chol, alpha, b"T")
        assert np.array_equal(alpha[:, 0], cho_solve((ref, True), b))

        rhs = rng.normal(size=(200, n))
        w = rhs.copy().T
        gp_module._trsm(chol, w)
        assert np.array_equal(w, solve_triangular(ref, rhs.T, lower=True))

    def test_info_names_the_failing_minor(self):
        a = np.asfortranarray(np.diag([1.0, 2.0, -1.0, 4.0]))
        with pytest.raises(np.linalg.LinAlgError, match="3-th leading minor"):
            cholesky(a, lower=True)
        assert gp_module._potrf(a.copy(order="F")) == 3

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: np.ascontiguousarray(a),
            lambda a: a.astype(np.float32, order="F"),
            lambda a: np.asfortranarray(a[:, :3]),
            lambda a: a[0].copy(),
            lambda a: a.tolist(),
            lambda a: np.asfortranarray(a.astype(np.int64)),
        ],
        ids=["c-order", "float32", "not-square", "1-d", "list", "int64"],
    )
    def test_bad_factor_operand_refused(self, make):
        a = np.asfortranarray(np.eye(4) + 0.5)
        bad = make(a)
        with pytest.raises(ValueError):
            gp_module._potrf(bad)
        with pytest.raises(ValueError):
            gp_module._trsm(bad, np.ones((4, 2), order="F"))

    def test_read_only_factor_refused_only_where_written(self):
        chol = np.asfortranarray(np.eye(3))
        chol.flags.writeable = False
        with pytest.raises(ValueError):
            gp_module._potrf(chol)
        b = np.ones((3, 1))
        gp_module._trsm(chol, b, b"T")
        assert np.array_equal(b, np.ones((3, 1)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: np.ascontiguousarray(b),
            lambda b: b.astype(np.float32, order="F"),
            lambda b: np.asfortranarray(b[:3]),
            lambda b: b[:, 0].copy(),
            lambda b: np.asfortranarray(b)[:, ::2],
        ],
        ids=["c-order", "float32", "short", "1-d", "strided"],
    )
    def test_bad_right_hand_side_refused(self, make):
        chol = np.asfortranarray(np.eye(4))
        bad = make(np.ones((4, 6), order="F"))
        with pytest.raises(ValueError):
            gp_module._trsm(chol, bad)

    def test_read_only_right_hand_side_refused(self):
        chol = np.asfortranarray(np.eye(2))
        b = np.ones((2, 3), order="F")
        b.flags.writeable = False
        with pytest.raises(ValueError):
            gp_module._trsm(chol, b)


def _fresh_python(code):
    """What ``code`` prints as JSON, run by a fresh interpreter that finds zotune."""
    env = dict(os.environ, PYTHONPATH=str(Path(gp_module.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLeanImport:
    """The LAPACK and BLAS tables are loaded from their files, without
    ``scipy.linalg``'s package init, and are scipy's own modules."""

    def test_import_leaves_scipy_linalg_out(self):
        loaded = _fresh_python(
            "import json, sys, zotune, zotune.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.linalg'))))"
        )
        assert loaded == ["scipy.linalg.cython_blas", "scipy.linalg.cython_lapack"]

    def test_tables_imported_before_are_reused(self):
        same = _fresh_python(
            "import json, scipy.linalg\n"
            "from zotune import gp\n"
            "print(json.dumps([gp.cython_blas is scipy.linalg.cython_blas,\n"
            "                  gp.cython_lapack is scipy.linalg.cython_lapack]))"
        )
        assert same == [True, True]

    @pytest.mark.bitwise
    def test_tables_are_scipys(self):
        assert gp_module.cython_blas is cython_blas
        assert gp_module.cython_lapack is cython_lapack
        for bound, table, name in [
            (gp_module._dtrsm, cython_blas, "dtrsm"),
            (gp_module._dpotrf, cython_lapack, "dpotrf"),
        ]:
            capsule = table.__pyx_capi__[name]
            pointer = gp_module._capsule_pointer(capsule, gp_module._capsule_name(capsule))
            assert ctypes.cast(bound, ctypes.c_void_p).value == pointer


def _median_inputs(kind, n, d, rng):
    u = rng.uniform(0.0, 1.0, size=(n, d))
    if kind == "ties":
        return np.round(u, 1)
    if kind == "clustered":
        return 0.5 + 2e-3 * (u - 0.5)
    if kind == "skewed":
        return u**6
    if kind == "duplicates":   # over half the gaps are zero: the mean fallback
        u[: (3 * n + 3) // 4] = 0.5
    return u


def _count_row_end_calls(monkeypatch):
    calls = []
    row_ends = gp_module._gap_row_ends
    monkeypatch.setattr(
        gp_module, "_gap_row_ends", lambda s, t: calls.append(t) or row_ends(s, t)
    )
    return calls


@pytest.mark.bitwise
class TestMedianReference:
    """Selecting the median gap from sorted coordinates changes no bit."""

    @pytest.mark.parametrize(
        "kind", ["uniform", "ties", "clustered", "skewed", "duplicates"]
    )
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 101, 300, 1009])
    def test_matches_condensed_median(self, kind, n):
        for d in (1, 2, 3):
            x = _median_inputs(kind, n, d, np.random.default_rng(1000 * d + n))
            ref = spec.median_lengthscales(x)
            assert np.array_equal(gp_module._median_lengthscales(x), ref)
            if kind == "duplicates" and n >= 50:  # the mean fallback ran
                gaps = np.abs(x[:, None, :] - x[None, :, :])[np.triu_indices(n, 1)]
                assert np.all(np.median(gaps, axis=0) == 0.0)

    def test_row_bounds_match_brute_force(self):
        """Each row's first gap at or above a threshold, exactly: thresholds
        are gaps and their float neighbours, over mixed magnitudes and
        decimal grids where ``s[i] + t`` rounds away from the boundary."""
        rng = np.random.default_rng(5)
        s = np.sort(np.concatenate([
            rng.uniform(size=40), 1e-9 * rng.uniform(size=20),
            np.round(rng.uniform(size=40), 1), 0.1 * np.arange(11),
            [0.1 + 0.2, 1 / 3, 2 / 3],
        ]))
        n = s.shape[0]
        gaps = s[None, :] - s[:, None]
        ts = rng.choice(gaps[np.triu_indices(n, 1)], size=300)
        for t in np.concatenate([ts, np.nextafter(ts, np.inf), np.nextafter(ts, -np.inf), [0.0]]):
            later = np.triu(gaps >= t, 1)
            expected = np.where(later.any(axis=1), later.argmax(axis=1), n)
            assert np.array_equal(gp_module._gap_row_ends(s, t), expected)

    def test_bracket_that_misses_widens(self, monkeypatch):
        """Half the points coincide: the strided subsample's bracket misses
        the median's rank (more than one pair of row-bound passes)."""
        rng = np.random.default_rng(0)
        x = np.concatenate([np.full(506, 0.25), rng.uniform(0.0, 1.0, size=503)])[:, None]
        calls = _count_row_end_calls(monkeypatch)
        assert np.array_equal(gp_module._median_lengthscales(x), spec.median_lengthscales(x))
        assert len(calls) > 2

    @pytest.mark.parametrize("kind", ["uniform", "skewed"])
    @pytest.mark.parametrize("n", [300, 1009])
    def test_narrowest_bracket_widens_to_match(self, monkeypatch, kind, n):
        """With no margin the first bracket spans three subsample gaps; on
        inputs without tied gaps it misses and widens until it holds the
        median's ranks."""
        monkeypatch.setattr(gp_module, "_MEDIAN_MARGIN", 0.0)
        calls = _count_row_end_calls(monkeypatch)
        x = _median_inputs(kind, n, 3, np.random.default_rng(n))
        assert np.array_equal(gp_module._median_lengthscales(x), spec.median_lengthscales(x))
        assert len(calls) > 6


def _fitted(n, n_metrics, seed):
    """A surrogate over ``n`` random points of the unit square."""
    rng = np.random.default_rng(seed)
    bucket = [hp(i + 1, tuple(p)) for i, p in enumerate(rng.uniform(size=(n, 2)))]
    mus = rng.normal(0.0, 0.05, size=(n, n_metrics))
    noises = rng.uniform(0.0, 1e-4, size=(n, n_metrics))
    return GpSurrogate.fit(bucket, mus, noises), rng


def _record_submits(monkeypatch):
    """Record the thread that runs each call a prediction hands to a helper."""
    threads = []
    submit = gp_module.Helper.submit

    def spy(self, fn, *args):
        def call(*call_args):
            threads.append(threading.current_thread())
            return fn(*call_args)

        return submit(self, call, *args)

    monkeypatch.setattr(gp_module.Helper, "submit", spy)
    return threads


@pytest.mark.bitwise
class TestTwoThreadPredict:
    """The kernel rows and their bounds are built in two halves and the
    metrics' variances solved on two threads; the bits are those of the same
    calls all run on the caller, by a helper that is busy, so the caller
    claims them.  Odd ``q`` splits the rows unevenly, and with one metric
    the helper's solve is empty."""

    @pytest.mark.parametrize("n_metrics", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 50, 300, 1030])
    def test_split_matches_one_thread(self, monkeypatch, helper, busy_helper, n, n_metrics):
        gp, rng = _fitted(n, n_metrics, 10 * n + n_metrics)
        threads = _record_submits(monkeypatch)
        for q in [1, 2, 3, 599, 600, 601]:
            queries = rng.uniform(size=(q, 2))
            split = gp.predict_batch(queries, helper=helper)
            var = split.variance(np.arange(q), helper=helper)
            assert len(threads) == 2
            assert all(thread.name == "zotune-helper" for thread in threads)
            threads.clear()
            one = gp.predict_batch(queries, helper=busy_helper)
            one_var = one.variance(np.arange(q), helper=busy_helper)
            assert threads == [threading.main_thread()] * 2
            threads.clear()
            assert np.array_equal(split.mu, one.mu)
            assert np.array_equal(split.bound, one.bound)
            assert np.array_equal(var, one_var)

    @pytest.mark.parametrize("n", [1, 2, 50, 128, 300])
    def test_any_rows_solve_as_in_all_rows(self, helper, n):
        """Up to n = 324 at least, ``dtrsm`` gives each column the bits it
        gets among all 600, so a proposal that solves a few samples has the
        bits of one that solves them all; above that its blocking can move
        the last bit (n = 393, 919 and 1030 were seen)."""
        gp, rng = _fitted(n, 2, n)
        prediction = gp.predict_batch(rng.uniform(size=(600, 2)), helper=helper)
        every = prediction.variance(np.arange(600), helper=helper)
        assert np.all(every <= prediction.bound)
        for size in [1, 2, 3, 14, 106, 378, 599]:
            rows = np.sort(rng.choice(600, size, replace=False))
            assert np.array_equal(prediction.variance(rows, helper=helper), every[rows])

    @pytest.mark.parametrize("n", [1, 2, 50, 300, 1030])
    def test_kernel_halves_match_the_whole(self, n):
        rng = np.random.default_rng(n)
        x, ls, scales = rng.uniform(size=(n, 2)), rng.uniform(0.1, 1.0, size=2), [0.5, 2.0]
        for q in [1, 2, 3, 599, 600, 601]:
            xq = rng.uniform(size=(q, 2))
            whole = [np.empty((q, n)) for _ in scales]
            gp_module._scaled_kernels(xq, x, ls, scales, whole)
            halves = [np.empty((q, n)) for _ in scales]
            h = (q + 1) // 2
            for rows in (slice(h), slice(h, None)):
                outs = [kq[rows] for kq in halves]
                gp_module._scaled_kernels(xq[rows], x, ls, scales, outs)
            for half, kq in zip(halves, whole):
                assert np.array_equal(half, kq)


_NUMPY_BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)


@contextlib.contextmanager
def one_blas_thread():
    """numpy's bundled OpenBLAS on one thread for the block.  On more, a
    ``gemv`` of 460,800 entries or more is split across them, each part
    grouping its rows from its own first row, so the whole product's bits
    depend on the thread count (a (601, 1000) product on 2 threads: row 300)."""
    get = _NUMPY_BLAS.scipy_openblas_get_num_threads64_
    put = _NUMPY_BLAS.scipy_openblas_set_num_threads64_
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


@pytest.mark.bitwise
class TestTiledPrediction:
    @given(
        q=st.one_of(
            st.integers(1, 15),
            st.integers(0, 324).map(lambda k: 4 * k + 1),
            st.integers(1, 1300),
        ),
        n=st.integers(1, 1300),
        n_metrics=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(q=5, n=113, n_metrics=2, seed=0)       # a one-row second half, unsplit
    @example(q=581, n=113, n_metrics=2, seed=2)     # halves of 292 and 288 + 1 rows
    @example(q=601, n=1000, n_metrics=1, seed=1)    # unlike its whole product on 2 threads
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_tiles_give_the_whole_kernels_bits(self, helper, busy_helper, q, n, n_metrics, seed):
        """Each tile's means and bounds equal ``kq @ alpha`` on one BLAS
        thread and the bound's formula, over the whole ``(q, n)`` kernel, on
        the idle helper and on the busy one, whose halves the caller runs."""
        gp, rng = _fitted(n, n_metrics, seed)
        queries = rng.uniform(size=(q, 2))
        whole = [np.empty((q, n)) for _ in range(n_metrics)]
        scales = [gp.signal_var(k) for k in range(n_metrics)]
        gp_module._scaled_kernels(queries, gp._x, gp._ls, scales, whole)   # the unit box
        shrink = 1.0 - gp_module._BOUND_C * n * (np.finfo(float).eps / 2)
        with one_blas_thread():
            mu = np.column_stack([kq @ gk.alpha for kq, gk in zip(whole, gp._gps)])
        bound = np.column_stack([
            np.maximum(gk.signal_var - shrink * np.max(kq * gk.row_scale, axis=1) ** 2, 0.0)
            for kq, gk in zip(whole, gp._gps)
        ])
        for runner in (helper, busy_helper):
            prediction = gp.predict_batch(queries, helper=runner)
            assert np.array_equal(prediction.mu, mu)
            assert np.array_equal(prediction.bound, bound)


class TestHelper:
    def test_calls_run_in_submission_order_on_the_helper(self):
        ran = []

        def record(i):
            ran.append((i, threading.current_thread().name))
            return i * i

        with gp_module.Helper() as helper:
            calls = [helper.submit(record, i) for i in range(20)]
            assert [call.result() for call in calls] == [i * i for i in range(20)]
        assert ran == [(i, "zotune-helper") for i in range(20)]

    def test_a_call_the_busy_helper_has_not_started_runs_on_the_caller(self):
        started, release, ran = threading.Event(), threading.Event(), []

        def hold():
            started.set()
            release.wait(timeout=60)

        def record():
            ran.append(threading.current_thread())
            return len(ran)

        with gp_module.Helper() as helper:
            helper.submit(hold)
            assert started.wait(timeout=60)
            call = helper.submit(record)
            assert call.result() == 1
            release.set()
        assert ran == [threading.main_thread()]   # claimed once, never run again
        assert call.result() == 1

    def test_a_finished_call_lets_go_of_its_arguments(self, helper, busy_helper):
        """The helper's loop keeps the last call it ran until its next one,
        so a call that held on to its arguments would keep, say, a
        selection block's draws alive past its scoring."""
        for runner in (helper, busy_helper):
            big = np.zeros(10)
            gone = weakref.ref(big)
            call = runner.submit(np.sum, big)
            del big
            assert call.result() == 0.0
            assert gone() is None

    def test_errors_come_back_through_result(self, busy_helper):
        error = ValueError("call failed")

        def fail():
            raise error

        with gp_module.Helper() as helper:
            on_helper = helper.submit(fail)
            with pytest.raises(ValueError) as raised:
                on_helper.result()
            assert raised.value is error
        claimed = busy_helper.submit(fail)
        with pytest.raises(ValueError) as raised:
            claimed.result()
        assert raised.value is error

    def test_callers_error_propagates_after_the_join(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(True)

        threads = threading.active_count()
        with pytest.raises(ValueError, match="caller failed"):
            with gp_module.Helper() as helper:
                helper.submit(slow)
                helper.submit(slow)
                raise ValueError("caller failed")
        assert done == [True, True]
        assert threading.active_count() == threads

    def test_every_call_runs_once_under_contention(self):
        """Three callers, each with a helper, under a 10 us switch interval:
        every call runs exactly once and returns its own value, whether
        its result is waited for or claimed, in any order."""
        runs = [[0] * 300 for _ in range(3)]
        threads = [[None] * 300 for _ in range(3)]
        outcomes = [None] * 3

        def caller(c):
            def count(i):
                runs[c][i] += 1
                threads[c][i] = threading.current_thread()
                time.sleep(1e-4)
                return i

            order = np.random.default_rng(c).permutation(300)
            with gp_module.Helper() as helper:
                calls = [helper.submit(count, i) for i in range(300)]
                outcomes[c] = [(int(i), calls[i].result()) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(c,)) for c in range(3)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert runs == [[1] * 300] * 3
        for callers_thread, ran_on in zip(callers, threads):
            assert callers_thread in ran_on                 # some calls were claimed
            assert any(t.name == "zotune-helper" for t in ran_on)
        assert all(sorted(outcome) == [(i, i) for i in range(300)] for outcome in outcomes)

    def test_no_thread_outlives_the_block(self):
        threads = threading.active_count()
        with gp_module.Helper() as helper:
            assert threading.active_count() == threads + 1
            call = helper.submit(time.sleep, 0.02)
        assert threading.active_count() == threads
        assert call.result() is None
        with pytest.raises(RuntimeError, match="not running"):
            helper.submit(time.sleep, 0.0)


class TestTwoThreadPredictFailures:
    """An error on either thread leaves ``predict_batch`` or ``variance``;
    the join that follows is the helper's owner's, tested at
    ``Scheduler.run_round``."""

    @pytest.mark.parametrize("failing, side", [(1, "helper"), (0, "caller")])
    def test_solve_error_is_raised_from_either_side(self, monkeypatch, helper, failing, side):
        """Metric 0 is solved on the caller and metric 1 on the helper."""
        gp, rng = _fitted(300, 2, 4)
        queries = rng.uniform(size=(600, 2))
        trsm, factor = gp_module._trsm, gp._gps[failing].chol
        sides = []

        def failing_trsm(chol, b):
            if chol is factor:
                sides.append(threading.current_thread() is threading.main_thread())
                raise RuntimeError("solve failed")
            trsm(chol, b)

        prediction = gp.predict_batch(queries, helper=helper)
        monkeypatch.setattr(gp_module, "_trsm", failing_trsm)
        with pytest.raises(RuntimeError, match="solve failed"):
            prediction.variance(np.arange(600), helper=helper)
        assert sides == [side == "caller"]

    @pytest.mark.parametrize("side", ["helper", "caller"])
    def test_kernel_error_is_raised_from_either_side(self, monkeypatch, helper, side):
        gp, rng = _fitted(300, 2, 5)
        queries = rng.uniform(size=(600, 2))
        kernels = gp_module._scaled_kernels

        def failing_kernels(*args, **kwargs):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (side == "caller"):
                raise RuntimeError("kernel failed")
            kernels(*args, **kwargs)

        monkeypatch.setattr(gp_module, "_scaled_kernels", failing_kernels)
        with pytest.raises(RuntimeError, match="kernel failed"):
            gp.predict_batch(queries, helper=helper)

    def test_split_peak_adds_no_buffer_copies(self, helper):
        """Each thread holds the unit kernel's two tile buffers, which take
        two metrics' scaled tiles too (one more buffer per further metric),
        each at most ``_KERNEL_TILE`` doubles and a joined last row, and no
        ``(q, n)`` kernel: the peak is those buffers and a margin of an
        eighth of one kernel (everything else read 0.16-0.30 MB of its 0.48
        MB), so any one kernel (3.84 MB) fails."""
        n, q, n_metrics = 800, 600, 2
        gp, rng = _fitted(n, n_metrics, 17)
        queries = rng.uniform(size=(q, 2))
        tracemalloc.start()
        try:
            gp.predict_batch(queries, helper=helper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kernel = q * n * 8
        tiles = 2 * max(2, n_metrics) * (gp_module._KERNEL_TILE + n) * 8
        assert peak < tiles + kernel / 8
