"""Tests for the synthetic environment: landscape, sampling, delays, stream state."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import zotune.simenv as simenv
from zotune import codec
from zotune.deltastats import Reading, TaylorMode, hourly_delta_stat
from zotune.scheduler import InboundBatch, RoundPlan
from zotune.simenv import LIFT_SCALE, PERIOD, SimEnv

SEEDS = (0, 1, 7, 42, 131)


def single_candidate_plan(cid=1, frac=0.4, rnd=0):
    """One candidate at ``frac``; the control absorbs the remainder."""
    return RoundPlan(
        round=rnd,
        control_fraction=1.0 - frac,
        assignments=((cid, frac),),
    )


def base_day(env):
    """The base's per-metric means over hours 0..23, shape ``(24, 2)``."""
    return np.array([env.hourly_means(env.spec.base_theta, t) for t in range(PERIOD)])


class TestLandscape:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_delta_fields_span_unit_interval(self, seed):
        env = SimEnv.build(seed)
        axis = np.linspace(0.0, 1.0, 201)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        d = env.delta(grid)
        assert d.min() == 0.0
        assert d.max() == 1.0
        assert np.all(d >= 0.0) and np.all(d <= 1.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_daily_patterns_anticorrelated(self, seed):
        means = base_day(SimEnv.build(seed))
        corr = float(np.corrcoef(means[:, 0], means[:, 1])[0, 1])
        assert corr <= -0.5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_daily_patterns_strictly_positive(self, seed):
        assert np.all(base_day(SimEnv.build(seed)) > 0.0)

    def test_defaults(self):
        env = SimEnv.build(3)
        s = env.spec
        assert s.sigma == 0.6
        assert s.users == 1_000_000
        assert s.draws_per_step == 50
        assert s.weights == (0.296, 1.165, 0.149, 0.703)
        assert s.threshold == 0.6036
        assert s.fixed_delay == 3
        assert s.base_theta == (0.011, 0.985)

    def test_period_is_24_exactly(self):
        env = SimEnv.build(5)
        theta = (0.3, 0.7)
        for t in range(5):
            np.testing.assert_array_equal(
                env.hourly_means(theta, t), env.hourly_means(theta, t + PERIOD)
            )

    def test_overrides_never_touch_generation(self):
        a = SimEnv.build(9)
        b = SimEnv.build(9, sigma=0.05, fixed_delay=6, users=1000)
        probe = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        np.testing.assert_array_equal(a.delta(probe), b.delta(probe))
        np.testing.assert_array_equal(base_day(a), base_day(b))

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            SimEnv.build(1, gravity=9.8)

    def test_same_seed_bitwise_identical(self):
        a = SimEnv.build(77)
        b = SimEnv.build(77)
        assert a.spec == b.spec
        plan = single_candidate_plan()
        thetas = {1: (0.25, 0.5)}
        batch_a = a.step(plan, 0, thetas)[0]
        batch_b = b.step(plan, 0, thetas)[0]
        assert batch_a == batch_b


class TestGroundTruth:
    def test_base_gain_zero(self):
        env = SimEnv.build(13)
        g, v = env.true_gain_violation(env.spec.base_theta)
        assert g == 0.0
        assert v >= 0.0

    def test_grid_scan_dominates_grid_points(self):
        env = SimEnv.build(17)
        _, best_gain, _ = env.grid_scan()
        axis = np.linspace(0.0, 1.0, 200)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        thetas = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        f, g = env.true_f_g(thetas)
        f_base, _ = env.true_f_g(np.asarray(env.spec.base_theta))
        feasible_gains = f[g >= env.spec.threshold] / float(f_base) - 1.0
        if feasible_gains.size:
            assert best_gain >= feasible_gains.max() - 1e-15

    def test_monte_carlo_agreement(self):
        """Exact ground truth matches simulation within 3 standard errors."""
        env = SimEnv.build(23)
        rng = np.random.default_rng(99)
        thetas = rng.uniform(0.0, 1.0, size=(20, 2))
        w1, w2, _, _ = env.spec.weights
        sigma = env.spec.sigma
        draws_per_hour = 42_000  # about 1e6 per metric across 24 hours
        f_base, _ = env.true_f_g(np.asarray(env.spec.base_theta))
        for theta in thetas:
            totals = np.zeros(2)
            n_total = 0
            for t in range(PERIOD):
                mu = env.hourly_means(theta, t)
                x1 = rng.normal(mu[0], sigma, size=draws_per_hour)
                x2 = rng.normal(mu[1], sigma, size=draws_per_hour)
                totals += np.array([x1.sum(), x2.sum()])
                n_total += draws_per_hour
            means = totals / n_total
            f_hat = w1 * means[0] + w2 * means[1]
            se_f = sigma * math.hypot(w1, w2) / math.sqrt(n_total)
            f_true, _ = env.true_f_g(np.asarray(theta))
            assert abs(f_hat - float(f_true)) <= 3.0 * se_f
            gain_hat = f_hat / float(f_base) - 1.0
            gain_true, _ = env.true_gain_violation(theta)
            assert abs(gain_hat - gain_true) <= 3.0 * se_f / float(f_base)

    def test_constant_field_flattens_gain(self):
        """With both effect fields constant, gain is zero everywhere."""
        env = SimEnv.build(31)
        from dataclasses import replace
        from zotune.simenv import RadialBumpField

        flat = RadialBumpField(centers=(), widths=(), lo=-0.5, span=1.0)
        spec = replace(env.spec, delta1=flat, delta2=flat)
        flat_env = SimEnv(spec)
        for theta in ((0.0, 0.0), (0.3, 0.9), (1.0, 1.0)):
            g, _ = flat_env.true_gain_violation(theta)
            assert g == pytest.approx(0.0, abs=1e-12)


class TestStep:
    def test_zero_sigma_gives_exact_means(self):
        env = SimEnv.build(3, sigma=0.0, users=1000)
        plan = single_candidate_plan(frac=0.5)
        theta = (0.2, 0.8)
        batch = env.step(plan, 4, {1: theta})[0]
        mu = env.hourly_means(theta, 4)
        base_mu = env.hourly_means(env.spec.base_theta, 4)
        for k, reading in enumerate(batch.readings):
            assert reading.test_mean == float(mu[k])
            assert reading.test_var == 0.0
            assert reading.control_mean == float(base_mu[k])
            assert reading.control_var == 0.0

    def test_group_sizes_round_with_floor(self):
        env = SimEnv.build(3, users=1000)
        plan = RoundPlan(
            round=0, control_fraction=0.2,
            assignments=((1, 0.7995), (2, 1e-4 if False else 0.0005)),
        )
        batches = env.step(plan, 0, {1: (0.5, 0.5), 2: (0.1, 0.1)})
        sizes = {b.readings[0].candidate_id: b.readings[0].test_n for b in batches}
        assert sizes[1] == round(0.7995 * 1000)
        assert sizes[2] == 1  # floor for tiny but positive share
        assert batches[0].readings[0].control_n == round(0.2 * 1000)

    def test_fixed_delay_only(self):
        env = SimEnv.build(3, xi_mean=0.0, xi_sd=0.0, fixed_delay=3, users=1000)
        batch = env.step(single_candidate_plan(rnd=5), 5, {1: (0.4, 0.4)})[0]
        assert {reading.round for reading in batch.readings} == {5}
        assert batch.arrival_round == 8

    def test_arrival_never_precedes_fixed_delay(self):
        env = SimEnv.build(8, users=1000)
        for t in range(40):
            batch = env.step(single_candidate_plan(rnd=t), t, {1: (0.4, 0.4)})[0]
            assert batch.arrival_round >= t + env.spec.fixed_delay

    def test_control_readings_shared_within_hour(self):
        env = SimEnv.build(11, users=1000)
        plan = RoundPlan(
            round=0, control_fraction=0.2, assignments=((1, 0.4), (2, 0.4))
        )
        batches = env.step(plan, 0, {1: (0.1, 0.1), 2: (0.9, 0.9)})
        control = lambda r: (r.metric, r.round, r.control_mean, r.control_var, r.control_n)
        assert [control(r) for r in batches[0].readings] == [
            control(r) for r in batches[1].readings
        ]

    @pytest.mark.parametrize("t", [2.7, True, np.float64(2.0)], ids=["fraction", "bool", "np-float"])
    def test_hour_must_be_an_int(self, t):
        """A cast would stamp the readings of hour 2.7 as hour 2's; the hour
        is refused before the noise stream moves."""
        env = SimEnv.build(3, users=1000)
        state = env.rng_state
        with pytest.raises(ValueError, match="t: expected int"):
            env.step(single_candidate_plan(rnd=2), t, {1: (0.4, 0.4)})
        assert env.rng_state == state

    def test_empty_plan_refused(self):
        """Every plan assigns traffic, so every step emits batches."""
        with pytest.raises(ValueError, match="assign traffic"):
            RoundPlan(round=0, control_fraction=0.2, assignments=())

    def test_null_candidate_at_base_unbiased(self):
        """Candidate pinned at the base shows no lift, within 3 sigma."""
        env = SimEnv.build(19, users=10_000)
        theta0 = env.spec.base_theta
        plan = single_candidate_plan(frac=0.4)
        means = []
        for t in range(1000):
            batch = env.step(plan, t, {1: theta0})[0]
            stat = hourly_delta_stat(batch.readings[0], TaylorMode.DELTA_METHOD)
            means.append(stat.mean)
        means = np.asarray(means)
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean()) <= 3.0 * se


class TestSnapshot:
    def test_roundtrip_spec_and_stream(self):
        """The seed rebuilds the landscape and ``rng_state`` carries the
        noise stream, which is all a run checkpoint stores of the env."""
        env = SimEnv.build(29, users=1000)
        plan = single_candidate_plan()
        env.step(plan, 0, {1: (0.3, 0.3)})  # advance the stream first
        clone = SimEnv.build(29, users=1000)
        clone.rng_state = json.loads(json.dumps(env.rng_state))
        assert clone.spec == env.spec
        a = env.step(plan, 1, {1: (0.3, 0.3)})
        b = clone.step(plan, 1, {1: (0.3, 0.3)})
        assert a == b

    def test_draws_per_step_floor(self):
        with pytest.raises(ValueError):
            SimEnv.build(1, draws_per_step=1)

    @pytest.mark.parametrize("seed", [3.7, True])
    def test_seed_must_be_an_int(self, seed):
        """A cast would draw seed 3's landscape for 3.7, and seed 1's for ``True``."""
        with pytest.raises(ValueError, match="seed: expected int"):
            SimEnv.build(seed)

    @pytest.mark.parametrize(
        "knob, value, name",
        [
            ("xi_sd", math.nan, "xi_sd"),
            ("xi_mean", math.inf, "xi_mean"),
            ("sigma", math.nan, "sigma"),
            ("threshold", math.nan, "threshold"),
            ("threshold", -math.inf, "threshold"),
            ("weights", (0.3, math.nan, 0.1, 0.7), "weights"),
        ],
    )
    def test_non_finite_knob_refused_by_name(self, knob, value, name):
        """The sign checks alone pass NaN, which fails only in a later step."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimEnv.build(3, **{knob: value})

    @pytest.mark.parametrize(
        "knob, value, match",
        [
            ("sigma", -0.1, "sigma must be nonnegative"),
            ("fixed_delay", -1, "fixed delay must be nonnegative"),
            ("xi_sd", -0.5, "extra-delay spread must be nonnegative"),
            ("base_theta", (0.5, 1.5), "base configuration must lie in the box"),
        ],
        ids=["sigma", "fixed-delay", "xi-sd", "base-theta"],
    )
    def test_out_of_range_knob_refused(self, knob, value, match):
        with pytest.raises(ValueError, match=match):
            SimEnv.build(3, **{knob: value})


# SHA-256 of the sorted-key JSON of ``EnvSpec``'s fields beside a
# ``format_version`` of 1 (the former ``env.json`` without its noise stream),
# recorded before the landscape build shared its grid terms.  Seeds 1-3 are
# the bench's set-up seeds and 42, 40 the frozen trajectory's; 40, 12 and 36
# redraw the landscape 5, 7 and 12 times.
FROZEN_SPEC_DIGESTS = {
    1: "37478de3d94047e8dc803ba0f8da8a4ddd97932ba3e2ba745978324bb3e124c0",
    2: "dd3ef84cd6b75678b5d98003b7d7ae753ee0950e8b9f90a580ace656e3b20f1a",
    3: "4b044ad8a957b14f42a0b5a449fe220350afca31f3f5831b2d68e62529168a09",
    12: "7f9188c7deed784ea40ee8706a8162783395ce9d9549424ddfd92c0ffc6b54ff",
    36: "fcc4b0a4862e5fea177a6024606d91de847bd0be24d01c01ae972f07277c6641",
    40: "0cc057389875b4c653bc3962c74e38cbf19ea4dd91e7f7eae085841a21c4e6b5",
    42: "3f537908c34a4e425f391f24708f387916c807c00e7e51e0587ed1b960f5eaa0",
}


def spec_digest(spec):
    data = {"format_version": 1, **codec.to_dict(spec)}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def count_typicality_calls(monkeypatch):
    """Count ``_base_typicality`` calls, one per landscape try, from now on."""
    calls = []
    typicality = simenv._base_typicality
    monkeypatch.setattr(
        simenv, "_base_typicality", lambda *a: calls.append(1) or typicality(*a)
    )
    return calls


@pytest.mark.bitwise
class TestFrozenLandscape:
    """Generated landscapes keep every bit, including after redraws."""

    @pytest.mark.parametrize("seed", sorted(FROZEN_SPEC_DIGESTS))
    def test_spec_digest(self, seed):
        assert spec_digest(SimEnv.build(seed).spec) == FROZEN_SPEC_DIGESTS[seed]

    @pytest.mark.parametrize("seed, tries", [(12, 7), (36, 12), (40, 5)])
    def test_redraw_seeds_redraw(self, seed, tries, monkeypatch):
        simenv._landscape.cache_clear()
        calls = count_typicality_calls(monkeypatch)
        SimEnv.build(seed)
        assert len(calls) == tries


@pytest.fixture
def empty_landscape_cache():
    simenv._landscape.cache_clear()
    yield
    simenv._landscape.cache_clear()


@pytest.mark.usefixtures("empty_landscape_cache")
class TestLandscapeCache:
    """Each seed's landscape is drawn once per process and shared."""

    def test_second_build_draws_nothing(self, monkeypatch):
        first = SimEnv.build(36)            # 12 tries when drawn
        calls = count_typicality_calls(monkeypatch)
        second = SimEnv.build(36)
        assert calls == []
        assert second.spec == first.spec

    @pytest.mark.parametrize("seed", [12, 42])
    def test_overrides_share_one_landscape(self, seed):
        knobs = {"sigma": 0.05, "fixed_delay": 6, "users": 1000}
        tuned = SimEnv.build(seed, **knobs)
        stock = SimEnv.build(seed)
        assert simenv._landscape.cache_info().currsize == 1
        for name in ("delta1", "delta2", "w1_coeffs", "w2_coeffs"):
            assert getattr(tuned.spec, name) is getattr(stock.spec, name)
        assert spec_digest(stock.spec) == FROZEN_SPEC_DIGESTS[seed]

    @pytest.mark.parametrize(
        "override, error",
        [
            ({"metrics": ("a", "b")}, TypeError),
            ({"seed": 1}, TypeError),
            ({"delta1": None}, TypeError),
            ({"users": 0}, ValueError),
        ],
        ids=lambda v: ",".join(v) if isinstance(v, dict) else v.__name__,
    )
    def test_bad_override_refused_before_any_draw(self, override, error):
        """Only ``EnvKnobs``' fields override, and they are checked first."""
        with pytest.raises(error):
            SimEnv.build(42, **override)
        assert simenv._landscape.cache_info().misses == 0

    def test_envs_of_one_landscape_have_own_noise(self):
        a = SimEnv.build(42)
        b = SimEnv.build(42)
        untouched = json.loads(json.dumps(b.rng_state))
        a.step(single_candidate_plan(), 0, {1: (0.3, 0.3)})
        assert b.rng_state == untouched
        assert a.rng_state != untouched

    def test_cache_is_bounded(self, monkeypatch):
        """Fill past the bound with a stand-in draw; the oldest seed goes."""
        fields = simenv._landscape(1)[:2]
        monkeypatch.setattr(simenv, "_draw_landscape", lambda gen: fields)
        bound = simenv.LANDSCAPE_CACHE_SIZE
        for seed in range(1000, 1000 + bound + 5):
            SimEnv.build(seed)
        info = simenv._landscape.cache_info()
        assert info.maxsize == bound
        assert info.currsize <= bound
        misses = info.misses
        SimEnv.build(1000)
        assert simenv._landscape.cache_info().misses == misses + 1


class TestBumpTerms:
    def test_peak_memory_is_two_blocks(self):
        """``dx`` holds every step, so the only other block is ``dy``."""
        gen = np.random.default_rng(5)
        b = 7
        centers = gen.uniform(0.0, 1.0, size=(b, 2))
        widths = gen.uniform(0.12, 0.28, size=b)
        amps = gen.uniform(0.3, 0.6, size=b)
        x, y = simenv._GRID_X, simenv._GRID_Y
        tracemalloc.start()
        try:
            out = simenv._bump_terms(x, y, centers, widths, amps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.flags.c_contiguous and out.shape == (x.size, b)
        assert peak < 2.5 * out.nbytes


def _reference_raw(field, thetas):
    """``RadialBumpField.raw`` in its ``(..., b, 2)`` difference form."""
    thetas = np.asarray(thetas, dtype=float)
    centers = np.asarray(field.centers)
    widths = np.asarray(field.widths)
    amps = np.asarray(field.amps)
    diff = thetas[..., None, :] - centers
    sq = np.sum(diff * diff, axis=-1)
    return np.sum(amps * np.exp(-sq / (2.0 * widths**2)), axis=-1)


def _reference_hourly_means(env, theta, t):
    fields = (env.spec.delta1, env.spec.delta2)
    d = np.stack(
        [np.clip((_reference_raw(f, theta) - f.lo) / f.span, 0.0, 1.0) for f in fields],
        axis=-1,
    )
    w = np.array([env._w1[t % PERIOD], env._w2[t % PERIOD]])
    return (1.0 + LIFT_SCALE * d) * w


def _reference_step(env, rng, plan, t, thetas):
    """``SimEnv.step`` sampling one reading at a time from ``rng``."""
    spec = env.spec

    def group_stats(mu, size):
        """One group's sample mean, sample variance and size."""
        z = rng.standard_normal(spec.draws_per_step)
        mean_scale = np.sqrt(spec.draws_per_step / size)
        return (
            float(mu + spec.sigma * mean_scale * np.mean(z)),
            float(spec.sigma**2 * np.var(z, ddof=1)),
            size,
        )

    ctrl_size = max(int(round(plan.control_fraction * spec.users)), 1)
    base_mu = _reference_hourly_means(env, np.asarray(spec.base_theta), t)
    ctrl = [group_stats(float(base_mu[k]), ctrl_size) for k in range(len(spec.metrics))]
    batches = []
    for cid, frac in plan.assignments:
        size = max(int(round(frac * spec.users)), 1)
        mu = _reference_hourly_means(env, np.asarray(thetas[cid], dtype=float), t)
        readings = tuple(
            Reading(cid, metric, t, *group_stats(float(mu[k]), size), *ctrl[k])
            for k, metric in enumerate(spec.metrics)
        )
        xi = int(round(abs(rng.normal(spec.xi_mean, spec.xi_sd))))
        batches.append(
            InboundBatch(
                arrival_round=t + spec.fixed_delay + xi,
                readings=readings,
            )
        )
    return batches


@pytest.mark.bitwise
class TestStepReference:
    """One draw block per step reproduces per-reading sampling exactly."""

    @pytest.mark.parametrize("seed", [1, 42, 131])
    def test_raw_matches_difference_form(self, seed):
        env = SimEnv.build(seed)
        rng = np.random.default_rng(seed)
        for field in (env.spec.delta1, env.spec.delta2):
            for shape in [(2,), (1, 2), (257, 2), (3, 5, 2), (201 * 201, 2)]:
                thetas = rng.uniform(-0.2, 1.2, size=shape)
                assert np.array_equal(field.raw(thetas), _reference_raw(field, thetas))

    @pytest.mark.parametrize(
        "n_cands, overrides",
        [
            (1, {}),
            (130, {}),
            (130, {"users": 100}),
            (5, {"sigma": 0.0}),
            (5, {"xi_sd": 0.0}),
            (5, {"xi_mean": 1.5, "xi_sd": 2.0}),
            (5, {"draws_per_step": 2}),
            (5, {"fixed_delay": 0}),
        ],
    )
    def test_batches_and_stream_match(self, n_cands, overrides):
        env = SimEnv.build(7, **overrides)
        rng = np.random.default_rng()
        rng.bit_generator.state = env.rng_state
        pick = np.random.default_rng(n_cands)
        thetas = {cid: tuple(pick.uniform(0.0, 1.0, size=2)) for cid in range(1, n_cands + 1)}
        thetas[1] = env.spec.base_theta
        share = 0.8 / n_cands
        plan = RoundPlan(
            round=0,
            control_fraction=0.2,
            assignments=tuple((cid, share) for cid in thetas),
        )
        for t in (0, 1, 23, 30):
            got = env.step(plan, t, thetas)
            assert got == _reference_step(env, rng, plan, t, thetas)
            assert len(got) == n_cands
            assert env.rng_state == rng.bit_generator.state
