"""Synthetic two-metric environment with hourly seasonality and delayed feedback.

The environment models two per-user metrics over a two-dimensional
configuration box [0, 1]^2.  Each metric's hourly mean is a smooth
configuration effect (a random sum of radial bumps, min-max normalized to
[0, 1]) riding on a random positive daily pattern with period 24:

    mu_k(theta, t) = (1 + 0.1 * delta_k(theta)) * W_k(t)

The two daily patterns are built to trade off against each other (their
correlation over one period is at most -0.5), so raw readings of the two
metrics move in opposition hour by hour while the configuration effect
stays put.  Per-user readings are Gaussian around the hourly mean.  Feedback
for a scheduled round is packaged per candidate and arrives ``fixed_delay``
rounds later plus a random nonnegative integer extra delay, drawn once per
batch.

Each ``step`` with M metrics, D draws per reading and n assigned candidates
takes one block of M*D + n*(M*D + 1) standard normals from the noise
stream, in this order: D normals for each of the control's M readings;
then, for each candidate in plan order, D normals for each of its M
readings followed by the one normal of its extra delay.  Landscape
generation uses its own stream, so overrides and sampling never change the
landscape.  The sampling constants are the fields of ``EnvKnobs``, each
with its default, and ``EnvSpec`` adds a seed's landscape to them.  The
environment writes no file: ``SimEnv.build(seed, **overrides)`` regenerates
the landscape bit for bit, so a run checkpoint keeps only the noise
stream's ``rng_state``.  Since generation depends on the seed alone, a
process draws each seed's landscape once and keeps the
``LANDSCAPE_CACHE_SIZE`` used last; the cached landscape is the same, bit
for bit, as a fresh draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import codec
from .deltastats import Reading
from .problem import gain as relative_gain
from .scheduler import InboundBatch, RoundPlan

CONTROL_ID = 0
PERIOD = 24
LIFT_SCALE = 0.1
PATTERN_FLOOR = 0.1
N_BUMPS = 8
N_COUNTER_BUMPS = 4
BUMP_WIDTH_RANGE = (0.12, 0.28)
BUMP_CENTER_RANGE = (-0.15, 1.15)
TRADEOFF_RANGE = (1.5, 2.2)
OWN_AMP_RANGE = (0.3, 0.6)
PEAK_WIDTH_RANGE = (0.05, 0.08)
PEAK_AMP_RANGE = (1.2, 1.8)
PEAK_JITTER = 0.02
W1_AMP_RANGES = ((0.35, 0.5), (0.15, 0.35), (0.0, 0.2))
BASE_TYPICALITY_BAND = 0.01
MAX_LANDSCAPE_TRIES = 64
LANDSCAPE_CACHE_SIZE = 64       # landscapes kept per process, a few KB each
NORM_GRID_NODES = 201
SCAN_GRID_NODES = 200
BOX = ((0.0, 1.0), (0.0, 1.0))
METRICS = ("x1", "x2")


def _bump_terms(
    x: np.ndarray,
    y: np.ndarray,
    centers: Sequence[Sequence[float]],
    widths: Sequence[float],
    amps: Sequence[float],
) -> np.ndarray:
    """Each bump's ``amp * exp(-|p - c|^2 / (2 w^2))`` at points ``(x, y)``.

    Returns a fresh C-contiguous array of shape ``x.shape + (b,)``; the one
    other block it allocates is ``dy``, of the same size.  The squared
    distance is ``dx*dx + dy*dy``, which is exactly numpy's sum over
    a two-element last axis; summing the result over its last axis gives a
    field's raw value.
    """
    centers = np.asarray(centers, dtype=float)                  # (b, 2)
    dx = x[..., None] - centers[:, 0]                           # (..., b)
    dy = y[..., None] - centers[:, 1]
    # ``amps * exp(-(dx*dx + dy*dy) / (2 w^2))`` one ufunc at a time, each
    # written into ``dx``, so no step allocates another block.
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    np.negative(dx, out=dx)
    np.divide(dx, 2.0 * np.asarray(widths) ** 2, out=dx)
    np.exp(dx, out=dx)
    return np.multiply(np.asarray(amps), dx, out=dx)


@dataclass(frozen=True)
class RadialBumpField:
    """Signed sum of Gaussian bumps, affinely rescaled and clipped into [0, 1].

    Per-bump signed amplitudes let one metric's field subtract another's
    bumps, producing the strong trade-off between the two configuration
    effects; ``amps=None`` means unit weight on every bump.
    """

    centers: tuple[tuple[float, float], ...]
    widths: tuple[float, ...]
    lo: float
    span: float
    amps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.amps is None:
            object.__setattr__(self, "amps", (1.0,) * len(self.centers))
        codec.conform(self)
        if len(self.centers) != len(self.widths):
            raise ValueError("one width per bump center")
        if len(self.amps) != len(self.centers):
            raise ValueError("one amplitude per bump center")
        if any(w <= 0 for w in self.widths):
            raise ValueError("bump widths must be positive")
        if self.span <= 0:
            raise ValueError("normalization span must be positive")

    def raw(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if not self.centers:
            return np.zeros(thetas.shape[:-1])
        terms = _bump_terms(
            thetas[..., 0], thetas[..., 1], self.centers, self.widths, self.amps
        )
        return np.sum(terms, axis=-1)

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        return np.clip((self.raw(thetas) - self.lo) / self.span, 0.0, 1.0)


@dataclass(frozen=True)
class PatternCoeffs:
    """Fourier coefficients of the first daily pattern (unit mean term)."""

    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]


@dataclass(frozen=True)
class CounterCoeffs:
    """Perturbation harmonic of the second (mirrored) daily pattern."""

    amplitude: float
    phase: float
    harmonic: int


def _realize_w1(coeffs: PatternCoeffs) -> np.ndarray:
    t = np.arange(PERIOD)
    vals = np.ones(PERIOD)
    for j, (a, p) in enumerate(zip(coeffs.amplitudes, coeffs.phases), start=1):
        vals = vals + a * np.cos(2.0 * np.pi * j * t / PERIOD + p)
    return np.maximum(vals, PATTERN_FLOOR)


def _realize_w2(w1_values: np.ndarray, coeffs: CounterCoeffs) -> np.ndarray:
    t = np.arange(PERIOD)
    raw = (
        2.0 * float(np.mean(w1_values))
        - w1_values
        + coeffs.amplitude * np.cos(2.0 * np.pi * coeffs.harmonic * t / PERIOD + coeffs.phase)
    )
    return np.maximum(raw, PATTERN_FLOOR)


@dataclass(frozen=True)
class EnvKnobs:
    """The sampling constants ``SimEnv.build`` takes as overrides, with their
    defaults; ValueError names the first one out of range (a count must be
    an ``int`` and every real-valued constant finite)."""

    sigma: float = 0.6
    weights: tuple[float, float, float, float] = (0.296, 1.165, 0.149, 0.703)
    threshold: float = 0.6036
    users: int = 1_000_000
    draws_per_step: int = 50
    fixed_delay: int = 3
    xi_mean: float = 0.0
    xi_sd: float = 1.0
    base_theta: tuple[float, float] = (0.011, 0.985)

    def __post_init__(self) -> None:
        codec.conform(self)
        reals = [(name, getattr(self, name)) for name in ("sigma", "threshold", "xi_mean", "xi_sd")]
        for name, value in reals + [("weights", w) for w in self.weights]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.users < 1:
            raise ValueError("user population must be positive")
        if self.draws_per_step < 2:
            raise ValueError("at least two draws per step are needed for a variance")
        if self.fixed_delay < 0:
            raise ValueError("fixed delay must be nonnegative")
        if self.xi_sd < 0:
            raise ValueError("extra-delay spread must be nonnegative")
        for x, (lo, hi) in zip(self.base_theta, BOX):
            if not lo <= x <= hi:
                raise ValueError("base configuration must lie in the box")


@dataclass(frozen=True, kw_only=True)
class EnvSpec(EnvKnobs):
    """Complete generated landscape plus the sampling constants."""

    seed: int
    delta1: RadialBumpField
    delta2: RadialBumpField
    w1_coeffs: PatternCoeffs
    w2_coeffs: CounterCoeffs
    metrics: tuple[str, str] = METRICS


def _norm_grid() -> tuple[np.ndarray, np.ndarray]:
    axis = np.linspace(0.0, 1.0, NORM_GRID_NODES)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    gx.flags.writeable = gy.flags.writeable = False
    return gx, gy


# Node coordinates of the grid that normalizes every generated field.
_GRID_X, _GRID_Y = _norm_grid()


def _make_field(
    gen: np.random.Generator,
    counter_to: RadialBumpField | None = None,
    counter_weight: float = 0.0,
) -> tuple[RadialBumpField, np.ndarray]:
    """Draw one normalized field; also return its raw values on the grid."""
    # Broad centers may fall slightly outside the box so its corners and
    # edges get the same bump coverage as the interior.  The last bump is
    # a narrow summit planted near the top of the rolling structure: it
    # rewards fine localization beyond merely finding the right region.
    n_own = (N_BUMPS - 1) if counter_to is None else (N_BUMPS - 1 - N_COUNTER_BUMPS)
    centers = [tuple(c) for c in gen.uniform(*BUMP_CENTER_RANGE, size=(n_own, 2))]
    widths = list(gen.uniform(*BUMP_WIDTH_RANGE, size=n_own))
    if counter_to is None:
        amps = [1.0] * n_own
    else:
        # Some of this field's bumps are the other metric's bumps negated
        # (and scaled up), so the two configuration effects trade off
        # against each other over the box.
        amps = list(gen.uniform(*OWN_AMP_RANGE, size=n_own))
        centers += list(counter_to.centers[:N_COUNTER_BUMPS])
        widths += list(counter_to.widths[:N_COUNTER_BUMPS])
        amps += [-counter_weight * a for a in counter_to.amps[:N_COUNTER_BUMPS]]
    rolling = _bump_terms(_GRID_X, _GRID_Y, centers, widths, amps)
    top = int(np.argmax(np.sum(rolling, axis=-1)))
    jitter = gen.uniform(-PEAK_JITTER, PEAK_JITTER, size=2)
    centers.append(tuple(np.clip((_GRID_X[top], _GRID_Y[top]) + jitter, 0.0, 1.0)))
    widths.append(float(gen.uniform(*PEAK_WIDTH_RANGE)))
    amps.append(float(gen.uniform(*PEAK_AMP_RANGE)))
    # One contiguous (N, b) block, so the sum over bumps runs in the same
    # order as a field's own ``raw``.
    terms = np.concatenate(
        (rolling, _bump_terms(_GRID_X, _GRID_Y, centers[-1:], widths[-1:], amps[-1:])),
        axis=1,
    )
    raw = np.sum(terms, axis=-1)
    lo = float(raw.min())
    span = float(raw.max()) - lo
    if span <= 0.0:
        span = 1.0
    return RadialBumpField(centers=centers, widths=widths, amps=amps, lo=lo, span=span), raw


def _base_typicality(
    delta1: RadialBumpField,
    raw1: np.ndarray,
    delta2: RadialBumpField,
    raw2: np.ndarray,
) -> float:
    """Gap between the box-average objective and the base's, as a gain.

    ``raw1`` and ``raw2`` are the two fields' raw values on the
    normalization grid.  Uses the stock weights and base configuration
    (landscape generation never depends on overrides) and treats the two
    daily patterns as equal-scale, which holds up to the small flooring
    lift.
    """
    w1, w2 = EnvKnobs.weights[0], EnvKnobs.weights[1]
    base = np.asarray(EnvKnobs.base_theta)[None, :]

    def objective(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
        return w1 * (1.0 + LIFT_SCALE * d1) + w2 * (1.0 + LIFT_SCALE * d2)

    on_grid = objective(
        np.clip((raw1 - delta1.lo) / delta1.span, 0.0, 1.0),
        np.clip((raw2 - delta2.lo) / delta2.span, 0.0, 1.0),
    )
    return float(np.mean(on_grid) / objective(delta1(base), delta2(base))[0] - 1.0)


def _draw_landscape(
    gen: np.random.Generator,
) -> tuple[RadialBumpField, RadialBumpField]:
    """Draw the two configuration effects, keeping the base typical.

    The base configuration stands in for a production setting, so it
    should start at an ordinary objective level, neither a hole nor a
    peak of the drawn landscape.  Draws where the box-average objective
    sits more than ``BASE_TYPICALITY_BAND`` (in gain terms) away from the
    base's are redrawn; past ``MAX_LANDSCAPE_TRIES`` the most typical
    draw wins.  The loop consumes generator draws deterministically.
    """
    best: tuple[RadialBumpField, RadialBumpField] | None = None
    best_gap = np.inf
    for _ in range(MAX_LANDSCAPE_TRIES):
        delta1, raw1 = _make_field(gen)
        tradeoff = float(gen.uniform(*TRADEOFF_RANGE))
        delta2, raw2 = _make_field(gen, counter_to=delta1, counter_weight=tradeoff)
        gap = abs(_base_typicality(delta1, raw1, delta2, raw2))
        if gap < best_gap:
            best, best_gap = (delta1, delta2), gap
        if gap <= BASE_TYPICALITY_BAND:
            break
    assert best is not None
    return best


@functools.lru_cache(maxsize=LANDSCAPE_CACHE_SIZE)
def _landscape(
    seed: int,
) -> tuple[RadialBumpField, RadialBumpField, PatternCoeffs, CounterCoeffs]:
    """The landscape of ``seed``: both effect fields and both daily patterns.

    Everything here is frozen and drawn from the seed's generation stream
    alone, so one process draws each seed once and every ``SimEnv.build``
    of it shares the same immutable objects.
    """
    gen = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    delta1, delta2 = _draw_landscape(gen)
    w1 = PatternCoeffs(
        amplitudes=tuple(
            float(gen.uniform(lo, hi)) for lo, hi in W1_AMP_RANGES
        ),
        phases=tuple(gen.uniform(0.0, 2.0 * np.pi, size=3)),
    )
    w2 = CounterCoeffs(
        amplitude=float(gen.uniform(0.0, 0.1)),
        phase=float(gen.uniform(0.0, 2.0 * np.pi)),
        harmonic=int(gen.integers(1, 4)),
    )
    return delta1, delta2, w1, w2


class SimEnv:
    """A generated landscape plus the noise stream that samples it."""

    def __init__(self, spec: EnvSpec) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1,)))
        self._w1 = _realize_w1(spec.w1_coeffs)
        self._w2 = _realize_w2(self._w1, spec.w2_coeffs)

    @classmethod
    def build(cls, seed: int, **overrides) -> "SimEnv":
        """Generate the landscape from ``seed``; overrides never touch generation.

        The overrides are the fields of ``EnvKnobs``; another name raises
        TypeError, and a value out of range or a ``seed`` that is not an
        ``int`` ValueError, all before any landscape is drawn.  Two builds
        with the same seed share an identical landscape regardless of
        overrides, so runs with different delays or noise levels stay
        paired.  The landscape is drawn once per process per seed and kept
        for the ``LANDSCAPE_CACHE_SIZE`` seeds used last; a later build
        reuses its frozen fields bit for bit, while each env gets its own
        ``EnvSpec`` and a fresh noise stream.
        """
        seed = codec.count(seed, "seed")
        EnvKnobs(**overrides)
        delta1, delta2, w1, w2 = _landscape(seed)
        spec = EnvSpec(
            seed=seed,
            delta1=delta1,
            delta2=delta2,
            w1_coeffs=w1,
            w2_coeffs=w2,
            **overrides,
        )
        return cls(spec)

    # Landscape views

    def delta(self, thetas: np.ndarray) -> np.ndarray:
        """Configuration effects, shape ``(..., 2)`` with values in [0, 1]."""
        thetas = np.asarray(thetas, dtype=float)
        return np.stack(
            [self.spec.delta1(thetas), self.spec.delta2(thetas)], axis=-1
        )

    def hourly_means(self, theta: Sequence[float], t: int) -> np.ndarray:
        """Per-metric means ``(1 + 0.1 delta_k) * W_k(t)`` at hour ``t``,
        shape ``(..., 2)`` for one vector or a stack of them."""
        d = self.delta(np.asarray(theta, dtype=float))
        w = np.array([self._w1[t % PERIOD], self._w2[t % PERIOD]])
        return (1.0 + LIFT_SCALE * d) * w

    def period_means(self, thetas: np.ndarray) -> np.ndarray:
        """Per-metric means averaged over one full period, shape ``(..., 2)``."""
        d = self.delta(thetas)
        wbar = np.array([float(np.mean(self._w1)), float(np.mean(self._w2))])
        return (1.0 + LIFT_SCALE * d) * wbar

    def base_means(self) -> np.ndarray:
        return self.period_means(np.asarray(self.spec.base_theta))

    # Ground truth

    def true_f_g(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objective and guardrail values from exact period-averaged means."""
        e = self.period_means(thetas)
        w1, w2, w3, w4 = self.spec.weights
        f = w1 * e[..., 0] + w2 * e[..., 1]
        g = w3 * e[..., 0] + w4 * e[..., 1]
        return f, g

    def true_gain_violation(self, theta: Sequence[float]) -> tuple[float, float]:
        """Ground-truth relative gain over the base and guardrail shortfall."""
        f, g = self.true_f_g(np.asarray(theta, dtype=float))
        f_base, _ = self.true_f_g(np.asarray(self.spec.base_theta))
        return (
            relative_gain(float(f), float(f_base)),
            max(self.spec.threshold - float(g), 0.0),
        )

    def grid_scan(self) -> tuple[np.ndarray, float, float]:
        """Feasible maximizer of the true objective on a square grid.

        Returns ``(theta, gain, violation)``.  Falls back to the largest
        guardrail value if no grid point is feasible.
        """
        axis = np.linspace(0.0, 1.0, SCAN_GRID_NODES)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        thetas = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        f, g = self.true_f_g(thetas)
        feasible = g >= self.spec.threshold
        if np.any(feasible):
            idx = int(np.argmax(np.where(feasible, f, -np.inf)))
        else:
            idx = int(np.argmax(g))
        theta = thetas[idx]
        gain_v, viol = self.true_gain_violation(theta)
        return theta, gain_v, viol

    # Sampling

    def step(
        self,
        plan: RoundPlan,
        t: int,
        thetas: "dict[int, Sequence[float]]",
    ) -> list[InboundBatch]:
        """Expose the planned groups for hour ``t`` and emit delayed batches.

        ``thetas`` maps every assigned candidate id to its vector (the plan
        itself carries only ids).  One batch is produced per assigned
        candidate; every batch shares the hour's control statistics and
        draws its own extra delay.  An hour ``t`` that is not an ``int``
        raises ValueError before anything is drawn.
        """
        t = codec.count(t, "t")
        spec = self.spec
        n_metrics, draws = len(spec.metrics), spec.draws_per_step
        ids = [cid for cid, _ in plan.assignments]
        sizes = [max(int(round(plan.control_fraction * spec.users)), 1)] + [
            max(int(round(frac * spec.users)), 1) for _, frac in plan.assignments
        ]
        # One block in stream order: the control's readings, then per
        # candidate its readings followed by its extra-delay normal.
        block = self._rng.standard_normal(
            n_metrics * draws + len(ids) * (n_metrics * draws + 1)
        )
        per_cand = block[n_metrics * draws:].reshape(len(ids), n_metrics * draws + 1)
        z = np.concatenate(
            (block[: n_metrics * draws], per_cand[:, :-1].ravel())
        ).reshape(-1, draws)                                    # (groups * M, D)
        mu = self.hourly_means(
            np.array([spec.base_theta] + [thetas[cid] for cid in ids], dtype=float), t
        ).ravel()
        # Draws are mu + sigma*z with standard-normal z, so the sample
        # statistics reduce to affine transforms of z's statistics; the
        # zero-noise limit then returns mu and 0 exactly.  The per-user
        # variance is estimated from the simulated draws, while the mean
        # is drawn at the full group's sampling scale sigma^2/group_size
        # so that reported precisions match how the mean actually moves.
        mean_scale = np.sqrt(draws / np.repeat(sizes, n_metrics))
        means = (mu + (spec.sigma * mean_scale) * np.mean(z, axis=1)).tolist()
        variances = (spec.sigma**2 * np.var(z, axis=1, ddof=1)).tolist()
        # Generator.normal(loc, scale) is loc + scale * standard normal.
        xis = np.abs(spec.xi_mean + spec.xi_sd * per_cand[:, -1]).tolist()

        # Group 0 is the control; group i's statistics for metric k sit at
        # i * M + k.
        return [
            InboundBatch(
                arrival_round=t + spec.fixed_delay + int(round(xi)),
                readings=tuple(
                    Reading(
                        cid, metric, t,
                        means[i * n_metrics + k], variances[i * n_metrics + k], sizes[i],
                        means[k], variances[k], sizes[0],
                    )
                    for k, metric in enumerate(spec.metrics)
                ),
            )
            for i, (cid, xi) in enumerate(zip(ids, xis), start=1)
        ]

    # Noise stream state, for run checkpoints

    @property
    def rng_state(self) -> dict:
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state
