"""Gaussian beliefs over candidates and GP interpolation between them.

A ``GpSurrogate`` is a set of independent per-metric Gaussian-process
regressors fitted through the beliefs of measured candidates, given as
``(n, M)`` arrays of lift means and variances, and used to predict a belief
at configurations that have never been measured, as ``(q, M)`` arrays
from ``predict_batch`` and its ``Prediction``.

Each metric's regressor uses a squared-exponential kernel on inputs
normalized to the unit box, a zero prior mean, signal variance from the
second moment of the targets about the (zero) prior mean, and per-point
observation noise equal to each belief's aggregated variance.  A small
diagonal jitter keeps the Cholesky factorization well posed; it escalates
by factors of ten on failure up to a hard cap.

The metrics share one input normalization and one set of per-dimension
length scales (the median pairwise-distance heuristic), so they differ only
in signal variance, noise and targets.  The unit kernel
``exp(-0.5 * sum_k ((x1_k - x2_k) / l_k)**2)`` is therefore computed once
per fit, once per prediction, and once more for the rows whose exact
variance is asked for, one cache-sized row tile at a time, by the one
walker ``_unit_tiles``.  Each caller scales a tile where it needs it: a fit
by every metric's signal variance straight into that metric's matrix, a
variance into that metric's right-hand sides, and a prediction into the
tile's own buffers, from which it takes the tile's means and bounds before
the next tile overwrites them (Rasmussen & Williams, *GPML*, 2006, Alg. 2.1
and §2.2).  A fit builds only the triangle the Cholesky factorization
reads.  Off the diagonal each entry is at most the finite signal variance,
so checking the diagonal after the noise is added stands for a scan of the
whole matrix: a diagonal that overflows is a ``FitFailureError``.

The factorizations call LAPACK's ``dpotrf`` and the solves BLAS's
``dtrsm``, through the function pointers scipy exports in
``scipy.linalg.cython_lapack`` and ``cython_blas``.  These are the routines
``scipy.linalg.cholesky`` and ``solve_triangular`` reach, in the same
library, and a fit's ``alpha`` is the two ``dtrsm`` solves, with ``L`` and
then ``L^T``, that ``dpotrs`` makes for ``cho_solve``, so the bits are
theirs; but ctypes releases the GIL for the call, where scipy's wrappers
hold it, so a fit can run on one thread while another draws random numbers.

A ``Helper`` is one worker thread for the length of a ``with`` block: it
runs the calls submitted to it in order, hands each one's value or error
back through ``Call.result()``, and is joined on every path.  A call the
helper has not started while it is busy with an earlier one is claimed by
``result()`` and run on the caller instead, so the caller never waits for
work it could do itself (Blumofe & Leiserson, "Scheduling Multithreaded
Computations by Work Stealing", JACM 1999).  A run has one:
``harness.SingleRun.run_to`` opens it for all the rounds it runs and passes
it to each, and a decided round gives it two jobs: the scheduler submits
the GP fit first, and ``optimizer.select`` then the scoring of each block
of Thompson draws.  A round takes every result it uses before it returns;
a fit it does not use finishes on the helper after it, ahead of the next
round's calls.

The two table modules are loaded straight from their files in scipy's
``linalg`` directory, after ``import scipy`` has set up the bundled
OpenBLAS, and never through ``scipy/linalg/__init__.py``.  That package
init imports scipy's array-API layer, and with it ``numpy.f2py``,
``numpy.testing`` and ``email``: with scipy 1.17.1, on a 2-CPU machine, it
took 190-330 ms of a 310-510 ms ``import zotune``, and the direct load
brings the whole import to a median of about 0.15 s.
Each module is registered in ``sys.modules`` under its own name before it
runs, so a later ``from scipy.linalg import cython_blas`` returns the same
module; only the package attribute ``scipy.linalg.cython_blas`` is then
left unset.  ``_bind`` checks each capsule's C signature, which proves the
pointer is scipy's routine.

A prediction gives every query's posterior mean, an upper bound on each
latent variance, and the exact variance only of the rows a caller asks for,
since a decision that needs the exact variance of a few queries should not
pay for all of them.  It keeps no ``(q, n)`` kernel: each tile's rows get
their means and bounds while the tile is in cache, so one set of tile
buffers serves every query.  The prediction and its variance solves run on
the caller alone, one path for every bucket size: on two threads their
numpy calls of about 10 us each contend for the GIL, which only a large
bucket's GIL-free BLAS calls make up for (README, Performance).  Every
kernel entry is elementwise and the tiles keep the row groups of BLAS's
``dgemv`` (``_unit_tiles``), so each mean has the bits of the whole
``(q, n)`` kernel's product on one BLAS thread; each metric's solve reads
only its own factor and kernel.

Each length scale is an exact order statistic of a sorted matrix: the
pairwise gaps of a dimension's sorted coordinates grow along rows and
shrink down columns, so the median is selected from the gaps inside a
bracket without building all ``n(n-1)/2`` of them (Frederickson & Johnson,
"Generalized Selection and Ranking: Sorted Matrices", SIAM J. Comput.,
1984).  It equals ``np.median`` of the condensed distances bit for bit.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import re
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Generic, Iterator, Sequence, TypeVar

import numpy as np
import scipy

from .problem import HyperParam

BASE_JITTER = 1e-8
MAX_JITTER = 1e-4
SIGNAL_VAR_FLOOR = 1e-8
_MEDIAN_SUBSAMPLE = 64      # sorted points whose gaps bracket the median
_MEDIAN_MARGIN = 1.0 / 64   # first bracket's half-width, as a share of their gaps
_KERNEL_TILE = 2**15        # doubles per row tile of a kernel (256 KiB)
_BOUND_C = 32               # c of the variance bound's rounding factor 1 - c n u


class FitFailureError(RuntimeError):
    """Kernel factorization failed even at the maximum jitter."""


class RejectedInputError(ValueError):
    """A prediction was requested outside the fitted bounds box."""


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bind(module, name: str, params: str):
    """A ctypes function calling ``module``'s exported ``name``, which runs
    without the GIL.  Its capsule must carry the C signature ``void
    (params)``, with scipy's ``double`` typedef spelled ``double``."""
    capsule = module.__pyx_capi__[name]
    tag = _capsule_name(capsule)
    signature = re.sub(r"__pyx_t_\w+_d\b", "double", tag.decode("ascii"))
    if signature != f"void ({params})":
        raise ImportError(f"scipy's {name} has signature {signature!r}, not void ({params})")
    n_args = params.count(",") + 1
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(_capsule_pointer(capsule, tag))


def _linalg_table(name: str):
    """The extension module ``scipy.linalg.<name>``, run from its file
    without ``scipy.linalg``'s package init, and registered under its name."""
    where = os.path.join(scipy.__path__[0], "linalg")
    full = f"scipy.linalg.{name}"
    spec = importlib.machinery.PathFinder.find_spec(full, [where])
    if spec is None:
        raise ImportError(f"no {full} in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


cython_blas = _linalg_table("cython_blas")
cython_lapack = _linalg_table("cython_lapack")

_dpotrf = _bind(cython_lapack, "dpotrf", "char *, int *, double *, int *, int *")
_dtrsm = _bind(
    cython_blas, "dtrsm",
    "char *, char *, char *, char *, int *, int *, double *, double *, int *, double *, int *",
)


_T = TypeVar("_T")


class Call(Generic[_T]):
    """One call submitted to a ``Helper``; ``result()`` waits for it."""

    def __init__(self, helper: "Helper", fn: Callable[..., _T], args: tuple) -> None:
        self._helper = helper
        self._fn = fn
        self._args = args
        self._started = False
        self._done = False
        self._value: _T | None = None
        self._error: BaseException | None = None

    def _run(self) -> None:
        # The call lets go of its function and arguments before it runs, so
        # that once done it holds only its outcome, not, say, a selection
        # block's draws, for as long as its caller keeps it.
        fn, args = self._fn, self._args
        self._fn = self._args = None
        try:
            value, error = fn(*args), None
        except BaseException as exc:  # re-raised by result(); a helper
            value, error = None, exc  # that died here would leave it waiting
        helper = self._helper
        with helper._cond:
            self._value, self._error, self._done = value, error, True
            if helper._running is self:
                helper._running = None
            helper._cond.notify_all()

    def result(self) -> _T:
        """The call's value, or its error raised.

        A call the helper has not started while it runs an earlier one is
        claimed and run here, on the caller; otherwise this waits for the
        helper to finish it, so a call handed to an idle helper runs there.
        """
        helper = self._helper
        with helper._cond:
            claim = not self._started and helper._running is not None
            if claim:
                helper._queue.remove(self)
                self._started = True
            else:
                while not self._done:
                    helper._cond.wait()
        if claim:
            self._run()
        if self._error is not None:
            raise self._error
        return self._value


class Helper:
    """One worker thread beside the caller, for the length of a ``with``.

    ``submit`` queues a call and returns its ``Call``; the thread runs the
    queue in order.  Leaving the block runs what is still queued and joins
    the thread, also when the block raises, so no thread outlives it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._queue: list[Call] = []
        self._running: Call | None = None
        self._open = False
        self._thread = threading.Thread(target=self._serve, name="zotune-helper")

    def __enter__(self) -> "Helper":
        self._open = True
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        with self._cond:
            self._open = False
            self._cond.notify_all()
        self._thread.join()

    def submit(self, fn: Callable[..., _T], *args) -> Call[_T]:
        call = Call(self, fn, args)
        with self._cond:
            if not self._open:
                raise RuntimeError("the helper is not running")
            self._queue.append(call)
            self._cond.notify_all()
        return call

    def _serve(self) -> None:
        cond = self._cond
        while True:
            with cond:
                while self._open and not self._queue:
                    cond.wait()
                if not self._queue:
                    return
                call = self._running = self._queue.pop(0)
                call._started = True
            call._run()
            # An idle helper holds no call, so a result no caller took, such
            # as a fit whose round did not propose, is freed once it is made.
            del call


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


_ONE = ctypes.byref(ctypes.c_double(1.0))


def _operand(a: np.ndarray, shape: tuple[int, ...], *, written: bool = True) -> int:
    """Address of ``a``, which LAPACK may read as a column-major ``shape``
    array (and write, with ``written``); ValueError for anything else."""
    if not (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.shape == shape
        and a.flags.f_contiguous
        and a.flags.aligned
        and (a.flags.writeable or not written)
    ):
        kind = "writeable " if written else ""
        raise ValueError(f"expected a {kind}Fortran-ordered float64 array of shape {shape}")
    return a.ctypes.data


def _order(c: np.ndarray) -> int:
    """Order of the square matrix ``c``; ValueError if it is not square."""
    if not (isinstance(c, np.ndarray) and c.ndim == 2 and c.shape[0] == c.shape[1] >= 1):
        raise ValueError("expected a square matrix")
    return c.shape[0]


def _potrf(a: np.ndarray) -> int:
    """Factor ``a = L L^T`` in place, ``L`` in the lower triangle.

    Only the lower triangle of ``a`` is read or written, so only the lower
    triangle of a factor is meaningful: it equals the lower triangle of
    ``scipy.linalg.cholesky(a, lower=True)``, and ``_trsm`` reads nothing
    else.  Returns LAPACK's ``info``: 0, or the order of the leading minor
    that is not positive definite.
    """
    n = _order(a)
    info = ctypes.c_int(0)
    _dpotrf(b"L", _int(n), _operand(a, (n, n)), _int(n), ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"dpotrf rejected argument {-info.value}")
    return info.value


def _trsm(chol: np.ndarray, b: np.ndarray, transa: bytes = b"N") -> None:
    """Overwrite the ``(n, q)`` array ``b`` with ``L^-1 b`` for the lower
    factor ``chol``, or with ``L^-T b`` for ``transa=b"T"``."""
    n = _order(chol)
    if not (isinstance(b, np.ndarray) and b.ndim == 2):
        raise ValueError("expected an (n, q) right-hand side")
    q = b.shape[1]
    _dtrsm(
        b"L", b"L", transa, b"N", _int(n), _int(q), _ONE,
        _operand(chol, (n, n), written=False), _int(n), _operand(b, (n, q)), _int(n),
    )


def _normalize(thetas: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    return (thetas - lo) / span


def _gap_row_ends(s: np.ndarray, t: float) -> np.ndarray:
    """Per row ``i`` of sorted ``s``, the first ``j > i`` with ``fl(s[j] - s[i]) >= t``.

    ``y -> fl(y - s[i])`` is monotone, so row ``i``'s gaps reach ``t`` exactly
    at the columns with ``s[j] >= u_i``, the least float whose difference
    reaches it.  ``s[i] + t`` lands next to ``u_i``; one-ulp steps that
    recompute the difference settle on it exactly, and ``searchsorted``
    places it.
    """
    first = np.arange(1, s.shape[0] + 1)
    if t <= 0.0:
        return first
    u = s + t
    while True:
        low = (u - s) < t
        if not low.any():
            break
        u[low] = np.nextafter(u[low], np.inf)
    while True:
        prev = np.nextafter(u, -np.inf)
        high = (prev - s) >= t
        if not high.any():
            break
        u[high] = prev[high]
    return np.maximum(np.searchsorted(s, u), first)


def _median_gap(s: np.ndarray) -> float:
    """``np.median`` of the gaps ``fl(s[j] - s[i])``, ``i < j``, of sorted ``s``.

    IEEE subtraction is sign-symmetric, so these are exactly the pairwise
    ``|x_i - x_j|``, and they grow along rows and shrink down columns.  The
    order statistics ``np.median`` averages are selected without the
    ``n(n-1)/2`` array: a strided subsample's gaps give a bracket of values,
    exact row bounds count the gaps below and inside it (the bracket widens
    until it holds the ranks), and only the gaps inside are partitioned.
    """
    n = s.shape[0]
    total = n * (n - 1) // 2
    ranks = np.unique([(total - 1) // 2, total // 2])
    sub = s[:: max(1, n // _MEDIAN_SUBSAMPLE)]
    sub_gaps = np.sort((sub[None, :] - sub[:, None])[np.triu_indices(sub.shape[0], 1)])
    if sub.shape[0] == n:  # the subsample is every point: all gaps are sorted
        return float(np.mean(sub_gaps[ranks]))
    first = np.arange(1, n + 1)
    half = sub_gaps.shape[0] // 2
    w_lo = w_hi = max(1, int(_MEDIAN_MARGIN * sub_gaps.shape[0]))
    while True:
        lo = sub_gaps[half - w_lo] if w_lo <= half else 0.0
        hi = sub_gaps[half + w_hi] if half + w_hi < sub_gaps.shape[0] else s[-1] - s[0]
        left = _gap_row_ends(s, lo)                           # gaps >= lo start here
        right = _gap_row_ends(s, np.nextafter(hi, np.inf))    # gaps > hi start here
        below = int(np.sum(left - first))
        upto = int(np.sum(right - first))
        if below <= ranks[0] and upto > ranks[-1]:
            break
        if below > ranks[0]:
            w_lo *= 2
        if upto <= ranks[-1]:
            w_hi *= 2
    lens = right - left
    rows = np.repeat(np.arange(n), lens)
    cols = np.arange(upto - below) + np.repeat(left - (np.cumsum(lens) - lens), lens)
    gaps = s[cols] - s[rows]
    gaps.partition(ranks - below)
    return float(np.mean(gaps[ranks - below]))


def _median_lengthscales(x: np.ndarray) -> np.ndarray:
    """Per-dimension median pairwise distance, with positive fallbacks.

    A zero median falls back to the mean distance, a pairwise sum whose last
    bit depends on its order, so that dimension's distances ``|x_i - x_j|``,
    ``i < j``, are laid out in row-major upper-triangle order, as in a
    condensed distance vector.
    """
    n, d = x.shape
    if n < 2:
        return np.ones(d)
    scales = np.array([_median_gap(np.sort(x[:, k])) for k in range(d)])
    for k in np.flatnonzero(scales <= 0.0):
        col = x[:, k]
        dists = np.concatenate([np.abs(col[i] - col[i + 1 :]) for i in range(n - 1)])
        m = float(np.mean(dists))
        scales[k] = m if m > 0.0 else 1.0
    return scales


def _unit_tiles(
    x1: np.ndarray, x2: np.ndarray, ls: np.ndarray, *, upper: bool = False
) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Yield ``exp(-0.5 * sum_k ((x1_k - x2_k) / ls_k)**2)`` in row tiles.

    Each tile is yielded as ``(rows, cols, unit, spare)``: ``unit`` is the
    kernel's block ``[rows, cols]``, and ``spare`` a buffer of its shape,
    free once ``unit`` is built.  Both are overwritten by the next tile, so
    a caller scales ``unit`` where it needs it before it asks for the next;
    no ``(n1, n2)`` array is made.  A tile holds about ``_KERNEL_TILE``
    doubles and goes through every pass while it is in cache.  Squared
    scaled distances are accumulated in place one dimension at a time, in
    dimension order.  ``np.sum`` adds a last axis of up to seven elements in
    that order too, so for d <= 7 each entry equals the summed ``(q, n, d)``
    form bit for bit.  With ``upper`` a tile of rows ``r0:r1`` has only the
    columns ``j >= r0``: every ``j >= i``, which is the triangle a Cholesky
    factorization of the transpose reads.

    A tile is a multiple of 4 rows tall, at least 4, except the last, and a
    lone last row joins the tile before it.  So every tile starts at a
    multiple of 4, and no tile is one row unless ``x1`` is.  Under that rule
    ``tile @ v`` gives the rows of the whole product bit for bit: OpenBLAS's
    ``dgemv``, which numpy's ``@`` calls, takes rows in groups of four and
    then the rest one at a time, each with its own order of operations, and
    numpy takes a one-row product to yet another routine.  A product of
    460,800 entries or more (OpenBLAS's threshold) is split across BLAS
    threads, each part grouped from its own first row; no tile comes near
    it, so a tile's rows get the bits of the whole product on one BLAS
    thread.
    """
    n1, n2 = x1.shape[0], x2.shape[0]
    # Four rows at least and a joined last row, and never more than x1 holds.
    size = min(n1 * n2, max(_KERNEL_TILE, 4 * n2) + n2)
    bufs = (np.empty(size), np.empty(size))
    r0 = 0
    while r0 < n1:
        c0 = r0 if upper else 0
        r1 = min(n1, r0 + max(4, _KERNEL_TILE // (n2 - c0) // 4 * 4))
        if r1 == n1 - 1:
            r1 = n1
        shape = (r1 - r0, n2 - c0)
        unit, spare = (buf[: shape[0] * shape[1]].reshape(shape) for buf in bufs)
        for k in range(x1.shape[1]):
            buf = unit if k == 0 else spare
            np.subtract(x1[r0:r1, k, None], x2[None, c0:, k], out=buf)
            buf /= ls[k]
            np.square(buf, out=buf)
            if k > 0:
                unit += spare
        unit *= -0.5
        np.exp(unit, out=unit)
        yield slice(r0, r1), slice(c0, None), unit, spare
        r0 = r1


@dataclass(frozen=True)
class _MetricGp:
    """Fitted state of one metric's regressor (immutable after fit)."""

    signal_var: float
    chol: np.ndarray       # lower Cholesky factor of s2 * unit + diag(noise + jitter)
    alpha: np.ndarray      # (s2 * unit + diag(noise + jitter))^-1 y
    jitter: float
    row_scale: np.ndarray  # 1 / sqrt(K_jj), the factored matrix's diagonal



def _box(bounds: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, span)`` of a bounds box; constant dims get span 1 and normalize to 0."""
    lo, hi = np.array(bounds).T
    span = hi - lo
    span[span == 0.0] = 1.0
    return lo, hi, span


class GpSurrogate:
    """Independent per-metric GP regressors over a shared input box.

    Build one with :meth:`fit`; instances are immutable and prediction is a
    pure function of the fitted state, so repeated calls are bitwise
    reproducible.  Neither touches shared state, so a fit may run on a
    helper thread while its caller draws; a prediction runs on its caller.
    """

    def __init__(
        self,
        bounds: tuple[tuple[float, float], ...],
        x: np.ndarray,
        lengthscales: np.ndarray,
        metrics_gps: tuple[_MetricGp, ...],
    ) -> None:
        self._bounds = bounds
        self._lo, self._hi, self._span = _box(bounds)
        self._x = x                  # normalized training inputs, (n, d)
        self._ls = lengthscales      # shared by every metric
        self._gps = metrics_gps

    @property
    def n_metrics(self) -> int:
        return len(self._gps)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return self._bounds

    def signal_var(self, metric_index: int) -> float:
        return self._gps[metric_index].signal_var

    def lengthscales(self, metric_index: int) -> np.ndarray:
        """Length scales in normalized coordinates; every metric shares them."""
        self._gps[metric_index]  # IndexError for an unknown metric
        return self._ls.copy()

    def jitter(self, metric_index: int) -> float:
        """Diagonal jitter the metric's factorization needed."""
        return self._gps[metric_index].jitter

    @classmethod
    def fit(
        cls,
        bucket: Sequence[HyperParam],
        mu: np.ndarray,
        var: np.ndarray,
    ) -> "GpSurrogate":
        """Fit per-metric regressors through the beliefs of measured candidates.

        ``mu`` and ``var`` are ``(n, M)`` arrays of lift means and variances,
        row ``i`` belonging to ``bucket[i]``.
        """
        if len(bucket) == 0:
            raise ValueError("cannot fit on an empty bucket")
        # C order keeps the second moment's reduction order, and its bits.
        mus = np.ascontiguousarray(mu, dtype=float)
        noises = np.ascontiguousarray(var, dtype=float)
        if mus.ndim != 2 or mus.shape != noises.shape or mus.shape[0] != len(bucket):
            raise ValueError("mu and var must be (n, M) arrays aligned with the bucket")
        if np.any(noises < 0):
            raise ValueError("belief variances must be nonnegative")
        bounds = bucket[0].bounds
        for hp in bucket:
            if hp.bounds != bounds:
                raise ValueError("all candidates must share one bounds box")

        thetas = np.array([hp.theta for hp in bucket], dtype=float)
        lo, _, span = _box(bounds)
        x = _normalize(thetas, lo, span)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mus)) and np.all(np.isfinite(noises))):
            raise FitFailureError("training inputs, targets, and noise must be finite")

        ls = _median_lengthscales(x)
        # Huge finite targets overflow the second moment; that is a failed
        # fit, caught below, not a numpy warning.
        with np.errstate(over="ignore"):
            s2_all = np.maximum(np.mean(mus**2, axis=0), SIGNAL_VAR_FLOOR)
        if not np.all(np.isfinite(s2_all)):
            raise FitFailureError("signal variance must be finite")

        # Each metric's matrix gets only the triangle LAPACK reads: kmat is
        # symmetric, so its transpose is the same matrix in Fortran order
        # and LAPACK factorizes it in place, never reading the unwritten half.
        n = x.shape[0]
        s2s = [float(s2) for s2 in s2_all]
        kmats = [np.empty((n, n)) for _ in s2s]
        for rows, cols, unit, _ in _unit_tiles(x, x, ls, upper=True):
            for s2, kmat in zip(s2s, kmats):
                np.multiply(s2, unit, out=kmat[rows, cols])
        gps = []
        for k, (s2, kmat) in enumerate(zip(s2s, kmats)):
            jit = BASE_JITTER
            while True:
                diag = kmat.reshape(-1)[:: n + 1]
                with np.errstate(over="ignore"):
                    diag += noises[:, k] + jit
                # Off the diagonal every entry is s2 * unit, with unit <= 1
                # and s2 finite, so a finite diagonal makes kmat finite.
                if not np.all(np.isfinite(diag)):
                    raise FitFailureError(
                        f"kernel diagonal of metric {k} overflows"
                    )
                chol = kmat.T
                row_scale = 1.0 / np.sqrt(diag)     # before dpotrf overwrites it
                if _potrf(chol) == 0:
                    break
                jit *= 10.0
                if jit > MAX_JITTER * (1 + 1e-12):
                    raise FitFailureError(
                        f"kernel factorization failed for metric {k} "
                        f"even at jitter {MAX_JITTER}"
                    )
                for rows, cols, unit, _ in _unit_tiles(x, x, ls, upper=True):
                    np.multiply(s2, unit, out=kmat[rows, cols])
            # dpotrs's two solves: L z = y, then L^T alpha = z.
            alpha = mus[:, k].copy()
            _trsm(chol, alpha[:, None])
            _trsm(chol, alpha[:, None], b"T")
            gps.append(_MetricGp(
                signal_var=s2, chol=chol, alpha=alpha, jitter=jit, row_scale=row_scale,
            ))
        return cls(bounds=bounds, x=x, lengthscales=ls, metrics_gps=tuple(gps))

    def _check_inside(self, thetas: np.ndarray) -> None:
        if not np.all(np.isfinite(thetas)):
            raise RejectedInputError("query must be finite")
        if np.any(thetas < self._lo) or np.any(thetas > self._hi):
            raise RejectedInputError("query outside the fitted bounds box")

    def predict_batch(self, thetas: np.ndarray) -> "Prediction":
        """Posterior means at query points, and a bound on each latent variance.

        The ``Prediction`` holds ``mu`` and ``bound`` of shape ``(q, M)``;
        its ``variance`` gives the exact latent variances of the rows asked
        for.  Each ``_unit_tiles`` tile is scaled by metric 1's signal
        variance into its spare buffer, by a third metric's into a new one,
        and by metric 0's, last, in place; it gives its rows' means, ``tile
        @ alpha``, and bounds while it is in cache, and is then overwritten,
        so no ``(q, n)`` kernel is made.  The tiles keep ``_unit_tiles``'s
        rule: each mean has the bits of ``kq @ alpha`` over the whole ``(q,
        n)`` kernel on one BLAS thread, and each bound those of its formula
        over it.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] != self._lo.shape[0]:
            raise RejectedInputError(
                f"query dimension {thetas.shape[1]} does not match the box"
            )
        self._check_inside(thetas)
        xq = _normalize(thetas, self._lo, self._span)
        q, n = xq.shape[0], self._x.shape[0]
        mu = np.empty((q, self.n_metrics))
        bound = np.empty((q, self.n_metrics))
        shrink = 1.0 - _BOUND_C * n * (np.finfo(float).eps / 2)        # 1 - c n u
        for rows, _, unit, spare in _unit_tiles(xq, self._x, self._ls):
            # Metric 0 scales the unit tile in place, so it goes last, and
            # metric 1 takes the spare buffer; rebinding ``kqs`` first frees
            # the last tile's buffers of further metrics.
            kqs = [unit, spare][: self.n_metrics]
            kqs += [np.empty_like(unit) for _ in self._gps[2:]]
            for gk, kq in zip(self._gps[::-1], kqs[::-1]):
                np.multiply(gk.signal_var, unit, out=kq)
            for k, (gk, kq) in enumerate(zip(self._gps, kqs)):
                mu[rows, k] = kq @ gk.alpha
                kq *= gk.row_scale
                top = np.max(kq, axis=1)                                # max_j kq / sqrt(K_jj)
                bound[rows, k] = np.maximum(gk.signal_var - shrink * top**2, 0.0)
        return Prediction(mu=mu, bound=bound, _xq=xq, _gp=self)

    def _variance(self, xq: np.ndarray) -> np.ndarray:
        """Latent variances at the normalized queries ``xq``, ``(r, M)``.

        Their kernel rows are built again by ``_unit_tiles``, entry for
        entry as ``predict_batch`` built them, since a prediction keeps
        none, and each tile is scaled into every metric's right-hand sides.
        Each metric's goes through one ``dtrsm`` with its own factor, a
        square and a column sum, clamped at zero.
        """
        n, r = self._x.shape[0], xq.shape[0]
        ws = [np.empty((n, r), order="F") for _ in self._gps]                # (n, r)
        for rows, _, unit, _ in _unit_tiles(xq, self._x, self._ls):
            for gk, w in zip(self._gps, ws):
                np.multiply(gk.signal_var, unit, out=w.T[rows])
        var = np.empty((r, self.n_metrics))
        for k, (gk, w) in enumerate(zip(self._gps, ws)):
            _trsm(gk.chol, w)
            np.square(w, out=w)
            var[:, k] = np.maximum(gk.signal_var - np.sum(w, axis=0), 0.0)
        return var


@dataclass(frozen=True, eq=False)
class Prediction:
    """A ``predict_batch`` result: ``(q, M)`` posterior means ``mu`` and
    upper bounds ``bound`` on the latent variances, which ``variance`` gives
    exactly for the rows asked for.

    The bound of query ``i`` and metric ``k`` is ``max(0, s2 - (1 - c n u)
    max_j kq[i, j]**2 / K_jj)``, with ``K_jj`` the diagonal of the matrix
    the fit factored, ``u`` the unit roundoff and ``c = 32``; it lies in
    ``[0, s2]``, and so does every variance, at or below its bound.  The
    argument, for one query's kernel row ``k`` and the stored factor ``L``,
    with ``g = (n + 1) u / (1 - (n + 1) u)``: the computed solve ``w`` of
    ``L w = k`` solves ``(L + dL) w = k`` exactly, with ``|dL| <= g |L|``
    componentwise, whatever the order of its inner products and with
    reciprocal diagonals, as a blocked ``dtrsm`` computes them (Oettli &
    Prager, 1964; Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, Thm 8.5).  So ``|w|**2 = k^T K'^-1 k`` for ``K' = (L + dL)(L +
    dL)^T``, and Cauchy-Schwarz, ``k_j = ((L + dL)^T e_j)^T w``, gives
    ``|w|**2 >= k_j**2 / K'_jj >= k_j**2 / ((1 + g)**2 r_j)`` for every
    ``j``, with ``r_j`` the squared norm of row ``j`` of ``L`` (Rasmussen &
    Williams, *GPML*, 2006, §2.2: no single training point explains more).
    The factorization's backward error, ``L L^T = K + dK`` with ``|dK| <= g
    |L| |L^T|`` (Higham, Thm 10.3), gives ``r_j <= K_jj / (1 - g)``.  The
    computed sum of squares costs one more factor ``1 + g``, and the bound's
    own operations nine roundings, so ``c = 32`` keeps the computed ``(1 -
    c n u) max_j k_j**2 / K_jj`` at or below the computed sum of squares for
    every ``n >= 1`` with ``n u`` far below one; rounding is monotone, so the
    bound stays at or above the computed variance.  Underflow is left out:
    it moves either side by less than ``s2 u``.
    """

    mu: np.ndarray
    bound: np.ndarray
    _xq: np.ndarray        # normalized queries
    _gp: GpSurrogate

    def variance(self, rows: np.ndarray) -> np.ndarray:
        """Exact latent variances of the integer ``rows``, ``(len(rows), M)``."""
        return self._gp._variance(self._xq[np.asarray(rows, dtype=np.intp)])
