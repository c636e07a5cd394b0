"""In-memory spans around zotune's public calls, for the traced bench run.

Each span records its name, start and end (``perf_counter_ns``) and the index
of the span that was open when it began.  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover; calls nest strictly in this single-threaded loop,
so the children of one span never overlap.

A tracer built with ``recording=False`` keeps its wrappers' hooks but records
no spans: the untraced runs use it to carry the bench's own checks on
``Scheduler.run_round`` and ``Scheduler.ingest``, so every run replaces and
restores zotune's attributes in this one place.

A wrapper replaces the attribute the *caller* looks up.  ``zotune.scheduler``
imports ``select``, ``propose`` and ``hourly_delta_stat`` by name, so those are
patched on ``zotune.scheduler``; patching ``zotune.optimizer.select`` would
record nothing.  Methods and classmethods are patched on their class, which
every caller reaches through the instance or the class object.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Callable

# before(args, kwargs) runs as a call begins and returns a ``mark``;
# on_exit(counts, args, kwargs, result, exc, mark) runs after it ends.
Before = Callable[[tuple, dict], object]
OnExit = Callable[[Counter, tuple, dict, object, "BaseException | None", object], None]


class Tracer:
    """Patches layer entry points with span wrappers; ``restore`` undoes them."""

    def __init__(self, recording: bool = True) -> None:
        self.recording = recording
        self.spans: list[tuple] = []    # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self.suspended = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_exit: OnExit | None = None,
        before: Before | None = None,
    ) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        recording = self.recording
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            mark = before(args, kwargs) if before is not None else None
            if recording:
                parent = stack[-1] if stack else -1
                index = len(spans)
                stack.append(index)
                spans.append(None)
            result, error = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                if recording:
                    # A closed span is a tuple of atoms, which the garbage
                    # collector stops tracking, so a long trace does not
                    # slow the collections that follow.
                    spans[index] = (name, start, clock(), parent)
                    stack.pop()
                if on_exit is not None:
                    on_exit(counts, args, kwargs, result, error, mark)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, raw))

    @contextlib.contextmanager
    def suspend(self):
        """Leave the bench's own checks out of the spans and counts."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms and self_ms."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - covered) / 1e6
        return out

    def write(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (``wchar``).

    Counting at the system-call boundary measures what persist writes
    whatever its file layout, whole rewrites and appends alike.
    """
    with open("/proc/self/io", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def install(tracer: Tracer, probe) -> None:
    """Hook ``probe`` on ``Scheduler.run_round`` and ``Scheduler.ingest``;
    when ``tracer`` is recording, also wrap every layer the bench reports.
    Call after ``zotune`` is importable; ``tracer.restore()`` undoes it."""
    import numpy as np

    from zotune import harness, scheduler
    from zotune.deltastats import DegenerateBaseError, DuplicateRoundError, EstimateRecord
    from zotune.gp import GpSurrogate
    from zotune.problem import TuningProblem
    from zotune.simenv import SimEnv

    def step_readings(counts, args, kwargs, result, exc, mark):
        if exc is None:
            counts["simenv.step.readings"] += sum(len(b.readings) for b in result)

    def fit_points(counts, args, kwargs, result, exc, mark):
        counts["gp.fit.points"] += len(args[1] if len(args) > 1 else kwargs["bucket"])

    def predict_queries(counts, args, kwargs, result, exc, mark):
        thetas = args[1] if len(args) > 1 else kwargs["thetas"]
        counts["gp.predict.queries"] += np.atleast_2d(thetas).shape[0]

    def select_reps(counts, args, kwargs, result, exc, mark):
        if exc is None:
            counts["optimizer.select.reps"] += len(result.winners)
            counts["optimizer.select.infeasible_reps"] += result.infeasible_rounds

    def propose_feasible(counts, args, kwargs, result, exc, mark):
        if exc is None:
            counts["optimizer.propose.sampled"] += result.sampled_count
            counts["optimizer.propose.feasible"] += result.feasible_count

    def persist_bytes(counts, args, kwargs, result, exc, mark):
        if exc is None:
            counts["scheduler.persist.bytes"] += written_bytes() - mark

    def absorb_duplicates(counts, args, kwargs, result, exc, mark):
        if isinstance(exc, DuplicateRoundError):
            counts["deltastats.absorb.duplicates"] += 1

    def hourly_degenerate(counts, args, kwargs, result, exc, mark):
        if isinstance(exc, DegenerateBaseError):
            counts["deltastats.hourly.degenerate"] += 1

    tracer.patch(scheduler.Scheduler, "run_round", "scheduler.run_round",
                 probe.after_round, probe.before_round)
    tracer.patch(scheduler.Scheduler, "ingest", "scheduler.ingest",
                 probe.after_ingest, probe.before_ingest)
    if not tracer.recording:
        return
    tracer.patch(harness, "run_single", "harness.run_single")
    tracer.patch(SimEnv, "build", "simenv.build")
    tracer.patch(SimEnv, "step", "simenv.step", step_readings)
    tracer.patch(
        scheduler.Scheduler, "persist", "scheduler.persist", persist_bytes,
        lambda args, kwargs: written_bytes(),
    )
    tracer.patch(scheduler.Scheduler, "restore", "scheduler.restore")
    tracer.patch(scheduler, "select", "optimizer.select", select_reps)
    tracer.patch(scheduler, "propose", "optimizer.propose", propose_feasible)
    tracer.patch(scheduler, "hourly_delta_stat", "deltastats.hourly", hourly_degenerate)
    tracer.patch(GpSurrogate, "fit", "gp.fit", fit_points)
    tracer.patch(GpSurrogate, "predict_batch", "gp.predict", predict_queries)
    tracer.patch(TuningProblem, "objective_batch", "problem.batch")
    tracer.patch(TuningProblem, "constraint_slack_batch", "problem.batch")
    tracer.patch(EstimateRecord, "aggregate", "deltastats.aggregate")
    tracer.patch(EstimateRecord, "absorb", "deltastats.absorb", absorb_duplicates)
