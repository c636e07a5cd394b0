"""The bench still finds every name it wraps or reads in ``zotune``.

``bench/spans.py`` replaces, by name, the attributes that zotune's callers
look up (``scheduler.select``, ``GpSurrogate.predict_batch`` and the rest),
and ``bench/workloads.py`` checks each plan and restore through the
scheduler's attributes (``last_selection``, ``next_id``, ``created_round``,
``record.aggregate``, ``last_plan``, ``rng``).  A refactor that renames or
inlines one of them would break only the bench, so these load the modules
from their files and run them on the live package.  ``bench/run.py`` is not
loaded: importing it pins the BLAS thread variables for the whole process.
"""

import ast
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from zotune.harness import ExperimentConfig, SingleRun, run_experiment
from zotune.scheduler import Scheduler

BENCH = Path(__file__).parents[1] / "bench"


def load_bench(name):
    loader_spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(loader_spec)
    sys.modules[loader_spec.name] = module     # its dataclasses look their module up
    loader_spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("recording", [True, False], ids=["traced", "untraced"])
def test_install_finds_every_name_and_restore_puts_back_the_originals(recording):
    spans = load_bench("spans")
    tracer = spans.Tracer(recording=recording)
    hook = lambda *args: None
    probe = SimpleNamespace(
        before_round=hook, after_round=hook, before_ingest=hook, after_ingest=hook,
    )
    try:
        spans.install(tracer, probe)  # a name that is gone raises KeyError here
        patched = list(tracer._patched)
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in patched)
    finally:
        tracer.restore()
    assert len(patched) == (16 if recording else 2)
    assert all(vars(owner)[attr] is raw for owner, attr, raw in patched)


def test_workload_checks_pass_on_a_live_run(tmp_path, helper):
    """Each round's plan, a restore and a report's finals, as the bench reads them."""
    workloads = load_bench("workloads")
    cfg = ExperimentConfig(
        seeds=(3,), rounds=3, select_count=50, proposal_samples=40, bucket_size=10,
        users=20_000, fixed_delay=1,
    )
    run = SingleRun(3, cfg)
    sched = run.sched
    pending = run.env.step(sched.last_plan, 0, {hp.id: hp.theta for hp in sched.bucket})
    proposed = 0
    for r in range(1, 6):
        arrived = [b for b in pending if b.arrival_round <= r]
        pending = [b for b in pending if b.arrival_round > r]
        next_id_before = sched.next_id
        plan = sched.run_round(arrived, helper=helper)
        assert workloads.plan_errors(sched, plan, next_id_before) == []
        proposed += sched.next_id - next_id_before
        pending += run.env.step(plan, r, {hp.id: hp.theta for hp in sched.bucket})
    assert sched.last_selection is not None and proposed > 0
    sched.persist(str(tmp_path / "store"))
    assert workloads.state_errors(sched, Scheduler.restore(str(tmp_path / "store"))) == []
    report = run_experiment(cfg)
    (trajectory,) = report.trajectories
    assert workloads.full_finals(report) == [
        (3, trajectory.final_gain(), trajectory.final_violation())
    ]


def test_traced_probe_accounts_every_row_of_a_live_run():
    """The traced bench's probe, wired as ``bench/run.py`` wires it, counts a
    batch's rows as ``len(batch.readings)`` and checks that each ingest's
    rows are absorbed or dropped by a reason the wrappers count."""
    spans = load_bench("spans")
    workloads = load_bench("workloads")
    tracer = spans.Tracer(recording=True)
    counts = tracer.counts
    probe = workloads.Probe(
        dropped=lambda: counts["deltastats.absorb.duplicates"] + counts["deltastats.hourly.degenerate"]
    )
    cfg = ExperimentConfig(
        seeds=(3,), rounds=6, select_count=50, proposal_samples=40, bucket_size=10,
        users=20_000, fixed_delay=1,
    )
    spans.install(tracer, probe)
    try:
        run = SingleRun(3, cfg)
        run.run_to(cfg.rounds)
    finally:
        tracer.restore()
    assert probe.failures == []
    assert probe.rows_offered > 0 and probe.rows_absorbed > 0
    assert counts["simenv.step.readings"] >= probe.rows_offered


def required_layers():
    """``REQUIRED_LAYERS`` of ``bench/run.py``, read with ``ast``: importing
    the module would pin the BLAS thread variables for the whole process."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REQUIRED_LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py has no REQUIRED_LAYERS")


def test_a_traced_live_run_records_every_required_layer():
    """The traced bench fails a run with no span for a layer it requires; a
    refactor that stops calling a wrapped name (say, ``predict_batch``)
    fails here instead.  The wrapper counts a prediction's queries from the
    argument after ``self``, so every proposal's samples must reach it
    there."""
    spans = load_bench("spans")
    workloads = load_bench("workloads")
    tracer = spans.Tracer(recording=True)
    cfg = ExperimentConfig(
        seeds=(3,), rounds=6, select_count=50, proposal_samples=40, bucket_size=10,
        users=20_000, fixed_delay=1,
    )
    spans.install(tracer, workloads.Probe())
    try:
        SingleRun(3, cfg).run_to(cfg.rounds)
    finally:
        tracer.restore()
    layers = required_layers()
    assert "gp.predict" in layers
    assert [layer for layer in layers if layer not in tracer.layer_times()] == []
    counts = tracer.counts
    assert counts["gp.predict.queries"] == counts["optimizer.propose.sampled"] > 0
