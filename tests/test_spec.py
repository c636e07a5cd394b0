"""The loop in lock step with its executable specification, ``spec.py``,
and source guards that parse the code with ``ast``."""

import ast
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spec
import zotune
from zotune.gp import GpSurrogate, Prediction
from zotune.harness import ExperimentConfig, SingleRun


def lock_step(cfg, seed, monkeypatch):
    """Run campaign ``cfg`` on ``seed`` and the spec on the same inbound
    batches, each hour through the call the harness made (``run_round`` or
    ``idle``); yield each hour's number, the spec's proposal, and ``(field,
    loop's value, spec's value)`` triples in the order the hour computes them.
    A proposal's prediction is compared by every sample's mean and the exact
    variance of each sample it solved; the others are never computed."""
    predicted, solved, calls = [], [], []
    predict, variance = GpSurrogate.predict_batch, Prediction.variance

    def spy_predict(self, thetas, **kwargs):
        predicted.append(predict(self, thetas, **kwargs))
        return predicted[-1]

    def spy_variance(self, rows, **kwargs):
        solved.append((np.asarray(rows).tolist(), variance(self, rows, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(GpSurrogate, "predict_batch", spy_predict)
    monkeypatch.setattr(Prediction, "variance", spy_variance)
    run = SingleRun(seed, replace(cfg, seeds=(seed,)))
    sched = run.sched
    for name in ("run_round", "idle"):
        def spy(batches, name=name, method=getattr(sched, name)):
            calls.append((name, list(batches)))
            return method(calls[-1][1])

        setattr(sched, name, spy)
    loop = spec.Loop(
        sched.problem, sched.config,
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,))),
    )
    for r in range(cfg.rounds):
        calls.clear()
        predicted.clear()
        solved.clear()
        next_id = sched.next_id
        run.run_to(r + 1)
        for name, batches in calls:
            getattr(loop, name)(batches)
        sel, (proposed, prediction) = sched.last_selection, loop.last_proposal or (None, None)
        newcomer = sched.bucket[-1] if sched.next_id > next_id else None
        absorbed = sorted((row.candidate_id, row.metric, row.round) for row in sched._raw_log)
        (rows, var), = solved or [(None, None)]
        yield r, proposed, [
            ("round", sched.round, r),
            ("absorbed rows", absorbed,
             sorted((cid, m, h) for (cid, m), hours in loop.record.hours.items() for h in hours)),
            ("winners", sel and sel.winners, loop.last_selection and loop.last_selection[0]),
            ("infeasible count", sel and sel.infeasible_rounds,
             loop.last_selection and loop.last_selection[1]),
            ("predicted (mu, var)", [predicted[0].mu.tolist(), var.tolist()] if predicted else None,
             prediction and [prediction[0].tolist(), prediction[1][rows].tolist()]),
            ("proposed theta", newcomer and (newcomer.id, newcomer.theta),
             proposed and (proposed.id, proposed.theta)),
            ("plan", sched.last_plan, loop.last_plan),
            ("generator state", sched.rng.bit_generator.state, loop.rng.bit_generator.state),
        ]


def assert_lock_step(cfg, monkeypatch, seeds=(42, 40)):
    """Every hour of ``seeds`` equals the spec's, bit for bit; the first
    field that differs is named with its hour.  Returns each seed's number
    of proposals."""
    proposals = []
    for seed in seeds:
        proposals.append(0)
        for r, proposed, fields in lock_step(cfg, seed, monkeypatch):
            for name, got, expected in fields:
                if got != expected:
                    pytest.fail(f"{cfg.variant} seed {seed} round {r}: {name} differs from the spec")
            proposals[-1] += proposed is not None
    return proposals


@pytest.mark.bitwise
def test_full_runs_match_the_spec_round_by_round(monkeypatch):
    """The ``full`` variant over 30 rounds, with the fit, the prediction and
    the proposal run in most of them."""
    assert min(assert_lock_step(ExperimentConfig(variant="full"), monkeypatch)) >= 20


@pytest.mark.bitwise
def test_full_run_matches_the_spec_under_frequent_switches(monkeypatch):
    """A 10 us switch interval hands the GIL back and forth between the
    caller's draws and the helper's fit, scoring and prediction many times
    per round; seed 42 still runs in lock step with the spec."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert assert_lock_step(ExperimentConfig(variant="full"), monkeypatch, seeds=(42,))[0] >= 20
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(variant="raw-metric"),
        ExperimentConfig(variant="no-proposal"),
        ExperimentConfig(variant="synchronous"),
        ExperimentConfig(variant="full", fixed_delay=6),
    ],
    ids=["raw-metric", "no-proposal", "synchronous", "full-delay-6"],
)
def test_gate_campaigns_match_the_spec_round_by_round(cfg, monkeypatch):
    """The other campaigns of the acceptance gate, idle hours included."""
    assert_lock_step(cfg, monkeypatch)


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(variant="full", proposal_samples=1, rounds=8),
        ExperimentConfig(variant="full", proposal_samples=5, rounds=8),
        ExperimentConfig(variant="full", proposal_samples=601, rounds=8),
        ExperimentConfig(variant="full", bucket_size=300, rounds=8),
    ],
    ids=["one-sample-proposals", "five-sample-proposals", "601-sample-proposals", "bucket-300"],
)
def test_configurations_outside_the_gate_match_the_spec(cfg, monkeypatch):
    """One-sample proposals solve a single column; five samples are
    predicted unsplit, since a split would leave the helper one row; 601
    split into 304 and 297 rows, whose last row takes ``dgemv``'s one-row
    path, as in the whole product; a 300-candidate bucket selects its length
    scales through the median's bracket and fits a kernel of several tiles.
    Seed 7 proposes in most rounds of each."""
    assert assert_lock_step(cfg, monkeypatch, seeds=(7,))[0] >= 4


# What the spec may import from zotune: data types, exceptions, constants,
# and the two estimator functions it builds on.  Nothing that decides.
SPEC_IMPORTS = {
    "zotune.deltastats": {
        "DegenerateBaseError", "DeltaStat", "DuplicateRoundError", "Reading",
        "aggregate", "hourly_delta_stat",
    },
    "zotune.gp": {"BASE_JITTER", "MAX_JITTER", "SIGNAL_VAR_FLOOR", "FitFailureError"},
    "zotune.problem": {"AT_LEAST", "HyperParam"},
    "zotune.scheduler": {"RoundPlan"},
}


def test_spec_never_imports_the_code_it_checks():
    tree = ast.parse(Path(spec.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] not in ("zotune", "importlib"), alias.name
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "zotune":
            names = {alias.name for alias in node.names}
            assert names <= SPEC_IMPORTS.get(node.module, set()), (node.module, names)
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"


def _opens_for_writing(call):
    """Whether ``call`` is ``open(...)`` or ``x.open(...)`` with a mode that is
    not a constant read mode."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = call.args[:1]
    else:
        return False
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str))
        or set(m.value) & set("wax+")
        for m in modes
    )


def test_only_the_codec_writes_files():
    """Every stored file goes through ``codec``, so its commit point has one home."""
    package = Path(zotune.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "codec.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "csv" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "csv", path.name
            elif isinstance(node, ast.Call):
                assert not _opens_for_writing(node), (path.name, node.lineno)


def test_only_the_scheduler_starts_a_helper():
    """A helper thread lives for one decided round: ``Scheduler.run_round``
    opens it, and ``select``, ``propose`` and ``predict_batch`` run on it."""
    package = Path(zotune.__file__).parent
    starters = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Helper":
                    starters.append((path.name, node.lineno))
    assert starters and {name for name, _ in starters} == {"scheduler.py"}, starters


def _names_scipy(node):
    """Whether ``node`` is ``import scipy…``, ``from scipy… import …``, or a
    call of ``import_module``/``__import__`` whose first argument names scipy."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "scipy"
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in ("import_module", "__import__") and "scipy" in ast.unparse(node.args[0])
    return False


def test_only_the_gp_loader_imports_scipy():
    """``scipy.linalg``'s package init costs about 0.2 s of a fresh import,
    so no module reaches scipy but ``gp``, whose loader needs only the
    top-level package and reads the two LAPACK/BLAS tables from their files."""
    package = Path(zotune.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not _names_scipy(node):
                continue
            loader = (
                path.name == "gp.py"
                and isinstance(node, ast.Import)
                and [(a.name, a.asname) for a in node.names] == [("scipy", None)]
            )
            assert loader, (path.name, node.lineno, ast.unparse(node))
