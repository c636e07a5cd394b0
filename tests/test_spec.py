"""The loop in lock step with its executable specification, ``spec.py``,
and source guards that parse the code with ``ast``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import spec
import zotune
from zotune.gp import GpSurrogate
from zotune.harness import ExperimentConfig, SingleRun


def lock_step(seed, rounds, monkeypatch):
    """Run the ``full`` variant and the spec on the same inbound batches;
    yield each round's number, the spec's proposal, and ``(field, loop's
    value, spec's value)`` triples in the order the round computes them."""
    predicted, inbound = [], []
    predict = GpSurrogate.predict_batch

    def spy_predict(self, thetas):
        predicted.append(predict(self, thetas))
        return predicted[-1]

    monkeypatch.setattr(GpSurrogate, "predict_batch", spy_predict)
    run = SingleRun(seed, ExperimentConfig(variant="full", seeds=(seed,), rounds=rounds))
    sched = run.sched
    run_round = sched.run_round

    def spy_run_round(batches):
        inbound.append(list(batches))
        return run_round(inbound[-1])

    sched.run_round = spy_run_round
    loop = spec.Loop(
        sched.problem, sched.config,
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,))),
    )
    for r in range(rounds):
        inbound.clear()
        predicted.clear()
        next_id = sched.next_id
        run.run_to(r + 1)
        plan = loop.run_round(*inbound) if r else loop.initial_plan()
        sel, (proposed, prediction) = sched.last_selection, loop.last_proposal or (None, None)
        newcomer = sched.bucket[-1] if sched.next_id > next_id else None
        yield r, proposed, [
            ("winners", sel and sel.winners, loop.last_selection and loop.last_selection[0]),
            ("infeasible count", sel and sel.infeasible_rounds,
             loop.last_selection and loop.last_selection[1]),
            ("predicted (mu, var)", [a.tolist() for a in predicted[0]] if predicted else None,
             prediction and [a.tolist() for a in prediction]),
            ("proposed theta", newcomer and (newcomer.id, newcomer.theta),
             proposed and (proposed.id, proposed.theta)),
            ("plan", sched.last_plan, plan),
            ("generator state", sched.rng.bit_generator.state, loop.rng.bit_generator.state),
        ]


@pytest.mark.bitwise
def test_full_runs_match_the_spec_round_by_round(monkeypatch):
    """Seeds 42 and 40 over 30 rounds: every decision equals the spec's,
    bit for bit; the first field that differs is named with its round."""
    for seed in (42, 40):
        proposals = 0
        for r, proposed, fields in lock_step(seed, 30, monkeypatch):
            for name, got, expected in fields:
                if got != expected:
                    pytest.fail(f"seed {seed} round {r}: {name} differs from the spec")
            proposals += proposed is not None
        assert proposals >= 20  # the fit, the prediction and the proposal ran


# What the spec may import from zotune: data types, exceptions, constants,
# and the two estimator functions it builds on.  Nothing that decides.
SPEC_IMPORTS = {
    "zotune.deltastats": {
        "DegenerateBaseError", "DeltaStat", "DuplicateRoundError", "GroupReading",
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
