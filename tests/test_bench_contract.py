"""The bench's tracer still finds every name it wraps in ``zotune``.

``bench/spans.py`` replaces, by name, the attributes that zotune's callers
look up (``scheduler.select``, ``GpSurrogate.predict_batch`` and the rest).
A refactor that renames or inlines one of them would break only the bench,
so this loads the module from its file and installs it on the live package.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def load_spans():
    loader_spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("recording", [True, False], ids=["traced", "untraced"])
def test_install_finds_every_name_and_restore_puts_back_the_originals(recording):
    spans = load_spans()
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
