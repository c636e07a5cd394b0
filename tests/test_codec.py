"""Tests for the field-driven codec of the stored dataclasses."""

import dataclasses
import hashlib
import json
import math
import re
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zotune import codec
from zotune.codec import DecodeError, from_dict
from zotune.deltastats import Reading, TaylorMode
from zotune.harness import (
    ExperimentConfig,
    HarnessConfigError,
    RoundRow,
    RunReport,
    SeedTrajectory,
    SingleRun,
)
from zotune.problem import HyperParam, LinearExpr, TuningProblem
from zotune.scheduler import BucketInit, InboundBatch, RoundPlan, SchedulerConfig
from zotune.simenv import EnvKnobs, SimEnv


def through_json(value):
    """``value`` after a trip through its stored JSON form."""
    return from_dict(type(value), json.loads(json.dumps(codec.to_dict(value))))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def round_plans(draw):
    ids = draw(st.lists(st.integers(0, 10**9), unique=True, min_size=1, max_size=20))
    cf = draw(st.floats(min_value=0.01, max_value=0.99))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(ids), max_size=len(ids)))
    total = sum(weights)
    return RoundPlan(
        round=draw(st.integers(0, 10**6)),
        control_fraction=cf,
        assignments=tuple(
            (cid, (1.0 - cf) * w / total) for cid, w in zip(sorted(ids), weights)
        ),
    )


@st.composite
def inbound_batches(draw):
    origin = draw(st.integers(0, 10**6))

    def group():
        """A sample mean, sample variance and group size."""
        var = draw(st.floats(min_value=0.0, allow_infinity=False))
        return draw(finite), var, draw(st.integers(1, 10**12))

    metrics = draw(st.lists(st.text(max_size=8), max_size=4))
    cid = draw(st.integers(1, 10**6))
    return InboundBatch(
        arrival_round=origin + draw(st.integers(0, 100)),
        readings=tuple(Reading(cid, m, origin, *group(), *group()) for m in metrics),
    )


class TestRoundTrip:
    @given(round_plans())
    @settings(max_examples=100, deadline=None)
    def test_round_plan(self, plan):
        assert through_json(plan) == plan

    @given(inbound_batches())
    @settings(max_examples=100, deadline=None)
    def test_inbound_batch(self, batch):
        assert through_json(batch) == batch

    @pytest.mark.parametrize(
        "make",
        [
            SchedulerConfig,
            lambda: SchedulerConfig(
                select_count=7, proposal_samples=9, proposal_prob=0.25,
                control_fraction=0.3, taylor_mode=TaylorMode.CROSSED,
                normalization="raw", init=BucketInit(mode="grid", nodes_per_dim=4),
            ),
            ExperimentConfig,
            lambda: ExperimentConfig(
                variant="synchronous", seeds=(5, 3), taylor_mode="crossed",
                sigma=0.4, users=5000, draws_per_step=20,
                env_weights=(1.0, 2.0, 3.0, 4.0), env_threshold=0.5,
                base_theta=(0.25, 0.75), out_dir="out",
            ),
            lambda: SimEnv.build(29, users=1000, base_theta=(0.5, 0.5)).spec,
            lambda: RunReport(
                variant="full",
                rounds=2,
                config=ExperimentConfig(rounds=2).to_dict(),
                trajectories=(
                    SeedTrajectory(
                        seed=4,
                        base_violation=0.125,
                        rows=(
                            RoundRow(round=0, winner_id=None, gain=0.0, violation=0.125),
                            RoundRow(round=1, winner_id=17, gain=0.1 / 3, violation=0.0),
                        ),
                    ),
                ),
            ),
        ],
        ids=[
            "scheduler-default", "scheduler-set", "experiment-default",
            "experiment-set", "env-spec", "run-report",
        ],
    )
    def test_stored_types(self, make):
        value = make()
        assert through_json(value) == value

    def test_report_rows_are_lists(self):
        row = RoundRow(round=0, winner_id=None, gain=0.5, violation=0.25)
        trajectory = SeedTrajectory(seed=1, base_violation=0.25, rows=(row,))
        report = RunReport(variant="full", rounds=1, config={}, trajectories=(trajectory,))
        assert report.to_dict()["trajectories"][0]["rows"] == [[0, None, 0.5, 0.25]]


class TestStoredFile:
    PLAN = RoundPlan(round=3, control_fraction=0.2, assignments=((1, 0.5), (4, 0.3)))

    def test_save_writes_sorted_indented_json_with_its_version(self, tmp_path):
        path = tmp_path / "plan.json"
        codec.save(str(path), 7, self.PLAN)
        assert path.read_text(encoding="utf-8") == json.dumps(
            {"format_version": 7, **codec.to_dict(self.PLAN)}, indent=2, sort_keys=True
        ) + "\n"
        assert codec.load(str(path), 7, RoundPlan) == self.PLAN

    def test_load_refuses_another_version_and_passes_bad_json_on(self, tmp_path):
        path = tmp_path / "plan.json"
        codec.save(str(path), 7, self.PLAN)
        with pytest.raises(DecodeError, match="version 7, expected 8"):
            codec.load(str(path), 8, RoundPlan)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            codec.load(str(path), 7, RoundPlan)


class TestStoredTable:
    HEADER = ["label", "x", "gap", "n"]

    @pytest.mark.bitwise
    def test_save_table_writes_lf_rows_and_quotes_only_where_needed(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            ["x1", np.float64(0.1), None, 3],
            ['a,"b"', -0.0, None, -1],
            ["c\rd", math.inf, None, 0],
            ["e\nf", 5e-324, None, 10**20],
        ]
        digest = codec.save_table(str(path), self.HEADER, rows)
        data = path.read_bytes()
        assert data == (
            b"label,x,gap,n\n"
            b"x1,0.1,,3\n"
            b'"a,""b""",-0.0,,-1\n'
            b'"c\rd",inf,,0\n'
            b'"e\nf",5e-324,,100000000000000000000\n'
        )
        assert digest == codec.TableDigest(
            rows=4, size=len(data), sha256=hashlib.sha256(data).hexdigest()
        )
        # A row is numbered by the line it ends on; a quoted CR or LF ends a line.
        lines = [line for line, _ in codec.load_table(str(path), self.HEADER, digest)]
        assert lines == [2, 3, 5, 7]

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    st.one_of(
                        st.sampled_from(',"\r\n'),
                        st.characters(exclude_categories=("Cs",)),
                    )
                ),
                st.floats(allow_nan=False),
                st.integers(),
            ),
            max_size=6,
        )
    )
    @example(rows=[("a\r", -0.0, 0), ('"', 5e-324, -1), ("\r\n,", -math.inf, 2)])
    @example(rows=[("", math.inf, 1), ("\n", -2.225073858507201e-308, 7)])
    def test_cells_come_back_as_written(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "t.csv")
            digest = codec.save_table(path, self.HEADER, ([s, x, None, n] for s, x, n in rows))
            assert digest.rows == len(rows)
            read = [cells for _, cells in codec.load_table(path, self.HEADER, digest)]
            assert len(read) == len(rows)
            for (s, x, n), cells in zip(rows, read):
                assert cells[0] == s
                assert float(cells[1]).hex() == x.hex()
                assert cells[2:] == ["", str(n)]
            with pytest.raises(DecodeError, match=re.escape(path)):
                next(codec.load_table(path, self.HEADER[:-1], digest))

    def test_an_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        empty = codec.TableDigest(rows=0, size=0, sha256=hashlib.sha256(b"").hexdigest())
        with pytest.raises(DecodeError, match="t.csv: header None"):
            list(codec.load_table(str(path), self.HEADER, empty))

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda data: data[:-1], "t.csv: 32 bytes, expected 33"),
            (lambda data: data + b"x", "t.csv: 34 bytes, expected 33"),
            (lambda data: data.replace(b"3", b"4"), "t.csv: SHA-256 [0-9a-f]{64}, expected"),
        ],
        ids=["cut", "extended", "edited"],
    )
    def test_other_bytes_are_refused_before_any_row(self, tmp_path, edit, error):
        path = tmp_path / "t.csv"
        digest = codec.save_table(str(path), self.HEADER, [["a", 1.5, None, 3], ["b", 2.5, 7, 9]])
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DecodeError, match=error):
            next(codec.load_table(str(path), self.HEADER, digest))

    def test_another_row_count_is_refused_after_the_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        digest = codec.save_table(str(path), self.HEADER, [["a", 1.5, None, 3]])
        rows = codec.load_table(str(path), self.HEADER, dataclasses.replace(digest, rows=2))
        assert next(rows) == (2, ["a", "1.5", "", "3"])
        with pytest.raises(DecodeError, match="t.csv: 1 rows, expected 2"):
            next(rows)


class TestDecoder:
    PLAN = {"round": 3, "control_fraction": 0.2, "assignments": [[1, 0.5], [4, 0.3]]}

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda d: d.update(extra=1), "unknown keys \\['extra'\\]"),
            (lambda d: d.pop("round"), "missing keys \\['round'\\]"),
            (lambda d: d.update(round="3"), "RoundPlan.round"),
            (lambda d: d.update(round=True), "RoundPlan.round"),
            (lambda d: d.update(round=3.0), "RoundPlan.round"),
            (lambda d: d.update(control_fraction=None), "RoundPlan.control_fraction"),
            (lambda d: d.update(assignments=[[1, 0.5, 2]]), "RoundPlan.assignments\\[0\\]"),
            (lambda d: d.update(assignments={"1": 0.8}), "RoundPlan.assignments"),
        ],
        ids=[
            "unknown-key", "missing-key", "str-for-int", "bool-for-int",
            "float-for-int", "null-for-float", "long-pair", "object-for-list",
        ],
    )
    def test_refuses(self, edit, where):
        d = json.loads(json.dumps(self.PLAN))
        edit(d)
        with pytest.raises(DecodeError, match=where) as info:
            from_dict(RoundPlan, d)
        assert isinstance(info.value, ValueError)

    def test_refuses_nested_and_enum_values(self):
        d = codec.to_dict(SchedulerConfig())
        d["init"]["size"] = "x"
        with pytest.raises(DecodeError, match="SchedulerConfig.init.size"):
            from_dict(SchedulerConfig, d)
        d = codec.to_dict(SchedulerConfig())
        d["taylor_mode"] = "second-order"
        with pytest.raises(DecodeError, match="taylor_mode"):
            from_dict(SchedulerConfig, d)
        d = codec.to_dict(SchedulerConfig())
        d["init"] = 5
        with pytest.raises(DecodeError, match="SchedulerConfig.init: expected an object"):
            from_dict(SchedulerConfig, d)
        row = RoundRow(round=0, winner_id=None, gain=0.5, violation=0.25)
        d = codec.to_dict(SeedTrajectory(seed=1, base_violation=0.25, rows=(row,)))
        d["rows"][0].pop()
        with pytest.raises(DecodeError, match=r"SeedTrajectory.rows\[0\]: expected a list of 4"):
            from_dict(SeedTrajectory, d)

    def test_a_literal_tag_round_trips_and_refuses_any_other_value(self):
        expr = LinearExpr((0.5, 2.0))
        assert codec.to_dict(expr) == {"weights": [0.5, 2.0], "form": "linear"}
        assert through_json(expr) == expr
        for bad in ("quadratic", "Linear", 1, None, ["linear"]):
            with pytest.raises(DecodeError, match="LinearExpr.form"):
                from_dict(LinearExpr, {"weights": [0.5, 2.0], "form": bad})

    def test_widens_an_int_to_float(self):
        d = ExperimentConfig().to_dict()
        d["proposal_prob"] = 1
        assert type(ExperimentConfig.from_dict(d).proposal_prob) is float

    def test_a_stored_file_must_be_an_object(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps([["format_version", 1]]), encoding="utf-8")
        with pytest.raises(HarnessConfigError, match="version None"):
            RunReport.load(str(path))


def _reachable(tp, found):
    """Add to ``found`` every dataclass that the annotation ``tp`` names,
    directly or through the field annotations of one it names."""
    if dataclasses.is_dataclass(tp) and tp not in found:
        found.add(tp)
        for hint in typing.get_type_hints(tp).values():
            _reachable(hint, found)
    for arg in typing.get_args(tp):
        _reachable(arg, found)


def _held_classes():
    found = set()
    for root in (
        ExperimentConfig, SchedulerConfig, TuningProblem, EnvKnobs,
        Reading, InboundBatch, RoundPlan, HyperParam,
    ):
        _reachable(root, found)
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.fixture(scope="module")
def live_instances():
    """The first instance of each dataclass met in the values of a short
    live run: its config, its scheduler's config and problem, its bucket,
    its last plan and the feedback of one more hour."""
    cfg = ExperimentConfig(
        seeds=(3,), select_count=50, proposal_samples=40, bucket_size=10, users=20_000,
        sigma=0.5, draws_per_step=20, env_weights=(1.0, 2.0, 3.0, 4.0), env_threshold=0.5,
        base_theta=(0.5, 0.5),
    )
    run = SingleRun(3, cfg)
    run.run_to(3)
    thetas = {hp.id: hp.theta for hp in run.sched.bucket}
    batches = run.env.step(run.sched.last_plan, run.next_round, thetas)
    found = {}

    def collect(value):
        if dataclasses.is_dataclass(value):
            found.setdefault(type(value), value)
            for f in dataclasses.fields(value):
                collect(getattr(value, f.name))
        elif isinstance(value, tuple):
            for item in value:
                collect(item)

    collect((cfg, run.sched.config, run.sched.problem, EnvKnobs(), run.sched.bucket,
             run.sched.last_plan, tuple(batches)))
    return found


class TestEveryStoredFieldHoldsItsType:
    """Each stored class, a new one too, keeps what its annotations say:
    swapping one field of a valid instance, a ``float`` field refuses
    ``True``, an ``int`` field refuses ``2.5`` and ``True``, and a tuple
    field given a list holds a tuple."""

    @pytest.mark.parametrize("cls", _held_classes(), ids=lambda cls: cls.__name__)
    def test_swapped_field(self, cls, live_instances):
        assert cls in live_instances, f"no live {cls.__name__} to start from"
        instance = live_instances[cls]
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            tp = hints[f.name]
            if typing.get_origin(tp) in (typing.Union, types.UnionType):
                (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
            refused = {float: [True], int: [2.5, True]}.get(tp, [])
            for value in refused:
                with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{f.name}:")):
                    dataclasses.replace(instance, **{f.name: value})
            if typing.get_origin(tp) is tuple:
                value = getattr(instance, f.name)
                held = getattr(dataclasses.replace(instance, **{f.name: list(value)}), f.name)
                assert type(held) is tuple and held == value, f.name
