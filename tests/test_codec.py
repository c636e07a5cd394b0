"""Tests for the field-driven codec of the stored dataclasses."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zotune.codec import DecodeError, from_dict
from zotune.deltastats import GroupReading, TaylorMode
from zotune.harness import (
    ExperimentConfig,
    HarnessConfigError,
    RoundRow,
    RunReport,
    SeedTrajectory,
)
from zotune.scheduler import BucketInit, InboundBatch, RoundPlan, SchedulerConfig
from zotune.simenv import SimEnv


def through_json(value):
    """``value`` after a trip through its stored JSON form."""
    return type(value).from_dict(json.loads(json.dumps(value.to_dict())))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def round_plans(draw):
    ids = draw(st.lists(st.integers(0, 10**9), unique=True, max_size=20))
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

    def reading(cid, metric):
        return GroupReading(
            candidate_id=cid,
            metric=metric,
            round=origin,
            sample_mean=draw(finite),
            sample_var=draw(st.floats(min_value=0.0, allow_infinity=False)),
            group_size=draw(st.integers(1, 10**12)),
        )

    metrics = draw(st.lists(st.text(max_size=8), max_size=4))
    cid = draw(st.integers(1, 10**6))
    return InboundBatch(
        origin_round=origin,
        arrival_round=origin + draw(st.integers(0, 100)),
        readings=tuple((reading(cid, m), reading(0, m)) for m in metrics),
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
        row = RoundRow(round=3, winner_id=None, gain=0.5, violation=0.25)
        trajectory = SeedTrajectory(seed=1, base_violation=0.25, rows=(row,))
        report = RunReport(variant="full", rounds=1, config={}, trajectories=(trajectory,))
        assert report.to_dict()["trajectories"][0]["rows"] == [[3, None, 0.5, 0.25]]


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
        d = SchedulerConfig().to_dict()
        d["init"]["size"] = "x"
        with pytest.raises(DecodeError, match="SchedulerConfig.init.size"):
            from_dict(SchedulerConfig, d)
        d = SchedulerConfig().to_dict()
        d["taylor_mode"] = "second-order"
        with pytest.raises(DecodeError, match="taylor_mode"):
            from_dict(SchedulerConfig, d)

    def test_widens_an_int_to_float(self):
        d = ExperimentConfig().to_dict()
        d["proposal_prob"] = 1
        assert type(ExperimentConfig.from_dict(d).proposal_prob) is float

    def test_a_stored_file_must_be_an_object(self):
        with pytest.raises(HarnessConfigError, match="version None"):
            RunReport.from_dict([["format_version", 1]])
