"""Tests for the fault-plan model and the seeded Monte Carlo generator."""

import re

import pytest

from repro.arch.presets import mesh_3x3
from repro.arch.topology import Link
from repro.errors import SerializationError
from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_PLAN_SCHEMA_VERSION,
    FaultPlan,
    LinkFault,
    PEFault,
    TransientFault,
    generate_fault_plans,
)


def full_plan():
    return FaultPlan(
        name="mixed",
        seed=3,
        pe_faults=(PEFault(pe=2, time=10.0),),
        link_faults=(LinkFault(src=(0, 0), dst=(0, 1), time=8.0),),
        transient_faults=(TransientFault(src=(1, 0), dst=(1, 1), start=5.0, end=9.0),),
    )


class TestFaultPlanModel:
    def test_fault_time_is_earliest_event(self):
        assert full_plan().fault_time == 5.0

    def test_empty_plan_has_no_fault_time(self):
        with pytest.raises(SerializationError):
            FaultPlan(name="empty").fault_time
        assert FaultPlan(name="empty").is_empty

    def test_kind_precedence(self):
        assert full_plan().kind == "pe"
        assert FaultPlan(
            name="l", link_faults=(LinkFault((0, 0), (0, 1), 1.0),)
        ).kind == "link"
        assert FaultPlan(
            name="t", transient_faults=(TransientFault((0, 0), (0, 1), 1.0, 2.0),)
        ).kind == "transient"

    def test_negative_times_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan(name="bad", pe_faults=(PEFault(pe=0, time=-1.0),))
        with pytest.raises(SerializationError):
            FaultPlan(name="bad", link_faults=(LinkFault((0, 0), (0, 1), -0.5),))

    @pytest.mark.parametrize(
        "plan_kwargs, field",
        [
            ({"pe_faults": (PEFault(pe=0, time=float("nan")),)}, "pe_faults[0].time"),
            ({"pe_faults": (PEFault(pe=0, time=float("inf")),)}, "pe_faults[0].time"),
            (
                {"link_faults": (LinkFault((0, 0), (0, 1), 1.0), LinkFault((0, 1), (1, 1), float("nan")))},
                "link_faults[1].time",
            ),
            (
                {"transient_faults": (TransientFault((0, 0), (0, 1), float("nan"), 5.0),)},
                "transient_faults[0].start",
            ),
            (
                {"transient_faults": (TransientFault((0, 0), (0, 1), 1.0, float("nan")),)},
                "transient_faults[0].end",
            ),
            (
                {"transient_faults": (TransientFault((0, 0), (0, 1), 1.0, float("inf")),)},
                "transient_faults[0].end",
            ),
            (
                {"transient_faults": (TransientFault((0, 0), (0, 1), -2.0, 5.0),)},
                "transient_faults[0].start",
            ),
        ],
    )
    def test_non_finite_times_rejected_naming_the_field(self, plan_kwargs, field):
        with pytest.raises(SerializationError, match=re.escape(field)):
            FaultPlan(name="bad", **plan_kwargs)

    @pytest.mark.parametrize(
        "group, entry, field",
        [
            ("pe_faults", {"pe": 1, "time": "NaN"}, "time"),
            ("link_faults", {"src": [0, 0], "dst": [0, 1], "time": "nan"}, "time"),
            ("transient_faults", {"src": [0, 0], "dst": [0, 1], "start": "nan", "end": "nan"}, "start"),
        ],
    )
    def test_json_nan_times_rejected(self, group, entry, field):
        document = FaultPlan(name="ok", pe_faults=(PEFault(pe=0, time=1.0),)).to_dict()
        document["pe_faults"] = []
        document[group] = [entry]
        with pytest.raises(SerializationError, match=rf"{group}\[0\]\.{field}"):
            FaultPlan.from_dict(document)

    def test_empty_transient_window_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan(
                name="bad",
                transient_faults=(TransientFault((0, 0), (0, 1), 5.0, 5.0),),
            )

    def test_cut_channels_deduplicates_directions(self):
        plan = FaultPlan(
            name="dup",
            link_faults=(
                LinkFault((0, 0), (0, 1), 1.0),
                LinkFault((0, 1), (0, 0), 2.0),
            ),
        )
        assert plan.cut_channels() == (((0, 0), (0, 1)),)

    def test_transient_windows_cover_both_directions(self):
        plan = FaultPlan(
            name="t", transient_faults=(TransientFault((0, 0), (0, 1), 1.0, 4.0),)
        )
        windows = plan.transient_windows()
        assert windows[Link((0, 0), (0, 1))] == ((1.0, 4.0),)
        assert windows[Link((0, 1), (0, 0))] == ((1.0, 4.0),)

    def test_dead_pes_sorted_unique(self):
        plan = FaultPlan(
            name="p",
            pe_faults=(PEFault(5, 1.0), PEFault(2, 2.0), PEFault(5, 3.0)),
        )
        assert plan.dead_pes() == (2, 5)


class TestSerialization:
    def test_roundtrip_is_exact(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_document_carries_schema_version(self):
        doc = full_plan().to_dict()
        assert doc["format"] == "repro-fault-plan"
        assert doc["version"] == FAULT_PLAN_SCHEMA_VERSION

    def test_unknown_version_rejected(self):
        doc = full_plan().to_dict()
        doc["version"] = FAULT_PLAN_SCHEMA_VERSION + 1
        with pytest.raises(SerializationError):
            FaultPlan.from_dict(doc)

    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan.from_dict({"format": "repro-schedule", "version": 1})

    def test_malformed_fields_rejected(self):
        doc = full_plan().to_dict()
        doc["pe_faults"] = [{"pe": "nope"}]
        with pytest.raises(SerializationError):
            FaultPlan.from_dict(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError):
            FaultPlan.from_json("{not json")

    @pytest.mark.parametrize(
        "group, entry, path",
        [
            # A bool is an int to Python; `int(True)` would load it as PE 1.
            ("pe_faults", {"pe": True, "time": 1.0}, "pe_faults[0].pe"),
            ("pe_faults", {"pe": "2", "time": 1.0}, "pe_faults[0].pe"),
            ("pe_faults", {"pe": 1.0, "time": 1.0}, "pe_faults[0].pe"),
            ("pe_faults", {"pe": -1, "time": 1.0}, "pe_faults[0].pe"),
            ("pe_faults", {"pe": 1, "time": "1"}, "pe_faults[0].time"),
            ("pe_faults", {"pe": 1, "time": False}, "pe_faults[0].time"),
            ("link_faults", {"src": [0, 0], "dst": [0, 1], "time": "1"}, "link_faults[0].time"),
            (
                "transient_faults",
                {"src": [0, 0], "dst": [0, 1], "start": 1.0, "end": "2"},
                "transient_faults[0].end",
            ),
        ],
    )
    def test_mistyped_fields_rejected_naming_the_path(self, group, entry, path):
        document = full_plan().to_dict()
        document[group] = [entry]
        with pytest.raises(SerializationError, match=re.escape(path)):
            FaultPlan.from_dict(document)

    def test_integral_times_load_as_floats(self):
        document = full_plan().to_dict()
        document["pe_faults"] = [{"pe": 2, "time": 3}]
        plan = FaultPlan.from_dict(document)
        assert plan.pe_faults == (PEFault(pe=2, time=3.0),)
        assert type(plan.pe_faults[0].time) is float


class TestGenerator:
    def test_same_seed_same_corpus(self):
        acg = mesh_3x3()
        a = generate_fault_plans(acg, 12, seed=5, horizon=100.0)
        b = generate_fault_plans(acg, 12, seed=5, horizon=100.0)
        assert a == b

    def test_different_seed_differs(self):
        acg = mesh_3x3()
        a = generate_fault_plans(acg, 12, seed=5, horizon=100.0)
        b = generate_fault_plans(acg, 12, seed=6, horizon=100.0)
        assert a != b

    def test_kinds_rotate_evenly_over_21_plans(self):
        plans = generate_fault_plans(mesh_3x3(), 21, seed=0, horizon=50.0)
        counts = {kind: 0 for kind in FAULT_KINDS}
        for plan in plans:
            counts[plan.kind] += 1
        assert counts == {"pe": 7, "link": 7, "transient": 7}

    def test_times_within_horizon(self):
        horizon = 80.0
        for plan in generate_fault_plans(mesh_3x3(), 30, seed=1, horizon=horizon):
            assert 0.0 < plan.fault_time < horizon

    def test_kind_subset(self):
        plans = generate_fault_plans(
            mesh_3x3(), 6, seed=2, horizon=10.0, kinds=("link",)
        )
        assert all(plan.kind == "link" for plan in plans)

    def test_invalid_arguments(self):
        acg = mesh_3x3()
        with pytest.raises(ValueError):
            generate_fault_plans(acg, -1, seed=0, horizon=10.0)
        with pytest.raises(ValueError):
            generate_fault_plans(acg, 1, seed=0, horizon=0.0)
        with pytest.raises(ValueError):
            generate_fault_plans(acg, 1, seed=0, horizon=10.0, kinds=("alpha",))
        with pytest.raises(ValueError):
            generate_fault_plans(acg, 1, seed=0, horizon=10.0, kinds=())

    def test_generated_plans_serialize(self):
        for plan in generate_fault_plans(mesh_3x3(), 9, seed=3, horizon=40.0):
            assert FaultPlan.from_json(plan.to_json()) == plan
