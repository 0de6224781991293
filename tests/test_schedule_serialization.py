"""Tests for schedule JSON serialisation."""

import copy
import json
import math
import re
from dataclasses import replace

import pytest

from repro.arch.presets import mesh_2x2, mesh_3x3
from repro.core.eas import eas_schedule
from repro.ctg.multimedia import av_encoder_ctg, av_integrated_ctg
from repro.errors import ScheduleValidationError, SerializationError
from repro.schedule.serialization import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.sim.replay import simulate_schedule


@pytest.fixture
def encoder_schedule():
    ctg = av_encoder_ctg("foreman")
    acg = mesh_2x2()
    return ctg, acg, eas_schedule(ctg, acg)


class TestRoundTrip:
    def test_round_trip_preserves_everything(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        restored = schedule_from_json(schedule_to_json(schedule), ctg, acg)
        assert restored.algorithm == schedule.algorithm
        assert restored.mapping() == schedule.mapping()
        assert restored.total_energy() == pytest.approx(schedule.total_energy())
        assert restored.makespan() == pytest.approx(schedule.makespan())
        assert restored.task_placements == schedule.task_placements
        assert restored.comm_placements == schedule.comm_placements

    def test_restored_schedule_validates_and_replays(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        restored = schedule_from_json(schedule_to_json(schedule), ctg, acg)
        restored.validate_structure()
        simulate_schedule(restored)

    def test_json_deterministic(self, encoder_schedule):
        _ctg, _acg, schedule = encoder_schedule
        assert schedule_to_json(schedule) == schedule_to_json(schedule)

    def test_runtime_preserved(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        restored = schedule_from_json(schedule_to_json(schedule), ctg, acg)
        assert restored.runtime_seconds == schedule.runtime_seconds


class TestMismatchDetection:
    def test_wrong_ctg_rejected(self, encoder_schedule):
        _ctg, acg, schedule = encoder_schedule
        other = av_encoder_ctg("akiyo")  # different name
        with pytest.raises(SerializationError, match="computed for CTG"):
            schedule_from_json(schedule_to_json(schedule), other, acg)

    def test_wrong_platform_rejected(self, encoder_schedule):
        ctg, _acg, schedule = encoder_schedule
        with pytest.raises(SerializationError, match="platform"):
            schedule_from_json(schedule_to_json(schedule), ctg, mesh_3x3())

    def test_invalid_json(self, encoder_schedule):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError):
            schedule_from_json("{", ctg, acg)

    def test_wrong_format_marker(self, encoder_schedule):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError):
            schedule_from_dict({"format": "nope", "version": 1}, ctg, acg)

    def test_unknown_task_rejected(self, encoder_schedule):
        ctg, acg, schedule = encoder_schedule
        data = schedule_to_dict(schedule)
        data["tasks"][0]["task"] = "phantom"
        with pytest.raises(SerializationError):
            schedule_from_dict(data, ctg, acg)

    def test_missing_fields(self, encoder_schedule):
        ctg, acg, _schedule = encoder_schedule
        with pytest.raises(SerializationError):
            schedule_from_dict(
                {"format": "repro-schedule", "version": 1, "ctg": ctg.name},
                ctg,
                acg,
            )


@pytest.fixture(scope="module")
def integrated_document():
    """``schedule --system integrated --save``'s document, as a dict."""
    ctg = av_integrated_ctg("foreman")
    acg = mesh_3x3()
    return ctg, acg, json.loads(schedule_to_json(eas_schedule(ctg, acg)))


def _tampered(document, section, index, key, value):
    data = copy.deepcopy(document)
    data[section][index][key] = value
    return data


class TestFieldTypes:
    """Mistyped or non-finite values are rejected with the field's path."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("tasks", "pe", "1"),
            ("tasks", "pe", True),
            ("tasks", "pe", 1.0),
            ("tasks", "start", float("nan")),
            ("tasks", "finish", float("inf")),
            ("tasks", "energy", float("nan")),
            ("tasks", "energy", "12.5"),
            ("comms", "src_pe", "0"),
            ("comms", "dst_pe", False),
            ("comms", "start", float("-inf")),
            ("comms", "finish", float("nan")),
            ("comms", "energy", float("inf")),
            ("comms", "volume", float("nan")),
        ],
    )
    def test_rejected_naming_the_path(self, integrated_document, section, key, value):
        ctg, acg, document = integrated_document
        data = _tampered(document, section, 2, key, value)
        with pytest.raises(SerializationError, match=re.escape(f"{section}[2].{key}")):
            schedule_from_dict(data, ctg, acg)

    def test_nan_literal_in_json_text_rejected(self, integrated_document):
        ctg, acg, document = integrated_document
        text = json.dumps(_tampered(document, "tasks", 0, "energy", float("nan")))
        assert "NaN" in text
        with pytest.raises(SerializationError, match=re.escape("tasks[0].energy")):
            schedule_from_json(text, ctg, acg)

    def test_untampered_document_loads_and_validates(self, integrated_document):
        ctg, acg, document = integrated_document
        schedule_from_dict(copy.deepcopy(document), ctg, acg).validate_structure()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("tasks", "pe", 99),
            ("tasks", "pe", -1),
            ("tasks", "pe", 9),  # mesh_3x3 has PEs 0..8
            ("comms", "src_pe", 99),
            ("comms", "dst_pe", -1),
        ],
    )
    def test_out_of_range_pe_rejected_naming_the_path(
        self, integrated_document, section, key, value
    ):
        ctg, acg, document = integrated_document
        data = _tampered(document, section, 2, key, value)
        with pytest.raises(SerializationError, match=re.escape(f"{section}[2].{key}")):
            schedule_from_dict(data, ctg, acg)

    @pytest.mark.parametrize("value", ["nan", "1.5", float("nan"), float("inf"), -1.0, True, None])
    def test_bad_runtime_seconds_rejected(self, integrated_document, value):
        ctg, acg, document = integrated_document
        data = copy.deepcopy(document)
        data["runtime_seconds"] = value
        with pytest.raises(SerializationError, match="runtime_seconds"):
            schedule_from_dict(data, ctg, acg)

    def test_runtime_seconds_is_optional(self, integrated_document):
        ctg, acg, document = integrated_document
        data = copy.deepcopy(document)
        del data["runtime_seconds"]
        assert schedule_from_dict(data, ctg, acg).runtime_seconds == 0.0


class TestEnergyValidation:
    """``validate_structure`` recomputes every energy from the models."""

    def test_negative_task_energy_rejected(self, integrated_document):
        ctg, acg, document = integrated_document
        schedule = schedule_from_dict(_tampered(document, "tasks", 0, "energy", -1e6), ctg, acg)
        with pytest.raises(ScheduleValidationError, match="energy -1000000.0 != model"):
            schedule.validate_structure()

    def test_nan_task_energy_rejected(self, integrated_document):
        # The loader already refuses NaN; a schedule built in memory
        # must still fail validation rather than total to nan.
        ctg, acg, document = integrated_document
        schedule = schedule_from_dict(copy.deepcopy(document), ctg, acg)
        name = sorted(schedule.task_placements)[0]
        schedule.task_placements[name] = replace(
            schedule.task_placements[name], energy=float("nan")
        )
        assert math.isnan(schedule.total_energy())
        with pytest.raises(ScheduleValidationError, match="not finite"):
            schedule.validate_structure()

    def test_zeroed_comm_energy_rejected(self, integrated_document):
        ctg, acg, document = integrated_document
        index = next(
            i for i, comm in enumerate(document["comms"]) if comm["links"] and comm["volume"] > 0
        )
        schedule = schedule_from_dict(_tampered(document, "comms", index, "energy", 0), ctg, acg)
        with pytest.raises(ScheduleValidationError, match="energy 0.0 != model"):
            schedule.validate_structure()

    def test_nan_comm_energy_rejected(self, integrated_document):
        ctg, acg, document = integrated_document
        schedule = schedule_from_dict(copy.deepcopy(document), ctg, acg)
        key = sorted(schedule.comm_placements)[0]
        schedule.comm_placements[key] = replace(
            schedule.comm_placements[key], energy=float("nan")
        )
        with pytest.raises(ScheduleValidationError, match="not finite"):
            schedule.validate_structure()
