"""Tests for CTG JSON serialisation."""

import math

import pytest

from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.multimedia import av_encoder_ctg
from repro.ctg.serialization import ctg_from_dict, ctg_from_json, ctg_to_dict, ctg_to_json
from repro.errors import ReproError, SerializationError


class TestRoundTrip:
    def test_random_ctg_round_trip(self):
        original = generate_ctg(GeneratorConfig(n_tasks=40, seed=1))
        restored = ctg_from_json(ctg_to_json(original))
        assert restored.name == original.name
        assert restored.task_names() == original.task_names()
        assert [(e.src, e.dst, e.volume) for e in restored.edges()] == [
            (e.src, e.dst, e.volume) for e in original.edges()
        ]
        for name in original.task_names():
            a, b = original.task(name), restored.task(name)
            assert a.deadline == b.deadline
            assert a.costs == b.costs

    def test_multimedia_round_trip(self):
        original = av_encoder_ctg("toybox")
        restored = ctg_from_json(ctg_to_json(original))
        assert restored.n_tasks == 24
        assert restored.task("vsink").deadline == original.task("vsink").deadline

    def test_infinite_deadline_serialises_as_null(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=10, deadline_fraction=0.0, seed=2))
        data = ctg_to_dict(ctg)
        assert all(entry["deadline"] is None for entry in data["tasks"])
        restored = ctg_from_dict(data)
        assert all(math.isinf(t.deadline) for t in restored.tasks())

    def test_json_stable(self):
        ctg = generate_ctg(GeneratorConfig(n_tasks=15, seed=3))
        assert ctg_to_json(ctg) == ctg_to_json(ctg)


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            ctg_from_json("{not json")

    def test_wrong_format_marker(self):
        with pytest.raises(SerializationError):
            ctg_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version(self):
        with pytest.raises(SerializationError):
            ctg_from_dict({"format": "repro-ctg", "version": 999})

    def test_missing_fields(self):
        with pytest.raises(SerializationError):
            ctg_from_dict({"format": "repro-ctg", "version": 1, "name": "x"})

    def test_malformed_task_entry(self):
        data = {
            "format": "repro-ctg",
            "version": 1,
            "name": "x",
            "tasks": [{"name": "a"}],  # no costs
            "edges": [],
        }
        with pytest.raises(SerializationError):
            ctg_from_dict(data)

    @pytest.mark.parametrize(
        "task_json, match",
        [
            ('{"name": "a", "costs": {"cpu": {"time": NaN, "energy": 1.0}}}',
             r"task 'a': costs\['cpu'\]: invalid execution time nan"),
            ('{"name": "a", "costs": {"cpu": {"time": 1.0, "energy": 1.0}}, "deadline": NaN}',
             r"task 'a': deadline must be positive, got nan"),
        ],
        ids=["time", "deadline"],
    )
    def test_nan_rejected_naming_task_and_field(self, task_json, match):
        # Python's json module accepts the NaN token; the loader must not
        # let it pass as "infeasible on this PE" or "no deadline".
        text = (
            '{"format": "repro-ctg", "version": 1, "name": "x", '
            f'"tasks": [{task_json}], "edges": []}}'
        )
        with pytest.raises(ReproError, match=match):
            ctg_from_json(text)

    def test_infinite_time_still_marks_infeasible(self):
        text = (
            '{"format": "repro-ctg", "version": 1, "name": "x", "tasks": [{"name": "a", '
            '"costs": {"cpu": {"time": Infinity, "energy": 0.0}, '
            '"dsp": {"time": 2.0, "energy": 1.0}}}], "edges": []}'
        )
        task = ctg_from_json(text).task("a")
        assert not task.cost_on("cpu").feasible
        assert task.cost_on("dsp").feasible
