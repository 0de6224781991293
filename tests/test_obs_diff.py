"""Tests for the differential run diagnostics (obs.diff).

The acceptance invariants: per-task energy/tardiness attributions sum
exactly (±1e-9) to the headline deltas, output is byte-identical across
repeated invocations and across ``--jobs 1`` vs ``--jobs 2``, and moves
classify into root-cause vs cascade along graph edges.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.arch.presets import mesh_3x3, mesh_4x4
from repro.baselines.edf import edf_schedule
from repro.core.eas import EASConfig, eas_schedule
from repro.core.reference import reference_eas_schedule
from repro.ctg.generator import generate_category
from repro.obs.diff import (
    DIFF_SCHEMA_VERSION,
    diff_schedules,
    format_diff,
    run_delta,
)


def _pair(n_tasks=35, index=1):
    ctg = generate_category(2, index, n_tasks=n_tasks)
    acg = mesh_3x3(shuffle_seed=index)
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        a = eas_schedule(ctg, acg, EASConfig())
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        b = edf_schedule(ctg, acg)
    return ctg, acg, a, b


class TestExactAttribution:
    def test_energy_and_tardiness_deltas_sum_exactly(self):
        _, _, a, b = _pair()
        diff = diff_schedules(a, b)
        assert sum(diff.energy_by_task.values()) == pytest.approx(
            diff.energy_delta, abs=1e-9
        )
        assert sum(diff.tardiness_by_task.values()) == pytest.approx(
            diff.tardiness_delta, abs=1e-9
        )

    def test_identical_schedules_diff_empty(self):
        ctg = generate_category(1, 0, n_tasks=25)
        acg = mesh_3x3()
        a = eas_schedule(ctg, acg)
        b = reference_eas_schedule(ctg, acg)
        diff = diff_schedules(a, b)
        assert diff.moves == []
        assert diff.energy_by_task == {}
        assert diff.tardiness_by_task == {}
        assert diff.energy_delta == 0.0

    def test_mismatched_benchmarks_rejected(self):
        ctg1 = generate_category(1, 0, n_tasks=20)
        ctg2 = generate_category(1, 1, n_tasks=20)
        acg = mesh_3x3()
        with pytest.raises(ValueError, match="different CTGs"):
            diff_schedules(edf_schedule(ctg1, acg), edf_schedule(ctg2, acg))
        with pytest.raises(ValueError, match="different platforms"):
            diff_schedules(
                edf_schedule(ctg1, acg), edf_schedule(ctg1, mesh_4x4())
            )


class TestCauseClassification:
    def test_every_move_is_classified_and_cascades_name_movers(self):
        ctg, _, a, b = _pair()
        diff = diff_schedules(a, b)
        assert diff.moves, "eas vs edf must move tasks"
        moved = {m.task for m in diff.moves}
        for move in diff.moves:
            assert move.cause in ("root-cause", "cascade")
            preds = {edge.src for edge in ctg.in_edges(move.task)}
            if move.cause == "cascade":
                # A cascade names at least one moved predecessor.
                named = set(move.reason.replace("inherited from ", "").split(", "))
                assert named <= preds
                assert named <= moved
            else:
                # Root causes have no moved predecessor.
                assert not (preds & moved) or all(
                    m.task not in preds
                    or m.start_a >= a.task_placements[move.task].start
                    for m in diff.moves
                )

    def test_source_tasks_always_root_cause(self):
        ctg, _, a, b = _pair(index=2)
        diff = diff_schedules(a, b)
        for move in diff.moves:
            if ctg.in_degree(move.task) == 0:
                assert move.cause == "root-cause"

    def test_root_cause_reason_uses_provenance(self):
        _, _, a, b = _pair()
        assert a.provenance and b.provenance
        diff = diff_schedules(a, b)
        roots = diff.root_causes()
        assert roots
        assert any("algorithm" in m.reason or "winner" in m.reason for m in roots)


class TestDeterminism:
    def test_repeated_renders_byte_identical(self):
        _, _, a, b = _pair()
        first = format_diff(diff_schedules(a, b, "x", "y"), "text")
        second = format_diff(diff_schedules(a, b, "x", "y"), "text")
        assert first == second
        assert format_diff(diff_schedules(a, b, "x", "y"), "json") == format_diff(
            diff_schedules(a, b, "x", "y"), "json"
        )

    def test_jobs_1_and_2_byte_identical(self):
        from repro.evalx.experiments import schedules_for_specs
        from repro.parallel.spec import BenchmarkSpec, RunSpec

        specs = [
            RunSpec(
                scheduler="eas",
                benchmark=BenchmarkSpec(
                    kind="random", category=2, index=1, n_tasks=30,
                    acg_preset="mesh_3x3", shuffle_seed=101,
                ),
                tag="a",
            ),
            RunSpec(
                scheduler="edf",
                benchmark=BenchmarkSpec(
                    kind="random", category=2, index=1, n_tasks=30,
                    acg_preset="mesh_3x3", shuffle_seed=101,
                ),
                tag="b",
            ),
        ]
        serial = schedules_for_specs(specs, jobs=1)
        pooled = schedules_for_specs(specs, jobs=2)
        text_serial = format_diff(diff_schedules(serial[0], serial[1]), "text")
        text_pooled = format_diff(diff_schedules(pooled[0], pooled[1]), "text")
        assert text_serial == text_pooled
        # The rebuilt schedules carry provenance for cause analysis.
        assert serial[0].provenance and pooled[0].provenance


class TestRenderers:
    def test_all_formats(self):
        _, _, a, b = _pair()
        diff = diff_schedules(a, b, "A", "B")
        text = format_diff(diff, "text")
        assert "root-cause" in text
        assert "(sums to)" in text
        markdown = format_diff(diff, "markdown")
        assert markdown.startswith("# Diff")
        assert "| task |" in markdown
        document = json.loads(format_diff(diff, "json"))
        assert document["schema_version"] == DIFF_SCHEMA_VERSION
        assert document["energy_delta"] == pytest.approx(
            sum(document["energy_by_task"].values()), abs=1e-9
        )
        with pytest.raises(ValueError):
            format_diff(diff, "html")

    def test_run_delta_section(self):
        _, _, a, b = _pair()
        records_a = [
            {"type": "phase", "name": "cell", "tag": "x", "runtime_seconds": 1.0},
            {"type": "run_finished", "wall_seconds": 2.0, "counters": {"eas.evaluations": 10}},
        ]
        records_b = [
            {"type": "phase", "name": "cell", "tag": "x", "runtime_seconds": 1.5},
            {"type": "run_finished", "wall_seconds": 3.0, "counters": {"eas.evaluations": 14}},
        ]
        delta = run_delta("r1", records_a, "r2", records_b)
        assert delta.phase_walls["x"] == [1.0, 1.5]
        assert delta.phase_walls["(total wall)"] == [2.0, 3.0]
        assert delta.counters["eas.evaluations"] == [10.0, 14.0]
        text = format_diff(diff_schedules(a, b), "text", runs=delta)
        assert "run telemetry r1 vs r2" in text
        assert "eas.evaluations" in text

    def test_run_delta_missing_side_is_none(self):
        delta = run_delta(
            "r1",
            [{"type": "phase", "name": "cell", "tag": "only-a", "runtime_seconds": 1.0}],
            "r2",
            [],
        )
        assert delta.phase_walls["only-a"] == [1.0, None]


class TestLedgerEndpoints:
    def test_retired_switch_params_still_resolve(self, tmp_path, capsys):
        """``run:<id>`` endpoints from older ledgers still resolve.

        Before the literal-path switches were removed, ``run_started``
        params carried ``no_eval_cache`` / ``no_path_cache`` /
        ``no_incremental_repair`` (and an ``eas_config``).  The switches
        never changed a schedule, so the endpoint ignores them.
        """
        from repro.cli import main
        from repro.obs.ledger import make_record

        params = {
            "algorithm": "eas",
            "system": "encoder",
            "clip": "akiyo",
            "no_eval_cache": True,
            "no_path_cache": True,
            "no_incremental_repair": True,
            "eas_config": {
                "use_cache": False,
                "use_incremental_repair": False,
                "use_path_cache": False,
            },
        }
        ledger = tmp_path / "RUN_LEDGER.jsonl"
        record = make_record("run_started", "old-run", command="schedule", params=params)
        ledger.write_text(json.dumps(record) + "\n")
        out = tmp_path / "diff.json"
        argv = [
            "diff", "run:old-run", "algorithm=eas",
            "--system", "encoder", "--clip", "akiyo",
            "--ledger", str(ledger), "--format", "json", "--out", str(out),
        ]
        assert main(argv) == 0
        document = json.loads(out.read_text())
        assert document["moves"] == []
        assert document["energy_delta"] == 0.0
