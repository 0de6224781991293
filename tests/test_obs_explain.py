"""Tests for the schedule explainer (obs.explain).

The trust-critical property: every F(i,k) component the scheduler
records in its schema-v2 decision provenance must match an independent
recompute on fresh resource tables — across a randomized corpus, with
the incremental evaluation cache on *and* off.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.arch.presets import hetero_mesh, mesh_3x3
from repro.core.eas import eas_schedule
from repro.core.reference import reference_eas_schedule
from repro.ctg.generator import generate_category
from repro.obs.explain import (
    EXPLAIN_SCHEMA_VERSION,
    critical_path,
    explain_schedule,
    format_explain,
    pick_target,
    verify_decision_components,
)
from repro.schedule.table import EPS

from .test_eval_cache import _corpus

N_VERIFY_GRAPHS = 22


def _schedule(ctg, acg, scheduler=eas_schedule):
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        return scheduler(ctg, acg)


class TestVerifyDecisionComponents:
    def test_components_exact_across_corpus_cache_on_and_off(self):
        """The acceptance criterion: >= 20 randomized graphs, both paths."""
        graphs = 0
        decisions = 0
        for ctg, acg in _corpus():
            if graphs >= N_VERIFY_GRAPHS:
                break
            graphs += 1
            for scheduler in (eas_schedule, reference_eas_schedule):
                schedule = _schedule(ctg, acg, scheduler)
                assert schedule.provenance, ctg.name
                mismatches = verify_decision_components(ctg, acg, schedule.provenance)
                assert mismatches == [], (
                    f"{ctg.name} {scheduler.__name__}: {mismatches[:3]}"
                )
                decisions += len(schedule.provenance)
        assert graphs >= 20
        assert decisions > 0

    def test_detects_a_corrupted_component(self):
        from dataclasses import replace

        ctg = generate_category(2, 3, n_tasks=30)
        acg = mesh_3x3(shuffle_seed=3)
        schedule = _schedule(ctg, acg)
        decisions = list(schedule.provenance)
        victim = decisions[len(decisions) // 2]
        assert victim.chosen is not None
        decisions[len(decisions) // 2] = replace(
            victim, chosen=replace(victim.chosen, energy=victim.chosen.energy + 1.0)
        )
        mismatches = verify_decision_components(ctg, acg, decisions)
        assert any("energy" in m for m in mismatches)


class TestChosenCandidateBreakdown:
    def test_chosen_components_are_internally_consistent(self):
        ctg = generate_category(1, 2, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=202)
        schedule = _schedule(ctg, acg)
        for decision in schedule.provenance:
            chosen = decision.chosen
            assert chosen is not None
            assert chosen.pe == decision.pe
            assert chosen.finish == pytest.approx(chosen.start + (chosen.finish - chosen.start))
            assert chosen.energy == pytest.approx(
                chosen.compute_energy + chosen.comm_energy
            )
            assert decision.bd is not None
            assert chosen.slack == pytest.approx(decision.bd - chosen.finish)
            # Losers carry the same component set.
            for candidate in decision.candidates:
                assert candidate.start is not None
                assert candidate.energy == pytest.approx(
                    candidate.compute_energy + candidate.comm_energy
                )


class TestCriticalPath:
    def test_path_ends_at_target_and_tiles_time(self):
        ctg = generate_category(2, 1, n_tasks=40)
        acg = mesh_3x3(shuffle_seed=1)
        schedule = _schedule(ctg, acg)
        target = pick_target(schedule)
        path = critical_path(schedule)
        assert path, "non-empty schedule must yield a chain"
        execs = [s for s in path if s.kind == "exec"]
        assert execs[-1].task == target
        assert execs[-1].end == pytest.approx(
            schedule.task_placements[target].finish
        )
        # The chain is causally ordered: every segment starts no later
        # than it ends, and exec segments appear in start order.
        for segment in path:
            assert segment.end >= segment.start - EPS
        starts = [s.start for s in execs]
        assert starts == sorted(starts)
        # The first exec in the chain is bound by nothing: it starts
        # the moment its inputs allow.
        first = execs[0]
        placement = schedule.task_placements[first.task]
        incoming = [
            schedule.comm_placements[(e.src, first.task)].finish
            for e in schedule.ctg.in_edges(first.task)
            if (e.src, first.task) in schedule.comm_placements
        ]
        assert placement.start <= max(incoming, default=0.0) + EPS

    def test_target_is_most_tardy_task_when_missing(self):
        # Force misses by shrinking every deadline after generation.
        ctg = generate_category(2, 4, n_tasks=30)
        acg = mesh_3x3(shuffle_seed=4)
        schedule = _schedule(ctg, acg)
        misses = schedule.deadline_misses()
        target = pick_target(schedule)
        if misses:
            tardiness = {
                name: schedule.task_placements[name].finish
                - schedule.ctg.task(name).deadline
                for name in misses
            }
            assert target == max(sorted(tardiness), key=lambda n: tardiness[n])
        else:
            assert (
                schedule.task_placements[target].finish
                == pytest.approx(schedule.makespan())
            )

    def test_empty_schedule_yields_empty_path(self):
        from repro.schedule.schedule import Schedule

        ctg = generate_category(1, 0, n_tasks=10)
        acg = mesh_3x3()
        empty = Schedule(ctg, acg, algorithm="eas")
        assert pick_target(empty) is None
        assert critical_path(empty) == []


class TestExplainReport:
    def test_energy_attribution_sums_to_total(self):
        from repro.obs.utilization import task_energy_attribution

        ctg = generate_category(1, 3, n_tasks=40)
        acg = mesh_3x3(shuffle_seed=3)
        schedule = _schedule(ctg, acg)
        shares = task_energy_attribution(schedule)
        assert set(shares) == set(schedule.task_placements)
        assert sum(shares.values()) == pytest.approx(
            schedule.total_energy(), abs=1e-9
        )

    def test_focus_restricts_and_anchors(self):
        ctg = generate_category(1, 1, n_tasks=30)
        acg = mesh_3x3(shuffle_seed=1)
        schedule = _schedule(ctg, acg)
        task = sorted(schedule.task_placements)[5]
        report = explain_schedule(schedule, focus=task)
        assert [e.task for e in report.explanations] == [task]
        assert report.target == task
        execs = [s for s in report.path if s.kind == "exec"]
        assert execs[-1].task == task

    def test_unknown_focus_raises(self):
        ctg = generate_category(1, 1, n_tasks=20)
        acg = mesh_3x3()
        schedule = _schedule(ctg, acg)
        with pytest.raises(KeyError):
            explain_schedule(schedule, focus="nope")

    def test_renderers(self):
        ctg = generate_category(2, 2, n_tasks=30)
        acg = mesh_3x3(shuffle_seed=2)
        schedule = _schedule(ctg, acg)
        report = explain_schedule(schedule)
        text = format_explain(report, "text")
        assert "critical path" in text
        assert "chosen" in text
        markdown = format_explain(report, "markdown")
        assert markdown.startswith("# Explain")
        document = json.loads(format_explain(report, "json"))
        assert document["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert document["critical_path"]
        assert document["tasks"]
        assert document["energy"]["total"] == pytest.approx(schedule.total_energy())
        with pytest.raises(ValueError):
            format_explain(report, "html")

    def test_explanations_carry_decision_provenance(self):
        ctg = generate_category(1, 4, n_tasks=30)
        acg = mesh_3x3(shuffle_seed=4)
        schedule = _schedule(ctg, acg)
        report = explain_schedule(schedule)
        assert report.explanations
        for explanation in report.explanations:
            assert explanation.decision is not None
            assert explanation.decision.task == explanation.task
            lines = explanation.describe()
            assert any("chosen" in line for line in lines)

    def test_infinite_deadlines_serialize_as_null(self):
        ctg = generate_category(1, 5, n_tasks=25)
        acg = mesh_3x3(shuffle_seed=5)
        schedule = _schedule(ctg, acg)
        document = json.loads(format_explain(explain_schedule(schedule), "json"))
        for entry in document["tasks"]:
            deadline = entry["deadline"]
            assert deadline is None or math.isfinite(deadline)
