"""Tests for the Fig. 3 placement kernel (``core/placement.py``)."""

from __future__ import annotations

from repro.arch.acg import ACG
from repro.arch.presets import mesh_3x3
from repro.arch.topology import Mesh2D
from repro.core.comm import schedule_incoming_transactions
from repro.core.eas import EASConfig, eas_schedule
from repro.core.placement import commit, probe
from repro.ctg.generator import generate_category
from repro.ctg.graph import CTG
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan, LinkFault
from repro.schedule.entries import TaskPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.schedule import Schedule

from tests.conftest import uniform_task


def _half_built():
    """(ctg, acg, tables, placements, ready) halfway through an EAS schedule."""
    ctg = generate_category(1, 3, n_tasks=30)
    acg = mesh_3x3()
    full = eas_schedule(ctg, acg, EASConfig(repair=False))
    by_start = sorted(full.task_placements.values(), key=lambda p: (p.start, p.task))
    tables = ResourceTables()
    placements = {}
    for placement in by_start[: len(by_start) // 2]:
        tables.reserve(placement.pe, placement.start, placement.finish)
        placements[placement.task] = placement
    for comm in full.comm_placements.values():
        if comm.dst_task in placements:
            for link in comm.links:
                tables.reserve(acg.link_id(link), comm.start, comm.finish)
    ready = [
        name
        for name in ctg.task_names()
        if name not in placements
        and all(pred in placements for pred in ctg.predecessors(name))
    ]
    assert ready and placements
    return ctg, acg, tables, placements, ready


def _resources(acg):
    return range(acg.n_resources)


def _state(tables, acg):
    return {r: (tables.version(r), tables.busy(r)) for r in _resources(acg)}


def _reprobe_commit(tables, ctg, acg, placements, schedule, task, pe):
    """Commit by probing again and committing the overlay: the reference."""
    cost = ctg.task(task).cost_on(acg.pe(pe).type_name)
    overlay = tables.overlay()
    drt, comms = schedule_incoming_transactions(ctg, acg, task, pe, placements, overlay)
    start = overlay.find_earliest(pe, drt, cost.time)
    overlay.commit()
    tables.reserve(pe, start, start + cost.time)
    placement = TaskPlacement(
        task=task, pe=pe, start=start, finish=start + cost.time, energy=cost.energy
    )
    placements[task] = placement
    schedule.place_task(placement)
    for comm in comms:
        schedule.place_comm(comm.placement())
    return placement


class TestProbe:
    def test_probe_leaves_every_table_version_unchanged(self):
        ctg, acg, tables, placements, ready = _half_built()
        before = _state(tables, acg)
        probed = 0
        for task in ready:
            for pe in acg.pes:
                if probe(tables, ctg, acg, placements, task, pe.index) is not None:
                    probed += 1
        assert probed > 0
        assert _state(tables, acg) == before

    def test_infeasible_type_returns_none(self):
        ctg = CTG()
        ctg.add_task(uniform_task("a", 5, 1, pe_types=("dsp",)))
        acg = ACG(Mesh2D(1, 2), pe_types=["cpu", "dsp"])
        assert probe(ResourceTables(), ctg, acg, {}, "a", 0) is None
        assert probe(ResourceTables(), ctg, acg, {}, "a", 1) is not None

    def test_unroutable_sender_returns_none(self):
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 1, pe_types=("risc",)))
        ctg.add_task(uniform_task("b", 10, 1, pe_types=("risc",)))
        ctg.connect("a", "b", volume=64)
        acg = ACG(Mesh2D(1, 3), pe_types=["risc"] * 3, link_bandwidth=64.0)
        # Cutting the (0,1)-(0,2) channel partitions tile 2 from tile 0.
        degraded = DegradedACG(
            acg, FaultPlan(name="split", link_faults=(LinkFault((0, 1), (0, 2), 1.0),))
        )
        placements = {"a": TaskPlacement(task="a", pe=0, start=0.0, finish=10.0, energy=1.0)}
        tables = ResourceTables()
        assert probe(tables, ctg, degraded, placements, "b", 2) is None
        reachable = probe(tables, ctg, degraded, placements, "b", 1)
        assert reachable is not None and reachable.start >= 10.0


class TestCommit:
    def test_commit_of_probe_matches_reprobe_commit(self):
        ctg, acg, tables, placements, ready = _half_built()
        committed = 0
        for task in ready:
            for pe in acg.pes:
                replay_tables, replay_placements = tables.copy(), dict(placements)
                reprobe_tables, reprobe_placements = tables.copy(), dict(placements)
                replay_schedule = Schedule(ctg, acg)
                reprobe_schedule = Schedule(ctg, acg)
                evaluation = probe(replay_tables, ctg, acg, replay_placements, task, pe.index)
                if evaluation is None:
                    continue
                replayed = commit(replay_tables, replay_placements, replay_schedule, evaluation)
                reprobed = _reprobe_commit(
                    reprobe_tables, ctg, acg, reprobe_placements, reprobe_schedule, task, pe.index
                )
                assert replayed == reprobed
                assert replay_placements == reprobe_placements
                assert replay_schedule.task_placements == reprobe_schedule.task_placements
                assert replay_schedule.comm_placements == reprobe_schedule.comm_placements
                assert _state(replay_tables, acg) == _state(reprobe_tables, acg)
                committed += 1
        assert committed > 0

    def test_commit_without_schedule_updates_tables_and_placements(self):
        ctg, acg, tables, placements, ready = _half_built()
        evaluation = probe(tables, ctg, acg, placements, ready[0], acg.pes[0].index)
        placement = commit(tables, placements, None, evaluation)
        assert placements[ready[0]] is placement
        assert (placement.start, placement.finish) in tables.busy(placement.pe)
