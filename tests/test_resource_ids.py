"""Resource ids: the ACG's dense numbering of PEs and directed links.

The placement kernel keys every schedule table by int resource id
(``ACG.link_id``, ``Route.resources``).  A table keyed by a ``Link``
object instead would be a second, invisible table for the same channel:
probes would never see it.  These tests pin the numbering, that
degraded platforms share it, and that no code path — level scheduling,
repair, the incremental engine, fault recovery — leaves a non-id key in
any resource table.
"""

import pytest

from repro.arch.acg import ACG
from repro.arch.presets import mesh_3x3
from repro.arch.topology import Link, Mesh2D
from repro.core.eas import EASConfig, eas_base_schedule, eas_schedule
from repro.core.increbuild import IncrementalRebuilder
from repro.ctg.generator import GeneratorConfig, generate_category, generate_ctg
from repro.errors import ArchitectureError
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan, TransientFault, generate_fault_plans
from repro.faults.recovery import (
    _salvage_tables,
    classify_salvage,
    inject_and_recover,
    kept_comm_keys,
)
from repro.schedule.overlay import ResourceTables
from repro.schedule.table import EPS


def mesh3x3_mixed():
    types = ["cpu", "dsp", "arm", "risc", "cpu", "dsp", "arm", "risc", "cpu"]
    return ACG(Mesh2D(3, 3), pe_types=types)


@pytest.fixture
def created_tables(monkeypatch):
    """Every ResourceTables (or subclass) built while the test runs."""
    created = []
    init, bare_clone = ResourceTables.__init__, ResourceTables._bare_clone

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    def recording_clone(self):
        clone = bare_clone(self)
        created.append(clone)
        return clone

    monkeypatch.setattr(ResourceTables, "__init__", recording_init)
    monkeypatch.setattr(ResourceTables, "_bare_clone", recording_clone)
    return created


def assert_id_keyed(tables, acg):
    for resource in tables.resources():
        assert type(resource) is int, f"non-id resource key {resource!r}"
        assert 0 <= resource < acg.n_resources, f"resource id {resource} out of range"


class TestNumbering:
    def test_pes_then_links_in_topology_order(self):
        acg = mesh3x3_mixed()
        links = acg.topology.links()
        assert acg.n_resources == acg.n_pes + len(links)
        for j, link in enumerate(links):
            assert acg.link_id(link) == acg.n_pes + j

    def test_route_resources_are_the_ids_of_its_links(self):
        acg = mesh3x3_mixed()
        for src in range(acg.n_pes):
            for dst in range(acg.n_pes):
                route = acg.route(src, dst)
                assert route.resources == tuple(acg.link_id(link) for link in route.links)

    def test_numbering_is_deterministic(self):
        assert mesh3x3_mixed()._link_ids == mesh3x3_mixed()._link_ids

    def test_unknown_link_is_an_architecture_error(self):
        acg = mesh3x3_mixed()
        with pytest.raises(ArchitectureError, match="not a link"):
            acg.link_id(Link((0, 0), (2, 2)))


class TestDegradedNumbering:
    """Degraded platforms keep the base ACG's ids for every surviving link."""

    @pytest.mark.parametrize("kind", ["pe", "link"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_live_routes_use_base_ids(self, kind, seed):
        base = mesh_3x3()
        (plan,) = generate_fault_plans(base, 1, seed=seed, horizon=100.0, kinds=(kind,))
        degraded = DegradedACG(base, plan)
        assert degraded.n_resources == base.n_resources
        checked = 0
        for src in range(base.n_pes):
            for dst in range(base.n_pes):
                if (src, dst) not in degraded._routes:
                    continue  # dead endpoint or partitioned pair
                route = degraded.route(src, dst)
                assert route.resources == tuple(base.link_id(link) for link in route.links)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_transient_outage_lands_on_healthy_route_ids(self, seed):
        ctg = generate_ctg(GeneratorConfig(n_tasks=30, seed=9, level_width=4.0))
        acg = mesh_3x3()
        committed = eas_schedule(ctg, acg)
        (plan,) = generate_fault_plans(
            acg, 1, seed=seed, horizon=committed.makespan(), kinds=("transient",)
        )
        (fault,) = plan.transient_faults
        degraded = DegradedACG(acg, plan)
        salvaged, _rerun = classify_salvage(committed, plan.fault_time, degraded.dead_pes)
        kept = kept_comm_keys(committed, salvaged)
        tables = _salvage_tables(committed, salvaged, kept, plan)
        a, b = acg.pe_at(fault.src).index, acg.pe_at(fault.dst).index
        # The one-hop healthy routes over the channel, one per direction.
        for src, dst in ((a, b), (b, a)):
            (resource,) = acg.route(src, dst).resources
            assert (fault.start, fault.end) in tables.busy(resource)
            assert resource == degraded.link_id(Link(acg.pe(src).position, acg.pe(dst).position))


class TestKeyHygiene:
    """Every table key any code path creates is an int id in range."""

    def test_eas_with_repair(self, created_tables):
        acg = mesh3x3_mixed()
        ctg = generate_category(2, 0, n_tasks=24).with_scaled_deadlines(0.55)
        assert eas_base_schedule(ctg, acg).deadline_misses(), "graph must enter repair"
        del created_tables[:]
        eas_schedule(ctg, acg)
        assert len(created_tables) > 2  # level tables plus repair forks
        for tables in created_tables:
            assert_id_keyed(tables, acg)

    def test_incremental_materialize(self, created_tables):
        acg = mesh3x3_mixed()
        ctg = generate_category(2, 1, n_tasks=24).with_scaled_deadlines(0.55)
        base = eas_schedule(ctg, acg, EASConfig(repair=False))
        engine = IncrementalRebuilder(ctg, acg, base.mapping(), base.pe_order())
        engine._ensure_incumbent()
        trace = engine._trace
        for frontier in (0, len(trace) // 2, len(trace)):
            tables = engine._materialize(frontier)
            assert_id_keyed(tables, acg)
            # The fork holds exactly the prefix's reservations, by id.
            expected = ResourceTables()
            for step in trace[:frontier]:
                expected.reserve(step.pe, step.placement.start, step.placement.finish)
                for comm in step.comms:
                    if comm.finish - comm.start > EPS:
                        for link in comm.links:
                            expected.reserve(acg.link_id(link), comm.start, comm.finish)
            for resource in range(acg.n_resources):
                assert tables.busy(resource) == expected.busy(resource)
        for tables in created_tables:
            assert_id_keyed(tables, acg)

    def test_recovery_with_transient_window(self, created_tables):
        ctg = generate_ctg(GeneratorConfig(n_tasks=30, seed=9, level_width=4.0))
        acg = mesh_3x3()
        committed = eas_schedule(ctg, acg)
        channel = (acg.pe(0).position, acg.pe(1).position)
        t = committed.makespan() * 0.4
        plan = FaultPlan(
            name="tr",
            seed=5,
            transient_faults=(
                TransientFault(src=channel[0], dst=channel[1], start=t, end=t * 1.4),
            ),
        )
        del created_tables[:]
        inject_and_recover(committed, plan)
        assert created_tables
        for tables in created_tables:
            assert_id_keyed(tables, acg)
