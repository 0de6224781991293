"""Tests for degraded-mode rescheduling: salvage, recovery, validation."""

import pytest

from repro.arch.acg import ACG
from repro.arch.presets import mesh_2x2, mesh_3x3
from repro.arch.topology import Mesh2D
from repro.core.eas import eas_schedule
from repro.ctg.generator import GeneratorConfig, generate_ctg
from repro.ctg.graph import CTG
from repro.ctg.task import CommEdge
from repro.faults.plan import FaultPlan, LinkFault, PEFault, TransientFault
from repro.faults.recovery import (
    UnsurvivableFaultError,
    classify_salvage,
    inject_and_recover,
    kept_comm_keys,
)
from repro.schedule.serialization import schedule_to_dict
from repro.schedule.table import EPS
from tests.conftest import make_task, uniform_task


@pytest.fixture(scope="module")
def committed():
    ctg = generate_ctg(GeneratorConfig(n_tasks=30, seed=9, level_width=4.0))
    acg = mesh_3x3()
    schedule = eas_schedule(ctg, acg)
    schedule.validate_structure()
    return schedule


def mid_time(schedule, fraction=0.5):
    return schedule.makespan() * fraction


class TestClassifySalvage:
    def test_partition_is_exact(self, committed):
        t = mid_time(committed)
        salvaged, rerun = classify_salvage(committed, t, frozenset())
        assert salvaged | rerun == set(committed.ctg.task_names())
        assert not salvaged & rerun
        for name in salvaged:
            assert committed.placement(name).finish <= t + EPS
        for name in rerun:
            assert committed.placement(name).finish > t + EPS

    def test_dead_pe_resurrects_needed_producers(self, committed):
        t = mid_time(committed)
        ctg = committed.ctg
        for pe in range(committed.acg.n_pes):
            salvaged, rerun = classify_salvage(committed, t, frozenset([pe]))
            for name in salvaged:
                placement = committed.placement(name)
                if placement.pe == pe:
                    # A salvaged task on the dead PE has no rerun
                    # consumer: its output is never needed again.
                    assert not any(s in rerun for s in ctg.successors(name))

    def test_kept_comms_have_salvaged_receiver(self, committed):
        t = mid_time(committed)
        salvaged, _ = classify_salvage(committed, t, frozenset())
        kept = kept_comm_keys(committed, salvaged)
        assert all(dst in salvaged for _, dst in kept)
        # Every comm whose receiver is salvaged is kept — no more, no less.
        assert kept == {
            key for key in committed.comm_placements if key[1] in salvaged
        }


class TestRecovery:
    def test_pe_death_recovery_invariants(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=4, time=mid_time(committed)),)
        )
        result = inject_and_recover(committed, plan)
        recovery = result.recovery
        # validate_recovery already ran inside; re-check headline rules.
        for name in result.salvaged:
            assert recovery.placement(name) == committed.placement(name)
        for name in result.rerun:
            placement = recovery.placement(name)
            assert placement.pe != 4
            assert placement.start >= result.fault_time - EPS
        assert result.salvaged | result.rerun == set(committed.ctg.task_names())

    def test_link_cut_recovery_avoids_cut_channel(self, committed):
        channel = (committed.acg.pe(0).position, committed.acg.pe(1).position)
        plan = FaultPlan(
            name="cut",
            link_faults=(
                LinkFault(src=channel[0], dst=channel[1], time=mid_time(committed)),
            ),
        )
        result = inject_and_recover(committed, plan)
        cut = {(channel[0], channel[1]), (channel[1], channel[0])}
        for key, comm in result.recovery.comm_placements.items():
            if key in result.kept_comms:
                continue
            for link in comm.links:
                assert (link.src, link.dst) not in cut

    def test_transient_recovery_schedules_around_window(self, committed):
        t = mid_time(committed, 0.4)
        channel = (committed.acg.pe(0).position, committed.acg.pe(1).position)
        plan = FaultPlan(
            name="tr",
            transient_faults=(
                TransientFault(
                    src=channel[0], dst=channel[1], start=t, end=t * 1.4
                ),
            ),
        )
        result = inject_and_recover(committed, plan)
        windows = plan.transient_windows()
        for key, comm in result.recovery.comm_placements.items():
            if key in result.kept_comms or comm.finish <= comm.start:
                continue
            for link in comm.links:
                for start, end in windows.get(link, ()):
                    assert not (start < comm.finish and comm.start < end)

    def test_recovery_is_deterministic(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=2, time=mid_time(committed)),)
        )
        a = inject_and_recover(committed, plan)
        b = inject_and_recover(committed, plan)
        assert schedule_to_dict(a.recovery) == schedule_to_dict(b.recovery)

    def test_committed_schedule_untouched(self, committed):
        before = schedule_to_dict(committed)
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=1, time=mid_time(committed)),)
        )
        inject_and_recover(committed, plan)
        assert schedule_to_dict(committed) == before

    def test_late_fault_salvages_almost_everything(self, committed):
        plan = FaultPlan(
            name="late",
            pe_faults=(PEFault(pe=0, time=committed.makespan() - EPS),),
        )
        result = inject_and_recover(committed, plan)
        assert len(result.rerun) <= 2

    def test_deltas_are_consistent(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=3, time=mid_time(committed)),)
        )
        result = inject_and_recover(committed, plan)
        assert result.miss_delta == result.misses_after - result.misses_before
        assert result.energy_delta == pytest.approx(
            result.recovery.total_energy() - committed.total_energy()
        )
        deltas = result.utilization_deltas()
        assert set(deltas) == {
            "peak_pe_utilization",
            "peak_link_utilization",
            "contention_wait",
        }

    def test_describe_mentions_verdict(self, committed):
        plan = FaultPlan(
            name="pe", pe_faults=(PEFault(pe=5, time=mid_time(committed)),)
        )
        text = inject_and_recover(committed, plan).describe()
        assert "salvaged" in text
        assert ("SURVIVED" in text) or ("DEGRADED" in text)

    def test_empty_plan_rejected(self, committed):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            inject_and_recover(committed, FaultPlan(name="empty"))


class TestUnsurvivable:
    def test_dead_sole_capable_pe(self):
        # B runs only on the single dsp tile; killing it at t=0 (before
        # anything completed) leaves B with no feasible host.
        ctg = CTG()
        ctg.add_task(make_task("a", {"risc": 5.0}))
        ctg.add_task(make_task("b", {"dsp": 5.0}))
        ctg.add_edge(CommEdge("a", "b", volume=64.0))
        acg = ACG(Mesh2D(1, 2), pe_types=["risc", "dsp"], link_bandwidth=64.0)
        committed = eas_schedule(ctg, acg)
        plan = FaultPlan(name="kill-dsp", pe_faults=(PEFault(pe=1, time=0.0),))
        with pytest.raises(UnsurvivableFaultError):
            inject_and_recover(committed, plan)

    def test_unsurvivable_is_clean_scheduling_error(self):
        from repro.errors import SchedulingError

        assert issubclass(UnsurvivableFaultError, SchedulingError)


class TestSmallPlatform:
    def test_2x2_pe_death_recovers(self):
        ctg = CTG()
        prev = None
        for i in range(6):
            task = uniform_task(f"t{i}", 10, 2)
            ctg.add_task(task)
            if prev is not None:
                ctg.add_edge(CommEdge(prev, task.name, volume=128.0))
            prev = task.name
        committed = eas_schedule(ctg, mesh_2x2())
        plan = FaultPlan(
            name="pe",
            pe_faults=(
                PEFault(
                    pe=committed.placement("t5").pe,
                    time=committed.makespan() * 0.5,
                ),
            ),
        )
        result = inject_and_recover(committed, plan)
        assert result.recovery.placement("t5").pe != plan.pe_faults[0].pe


_RECOVER_CAT2_SCRIPT = """
import json
from repro.arch.presets import mesh_3x3
from repro.core.eas import eas_schedule
from repro.ctg.generator import generate_category
from repro.faults.plan import generate_fault_plans
from repro.faults.recovery import UnsurvivableFaultError, inject_and_recover
from repro.schedule.serialization import schedule_to_dict

results = []
for index in range(2):
    ctg = generate_category(2, index, n_tasks=30)
    acg = mesh_3x3()
    committed = eas_schedule(ctg, acg)
    for plan in generate_fault_plans(acg, 6, seed=index, horizon=committed.makespan()):
        try:
            recovery = inject_and_recover(committed, plan).recovery
        except UnsurvivableFaultError as exc:
            results.append([plan.name, str(exc)])
            continue
        document = schedule_to_dict(recovery)
        document["runtime_seconds"] = 0.0
        results.append([plan.name, recovery.total_energy().hex(), document])
print(json.dumps(results, sort_keys=True))
"""


class TestHashSeedIndependence:
    def test_recovery_identical_across_hash_seeds(self):
        """Salvaged placements and kept transactions are replayed in a
        fixed order, so energies (float sums in placement order) and the
        schedule cannot depend on string hashing."""
        import json
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _RECOVER_CAT2_SCRIPT],
                env={**os.environ, "PYTHONPATH": os.path.join(root, "src"), "PYTHONHASHSEED": hash_seed},
                cwd=root,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert sum(len(entry) == 3 for entry in outputs[0]) >= 6  # enough recoveries compared
        assert outputs[0] == outputs[1]
