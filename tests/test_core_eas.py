"""Tests for Step 2 (level-based scheduling) and the EAS driver."""


import pytest

from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.eas import EASConfig, LevelBasedScheduler, eas_base_schedule, eas_schedule
from repro.core.slack import compute_budgets
from repro.ctg.graph import CTG
from repro.ctg.task import Task, TaskCosts

from tests.conftest import make_task, uniform_task


def acg4() -> ACG:
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])


class TestBasicScheduling:
    def test_single_task(self):
        ctg = CTG()
        ctg.add_task(
            make_task(
                "solo",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=1000,
            )
        )
        schedule = eas_base_schedule(ctg, acg4())
        placement = schedule.placement("solo")
        # Plenty of slack: the cheapest PE (arm) must win.
        assert schedule.acg.pe(placement.pe).type_name == "arm"
        assert placement.start == 0
        schedule.validate()

    def test_tight_deadline_forces_fast_pe(self):
        ctg = CTG()
        ctg.add_task(
            make_task(
                "solo",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=12,
            )
        )
        schedule = eas_base_schedule(ctg, acg4())
        assert schedule.acg.pe(schedule.placement("solo").pe).type_name == "cpu"
        schedule.validate()

    def test_intermediate_deadline_picks_mid_pe(self):
        ctg = CTG()
        ctg.add_task(
            make_task(
                "solo",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=25,
            )
        )
        schedule = eas_base_schedule(ctg, acg4())
        # dsp (20 <= 25) is the cheapest deadline-feasible option.
        assert schedule.acg.pe(schedule.placement("solo").pe).type_name == "dsp"

    def test_chain_schedule_is_valid(self, chain_ctg):
        schedule = eas_base_schedule(chain_ctg, acg4())
        schedule.validate()
        assert schedule.is_complete

    def test_diamond_schedule_is_valid(self, diamond_ctg):
        schedule = eas_base_schedule(diamond_ctg, acg4())
        schedule.validate()

    def test_parallel_tasks_no_pe_overlap(self, parallel_ctg):
        schedule = eas_base_schedule(parallel_ctg, acg4())
        schedule.validate()

    def test_infeasible_task_rejected(self):
        from repro.errors import ReproError

        ctg = CTG()
        ctg.add_task(Task(name="alien", costs={"gpu": TaskCosts(1, 1)}))
        # Raised at budget time (CTGError) — any library error is fine,
        # as long as it is not a silent bad schedule.
        with pytest.raises(ReproError):
            eas_base_schedule(ctg, acg4())


class TestCommunicationAwareness:
    def test_colocating_saves_comm_energy(self):
        """A huge transfer pulls the consumer onto the producer's tile."""
        ctg = CTG()
        ctg.add_task(uniform_task("prod", 100, 10, deadline=100_000))
        ctg.add_task(uniform_task("cons", 100, 10, deadline=100_000))
        ctg.connect("prod", "cons", volume=10_000_000)
        schedule = eas_base_schedule(ctg, acg4())
        assert (
            schedule.placement("prod").pe == schedule.placement("cons").pe
        ), "uniform compute costs: only comm energy differs, so co-locate"
        assert schedule.communication_energy() == 0.0

    def test_contention_serialises_sharing_transactions(self):
        """Two transfers into one tile over the same link can't overlap."""
        acg = ACG(Mesh2D(1, 3), pe_types=["cpu", "cpu", "cpu"], link_bandwidth=10.0)
        ctg = CTG()
        ctg.add_task(Task("a", costs={"cpu": TaskCosts(10, 1)}))
        ctg.add_task(Task("b", costs={"cpu": TaskCosts(10, 1)}))
        ctg.add_task(Task("join", costs={"cpu": TaskCosts(10, 1)}))
        ctg.connect("a", "join", volume=500)  # 50 time units each
        ctg.connect("b", "join", volume=500)
        schedule = eas_base_schedule(ctg, acg)
        schedule.validate_structure()
        comms = [
            schedule.comm("a", "join"),
            schedule.comm("b", "join"),
        ]
        moving = [c for c in comms if not c.is_local]
        # If both senders were placed off-tile on the same side, their
        # shared-link transfers must not overlap in time.
        for i in range(len(moving)):
            for j in range(i + 1, len(moving)):
                shared = set(moving[i].links) & set(moving[j].links)
                if shared:
                    assert (
                        moving[i].finish <= moving[j].start + 1e-9
                        or moving[j].finish <= moving[i].start + 1e-9
                    )


class TestSelectionRules:
    def test_forced_single_pe_scheduled_with_infinite_regret(self):
        """A task feasible on a single PE type must still be placed."""
        ctg = CTG()
        ctg.add_task(Task("picky", costs={"dsp": TaskCosts(10, 5)}, deadline=1000))
        ctg.add_task(
            make_task(
                "easy",
                {"cpu": 10, "dsp": 10, "arm": 10, "risc": 10},
                {"cpu": 10, "dsp": 10, "arm": 10, "risc": 10},
                deadline=1000,
            )
        )
        schedule = eas_base_schedule(ctg, acg4())
        assert schedule.acg.pe(schedule.placement("picky").pe).type_name == "dsp"
        schedule.validate()

    def test_violating_task_gets_fastest_pe(self):
        """With an impossible deadline the scheduler still minimises F."""
        ctg = CTG()
        ctg.add_task(
            make_task(
                "rush",
                {"cpu": 10, "dsp": 20, "arm": 40, "risc": 30},
                {"cpu": 100, "dsp": 50, "arm": 10, "risc": 25},
                deadline=5,  # unattainable: best finish is 10
            )
        )
        schedule = eas_base_schedule(ctg, acg4())
        assert schedule.acg.pe(schedule.placement("rush").pe).type_name == "cpu"
        assert schedule.deadline_misses() == ["rush"]

    def test_determinism(self, diamond_ctg):
        a = eas_base_schedule(diamond_ctg, acg4())
        b = eas_base_schedule(diamond_ctg, acg4())
        assert a.mapping() == b.mapping()
        assert a.total_energy() == b.total_energy()
        assert {k: (p.start, p.finish) for k, p in a.task_placements.items()} == {
            k: (p.start, p.finish) for k, p in b.task_placements.items()
        }


class TestDriver:
    def test_eas_runs_repair_only_on_misses(self, diamond_ctg):
        schedule = eas_schedule(diamond_ctg, acg4())
        assert schedule.algorithm == "eas"
        schedule.validate()

    def test_repair_disabled(self):
        ctg = CTG()
        ctg.add_task(uniform_task("t", 10, 1, deadline=1))  # hopeless
        cfg = EASConfig(repair=False)
        schedule = eas_schedule(ctg, acg4(), cfg)
        assert schedule.deadline_misses() == ["t"]

    def test_runtime_recorded(self, chain_ctg):
        schedule = eas_schedule(chain_ctg, acg4())
        assert schedule.runtime_seconds > 0

    def test_scheduler_object_reuse_not_required(self, chain_ctg):
        budgets = compute_budgets(chain_ctg, acg4())
        schedule = LevelBasedScheduler(chain_ctg, acg4(), budgets).run()
        assert schedule.is_complete


class TestEvaluationCache:
    def test_naive_and_cached_agree(self, diamond_ctg):
        from repro.core.reference import reference_eas_schedule

        cached = eas_schedule(diamond_ctg, acg4())
        naive = reference_eas_schedule(diamond_ctg, acg4())
        assert cached.task_placements == naive.task_placements
        assert cached.comm_placements == naive.comm_placements

    def test_naive_path_never_touches_cache(self, diamond_ctg):
        from repro import obs
        from repro.core.reference import reference_eas_schedule

        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            reference_eas_schedule(diamond_ctg, acg4(), EASConfig(repair=False))
        assert ins.metrics.counter("eas.cache_hits").value == 0
        assert ins.metrics.counter("eas.cache_invalidations").value == 0
        assert ins.metrics.counter("eas.evaluations").value > 0

    def test_cache_counters_recorded(self):
        from repro import obs
        from repro.ctg.generator import generate_category

        ctg = generate_category(1, 0, n_tasks=30)
        ins = obs.Instrumentation.enabled()
        with obs.activate(ins):
            eas_base_schedule(ctg, acg4())
        assert ins.metrics.counter("eas.cache_hits").value > 0
        # The level_schedule span carries the per-run cache summary.
        spans = [s for s in ins.tracer.spans if s.name == "level_schedule"]
        assert spans and spans[0].attrs["eval_cache"] is True
        assert spans[0].attrs["cache_hits"] == ins.metrics.counter("eas.cache_hits").value
