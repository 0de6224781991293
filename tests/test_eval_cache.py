"""Randomized equivalence harness for the incremental F(i,k) cache.

The incremental evaluation engine must be *observationally invisible*:
for any input, the cached scheduler and the paper-literal reference
(``reference_eas_schedule``) must emit byte-identical schedules — same task
placements, same communication placements, same energy, same deadline
misses, same decision provenance.  The corpus below sweeps a seeded
``ctg/generator`` family across deadline tightness (category I and II),
platform heterogeneity (type cycles of 2–6 entries over the standard PE
catalogue) and mesh sizes, and includes graphs that trigger Rule-3
performance rescues and Step-3 search-and-repair.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch.presets import hetero_mesh, mesh_3x3, mesh_4x4
from repro.core.eas import EASConfig, LevelBasedScheduler, eas_base_schedule, eas_schedule
from repro.core.reference import LiteralTables, reference_eas_schedule, reference_level_schedule
from repro.core.slack import compute_budgets
from repro.ctg.generator import GeneratorConfig, generate_category, generate_ctg
from repro.ctg.graph import CTG
from repro.faults.degraded import DegradedACG
from repro.faults.plan import FaultPlan, LinkFault, generate_fault_plans
from repro.faults.recovery import inject_and_recover
from repro.schedule.serialization import schedule_to_dict
from tests.conftest import make_task

#: Platform type cycles covering 2–6 PE-type entries (2–4 distinct
#: classes; 5/6-entry cycles repeat classes, shifting the type mix).
TYPE_CYCLES: List[Tuple[str, ...]] = [
    ("cpu", "arm"),
    ("dsp", "risc", "cpu"),
    ("cpu", "dsp", "arm", "risc"),
    ("cpu", "dsp", "arm", "risc", "cpu"),
    ("cpu", "dsp", "arm", "risc", "dsp", "arm"),
]

#: (mesh rows, cols) per corpus slot; small enough to keep the harness
#: fast, large enough that link contention and footprints overlap.
MESHES = [(3, 3), (4, 4)]

N_GRAPHS = 24


def _corpus():
    """Yield ``(ctg, acg)`` pairs for every corpus slot."""
    for i in range(N_GRAPHS):
        category = 1 if i % 2 == 0 else 2
        cycle = TYPE_CYCLES[i % len(TYPE_CYCLES)]
        rows, cols = MESHES[i % len(MESHES)]
        ctg = generate_category(
            category,
            i,
            n_tasks=24 + 4 * (i % 5),
            pe_type_names=tuple(sorted(set(cycle))),
        )
        acg = hetero_mesh(rows, cols, type_cycle=cycle, shuffle_seed=200 + i)
        yield ctg, acg


def _run(ctg, acg, scheduler=eas_schedule):
    ins = obs.Instrumentation.enabled()
    with obs.activate(ins):
        schedule = scheduler(ctg, acg)
    return schedule, ins


def _assert_identical(naive, cached, name: str) -> None:
    assert cached.task_placements == naive.task_placements, name
    assert cached.comm_placements == naive.comm_placements, name
    assert cached.total_energy() == naive.total_energy(), name
    assert cached.deadline_misses() == naive.deadline_misses(), name
    assert cached.provenance == naive.provenance, name


class TestEquivalenceCorpus:
    def test_cached_and_naive_schedules_identical(self):
        rescues = 0
        repairs = 0
        hits = 0.0
        for ctg, acg in _corpus():
            naive, naive_ins = _run(ctg, acg, reference_eas_schedule)
            cached, cached_ins = _run(ctg, acg)
            _assert_identical(naive, cached, ctg.name)
            # The naive path must never touch the cache counters.
            assert naive_ins.metrics.counter("eas.cache_hits").value == 0
            hits += cached_ins.metrics.counter("eas.cache_hits").value
            rescues += cached_ins.metrics.counter("eas.rescues").value
            # Step 3 ran iff the level schedule missed a deadline.
            base = eas_base_schedule(ctg, acg)
            if base.deadline_misses():
                repairs += 1
        # The corpus must exercise the interesting paths, or the
        # equivalence claim is weaker than advertised.
        assert hits > 0, "corpus never hit the evaluation cache"
        assert rescues > 0, "corpus never triggered a Rule-3 rescue"
        assert repairs > 0, "corpus never triggered Step-3 repair"

    def test_cached_validates_structurally(self):
        for i, (ctg, acg) in enumerate(_corpus()):
            if i % 6:
                continue  # spot-check: full validation is O(n^2)-ish
            cached, _ = _run(ctg, acg)
            cached.validate()


class TestCacheEffectiveness:
    def test_cache_cuts_full_evaluations(self):
        ctg = generate_category(1, 5, n_tasks=80)
        acg = hetero_mesh(4, 4, shuffle_seed=105)
        naive, naive_ins = _run(ctg, acg, reference_eas_schedule)
        cached, cached_ins = _run(ctg, acg)
        _assert_identical(naive, cached, ctg.name)
        naive_evals = naive_ins.metrics.counter("eas.evaluations").value
        cached_evals = cached_ins.metrics.counter("eas.evaluations").value
        assert cached_evals < naive_evals / 1.5
        assert cached_ins.metrics.counter("eas.cache_hits").value > 0
        assert cached_ins.metrics.counter("eas.cache_invalidations").value > 0
        # A recorded run probes every PE of each committed task so its
        # decision lists every candidate; a plain run probes far fewer.
        plain_ins = obs.Instrumentation.disabled()
        with obs.activate(plain_ins):
            plain = eas_schedule(ctg, acg)
        assert _schedule_json(plain) == _schedule_json(cached)
        assert plain_ins.metrics.counter("eas.evaluations").value < naive_evals / 5
        assert plain_ins.metrics.counter("eas.cache_hits").value > 0

    def test_fixed_delay_ablation_equivalent_too(self):
        # With contention off the footprint degenerates to the PE alone;
        # invalidation must still be sound.
        ctg = generate_category(2, 7, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=207)
        naive = reference_eas_schedule(ctg, acg, EASConfig(contention_aware=False))
        cached = eas_schedule(ctg, acg, EASConfig(contention_aware=False))
        assert cached.task_placements == naive.task_placements
        assert cached.comm_placements == naive.comm_placements


class TestPathCacheEquivalence:
    """The path-table cache must be observationally invisible too.

    Same contract as the F(i,k) cache above: over the whole corpus,
    scheduling with the version-keyed path cache (production) and with
    the literal re-merge-per-probe reference must be bit-identical in
    every output.
    """

    def test_cached_and_literal_schedules_identical(self):
        hits = 0.0
        horizon = 0.0
        for ctg, acg in _corpus():
            literal, literal_ins = _run(ctg, acg, reference_eas_schedule)
            cached, cached_ins = _run(ctg, acg)
            _assert_identical(literal, cached, ctg.name)
            # The literal path must never touch the cache counters.
            assert literal_ins.metrics.counter("comm.path_cache_hits").value == 0
            assert literal_ins.metrics.counter("comm.horizon_fast_path").value == 0
            # The cached path must do strictly less merge work.
            assert (
                cached_ins.metrics.counter("comm.merge_intervals").value
                < literal_ins.metrics.counter("comm.merge_intervals").value
            ), ctg.name
            hits += cached_ins.metrics.counter("comm.path_cache_hits").value
            horizon += cached_ins.metrics.counter("comm.horizon_fast_path").value
        assert hits > 0, "corpus never hit the path-table cache"
        assert horizon > 0, "corpus never took the horizon fast path"

    def test_both_caches_off_still_identical(self):
        # The two caches compose: Step 2 with both on, with only the
        # evaluation cache on, and with both off must agree.
        ctg = generate_category(2, 3, n_tasks=40)
        acg = hetero_mesh(3, 3, shuffle_seed=203)
        budgets = compute_budgets(ctg, acg)
        both_on = LevelBasedScheduler(ctg, acg, budgets).run()
        eval_cache_only = LevelBasedScheduler(ctg, acg, budgets, tables=LiteralTables()).run()
        both_off = reference_level_schedule(ctg, acg, budgets)
        _assert_identical(both_off, both_on, "cache=on pathcache=on")
        _assert_identical(both_off, eval_cache_only, "cache=on pathcache=off")


# -- energy-ordered probing -----------------------------------------------------
#
# Step 2 walks each ready task's PEs in (selection energy, PE) order and
# stops once Rule 4 is decided.  The paper-literal reference probes every
# (ready task, PE) pair, so it is the oracle for the walk.


def _schedule_json(schedule) -> str:
    """Schedule JSON without the wall-clock field and the provenance."""
    document = schedule_to_dict(schedule)
    document.pop("runtime_seconds")
    document.pop("provenance", None)
    return json.dumps(document, sort_keys=True)


def _level_pair(ctg, acg, recorded: bool):
    """``(production, reference)`` Step-2 schedules under one instrumentation."""
    budgets = compute_budgets(ctg, acg)
    make = obs.Instrumentation.enabled if recorded else obs.Instrumentation.disabled
    ins = make()
    with obs.activate(ins):
        production = LevelBasedScheduler(ctg, acg, budgets).run()
    ref_ins = make()
    with obs.activate(ref_ins):
        reference = reference_level_schedule(ctg, acg, budgets)
    return production, reference, ins, ref_ins


_energy_order = LevelBasedScheduler._energy_order


def _exhaustive_order(self, task_name):
    """An energy order that never stops the walk: every PE is probed."""
    return [(-math.inf, pe) for _energy, pe in _energy_order(self, task_name)]


class _EnergyChecked(LevelBasedScheduler):
    """Asserts that every probe's energy is the one the walk sorted by."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.predicted = {}
        self.unroutable_probes = 0
        self.probes = 0
        self.sequence = []

    def _energy_order(self, task_name):
        order = super()._energy_order(task_name)
        for energy, pe in order:
            self.predicted[(task_name, pe)] = energy
        return order

    def _evaluate(self, task_name, pe_index):
        evaluation = super()._evaluate(task_name, pe_index)
        predicted = self.predicted[(task_name, pe_index)]
        self.probes += 1
        self.sequence.append((task_name, pe_index))
        if evaluation is None:
            assert predicted == math.inf, (task_name, pe_index)
            self.unroutable_probes += 1
        else:
            assert evaluation.energy == predicted, (task_name, pe_index)
        return evaluation


def _corner_cut_platform():
    """mesh_3x3 with both channels of tile (0, 0) cut: PE 0 is alive but
    no route leads into or out of it, so it is unroutable from every
    sender placed elsewhere."""
    plan = FaultPlan(
        name="corner",
        link_faults=(
            LinkFault(src=(0, 0), dst=(0, 1), time=0.0),
            LinkFault(src=(0, 0), dst=(1, 0), time=0.0),
        ),
    )
    return DegradedACG(mesh_3x3(), plan)


class TestEnergyOrderedProbing:
    def test_corpus_byte_identical_to_reference_level_schedule(self):
        probes = reference_probes = 0
        for ctg, acg in _corpus():
            production, reference, ins, ref_ins = _level_pair(ctg, acg, recorded=False)
            assert _schedule_json(production) == _schedule_json(reference), ctg.name
            probes += ins.metrics.counter("eas.evaluations").value
            reference_probes += ref_ins.metrics.counter("eas.evaluations").value
        # The walk must actually skip probes, or this proves nothing.
        assert probes < reference_probes / 3

    def test_corpus_recorded_runs_identical_with_every_candidate(self):
        for ctg, acg in list(_corpus())[::4]:
            production, reference, _, _ = _level_pair(ctg, acg, recorded=True)
            assert _schedule_json(production) == _schedule_json(reference), ctg.name
            assert production.provenance == reference.provenance, ctg.name
            # Every decision lists the task's every usable PE.
            for decision in production.provenance:
                usable = [
                    pe.index for pe in acg.pes
                    if ctg.task(decision.task).cost_on(pe.type_name).feasible
                ]
                listed = sorted([decision.pe] + [c.pe for c in decision.candidates])
                assert listed == usable, decision.task

    def test_plain_and_recorded_runs_same_schedule(self):
        cases = [
            (generate_category(1, 0, n_tasks=120), mesh_4x4(shuffle_seed=100)),
            (generate_category(1, 3, n_tasks=120), mesh_4x4(shuffle_seed=103)),
            (generate_category(2, 0, n_tasks=60).with_scaled_deadlines(0.75),
             mesh_4x4(shuffle_seed=100)),
            (generate_category(2, 5, n_tasks=60), mesh_4x4(shuffle_seed=105)),
        ]
        for ctg, acg in cases:
            plain_ins = obs.Instrumentation.disabled()
            with obs.activate(plain_ins):
                plain = eas_schedule(ctg, acg)
            recorded_ins = obs.Instrumentation.enabled()
            with obs.activate(recorded_ins):
                recorded = eas_schedule(ctg, acg)
            assert _schedule_json(plain) == _schedule_json(recorded), ctg.name
            assert not plain.provenance and len(recorded.provenance) == ctg.n_tasks
            # Recorded runs probe the committed task's skipped PEs too.
            assert (
                recorded_ins.metrics.counter("eas.evaluations").value
                > plain_ins.metrics.counter("eas.evaluations").value
            )

    def test_probe_energy_equals_order_energy_bit_for_bit(self):
        checked = 0
        for ctg, acg in list(_corpus())[::3]:
            scheduler = _EnergyChecked(ctg, acg, compute_budgets(ctg, acg))
            scheduler.run()
            checked += scheduler.probes
        assert checked > 0

    def test_unroutable_pes_are_probed_and_dropped(self):
        acg = _corner_cut_platform()
        ctg = generate_ctg(GeneratorConfig(n_tasks=30, seed=4, level_width=3.0))
        budgets = compute_budgets(ctg, acg)
        scheduler = _EnergyChecked(ctg, acg, budgets)
        production = scheduler.run()
        # Some walk reached the cut-off PE, and its probe came back None.
        assert scheduler.unroutable_probes > 0
        reference = reference_level_schedule(ctg, acg, budgets)
        assert _schedule_json(production) == _schedule_json(reference)

    def test_recovery_matches_exhaustive_walk(self, monkeypatch):
        ctg = generate_ctg(GeneratorConfig(n_tasks=40, seed=11, level_width=4.0))
        committed = eas_schedule(ctg, mesh_3x3())
        horizon = committed.makespan()
        pe_fault = generate_fault_plans(committed.acg, 1, seed=7, horizon=horizon, kinds=("pe",))[0]
        cut = generate_fault_plans(committed.acg, 1, seed=8, horizon=horizon, kinds=("link",))[0]
        plan = FaultPlan(
            name="pe+link", seed=7, pe_faults=pe_fault.pe_faults, link_faults=cut.link_faults
        )
        walk_ins = obs.Instrumentation.disabled()
        with obs.activate(walk_ins):
            walked = inject_and_recover(committed, plan).recovery
        monkeypatch.setattr(LevelBasedScheduler, "_energy_order", _exhaustive_order)
        full_ins = obs.Instrumentation.disabled()
        with obs.activate(full_ins):
            exhaustive = inject_and_recover(committed, plan).recovery
        assert _schedule_json(walked) == _schedule_json(exhaustive)
        assert (
            walk_ins.metrics.counter("eas.evaluations").value
            < full_ins.metrics.counter("eas.evaluations").value
        )


def _tied_ctg(n_tasks, seed, n_types, laxity, pe_types):
    """A CTG whose tasks share one or two cost tables and one volume."""
    return generate_ctg(
        GeneratorConfig(
            n_tasks=n_tasks,
            seed=seed,
            n_task_types=n_types,
            base_time_range=(100.0, 100.0),
            power_range=(1.0, 1.0),
            volume_range=(8_000.0, 8_000.0),
            time_jitter=0.0,
            affinity_probability=0.0,
            deadline_laxity=laxity,
            level_width=4.0,
            pe_type_names=pe_types,
        )
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_tasks=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
    n_types=st.integers(min_value=1, max_value=2),
    laxity=st.sampled_from([0.6, 1.0, 1.6, 3.0]),
    pe_types=st.sampled_from([("cpu",), ("cpu", "dsp"), ("arm", "risc")]),
    mesh=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
)
def test_energy_ties_match_reference(n_tasks, seed, n_types, laxity, pe_types, mesh):
    # Same-type PEs at equal hop counts and equal volumes tie on energy:
    # the strict `>` stop and the (energy, finish, pe) tie-break decide.
    ctg = _tied_ctg(n_tasks, seed, n_types, laxity, pe_types)
    acg = hetero_mesh(*mesh, type_cycle=pe_types, shuffle_seed=seed)
    production, reference, _, _ = _level_pair(ctg, acg, recorded=False)
    assert _schedule_json(production) == _schedule_json(reference)


def test_tied_platform_really_ties():
    ctg = _tied_ctg(20, 3, 1, 1.0, ("cpu", "dsp"))
    acg = hetero_mesh(3, 3, type_cycle=("cpu", "dsp"), shuffle_seed=3)
    scheduler = _EnergyChecked(ctg, acg, compute_budgets(ctg, acg))
    scheduler.run()
    energies = {}
    for (task, _pe), energy in scheduler.predicted.items():
        energies.setdefault(task, []).append(energy)
    assert any(len(set(values)) < len(values) for values in energies.values())


def test_walk_uses_select_candidates_eps_test():
    # Two source tasks on a 2x2 mesh typed cpu/dsp/arm/risc (PEs 0..3).
    # A's cpu finish is BD + EPS/2 (feasible), its dsp finish BD + 1.5 EPS
    # (not); B outbids A on regret (30 > 20) and takes the cpu first.
    # A walk whose feasibility test differed from select_candidate's by
    # an EPS would see A with a single feasible PE (regret inf) and
    # commit A first, or would probe A's risc PE needlessly.
    ctg = CTG(name="eps")
    ctg.add_task(make_task(
        "a",
        {"cpu": 100.0 + 0.5e-9, "dsp": 100.0 + 1.5e-9, "arm": 100.0, "risc": 50.0},
        {"cpu": 10.0, "dsp": 20.0, "arm": 30.0, "risc": 40.0},
    ))
    ctg.add_task(make_task(
        "b",
        {"cpu": 100.0, "dsp": 100.0, "arm": 100.0, "risc": 100.0},
        {"cpu": 10.0, "dsp": 40.0, "arm": 50.0, "risc": 60.0},
    ))
    acg = hetero_mesh(2, 2, type_cycle=("cpu", "dsp", "arm", "risc"))
    budgets = compute_budgets(ctg, acg)
    budgets = {
        "a": replace(budgets["a"], budgeted_deadline=100.0),
        "b": replace(budgets["b"], budgeted_deadline=1e6),
    }
    scheduler = _EnergyChecked(ctg, acg, budgets)
    schedule = scheduler.run()
    assert schedule.mapping() == {"a": 2, "b": 0}
    # A: cpu, dsp, arm then stop (risc's 40 > 30); B: cpu, dsp then stop.
    # After B's commit A re-probes the cpu and walks on to the risc.
    assert scheduler.sequence == [
        ("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("a", 0), ("a", 3)
    ]
    assert _schedule_json(schedule) == _schedule_json(
        reference_level_schedule(ctg, acg, budgets)
    )
